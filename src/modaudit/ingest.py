"""Streaming readers and writers for SoR dump corpora and platform exports.

Readers are single-pass and memory-bounded: rows become typed records as they
stream by, malformed rows go to a quarantine sink, and exact totals land in a
manifest once the pass completes. File order is lexicographic by name and row
order is preserved within a file, so two runs over the same directory produce
identical sequences.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from functools import partial
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generator, Generic, Iterable, Iterator, Sequence, TypeVar

from .sor import (
    FIELD_ORDER,
    CategoryTaxonomy,
    Fault,
    QuarantineEntry,
    QuarantineReason,
    SorRecord,
    parse_dump_row,
    render_cell,
)

if TYPE_CHECKING:
    from .verify import ModerationEvent

_T = TypeVar("_T")
_application_date = attrgetter("application_date")
_moderated_at = attrgetter("moderated_at")


class IngestError(RuntimeError):
    """File-level failure: an unreadable file, a header that does not match
    the format, non-UTF-8 bytes or malformed CSV. Row-level problems never
    raise; they are quarantined."""


@dataclass(frozen=True)
class CorpusManifest:
    """Totals of a complete pass over CSV files: the rows kept and
    quarantined, and the least and greatest date of the kept records (the
    moderation times, for a platform export)."""

    files: tuple[str, ...]
    record_count: int
    quarantine_count: int
    date_range: tuple[date, date] | None

    def to_dict(self) -> dict[str, object]:
        return {
            "files": list(self.files),
            "record_count": self.record_count,
            "quarantine_count": self.quarantine_count,
            "date_range": None
            if self.date_range is None
            else [self.date_range[0].isoformat(), self.date_range[1].isoformat()],
        }

    @classmethod
    def merge(cls, parts: Sequence["CorpusManifest"]) -> "CorpusManifest":
        """The manifest of the files of `parts`, in order: counts summed, and
        the least and greatest of their ranges."""
        ranges = [p.date_range for p in parts if p.date_range is not None]
        return cls(
            files=tuple(name for p in parts for name in p.files),
            record_count=sum(p.record_count for p in parts),
            quarantine_count=sum(p.quarantine_count for p in parts),
            date_range=(min(lo for lo, _ in ranges), max(hi for _, hi in ranges)) if ranges else None,
        )


def _first_non_utf8_line(path: Path) -> int:
    # A newline byte never occurs inside a UTF-8 sequence, so lines decode alone.
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


def _stream_rows(
    path: Path,
    field_order: tuple[str, ...],
    parse: Callable[[list[str]], _T | Fault],
    key: Callable[[_T], date],
    on_quarantine: Callable[[QuarantineEntry], None],
) -> Generator[_T, None, CorpusManifest]:
    """Stream the parsed rows of one CSV file whose header is `field_order`,
    and return the file's manifest once it is read through: the rows kept and
    quarantined, and the least and greatest `key` of the kept records.

    `parse` gets each row of the right width as its list of strings and
    returns a record or a (reason, field) fault. Rows of the wrong width and
    rows `parse` rejects go to the sink as entries located by file name and
    line; only these rows become a column-name dict. An unreadable file, a
    wrong header, non-UTF-8 bytes or malformed CSV raise IngestError; the
    sink's own OSError passes through.
    """
    name = path.name
    n_fields = len(field_order)
    kept = quarantined = 0
    least = greatest = None
    sink_failure = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != list(field_order):
                raise IngestError(f"{path}: header row does not match the expected column order")
            for row in reader:
                if len(row) == n_fields:
                    result = parse(row)
                    if result.__class__ is not tuple:
                        kept += 1
                        moment = key(result)  # type: ignore[arg-type]
                        if least is None:
                            least = greatest = moment
                        elif moment < least:
                            least = moment
                        elif moment > greatest:
                            greatest = moment
                        yield result  # type: ignore[misc]
                        continue
                    reason, field = result  # type: ignore[misc]
                else:
                    reason, field = QuarantineReason.MISSING_FIELD, "row_shape"
                quarantined += 1
                raw = dict(zip(field_order, row))
                try:
                    on_quarantine(QuarantineEntry(reason, field, raw, name, reader.line_num))
                except OSError as exc:
                    sink_failure = exc
                    raise
    except OSError as exc:
        if exc is sink_failure:
            raise
        raise IngestError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = _first_non_utf8_line(path)
        raise IngestError(f"{path}: line {line}: not valid UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: malformed CSV ({exc})") from None
    date_range = None if least is None else (least, greatest)
    return CorpusManifest((name,), kept, quarantined, date_range)  # type: ignore[arg-type]


class CorpusReader(Generic[_T]):
    """Iterable over the valid records of CSV files of one format, in order.

    Each pass parses rows with `parse` and dates the kept records by `key`.
    The manifest is available once a pass has completed, here or in per-file
    parts (`split`, `join`).
    Quarantined rows go to the `on_quarantine` sink when it is set, otherwise
    they collect on `.quarantine`. `open_corpus` and `open_platform_export` build readers
    of the two formats.
    """

    def __init__(
        self,
        files: Sequence[Path],
        field_order: tuple[str, ...],
        parse: Callable[[list[str]], _T | Fault],
        key: Callable[[_T], date],
        on_quarantine: Callable[[QuarantineEntry], None] | None = None,
    ) -> None:
        self.files = list(files)
        self._format = (field_order, parse, key)
        self.on_quarantine = on_quarantine
        self.quarantine: list[QuarantineEntry] = []
        self._manifest: CorpusManifest | None = None

    def __iter__(self) -> Iterator[_T]:
        self._manifest = None
        self.quarantine = []
        sink = self.on_quarantine or self.quarantine.append
        field_order, parse, key = self._format
        parts: list[CorpusManifest] = []
        for path in self.files:
            parts.append((yield from _stream_rows(path, field_order, parse, key, sink)))
        self._manifest = CorpusManifest.merge(parts)

    @property
    def manifest(self) -> CorpusManifest:
        if self._manifest is None:
            raise RuntimeError("manifest is available after a complete pass over the corpus")
        return self._manifest

    def split(self, count: int) -> list["CorpusReader[_T]"]:
        """`count` readers over contiguous runs of the files, in order, for
        passes made apart; `join` takes their outcome back. The first run,
        which is never longer than the others, passes its quarantine to this
        reader's sink; the others collect theirs."""
        bounds = [len(self.files) * i // count for i in range(count + 1)]
        return [
            type(self)(self.files[lo:hi], *self._format, self.on_quarantine if lo == 0 else None)
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def join(self, parts: Sequence["CorpusReader[_T]"]) -> None:
        """Take over the quarantine entries and manifests of split parts that
        have each made a pass, as if this reader had made the pass itself.
        The first part's entries went to the sink during its pass, if this
        reader has one. Each part's `quarantine` is read once, in order, so
        it may be any iterable of entries, such as entries read back from a
        file."""
        self.quarantine = []
        sink = self.on_quarantine or self.quarantine.append
        for part in parts:
            for entry in part.quarantine:
                sink(entry)
        self._manifest = CorpusManifest.merge([part.manifest for part in parts])


def open_corpus(
    path: str | Path,
    taxonomy: CategoryTaxonomy,
    on_quarantine: Callable[[QuarantineEntry], None] | None = None,
) -> CorpusReader[SorRecord]:
    root = Path(path)
    if not root.is_dir():
        raise IngestError(f"{root}: corpus path is not a directory")
    # every .csv entry is claimed corpus content; unreadable ones abort loudly
    files = sorted(p for p in root.iterdir() if p.suffix == ".csv")
    return CorpusReader(files, FIELD_ORDER, partial(parse_dump_row, taxonomy), _application_date, on_quarantine)


class ExportReader(CorpusReader["ModerationEvent"]):
    """A reader of one platform-export file; its manifest's date range is the
    earliest and latest moderation time."""

    @property
    def event_count(self) -> int:
        return self.manifest.record_count

    @property
    def quarantine_count(self) -> int:
        return self.manifest.quarantine_count


def open_platform_export(
    path: str | Path,
    on_quarantine: Callable[[QuarantineEntry], None] | None = None,
) -> ExportReader:
    # imported here, so that a run that reads only dumps never loads verify
    from .verify import EVENT_FIELD_ORDER, parse_export_row

    path = Path(path)
    if not path.is_file():
        raise IngestError(f"{path}: export path is not a file")
    return ExportReader([path], EVENT_FIELD_ORDER, parse_export_row, _moderated_at, on_quarantine)


# ---------------------------------------------------------------------------
# Writers (the canonical producers of both CSV formats)
# ---------------------------------------------------------------------------


def _write_rows(
    path: Path, field_order: tuple[str, ...], items: Iterable[SorRecord | ModerationEvent]
) -> int:
    """Write one CSV file: the header `field_order`, which is the field order
    of the items, then each item's fields through render_cell; returns the
    number of rows written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(field_order)
        for item in items:
            writer.writerow(map(render_cell, item))
            count += 1
    return count


def write_dump(
    records: Iterable[SorRecord], directory: str | Path, chunk_size: int = 50_000
) -> list[Path]:
    """Write records into a dump directory, chunked into part-NNNNN.csv files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = iter(records)
    paths: list[Path] = []
    # each pass takes the chunk's first record and streams the rest through islice
    for first in records:
        paths.append(directory / f"part-{len(paths):05d}.csv")
        _write_rows(paths[-1], FIELD_ORDER, chain((first,), islice(records, chunk_size - 1)))
    if not paths:  # an empty corpus still needs one well-formed file
        paths.append(directory / "part-00000.csv")
        _write_rows(paths[-1], FIELD_ORDER, ())
    return paths


def write_export(events: Iterable[ModerationEvent], path: str | Path) -> int:
    """Write one platform-export CSV file; returns the number of rows."""
    from .verify import EVENT_FIELD_ORDER

    return _write_rows(Path(path), EVENT_FIELD_ORDER, events)
