"""Streaming readers and writers for SoR dump corpora and platform exports.

Readers are single-pass and memory-bounded: rows become typed records as they
stream by, malformed rows go to a quarantine sink, and exact totals land in a
manifest once the pass completes. File order is lexicographic by name and row
order is preserved within a file, so two runs over the same directory produce
identical sequences.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .sor import (
    FIELD_ORDER,
    CategoryTaxonomy,
    QuarantineEntry,
    QuarantineReason,
    SorRecord,
    validate_record,
)
from .verify import EVENT_FIELD_ORDER, ModerationEvent, parse_event_row


class IngestError(RuntimeError):
    """File-level failure: unreadable file or a header that does not match the
    dump format. Row-level problems never raise; they are quarantined."""


@dataclass(frozen=True)
class CorpusManifest:
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


def _check_header(header: list[str] | None, expected: tuple[str, ...], path: Path) -> None:
    if header is None or [h.strip() for h in header] != list(expected):
        raise IngestError(f"{path}: header row does not match the expected column order")


def _first_non_utf8_line(path: Path) -> int:
    # A newline byte never occurs inside a UTF-8 sequence, so lines decode alone.
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


def _undecodable(path: Path, exc: UnicodeDecodeError) -> IngestError:
    return IngestError(f"{path}: line {_first_non_utf8_line(path)}: not valid UTF-8 ({exc.reason})")


def _unparsable(path: Path, line: int, exc: csv.Error) -> IngestError:
    return IngestError(f"{path}: line {line}: malformed CSV ({exc})")


def stream_dump_file(
    path: Path,
    taxonomy: CategoryTaxonomy,
    on_quarantine: Callable[[QuarantineEntry], None],
) -> Iterator[SorRecord]:
    """Stream the valid records of one dump file; malformed rows go to the sink."""
    name = path.name
    n_fields = len(FIELD_ORDER)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            _check_header(header, FIELD_ORDER, path)
            for row in reader:
                if len(row) != n_fields:
                    on_quarantine(
                        QuarantineEntry(
                            reason=QuarantineReason.MISSING_FIELD,
                            field="row_shape",
                            raw_row=dict(zip(FIELD_ORDER, row)),
                            file=name,
                            row_number=reader.line_num,
                        )
                    )
                    continue
                result = validate_record(dict(zip(FIELD_ORDER, row)), taxonomy)
                if isinstance(result, QuarantineEntry):
                    on_quarantine(result.located(name, reader.line_num))
                    continue
                yield result
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    except csv.Error as exc:
        raise _unparsable(path, reader.line_num, exc) from None


class CorpusReader:
    """Iterable over every valid SoR record in a dump directory.

    Iterating runs one full streaming pass; the manifest is available once a
    pass has completed, here or in per-file parts (`split`, `join`).
    Quarantined rows go to `on_quarantine` when given, otherwise they collect
    on `.quarantine`.
    """

    def __init__(
        self,
        path: str | Path,
        taxonomy: CategoryTaxonomy,
        on_quarantine: Callable[[QuarantineEntry], None] | None = None,
    ) -> None:
        self.root = Path(path)
        if not self.root.is_dir():
            raise IngestError(f"{self.root}: corpus path is not a directory")
        self.taxonomy = taxonomy
        # every .csv entry is claimed corpus content; unreadable ones abort loudly
        self.files = sorted(p for p in self.root.iterdir() if p.suffix == ".csv")
        self._sink = on_quarantine
        self.quarantine: list[QuarantineEntry] = []
        self._manifest: CorpusManifest | None = None

    def __iter__(self) -> Iterator[SorRecord]:
        self._manifest = None
        self.quarantine = []
        record_count = 0
        quarantine_count = 0
        min_date: date | None = None
        max_date: date | None = None

        def quarantined(entry: QuarantineEntry) -> None:
            nonlocal quarantine_count
            quarantine_count += 1
            self._quarantined(entry)

        for path in self.files:
            for result in stream_dump_file(path, self.taxonomy, quarantined):
                record_count += 1
                d = result.application_date
                if min_date is None or d < min_date:
                    min_date = d
                if max_date is None or d > max_date:
                    max_date = d
                yield result

        self._manifest = CorpusManifest(
            files=tuple(p.name for p in self.files),
            record_count=record_count,
            quarantine_count=quarantine_count,
            date_range=None if min_date is None else (min_date, max_date),  # type: ignore[arg-type]
        )

    def _quarantined(self, entry: QuarantineEntry) -> None:
        if self._sink is not None:
            self._sink(entry)
        else:
            self.quarantine.append(entry)

    @property
    def manifest(self) -> CorpusManifest:
        if self._manifest is None:
            raise RuntimeError("manifest is available after a complete pass over the corpus")
        return self._manifest

    def split(self) -> list["CorpusReader"]:
        """One reader per file, without a sink, for passes made in other
        processes; `join` takes their outcome back."""
        parts = []
        for path in self.files:
            part = copy.copy(self)
            part.files, part._sink, part.quarantine, part._manifest = [path], None, [], None
            parts.append(part)
        return parts

    def join(self, parts: Sequence["CorpusReader"]) -> None:
        """Take over the quarantine entries and manifests of split parts that
        have each made a pass, as if this reader had made the pass itself."""
        self.quarantine = []
        for part in parts:
            for entry in part.quarantine:
                self._quarantined(entry)
        manifests = [part.manifest for part in parts]
        ranges = [m.date_range for m in manifests if m.date_range is not None]
        self._manifest = CorpusManifest(
            files=tuple(p.name for p in self.files),
            record_count=sum(m.record_count for m in manifests),
            quarantine_count=sum(m.quarantine_count for m in manifests),
            date_range=(min(lo for lo, _ in ranges), max(hi for _, hi in ranges)) if ranges else None,
        )


def open_corpus(
    path: str | Path,
    taxonomy: CategoryTaxonomy,
    on_quarantine: Callable[[QuarantineEntry], None] | None = None,
) -> CorpusReader:
    return CorpusReader(path, taxonomy, on_quarantine)


class ExportReader:
    """Iterable over the moderation events of one platform-export file."""

    def __init__(
        self,
        path: str | Path,
        on_quarantine: Callable[[QuarantineEntry], None] | None = None,
    ) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise IngestError(f"{self.path}: export path is not a file")
        self._sink = on_quarantine
        self.quarantine: list[QuarantineEntry] = []
        self.event_count = 0
        self.quarantine_count = 0

    def __iter__(self) -> Iterator[ModerationEvent]:
        self.quarantine = []
        self.event_count = 0
        self.quarantine_count = 0
        n_fields = len(EVENT_FIELD_ORDER)
        name = self.path.name
        try:
            with open(self.path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                _check_header(header, EVENT_FIELD_ORDER, self.path)
                for row in reader:
                    if len(row) != n_fields:
                        self.quarantine_count += 1
                        self._quarantined(
                            QuarantineEntry(
                                reason=QuarantineReason.MISSING_FIELD,
                                field="row_shape",
                                raw_row=dict(zip(EVENT_FIELD_ORDER, row)),
                                file=name,
                                row_number=reader.line_num,
                            )
                        )
                        continue
                    result = parse_event_row(dict(zip(EVENT_FIELD_ORDER, row)))
                    if isinstance(result, QuarantineEntry):
                        self.quarantine_count += 1
                        self._quarantined(result.located(name, reader.line_num))
                        continue
                    self.event_count += 1
                    yield result
        except OSError as exc:
            raise IngestError(f"cannot read {self.path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _undecodable(self.path, exc) from None
        except csv.Error as exc:
            raise _unparsable(self.path, reader.line_num, exc) from None

    def _quarantined(self, entry: QuarantineEntry) -> None:
        if self._sink is not None:
            self._sink(entry)
        else:
            self.quarantine.append(entry)


def open_platform_export(
    path: str | Path,
    on_quarantine: Callable[[QuarantineEntry], None] | None = None,
) -> ExportReader:
    return ExportReader(path, on_quarantine)


# ---------------------------------------------------------------------------
# Writers (the canonical producers of both CSV formats)
# ---------------------------------------------------------------------------


def write_dump_file(records: Iterable[SorRecord], path: str | Path) -> int:
    """Write one dump CSV file; returns the number of rows written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIELD_ORDER)
        for record in records:
            row = record.to_row()
            writer.writerow([row[name] for name in FIELD_ORDER])
            count += 1
    return count


def write_dump(
    records: Iterable[SorRecord], directory: str | Path, chunk_size: int = 50_000
) -> list[Path]:
    """Write records into a dump directory, chunked into part-NNNNN.csv files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    writer = None
    fh = None
    in_chunk = 0
    try:
        for record in records:
            if writer is None or in_chunk >= chunk_size:
                if fh is not None:
                    fh.close()
                part = directory / f"part-{len(paths):05d}.csv"
                paths.append(part)
                fh = open(part, "w", encoding="utf-8", newline="")
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(FIELD_ORDER)
                in_chunk = 0
            row = record.to_row()
            writer.writerow([row[name] for name in FIELD_ORDER])
            in_chunk += 1
    finally:
        if fh is not None:
            fh.close()
    if not paths:  # an empty corpus still needs one well-formed file
        part = directory / "part-00000.csv"
        with open(part, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(FIELD_ORDER)
        paths.append(part)
    return paths


def write_export(events: Iterable[ModerationEvent], path: str | Path) -> int:
    """Write one platform-export CSV file; returns the number of rows."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVENT_FIELD_ORDER)
        for event in events:
            row = event.to_row()
            writer.writerow([row[name] for name in EVENT_FIELD_ORDER])
            count += 1
    return count
