from __future__ import annotations

import csv
import random
from datetime import date, datetime, timedelta, timezone

import pytest

from modaudit.aggregate import replicate_all
from modaudit.ingest import (
    CorpusManifest,
    IngestError,
    _stream_rows,
    open_corpus,
    open_platform_export,
    write_dump,
    write_export,
)
from modaudit.parallel import parallel_replicate
from modaudit.report import Severity
from modaudit.sor import FIELD_ORDER, QuarantineReason, default_taxonomy
from modaudit.verify import (
    EVENT_FIELD_ORDER,
    KeywordClassifier,
    VerificationFinding,
    VerificationKind,
    reconstruct,
)

from .conftest import make_record, make_row
from .oracles import random_count_claim


def write_rows(path, rows, header=FIELD_ORDER):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row.get(name, "") for name in header])


def records(n, **overrides):
    return [
        make_record(uuid=f"sor-{i:05d}", application_date=date(2024, 1, 5) + timedelta(days=i), **overrides)
        for i in range(n)
    ]


def fix_dates(record):
    # keep content <= application <= created when shifting application dates
    from datetime import datetime, timezone

    return record._replace(
        content_date=record.application_date - timedelta(days=1),
        created_at=datetime(
            record.application_date.year,
            record.application_date.month,
            record.application_date.day,
            12,
            0,
            0,
            tzinfo=timezone.utc,
        ),
    )


class TestOpenCorpus:
    def test_single_file_all_valid(self, tmp_path, taxonomy):
        recs = [fix_dates(r) for r in records(3)]
        write_dump(recs, tmp_path)
        reader = open_corpus(tmp_path, taxonomy)
        out = list(reader)
        assert out == recs
        assert reader.manifest.record_count == 3
        assert reader.manifest.quarantine_count == 0
        assert reader.manifest.date_range == (date(2024, 1, 5), date(2024, 1, 7))

    def test_malformed_row_is_quarantined_not_fatal(self, tmp_path, taxonomy):
        write_rows(tmp_path / "a.csv", [make_row()])
        write_rows(
            tmp_path / "b.csv",
            [make_row(uuid="sor-2"), make_row(uuid="sor-3", decision_type="BOGUS")],
        )
        reader = open_corpus(tmp_path, taxonomy)
        out = list(reader)
        assert [r.uuid for r in out] == ["sor-0000001", "sor-2"]
        assert reader.manifest.record_count == 2
        assert reader.manifest.quarantine_count == 1
        entry = reader.quarantine[0]
        assert entry.reason is QuarantineReason.BAD_ENUM
        assert entry.file == "b.csv"
        assert entry.row_number == 3

    def test_empty_directory(self, tmp_path, taxonomy):
        reader = open_corpus(tmp_path, taxonomy)
        assert list(reader) == []
        assert reader.manifest.record_count == 0
        assert reader.manifest.date_range is None

    def test_files_read_in_name_order(self, tmp_path, taxonomy):
        write_rows(tmp_path / "b.csv", [make_row(uuid="sor-b")])
        write_rows(tmp_path / "a.csv", [make_row(uuid="sor-a")])
        assert [r.uuid for r in open_corpus(tmp_path, taxonomy)] == ["sor-a", "sor-b"]

    def test_two_passes_are_identical(self, tmp_path, taxonomy):
        write_dump([fix_dates(r) for r in records(25)], tmp_path, chunk_size=10)
        reader = open_corpus(tmp_path, taxonomy)
        first = list(reader)
        first_manifest = reader.manifest
        second = list(reader)
        assert first == second
        assert reader.manifest == first_manifest
        assert len(reader.manifest.files) == 3  # 10 + 10 + 5

    def test_partition_merge_preserves_records_and_totals(self, tmp_path, taxonomy):
        recs = [fix_dates(r) for r in records(9)]
        whole = tmp_path / "whole"
        split = tmp_path / "split"
        write_dump(recs, whole)
        assert len(write_dump(recs, split, chunk_size=4)) == 3  # 4 + 4 + 1
        reader_whole = open_corpus(whole, taxonomy)
        reader_split = open_corpus(split, taxonomy)
        assert sorted(r.uuid for r in reader_whole) == sorted(r.uuid for r in reader_split)
        mw, ms = reader_whole.manifest, reader_split.manifest
        assert (mw.record_count, mw.quarantine_count, mw.date_range) == (
            ms.record_count,
            ms.quarantine_count,
            ms.date_range,
        )

    def test_manifest_of_three_files_is_the_same_serial_joined_and_parallel(self, tmp_path, taxonomy):
        recs = [fix_dates(r) for r in records(9)]  # 2024-01-05 .. 2024-01-13
        dump = tmp_path / "dump"
        dump.mkdir()
        # quarantined rows in the first and last file, dated outside the kept range
        bad = [make_row(application_date=day, decision_type="BOGUS") for day in ("2024-01-01", "2024-02-01")]
        for n, extra in enumerate(([bad[0]], [], [bad[1]])):
            write_rows(dump / f"part-{n:05d}.csv", [r.to_row() for r in recs[3 * n : 3 * n + 3]] + extra)
        with open(dump / "part-00002.csv", "a", encoding="utf-8") as fh:
            fh.write("not,a,row\n")
        expected = CorpusManifest(
            files=("part-00000.csv", "part-00001.csv", "part-00002.csv"),
            record_count=9,
            quarantine_count=3,
            date_range=(date(2024, 1, 5), date(2024, 1, 13)),
        )

        serial = open_corpus(dump, taxonomy)
        assert list(serial) == recs
        assert serial.manifest == expected

        joined = open_corpus(dump, taxonomy)
        parts = joined.split()
        assert [r for part in parts for r in part] == recs
        assert [p.manifest.quarantine_count for p in parts] == [1, 0, 2]
        joined.join(parts)
        assert joined.manifest == expected
        assert joined.quarantine == serial.quarantine

        parallel = open_corpus(dump, taxonomy)
        claims = [random_count_claim(random.Random(3), "all")]
        assert parallel_replicate(parallel, claims, 2) == replicate_all(claims, recs)
        assert parallel.manifest == expected
        assert parallel.quarantine == serial.quarantine

    def test_unreadable_file_aborts_naming_it(self, tmp_path, taxonomy):
        trap = tmp_path / "oops.csv"
        trap.mkdir()  # a directory with a .csv name: open() fails
        reader = open_corpus(tmp_path, taxonomy)
        with pytest.raises(IngestError, match="oops.csv"):
            list(reader)

    def test_wrong_header_aborts(self, tmp_path, taxonomy):
        (tmp_path / "a.csv").write_text("foo,bar\n1,2\n", encoding="utf-8")
        with pytest.raises(IngestError, match="header"):
            list(open_corpus(tmp_path, taxonomy))

    def test_missing_directory(self, tmp_path, taxonomy):
        with pytest.raises(IngestError):
            open_corpus(tmp_path / "nope", taxonomy)

    def test_quarantine_sink_receives_entries(self, tmp_path, taxonomy):
        write_rows(tmp_path / "a.csv", [make_row(category="")])
        got = []
        reader = open_corpus(tmp_path, taxonomy, got.append)
        assert list(reader) == []
        assert len(got) == 1
        assert reader.quarantine == []  # sink bypasses the local list
        line = got[0].to_json_line()
        assert '"reason": "MISSING_FIELD"' in line


def make_event_row(**overrides):
    row = {
        "content_id": "c-1",
        "puid": "p-1",
        "content_type": "TEXT",
        "content_created": "2024-01-10",
        "moderated_at": "2024-01-12T08:00:00Z",
        "visibility_status": "REMOVED",
        "platform_categories": "hate_speech",
        "automated_detection": "true",
        "automated_decision": "FULLY",
        "annotations": "",
        "payload": "sample <<hate_speech>>",
    }
    row.update(overrides)
    return row


class TestOpenPlatformExport:
    def test_well_formed_events(self, tmp_path):
        path = tmp_path / "export.csv"
        write_rows(
            path,
            [make_event_row(content_id=f"c-{i}", puid=f"p-{i}") for i in range(5)],
            header=EVENT_FIELD_ORDER,
        )
        reader = open_platform_export(path)
        events = list(reader)
        assert [e.content_id for e in events] == [f"c-{i}" for i in range(5)]
        assert reader.event_count == 5
        assert reader.quarantine_count == 0

    def test_moderation_before_creation_is_date_order(self, tmp_path):
        path = tmp_path / "export.csv"
        write_rows(
            path,
            [make_event_row(content_created="2024-01-20")],
            header=EVENT_FIELD_ORDER,
        )
        reader = open_platform_export(path)
        assert list(reader) == []
        assert reader.quarantine[0].reason is QuarantineReason.DATE_ORDER

    def test_moderated_range_and_counts_cover_kept_events_only(self, tmp_path):
        path = tmp_path / "export.csv"
        rows = [
            make_event_row(content_id="c-0", moderated_at="2024-01-12T08:00:00Z"),
            # quarantined rows, moderated before and after every kept event
            make_event_row(content_id="c-1", moderated_at="2024-01-11T00:00:00Z", content_type="BOGUS"),
            make_event_row(content_id="c-2", moderated_at="2024-01-10T23:59:59Z"),
            make_event_row(content_id="c-3", moderated_at="2024-01-13T07:00:00Z", content_created="2024-01-14"),
            make_event_row(content_id="c-4", moderated_at="2024-01-11T10:30:00Z"),
        ]
        write_rows(path, rows, header=EVENT_FIELD_ORDER)
        reader = open_platform_export(path)
        with pytest.raises(RuntimeError, match="complete pass"):
            reader.event_count
        assert [e.content_id for e in reader] == ["c-0", "c-2", "c-4"]
        assert (reader.event_count, reader.quarantine_count) == (3, 2)
        assert reader.manifest.date_range == (
            datetime(2024, 1, 10, 23, 59, 59, tzinfo=timezone.utc),
            datetime(2024, 1, 12, 8, tzinfo=timezone.utc),
        )
        assert [e.reason for e in reader.quarantine] == [QuarantineReason.BAD_ENUM, QuarantineReason.DATE_ORDER]

    def test_caller_side_window_filter(self, tmp_path):
        path = tmp_path / "export.csv"
        rows = [
            make_event_row(content_id=f"c-{i}", puid=f"p-{i}", moderated_at=f"2024-01-{10 + i:02d}T08:00:00Z")
            for i in range(6)
        ]
        write_rows(path, rows, header=EVENT_FIELD_ORDER)
        events = list(open_platform_export(path))
        cutoff = [e for e in events if e.moderated_at.day < 13]
        assert [e.content_id for e in cutoff] == ["c-0", "c-1", "c-2"]

    def test_round_trip_via_writer(self, tmp_path):
        path = tmp_path / "export.csv"
        write_rows(path, [make_event_row()], header=EVENT_FIELD_ORDER)
        events = list(open_platform_export(path))
        back = tmp_path / "back.csv"
        write_export(events, back)
        assert list(open_platform_export(back)) == events


def dump_source(tmp_path):
    path = tmp_path / "dump" / "part-00000.csv"
    write_dump([fix_dates(r) for r in records(2)], path.parent)
    return path, lambda on_quarantine: open_corpus(path.parent, default_taxonomy(), on_quarantine)


def export_source(tmp_path):
    path = tmp_path / "export.csv"
    write_rows(path, [make_event_row(content_id=f"c-{i}", puid=f"p-{i}") for i in range(2)], EVENT_FIELD_ORDER)
    return path, lambda on_quarantine: open_platform_export(path, on_quarantine)


@pytest.mark.parametrize("source", [dump_source, export_source], ids=["dump", "export"])
class TestOneRowReader:
    """Dump files and platform exports follow the same rules for bad rows."""

    def test_row_of_the_wrong_width_is_quarantined_at_its_line(self, tmp_path, source):
        path, open_reader = source(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not,a,row\n")
        got = []
        assert len(list(open_reader(got.append))) == 2
        assert [(e.reason, e.field, e.file, e.row_number) for e in got] == [
            (QuarantineReason.MISSING_FIELD, "row_shape", path.name, 4)
        ]
        assert list(got[0].raw_row.values()) == ["not", "a", "row"]

    def test_wrong_header_aborts(self, tmp_path, source):
        path, open_reader = source(tmp_path)
        path.write_text("foo,bar\n1,2\n", encoding="utf-8")
        with pytest.raises(IngestError, match="header"):
            list(open_reader(None))


def one_record_of_each_type(tmp_path) -> dict[str, tuple]:
    """A SorRecord, a ModerationEvent, a ReconstructedSor and a
    VerificationFinding, by type name."""
    path = tmp_path / "one-event.csv"
    write_rows(path, [make_event_row()], header=EVENT_FIELD_ORDER)
    (event,) = open_platform_export(path)
    (rebuilt,) = reconstruct([event], KeywordClassifier.from_taxonomy(default_taxonomy()), None)
    finding = VerificationFinding(VerificationKind.CONSISTENT, Severity.INFO, "c-1", "sor-1")
    return {type(item).__name__: item for item in (make_record(), event, rebuilt, finding)}


RECORD_TYPES = ("SorRecord", "ModerationEvent", "ReconstructedSor", "VerificationFinding")


class TestRecordTuples:
    """Records are named tuples, and a row fault is a plain (reason, field)
    tuple: _stream_rows tells them apart by exact class."""

    def stream(self, tmp_path, result):
        path = tmp_path / "rows.csv"
        path.write_text("column\nvalue\n", encoding="utf-8")
        quarantined, manifests = [], []

        def rows():
            manifest = yield from _stream_rows(path, ("column",), lambda row: result, lambda r: 0, quarantined.append)
            manifests.append(manifest)

        got = list(rows())
        (manifest,) = manifests
        return got, quarantined, (manifest.record_count, manifest.quarantine_count)

    @pytest.mark.parametrize("name", RECORD_TYPES)
    def test_every_record_type_is_yielded_as_a_record(self, tmp_path, name):
        record = one_record_of_each_type(tmp_path)[name]
        got, quarantined, counts = self.stream(tmp_path, record)
        assert got == [record] and got[0] is record
        assert (quarantined, counts) == ([], (1, 0))

    def test_a_fault_is_never_yielded_as_a_record(self, tmp_path):
        got, quarantined, counts = self.stream(tmp_path, (QuarantineReason.BAD_DATE, "column"))
        assert got == []
        assert [(e.reason, e.field, e.raw_row) for e in quarantined] == [
            (QuarantineReason.BAD_DATE, "column", {"column": "value"})
        ]
        assert counts == (0, 1)

    @pytest.mark.parametrize("name", RECORD_TYPES)
    def test_records_refuse_assignment_and_hash_by_value(self, tmp_path, name):
        record = one_record_of_each_type(tmp_path)[name]
        twin = type(record)(*record)
        assert twin is not record and twin == record and hash(twin) == hash(record)
        assert len({record, twin}) == 1
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], twin[0])


class TestWriteDump:
    def test_chunks_fill_in_order_without_an_empty_tail(self, tmp_path, taxonomy):
        recs = [fix_dates(r) for r in records(20)]
        paths = write_dump(iter(recs), tmp_path, chunk_size=10)
        assert [p.name for p in paths] == ["part-00000.csv", "part-00001.csv"]
        assert sorted(tmp_path.iterdir()) == paths
        assert list(open_corpus(tmp_path, taxonomy)) == recs
