"""The positional row parsers against the field-by-field dict oracles.

Both readers validate each row by column position, decode its enum and bool
columns by plain table lookup, and build a column-name dict only for the
rows they quarantine.
These tests stream valid rows and corrupted ones through the readers and
require the records and quarantine entries that the oracles in
tests/oracles.py give for the same rows as dicts.
"""

from __future__ import annotations

import csv
import random
import tempfile
from dataclasses import replace
from datetime import date, datetime, timezone
from functools import partial
from itertools import zip_longest
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modaudit.ingest import CorpusManifest, _stream_rows, open_corpus, open_platform_export
from modaudit.sor import (
    FIELD_ORDER,
    PARSE_CACHE_LIMIT,
    CategoryTaxonomy,
    DecisionType,
    QuarantineEntry,
    QuarantineReason,
    SorRecord,
    parse_dump_row,
    render_cell,
    validate_record,
)
from modaudit.verify import (
    EVENT_FIELD_ORDER,
    ModerationEvent,
    _split_list,
    parse_export_row,
)

from .conftest import make_row
from .oracles import (
    CODES,
    DUMP_HEADER,
    EXPORT_HEADER,
    naive_parse_event_row,
    naive_validate_record,
    random_event,
    random_record,
)

# "other", which random_record draws, is unknown here, and so is "scam" there
TAXONOMY = CategoryTaxonomy(
    codes=("hate_speech", "misinformation", "nudity", "scam"), aliases={"Hate speech": "hate_speech"}
)

# Values a corruption writes into a column: empties, enum and bool strings of
# every column (valid in some, not in others), near misses, loose and
# out-of-order dates and timestamps, categories the taxonomy does not
# declare, and ";"-separated lists with empty items.
VALUES = (
    "",
    " ",
    "OTHER",
    "NUKE",
    "yes",
    "True",
    "true",
    "false",
    "text",
    " TEXT",
    "TEXT",
    "VIDEO",
    "REMOVED",
    "VISIBLE",
    "FULLY",
    "FULLY ",
    "false ",
    "Removed",
    "NOT_AUTOMATED",
    "ILLEGAL_CONTENT",
    "TRUSTED_FLAGGER",
    "ACCOUNT_SUSPENSION",
    "jaywalking",
    "Hate speech",
    "nudity",
    "other",
    "2024-01-15",
    "2024-03-30",
    "2023-06-01",
    "20240115",
    "2024-W03-1",
    "2024-13-45",
    "2024-1-5",
    "2024-01-13T09:30+05Z",
    "2024-01-13 09:30:00",
    "2024-01-13T09:30:00.123Z",
    "2024-01-13T25:30:00Z",
    "2023-01-01T00:00:00Z",
    "2024-02-01T00:00:00Z",
    "2099-12-31T23:59:59Z",
    'quote " and, comma',
    ";",
    "nudity;;scam",
    ";hate_speech;",
)

# Values set two at a time, in every pair of columns.
PAIR_VALUES = ("", "OTHER", "NUKE", "2024-13-45", "2023-01-01T00:00:00Z", "2099-12-31T23:59:59Z")

DUMP_DATES = ("content_date", "application_date", "created_at")
EVENT_DATES = ("content_created", "moderated_at")


def corruption(field_order: tuple[str, ...], date_columns: tuple[str, ...]):
    return st.one_of(
        st.tuples(st.just("set"), st.integers(0, len(field_order) - 1), st.sampled_from(VALUES)),
        st.tuples(st.just("swap"), st.sampled_from(date_columns), st.sampled_from(date_columns)),
        st.tuples(st.just("shape"), st.integers(-3, 3)),
    )


def corrupt(row: list[str], ops, field_order: tuple[str, ...]) -> list[str]:
    row = list(row)
    for op in ops:
        if op[0] == "set":
            if op[1] < len(row):
                row[op[1]] = op[2]
        elif op[0] == "swap":
            i, j = field_order.index(op[1]), field_order.index(op[2])
            if max(i, j) < len(row):
                row[i], row[j] = row[j], row[i]
        elif op[1] < 0:
            del row[max(1, len(row) + op[1]) :]
        else:
            row.extend(["extra"] * op[1])
    return row


def write_csv(path: Path, field_order: tuple[str, ...], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(field_order)
        writer.writerows(rows)


def expected(rows: list[list[str]], field_order: tuple[str, ...], oracle, file: str):
    """What a reader must give for `rows`, which hold no line breaks: the
    oracle's verdict on each row of the right width as a dict."""
    items, entries = [], []
    for line, row in enumerate(rows, start=2):
        raw = dict(zip(field_order, row))
        if len(row) == len(field_order):
            result = oracle(raw)
        else:
            result = QuarantineEntry(QuarantineReason.MISSING_FIELD, "row_shape", raw)
        if isinstance(result, QuarantineEntry):
            entries.append(replace(result, file=file, row_number=line))
        else:
            items.append(result)
    return items, entries


def read_dump(rows: list[list[str]]):
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp) / "part-00000.csv", FIELD_ORDER, rows)
        reader = open_corpus(tmp, TAXONOMY)
        return list(reader), reader.quarantine


def read_export(rows: list[list[str]]):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        write_csv(path, EVENT_FIELD_ORDER, rows)
        reader = open_platform_export(path)
        return list(reader), reader.quarantine


def single_and_paired(base: list[str]) -> list[list[str]]:
    """`base` with each of VALUES in each column, and with each two of
    PAIR_VALUES in each two columns, so several faults meet in one row."""
    n = len(base)
    rows = [corrupt(base, [("set", i, v)], ()) for i in range(n) for v in VALUES]
    for i in range(n):
        for j in range(i + 1, n):
            rows.extend(
                corrupt(base, [("set", i, v), ("set", j, w)], ()) for v in PAIR_VALUES for w in PAIR_VALUES
            )
    return rows


def dump_row(**overrides) -> list[str]:
    """conftest's valid baseline row, with overrides, as a list in FIELD_ORDER."""
    row = make_row(**overrides)
    return [row[name] for name in FIELD_ORDER]


def dump_rows(seed: int, n: int) -> list[list[str]]:
    """The rows of `n` random records in FIELD_ORDER, one record per row."""
    rng = random.Random(seed)
    return [[row[name] for name in FIELD_ORDER] for row in (random_record(rng, i).to_row() for i in range(n))]


def event_rows(seed: int, n: int) -> list[list[str]]:
    """The rows of `n` random events in EVENT_FIELD_ORDER, one event per row."""
    rng = random.Random(seed)
    return [[row[name] for name in EVENT_FIELD_ORDER] for row in (random_event(rng, i).to_row() for i in range(n))]


def assert_dump_matches_oracle(rows: list[list[str]]) -> None:
    records, entries = read_dump(rows)
    assert (records, entries) == expected(
        rows, FIELD_ORDER, partial(naive_validate_record, taxonomy=TAXONOMY), "part-00000.csv"
    )
    assert all(r.created_at.tzinfo is timezone.utc for r in records)


def assert_export_matches_oracle(rows: list[list[str]]) -> None:
    events, entries = read_export(rows)
    assert (events, entries) == expected(rows, EVENT_FIELD_ORDER, naive_parse_event_row, "export.csv")
    assert all(e.moderated_at.tzinfo is timezone.utc for e in events)


class TestReadersMatchDictOracles:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        corruptions=st.lists(
            st.lists(corruption(FIELD_ORDER, DUMP_DATES), max_size=3), min_size=1, max_size=8
        ),
    )
    def test_dump_rows(self, seed, corruptions):
        valid = dump_rows(seed, len(corruptions))
        assert_dump_matches_oracle([corrupt(row, ops, FIELD_ORDER) for row, ops in zip(valid, corruptions)])

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        corruptions=st.lists(
            st.lists(corruption(EVENT_FIELD_ORDER, EVENT_DATES), max_size=3), min_size=1, max_size=8
        ),
    )
    def test_export_rows(self, seed, corruptions):
        valid = event_rows(seed, len(corruptions))
        assert_export_matches_oracle(
            [corrupt(row, ops, EVENT_FIELD_ORDER) for row, ops in zip(valid, corruptions)]
        )

    def test_every_value_in_every_dump_column(self):
        assert_dump_matches_oracle(single_and_paired(dump_rows(7, 1)[0]) + dump_rows(8, 50))

    def test_every_value_in_every_export_column(self):
        assert_export_matches_oracle(single_and_paired(event_rows(7, 1)[0]) + event_rows(8, 50))

    def test_base_rows_start_valid(self):
        # a base dump row fails only on the category "other", which TAXONOMY leaves out
        for row in event_rows(5, 200):
            assert isinstance(naive_parse_event_row(dict(zip(EVENT_FIELD_ORDER, row))), ModerationEvent), row
        for row in dump_rows(5, 200):
            result = naive_validate_record(dict(zip(FIELD_ORDER, row)), taxonomy=TAXONOMY)
            if not isinstance(result, SorRecord):
                assert (result.reason, result.raw_row["category"]) == (QuarantineReason.UNKNOWN_CATEGORY, "other")

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        ops=st.lists(corruption(FIELD_ORDER, DUMP_DATES), max_size=3),
        dropped=st.sets(st.sampled_from(FIELD_ORDER), max_size=3),
    )
    def test_dict_validate_record(self, seed, ops, dropped):
        row = corrupt(dump_rows(seed, 1)[0], [op for op in ops if op[0] != "shape"], FIELD_ORDER)
        raw = {name: value for name, value in zip(FIELD_ORDER, row) if name not in dropped}
        assert validate_record(raw, TAXONOMY) == naive_validate_record(raw, TAXONOMY)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        ops=st.lists(corruption(EVENT_FIELD_ORDER, EVENT_DATES), max_size=3),
    )
    def test_dict_parse_event_row(self, seed, ops):
        row = corrupt(event_rows(seed, 1)[0], [op for op in ops if op[0] != "shape"], EVENT_FIELD_ORDER)
        expected = naive_parse_event_row(dict(zip(EVENT_FIELD_ORDER, row)))
        if isinstance(expected, QuarantineEntry):
            expected = (expected.reason, expected.field)
        assert parse_export_row(row) == expected

    def test_lacking_column_after_an_empty_required_one(self):
        raw = make_row(uuid="")
        del raw["puid"]
        entry = validate_record(raw, TAXONOMY)
        assert isinstance(entry, QuarantineEntry)
        assert (entry.field, entry.raw_row) == ("uuid", raw)


class TestVerdictMemo:
    def test_readers_keep_their_own_taxonomy(self, tmp_path):
        rows = [dump_row(uuid=f"sor-{i}", category=c) for i, c in enumerate(("nudity", "hate_speech") * 20)]
        write_csv(tmp_path / "part-00000.csv", FIELD_ORDER, rows)
        with_nudity = open_corpus(tmp_path, CategoryTaxonomy(codes=("hate_speech", "nudity")))
        without = open_corpus(tmp_path, CategoryTaxonomy(codes=("hate_speech", "scam")))
        # interleaved, so both passes are open at once in one process
        both = list(zip_longest(with_nudity, without))
        kept = [r for r, _ in both if r is not None]
        other = [r for _, r in both if r is not None]
        assert len(kept) == 40 and {r.category for r in kept} == {"nudity", "hate_speech"}
        assert len(other) == 20 and {r.category for r in other} == {"hate_speech"}
        assert with_nudity.quarantine == []
        assert {(e.reason, e.field) for e in without.quarantine} == {
            (QuarantineReason.UNKNOWN_CATEGORY, "category")
        }
        assert len(without.quarantine) == 20

    def test_distinct_bad_enums_stay_within_the_guard(self, tmp_path):
        n = 10_000
        rows = [dump_row(decision_type=f"BAD_{i}") for i in range(n)]
        path = tmp_path / "part-00000.csv"
        write_csv(path, FIELD_ORDER, rows)

        faults = []

        def sink(entry: QuarantineEntry) -> None:
            faults.append((entry.reason, entry.field))

        parts: list[CorpusManifest] = []
        assert list(stream_dump(path, TAXONOMY, sink, parts)) == []
        assert faults == [(QuarantineReason.BAD_ENUM, "decision_type")] * n
        assert parts == [CorpusManifest(("part-00000.csv",), 0, n, None)]

        reader = open_corpus(tmp_path, TAXONOMY)
        assert list(reader) == []
        assert [(e.reason, e.field) for e in reader.quarantine] == faults

    def test_distinct_valid_rows_stay_within_the_guard(self, tmp_path):
        n = 10_000
        codes = tuple(f"code_{i}" for i in range(n))
        rows = [dump_row(uuid=f"sor-{i}", category=c) for i, c in enumerate(codes)]
        path = tmp_path / "part-00000.csv"
        write_csv(path, FIELD_ORDER, rows)

        records = list(stream_dump(path, CategoryTaxonomy(codes=codes), pytest.fail, []))
        assert [record.category for record in records] == list(codes)

    def test_distinct_list_columns_stay_within_the_guard(self):
        categories = EVENT_FIELD_ORDER.index("platform_categories")
        rows = event_rows(11, PARSE_CACHE_LIMIT + 500)
        for i, row in enumerate(rows):
            row[categories] = f";nudity;;code_{i};" if i % 2 else f"code_{i}"
        # repeats of the first rows miss the list cache, whose entries for
        # them have left; repeats of the last rows hit it
        rows += rows[:50] + rows[-50:]
        _split_list.cache_clear()
        assert_export_matches_oracle(rows)
        lists = _split_list.cache_info()
        assert (lists.maxsize, lists.currsize) == (PARSE_CACHE_LIMIT, PARSE_CACHE_LIMIT)

    def test_memo_of_a_valid_row_gives_equal_records(self):
        row = dump_row()
        first = parse_dump_row(TAXONOMY, row)
        second = parse_dump_row(TAXONOMY, list(row))
        assert isinstance(first, SorRecord) and first == second
        assert first == validate_record(dict(zip(FIELD_ORDER, row)), TAXONOMY)


def stream_dump(path: Path, taxonomy: CategoryTaxonomy, sink, manifests: list):
    """The records of one dump file; its manifest goes onto `manifests`."""
    parse = partial(parse_dump_row, taxonomy)
    manifests.append((yield from _stream_rows(path, FIELD_ORDER, parse, attrgetter("application_date"), sink)))


def test_records_are_declared_in_wire_column_order():
    # The column orders are the records' own fields, so reordering a record's
    # fields would change the wire format; the oracle's literal headers pin it.
    assert FIELD_ORDER is SorRecord._fields
    assert EVENT_FIELD_ORDER is ModerationEvent._fields
    assert FIELD_ORDER == DUMP_HEADER
    assert EVENT_FIELD_ORDER == EXPORT_HEADER


class TestRenderCell:
    def test_random_records_round_trip_through_the_dump_parser(self):
        rng = random.Random(41)
        taxonomy = CategoryTaxonomy(codes=CODES)
        for i in range(300):
            record = random_record(rng, i)
            row = record.to_row()
            assert list(row) == list(FIELD_ORDER)
            assert parse_dump_row(taxonomy, list(row.values())) == record

    def test_random_events_round_trip_through_the_export_parser(self):
        rng = random.Random(42)
        for i in range(300):
            event = random_event(rng, i)
            row = event.to_row()
            assert list(row) == list(EVENT_FIELD_ORDER)
            assert parse_export_row(list(row.values())) == event

    @pytest.mark.parametrize(
        "value,text",
        [
            (None, ""),
            ("", ""),
            ("a;b", "a;b"),
            (DecisionType.OTHER, "OTHER"),
            (True, "true"),
            (False, "false"),
            (datetime(2024, 1, 2, 3, 4, 5, tzinfo=timezone.utc), "2024-01-02T03:04:05Z"),
            (date(2024, 1, 2), "2024-01-02"),
            (("hate_speech", "scam"), "hate_speech;scam"),
            ((), ""),
        ],
        ids=["none", "empty", "text", "enum", "true", "false", "timestamp", "date", "tuple", "empty_tuple"],
    )
    def test_each_kind_of_field(self, value, text):
        assert render_cell(value) == text
