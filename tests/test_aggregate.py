from __future__ import annotations

import random
from datetime import date, timedelta
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from modaudit.aggregate import (
    FILTERABLE_ATTRIBUTES,
    CellLayout,
    CellTally,
    Period,
    PeriodError,
    Predicate,
    PredicateError,
    ResultStatus,
    replicate_all,
)
from modaudit.claims import Claim, Metric, Precision
from modaudit.ingest import open_corpus, write_dump
from modaudit.parallel import parallel_replicate
from modaudit.sor import DecisionType

from .conftest import make_record
from .oracles import (
    SPAN_DAYS,
    SPAN_START,
    naive_replicate,
    naive_tally,
    random_count_claim,
    random_record,
    random_share_claim,
    satisfies,
)

JAN = Period(start=date(2024, 1, 1), end=date(2024, 2, 1))


def count_claim(claim_id, predicate_raw, period=JAN, reported=0):
    return Claim(
        claim_id=claim_id,
        platform_name="examplehub",
        metric=Metric.COUNT,
        predicate=Predicate.parse(predicate_raw),
        denominator_predicate=None,
        period=period,
        reported_value=reported,
        precision=Precision.exact(),
        source_locator="test:fixture",
        value_text=str(reported),
    )


def share_claim(claim_id, predicate_raw, denominator_raw=None, period=JAN):
    return Claim(
        claim_id=claim_id,
        platform_name="examplehub",
        metric=Metric.SHARE,
        predicate=Predicate.parse(predicate_raw),
        denominator_predicate=Predicate.parse(denominator_raw or {}),
        period=period,
        reported_value=Fraction(1, 2),
        precision=Precision.rounded(2),
        source_locator="test:fixture",
        value_text="50.%",
    )


class TestPredicate:
    def test_empty_predicate_is_true(self):
        assert satisfies(make_record(), Predicate.parse({}))

    def test_membership_over_value_sets(self):
        p = Predicate.parse({"decision_type": ["VISIBILITY_REMOVAL", "MONETARY"]})
        assert satisfies(make_record(), p)
        assert not satisfies(make_record(decision_type=DecisionType.ACCOUNT_SUSPENSION), p)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(PredicateError, match="unknown filter attribute"):
            Predicate.parse({"uuid": "x"})

    def test_unparseable_literal_rejected(self):
        with pytest.raises(PredicateError):
            Predicate.parse({"decision_type": "SHADOWBAN"})

    def test_boolean_attribute(self):
        p = Predicate.parse({"automated_detection": "true"})
        assert satisfies(make_record(automated_detection=True), p)
        assert not satisfies(make_record(), p)

    def test_json_round_trip_is_canonical(self):
        raw = {"category": ["nudity", "hate_speech"], "automated_decision": "FULLY"}
        p = Predicate.parse(raw)
        assert Predicate.parse(p.to_json()) == p


class TestPeriod:
    def test_start_must_precede_end(self):
        with pytest.raises(PeriodError):
            Period(start=date(2024, 2, 1), end=date(2024, 2, 1))

    def test_unknown_field_rejected(self):
        with pytest.raises(PeriodError):
            Period(start=date(2024, 1, 1), end=date(2024, 2, 1), field="filed_date")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({**JAN.to_json(), "field": None}, "period field must be a string, got null"),
            ({"start": 20240101, "end": "2024-02-01"}, "period start must be a string, got a number"),
            ({"start": "2024-01-01", "end": ["2024-02-01"]}, "period end must be a string, got an array"),
            ({**JAN.to_json(), "field": True}, "period field must be a string, got a boolean"),
            ({"start": {}, "end": "2024-02-01"}, "period start must be a string, got an object"),
            ({"end": None}, "period is missing 'start'"),
        ],
        ids=["null_field", "number_start", "array_end", "boolean_field", "object_start", "missing_start"],
    )
    def test_parse_refuses_a_non_string_naming_its_json_type(self, raw, message):
        with pytest.raises(PeriodError) as exc:
            Period.parse(raw)
        assert str(exc.value) == message

    def test_half_open_bounds(self):
        assert JAN.contains_date(date(2024, 1, 1))
        assert JAN.contains_date(date(2024, 1, 31))
        assert not JAN.contains_date(date(2024, 2, 1))

    def test_created_at_field_uses_timestamp_date(self):
        period = Period(start=date(2024, 1, 13), end=date(2024, 1, 14), field="created_at")
        assert period.contains(make_record())  # created_at 2024-01-13T09:30:00Z


class TestReplicate:
    def fixture_six(self):
        # two hate_speech removals in January, plus distractors
        return [
            make_record(uuid="r1", category="hate_speech"),
            make_record(uuid="r2", category="hate_speech"),
            make_record(uuid="r3", category="nudity"),
            make_record(uuid="r4", category="hate_speech", decision_type=DecisionType.ACCOUNT_SUSPENSION),
            make_record(
                uuid="r5",
                category="hate_speech",
                content_date=date(2024, 2, 10),
                application_date=date(2024, 2, 11),
                created_at=make_record().created_at.replace(month=2, day=12),
            ),
            make_record(uuid="r6", category="misinformation"),
        ]

    def test_count_on_hand_checked_fixture(self):
        claim = count_claim(
            "c1", {"category": "hate_speech", "decision_type": "VISIBILITY_REMOVAL"}
        )
        records = self.fixture_six()
        result = replicate_all([claim], records)[0]
        assert result.computed_value == 2
        assert result.computed_value == naive_replicate(claim, records)

    def test_true_predicate_counts_everything_in_period(self):
        claim = count_claim("c1", {})
        records = [make_record(uuid=f"r{i}") for i in range(11)]
        assert replicate_all([claim], records)[0].computed_value == 11

    def test_zero_share_corpus(self):
        # no fully-automated decisions at all: share must be exactly 0
        claim = share_claim("s1", {"automated_decision": "FULLY"})
        records = [make_record(uuid=f"r{i}") for i in range(8)]
        result = replicate_all([claim], records)[0]
        assert result.computed_value == 0
        assert result.denominator_count == 8
        assert result.status is ResultStatus.OK

    def test_share_with_empty_denominator_is_undefined(self):
        claim = share_claim("s1", {"automated_decision": "FULLY"}, period=Period(date(2030, 1, 1), date(2030, 2, 1)))
        result = replicate_all([claim], [make_record()])[0]
        assert result.status is ResultStatus.UNDEFINED
        assert result.computed_value is None

    def test_single_pass_equals_per_claim_runs(self):
        records = self.fixture_six()
        claims = [
            count_claim("a", {"category": "hate_speech"}),
            count_claim("b", {"decision_type": "VISIBILITY_REMOVAL"}),
            share_claim("c", {"automated_decision": "NOT_AUTOMATED"}),
        ]
        together = replicate_all(claims, records)
        separate = [replicate_all([c], records)[0] for c in claims]
        assert together == sorted(separate, key=lambda r: r.claim_id)

    def test_no_claims_reads_nothing(self):
        def exploding():
            raise AssertionError("stream must not be read")
            yield  # pragma: no cover

        assert replicate_all([], exploding()) == []

    def test_disjoint_periods_count_independently(self):
        feb = Period(start=date(2024, 2, 1), end=date(2024, 3, 1))
        claims = [count_claim("jan", {}, period=JAN), count_claim("feb", {}, period=feb)]
        records = self.fixture_six()
        results = {r.claim_id: r.computed_value for r in replicate_all(claims, records)}
        assert results == {"jan": 5, "feb": 1}
        for claim in claims:
            assert results[claim.claim_id] == naive_replicate(claim, records)

    def test_duplicate_claim_ids_abort_before_reading(self):
        claims = [count_claim("dup", {}), count_claim("dup", {"category": "nudity"})]
        with pytest.raises(PredicateError, match="dup"):
            replicate_all(claims, [])

    def test_order_independence(self):
        rng = random.Random(5)
        records = [random_record(rng, i) for i in range(300)]
        claims = [random_count_claim(rng, f"c{i}") for i in range(6)]
        baseline = replicate_all(claims, records)
        for seed in range(5):
            shuffled = records[:]
            random.Random(seed).shuffle(shuffled)
            assert replicate_all(claims, shuffled) == baseline

    def test_adding_matching_record_increments_exactly_that_claim(self):
        claims = [
            count_claim("hate", {"category": "hate_speech"}),
            count_claim("nudity", {"category": "nudity"}),
        ]
        records = self.fixture_six()
        before = {r.claim_id: r.computed_value for r in replicate_all(claims, records)}
        extra = make_record(uuid="extra", category="hate_speech")
        after = {r.claim_id: r.computed_value for r in replicate_all(claims, records + [extra])}
        assert after["hate"] == before["hate"] + 1
        assert after["nudity"] == before["nudity"]

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(99)
        for trial in range(10):
            records = [random_record(rng, i) for i in range(rng.randint(0, 400))]
            claims = [random_count_claim(rng, f"t{trial}-c{i}") for i in range(8)]
            results = {r.claim_id: r.computed_value for r in replicate_all(claims, records)}
            for claim in claims:
                assert results[claim.claim_id] == naive_replicate(claim, records)


class TestMergeSummaries:
    def test_sharded_counts_merge_to_single_pass(self):
        rng = random.Random(17)
        records = [random_record(rng, i) for i in range(500)]
        claims = [random_count_claim(rng, f"c{i}") for i in range(5)] + [
            share_claim("s", {"automated_decision": "FULLY"}, period=Period(date(2024, 1, 1), date(2024, 3, 15)))
        ]
        layout = CellLayout(claims)
        whole = layout.summarize(records)
        summed = (
            layout.summarize(records[:200])
            + layout.summarize(records[200:350])
            + layout.summarize(records[350:])
        )
        assert summed == whole
        assert layout.evaluate(summed) == replicate_all(claims, records)

    def test_merge_order_does_not_matter(self):
        rng = random.Random(23)
        records = [random_record(rng, i) for i in range(120)]
        claims = [random_count_claim(rng, f"c{i}") for i in range(4)]
        layout = CellLayout(claims)
        a = layout.summarize(records[:60])
        b = layout.summarize(records[60:])
        assert a + b == b + a
        assert layout.evaluate(a + b) == layout.evaluate(b + a)


def period_edges(rng: random.Random) -> list[date]:
    """A small pool of period bounds, some outside the records' dates."""
    days = rng.sample(range(-10, SPAN_DAYS + 25), 6)
    return sorted(SPAN_START + timedelta(days=d) for d in days)


def random_claims(rng: random.Random) -> list[Claim]:
    edges = period_edges(rng)
    claims = [random_count_claim(rng, f"c{i}") for i in range(rng.randint(0, 4))]
    claims += [random_share_claim(rng, f"s{i}", edges) for i in range(rng.randint(1, 6))]
    return claims


class TestSummaryMatchesNaiveOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exhaustive=st.booleans())
    def test_results_and_tally_equal_full_scans(self, seed, exhaustive):
        rng = random.Random(seed)
        records = [random_record(rng, i) for i in range(rng.randint(0, 250))]
        claims = random_claims(rng)
        tally = CellTally.for_claims(claims) if exhaustive else None
        results = {r.claim_id: r for r in replicate_all(claims, records, cell_tally=tally)}
        for claim in claims:
            expected = naive_replicate(claim, records)
            result = results[claim.claim_id]
            if expected is None:
                assert result.status is ResultStatus.UNDEFINED
                assert result.denominator_count == 0
            else:
                assert result.computed_value == expected
        if tally is not None:
            assert tally.counts == naive_tally(records, tally.hull_start, tally.hull_end)

    def test_builders_reach_every_field_and_empty_denominators(self):
        rng = random.Random(8)
        records = [random_record(rng, i) for i in range(200)]
        fields, undefined, attrs = set(), 0, set()
        for _ in range(40):
            for claim in random_claims(rng):
                fields.add(claim.period.field)
                for predicate in (claim.predicate, claim.denominator_predicate):
                    attrs.update(a for a, _ in (predicate.conjuncts if predicate else ()))
                if claim.metric is Metric.SHARE and naive_replicate(claim, records) is None:
                    undefined += 1
        assert fields == {"application_date", "content_date", "created_at"}
        assert attrs == set(FILTERABLE_ATTRIBUTES)
        assert undefined > 0

    def test_parallel_over_three_files_equals_serial(self, tmp_path, taxonomy):
        rng = random.Random(31)
        # sorted by date, so each file covers its own part of the date range
        records = sorted((random_record(rng, i) for i in range(600)), key=lambda r: r.application_date)
        write_dump(records, tmp_path / "dump", chunk_size=200)
        bad = tmp_path / "dump" / "part-00001.csv"
        bad.write_text(bad.read_text(encoding="utf-8") + "not,a,row\n", encoding="utf-8")
        claims = random_claims(rng) + [random_count_claim(rng, "all")]

        serial_tally = CellTally.for_claims(claims)
        serial_reader = open_corpus(tmp_path / "dump", taxonomy)
        serial = replicate_all(claims, serial_reader, cell_tally=serial_tally)

        parallel_tally = CellTally.for_claims(claims)
        parallel_reader = open_corpus(tmp_path / "dump", taxonomy)
        parallel = parallel_replicate(parallel_reader, claims, 2, cell_tally=parallel_tally)

        assert len(parallel_reader.files) == 3
        assert parallel == serial
        assert parallel_tally.counts == serial_tally.counts
        assert parallel_reader.manifest == serial_reader.manifest
        assert parallel_reader.quarantine == serial_reader.quarantine
        assert serial_reader.manifest.quarantine_count == 1
