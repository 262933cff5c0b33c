from __future__ import annotations

import random
from datetime import date, datetime, time, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modaudit.aggregate import AggregateResult, CellTally, Period, Predicate, ResultStatus, replicate_all
from modaudit.claims import Claim, ClaimSet, Metric, Precision, parse_number
from modaudit.crosscheck import (
    Finding,
    FindingKind,
    PipelineError,
    ToleranceSpec,
    cross_check,
    run_crosscheck,
    tolerance_bound,
)
from modaudit.report import Severity, emit_report

from .conftest import make_record
from .oracles import naive_replicate

JAN = Period(start=date(2024, 1, 1), end=date(2024, 2, 1))


def claim(claim_id, value_text, metric=Metric.COUNT, predicate=None, period=JAN):
    value, precision = parse_number(value_text)
    return Claim(
        claim_id=claim_id,
        platform_name="examplehub",
        metric=metric,
        predicate=Predicate.parse(predicate or {}),
        denominator_predicate=Predicate.parse({}) if metric is Metric.SHARE else None,
        period=period,
        reported_value=value,
        precision=precision,
        source_locator=f"report:{claim_id}",
        value_text=value_text,
    )


def count_result(claim_id, value):
    return AggregateResult(claim_id=claim_id, computed_value=value, matched_count=value)


def share_result(claim_id, matched, denominator):
    return AggregateResult(
        claim_id=claim_id,
        computed_value=Fraction(matched, denominator),
        matched_count=matched,
        denominator_count=denominator,
    )


class TestToleranceBound:
    def test_rounded_two_digit_million_value(self):
        bound = tolerance_bound(1200000, Precision.rounded(2), ToleranceSpec())
        assert bound == 50000

    @pytest.mark.parametrize("value", [0, 1, 42, 999, 10**9, Fraction(1, 3)])
    def test_exact_admits_no_slack(self, value):
        assert tolerance_bound(value, Precision.exact(), ToleranceSpec()) == 0

    def test_approximate_uses_its_own_relative(self):
        assert tolerance_bound(100, Precision.approximate(), ToleranceSpec()) == 5

    def test_rounding_aware_can_be_disabled(self):
        spec = ToleranceSpec(rounding_aware=False)
        assert tolerance_bound(1200000, Precision.rounded(2), spec) == 0

    def test_floor_and_relative_take_the_max(self):
        spec = ToleranceSpec(absolute_floor=10, relative=0.01)
        assert tolerance_bound(500, Precision.exact(), spec) == 10
        assert tolerance_bound(5000, Precision.exact(), spec) == 50

    def test_zero_rounded_value_has_no_ulp(self):
        assert tolerance_bound(0, Precision.rounded(1), ToleranceSpec()) == 0

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            tolerance_bound(-1, Precision.exact(), ToleranceSpec())

    @given(
        value=st.integers(min_value=0, max_value=10**9),
        digits=st.integers(min_value=1, max_value=8),
        floor1=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        floor2=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        rel1=st.floats(min_value=0, max_value=0.5, allow_nan=False),
        rel2=st.floats(min_value=0, max_value=0.5, allow_nan=False),
    )
    def test_bound_is_monotone_in_spec(self, value, digits, floor1, floor2, rel1, rel2):
        lo_rel, hi_rel = min(rel1, rel2), max(rel1, rel2)
        small = ToleranceSpec(
            absolute_floor=min(floor1, floor2), relative=lo_rel, approximate_relative=lo_rel + 0.05
        )
        large = ToleranceSpec(
            absolute_floor=max(floor1, floor2), relative=hi_rel, approximate_relative=hi_rel + 0.1
        )
        for precision in (Precision.exact(), Precision.rounded(digits), Precision.approximate()):
            assert tolerance_bound(value, precision, small) <= tolerance_bound(
                value, precision, large
            )

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ToleranceSpec(relative=-0.1)
        with pytest.raises(ValueError):
            ToleranceSpec(relative=0.2, approximate_relative=0.1)


def jan_tally(*records):
    """Coverage tally over January, filled the way replication fills it."""
    tally = CellTally(JAN.start, JAN.end)
    replicate_all([], records, cell_tally=tally)
    return tally


def run_pair(c, r, spec=None, exhaustive=False, tally=None):
    claims = ClaimSet(claims=(c,), exhaustive=exhaustive)
    return cross_check(claims, [r], spec or ToleranceSpec(), cell_tally=tally)


class TestCrossCheck:
    def test_rounded_report_within_half_ulp_matches(self):
        findings = run_pair(claim("c", "1,200,000"), count_result("c", 1180000))
        assert [f.kind for f in findings] == [FindingKind.MATCH]
        assert findings[0].severity is Severity.INFO
        assert findings[0].deviation == 20000

    def test_zero_share_against_reported_automation_is_critical_mismatch(self):
        c = claim("auto", "94.00%", metric=Metric.SHARE)
        findings = run_pair(c, share_result("auto", 0, 2000))
        assert [f.kind for f in findings] == [FindingKind.MISMATCH]
        assert findings[0].severity is Severity.CRITICAL
        assert findings[0].computed_value == 0

    def test_exact_identity_matches_with_zero_deviation(self):
        findings = run_pair(claim("c", "500"), count_result("c", 500))
        assert findings[0].kind is FindingKind.MATCH
        assert findings[0].deviation == 0

    def test_exact_off_by_one_is_mismatch(self):
        findings = run_pair(claim("c", "500"), count_result("c", 501))
        assert findings[0].kind is FindingKind.MISMATCH
        assert findings[0].severity is Severity.WARN

    def test_count_reported_but_absent_from_db_is_missing_in_db(self):
        findings = run_pair(claim("c", "1,500"), count_result("c", 0))
        assert findings[0].kind is FindingKind.MISSING_IN_DB
        assert findings[0].severity is Severity.CRITICAL

    def test_reported_zero_while_db_nonzero_is_critical_mismatch(self):
        findings = run_pair(claim("c", "0"), count_result("c", 40))
        assert findings[0].kind is FindingKind.MISMATCH
        assert findings[0].severity is Severity.CRITICAL

    def test_relative_deviation_above_half_is_critical(self):
        findings = run_pair(claim("c", "1000"), count_result("c", 400))
        assert findings[0].severity is Severity.CRITICAL  # 600/1000 > 0.5
        findings = run_pair(claim("c", "1000"), count_result("c", 600))
        assert findings[0].severity is Severity.WARN  # 400/1000 <= 0.5

    def test_unreplicable_passes_through_as_warn(self):
        result = AggregateResult.unreplicable("c", "category label 'X' is not in the taxonomy")
        findings = run_pair(claim("c", "10"), result)
        assert findings[0].kind is FindingKind.UNREPLICABLE
        assert findings[0].severity is Severity.WARN
        assert "taxonomy" in findings[0].evidence

    def test_undefined_share_becomes_unreplicable(self):
        result = AggregateResult(
            claim_id="s",
            computed_value=None,
            matched_count=0,
            denominator_count=0,
            status=ResultStatus.UNDEFINED,
            note="share denominator matched no records",
        )
        findings = run_pair(claim("s", "10%", metric=Metric.SHARE), result)
        assert findings[0].kind is FindingKind.UNREPLICABLE

    @pytest.mark.parametrize(
        "c,result,expected",
        [
            (
                claim("c", "10"),
                AggregateResult.unreplicable("c", "category label 'X' is not in the taxonomy"),
                Finding(
                    FindingKind.UNREPLICABLE,
                    Severity.WARN,
                    "c",
                    10,
                    evidence="claim c could not be replicated: category label 'X' is not in the taxonomy [report:c]",
                ),
            ),
            (
                claim("s", "10%", metric=Metric.SHARE),
                AggregateResult("s", None, 0, 0, ResultStatus.UNDEFINED, "share denominator matched no records"),
                Finding(
                    FindingKind.UNREPLICABLE,
                    Severity.WARN,
                    "s",
                    Fraction(1, 10),
                    evidence="claim s share is undefined: denominator matched no records [report:s]",
                ),
            ),
            (
                claim("c", "1,200,000"),
                count_result("c", 1180000),
                Finding(
                    FindingKind.MATCH,
                    Severity.INFO,
                    "c",
                    1200000,
                    1180000,
                    Fraction(20000),
                    Fraction(1, 60),
                    "reported 1,200,000 agrees with computed 1180000 within tolerance 50000 [report:c]",
                ),
            ),
            (
                claim("c", "1,500"),
                count_result("c", 0),
                Finding(
                    FindingKind.MISSING_IN_DB,
                    Severity.CRITICAL,
                    "c",
                    1500,
                    0,
                    Fraction(1500),
                    Fraction(1),
                    "report states 1,500 but the database holds no matching records at all [report:c]",
                ),
            ),
            (
                claim("s", "12.5%", metric=Metric.SHARE),
                share_result("s", 1, 3),
                Finding(
                    FindingKind.MISMATCH,
                    Severity.CRITICAL,
                    "s",
                    Fraction(1, 8),
                    Fraction(1, 3),
                    Fraction(5, 24),
                    Fraction(5, 8),
                    "reported 12.5% vs computed 0.3333333333333333; deviation 0.208333 exceeds tolerance 0.0005 [report:s]",
                ),
            ),
        ],
        ids=["unreplicable", "undefined", "match", "missing_in_db", "mismatch"],
    )
    def test_each_kind_of_finding_in_full(self, c, result, expected):
        assert run_pair(c, result) == [expected]

    def test_result_claim_mismatch_is_a_pipeline_error(self):
        c = claim("c", "10")
        with pytest.raises(PipelineError):
            cross_check(ClaimSet(claims=(c,)), [count_result("other", 1)])
        with pytest.raises(PipelineError):
            cross_check(ClaimSet(claims=(c,)), [count_result("c", 1), count_result("x", 2)])

    def test_exhaustive_set_reports_uncovered_cells(self):
        tally = jan_tally(make_record(category="hate_speech"), make_record(category="nudity"))
        c = claim("c", "1", predicate={"category": "hate_speech"})
        findings = run_pair(c, count_result("c", 1), exhaustive=True, tally=tally)
        missing = [f for f in findings if f.kind is FindingKind.MISSING_IN_REPORT]
        assert len(missing) == 1
        assert "nudity" in missing[0].evidence
        assert missing[0].severity is Severity.WARN

    def test_non_exhaustive_set_never_reports_coverage(self):
        tally = jan_tally(make_record(category="nudity"))
        findings = run_pair(claim("c", "0"), count_result("c", 0), tally=tally)
        assert all(f.kind is not FindingKind.MISSING_IN_REPORT for f in findings)

    def test_claim_permutation_leaves_findings_unchanged(self):
        claims = [claim(f"c{i}", str(i * 10)) for i in range(6)]
        results = [count_result(f"c{i}", i * 10 + (1 if i % 2 else 0)) for i in range(6)]
        baseline = cross_check(ClaimSet(claims=tuple(claims)), results)
        for seed in range(4):
            shuffled = claims[:]
            random.Random(seed).shuffle(shuffled)
            again = cross_check(ClaimSet(claims=tuple(shuffled)), results)
            assert again == baseline

    @given(reported=st.integers(0, 1000), computed=st.integers(0, 1000))
    def test_zero_tolerance_exact_matches_iff_equal(self, reported, computed):
        c = claim("c", str(reported))
        findings = run_pair(c, count_result("c", computed), ToleranceSpec(rounding_aware=False))
        assert (findings[0].kind is FindingKind.MATCH) == (reported == computed)

    def test_enlarging_tolerance_never_breaks_a_match(self):
        rng = random.Random(3)
        for _ in range(200):
            reported = rng.randint(0, 10**6)
            computed = max(0, reported + rng.randint(-5000, 5000))
            c = claim("c", str(reported))
            base_rel = rng.uniform(0, 0.05)
            base_spec = ToleranceSpec(
                absolute_floor=rng.uniform(0, 2000),
                relative=base_rel,
                approximate_relative=base_rel + 0.05,
            )
            bigger_rel = base_rel + rng.uniform(0, 0.05)
            bigger = ToleranceSpec(
                absolute_floor=base_spec.absolute_floor + rng.uniform(0, 3000),
                relative=bigger_rel,
                approximate_relative=bigger_rel + 0.05,
            )
            before = run_pair(c, count_result("c", computed), base_spec)[0].kind
            after = run_pair(c, count_result("c", computed), bigger)[0].kind
            if before is FindingKind.MATCH:
                assert after is FindingKind.MATCH

    def test_findings_sorted_by_severity_then_kind_then_id(self):
        claims = ClaimSet(
            claims=(claim("a", "500"), claim("b", "1500"), claim("z", "10")),
        )
        results = [count_result("a", 500), count_result("b", 0), count_result("z", 9)]
        findings = cross_check(claims, results)
        assert [(f.severity, f.kind, f.claim_id) for f in findings] == [
            (Severity.CRITICAL, FindingKind.MISSING_IN_DB, "b"),
            (Severity.WARN, FindingKind.MISMATCH, "z"),
            (Severity.INFO, FindingKind.MATCH, "a"),
        ]


class TestRunCrosscheck:
    def test_period_gap_becomes_unreplicable(self, taxonomy):
        c = claim("gap", "5", period=Period(start=date(2030, 1, 1), end=date(2030, 2, 1)))
        records = [make_record()]
        findings, results = run_crosscheck(
            ClaimSet(claims=(c,)), records, taxonomy, coverage=(date(2024, 1, 1), date(2024, 1, 31))
        )
        assert findings[0].kind is FindingKind.UNREPLICABLE
        assert "period gap" in findings[0].evidence
        assert results[0].status is ResultStatus.UNREPLICABLE

    @pytest.mark.parametrize(
        "field,start,end,gap",
        [
            ("content_date", date(2023, 12, 10), date(2023, 12, 31), False),
            ("content_date", date(2024, 1, 17), date(2024, 2, 1), True),
            ("created_at", date(2024, 2, 1), date(2024, 3, 1), False),
            ("created_at", date(2023, 12, 1), date(2024, 1, 12), True),
        ],
        ids=["content_before_coverage", "content_after_coverage", "created_after_coverage", "created_before_coverage"],
    )
    def test_period_gap_is_judged_on_the_period_field(self, taxonomy, field, start, end, gap):
        # Application dates span [Jan 12, Jan 16]; a record is valid only when
        # content_date <= application_date <= created_at, so content dates may
        # lie before that range and creation dates after it.
        records = []
        for k in range(15):
            applied = date(2024, 1, 12) + timedelta(days=k % 5)
            records.append(
                make_record(
                    uuid=f"sor-{k}",
                    content_date=date(2023, 12, 1) + timedelta(days=3 * k),
                    application_date=applied,
                    created_at=datetime.combine(applied + timedelta(days=2 * k), time(9), tzinfo=timezone.utc),
                )
            )
        c = claim("c", "5", period=Period(start=start, end=end, field=field))
        _, results = run_crosscheck(
            ClaimSet(claims=(c,)), records, taxonomy, coverage=(date(2024, 1, 12), date(2024, 1, 16))
        )
        if gap:
            assert results[0].status is ResultStatus.UNREPLICABLE
            assert "period gap" in results[0].note
        else:
            assert results[0].status is ResultStatus.OK
            assert results[0].computed_value == naive_replicate(c, records) > 0

    def test_unresolvable_category_flows_to_unreplicable_finding(self, taxonomy):
        c = claim("mystery", "5", predicate={"category": "Jaywalking"})
        findings, _ = run_crosscheck(ClaimSet(claims=(c,)), [make_record()], taxonomy)
        assert [f.kind for f in findings] == [FindingKind.UNREPLICABLE]
        assert "Jaywalking" in findings[0].evidence


class TestEmitReport:
    def findings(self):
        c = claim("c", "1,200,000")
        return cross_check(ClaimSet(claims=(c,)), [count_result("c", 900000)])

    def test_json_is_deterministic(self):
        findings = self.findings()
        assert emit_report(findings, "json") == emit_report(findings, "json")

    def test_json_carries_values_deviation_and_locator(self):
        text = emit_report(self.findings(), "json")
        assert '"reported_value": 1200000' in text
        assert '"computed_value": 900000' in text
        assert '"deviation": 300000' in text
        assert "report:c" in text

    def test_csv_has_one_row_per_finding(self):
        text = emit_report(self.findings(), "csv")
        lines = text.strip().split("\n")
        assert lines[0].startswith("severity,kind,claim_id")
        assert len(lines) == 2

    def test_markdown_summarizes_counts(self):
        text = emit_report(self.findings(), "markdown")
        assert "1 finding(s): 0 critical, 1 warn, 0 info." in text

    def test_empty_findings_render_everywhere(self):
        assert emit_report([], "json") == "[]\n"
        assert emit_report([], "csv").startswith("severity,")
        assert "0 finding(s)" in emit_report([], "markdown")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")
