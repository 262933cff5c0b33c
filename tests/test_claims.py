from __future__ import annotations

import json
from datetime import date
from decimal import ROUND_05UP, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modaudit.aggregate import Predicate
from modaudit.claims import (
    Claim,
    ClaimsError,
    ExtractionMapping,
    Metric,
    NumberFormatError,
    Precision,
    claimset_to_dict,
    extract_html_claims,
    format_value,
    load_claims,
    parse_claimset,
    parse_number,
    percent_text,
    resolve_categories,
    round_to_sig,
    save_claims,
    significant_digits,
)
from modaudit.htmltable import TableNotFound, find_table, parse_tables

JAN = {"start": "2024-01-01", "end": "2024-02-01"}
# Marks a claim field that count_entry's caller leaves out.
ABSENT = object()


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,value,precision",
        [
            ("1,200,000", 1200000, Precision.rounded(2)),
            ("1,234,567", 1234567, Precision.rounded(7)),
            ("1.2M", 1200000, Precision.rounded(2)),
            ("1.20M", 1200000, Precision.rounded(3)),
            ("3K", 3000, Precision.rounded(1)),
            ("2B", 2_000_000_000, Precision.rounded(1)),
            ("500", 500, Precision.exact()),
            ("0", 0, Precision.exact()),
            ("~5%", Fraction(1, 20), Precision.approximate()),
            ("approximately 300", 300, Precision.approximate()),
            ("34.57%", Fraction(3457, 10000), Precision.rounded(4)),
            ("0.5430%", Fraction(543, 100000), Precision.rounded(4)),
            ("42.", 42, Precision.rounded(2)),
            ("0.94", Fraction(47, 50), Precision.rounded(2)),
            ("1,020,000", 1020000, Precision.rounded(3)),
        ],
    )
    def test_normalization_table(self, text, value, precision):
        got_value, got_precision = parse_number(text)
        assert got_value == value
        assert got_precision == precision

    @pytest.mark.parametrize("text", ["", "abc", "5K%", "-3", "1,23", "1..2", "."])
    def test_rejects_garbage(self, text):
        with pytest.raises(NumberFormatError):
            parse_number(text)

    @pytest.mark.parametrize("text,digits", [("9" * 5000, 5000), ("1." + "0" * 5000, 5001)], ids=["integer", "decimal"])
    def test_digits_past_the_interpreters_limit_are_a_format_error(self, text, digits):
        with pytest.raises(NumberFormatError, match=f"^value of {digits} digits is too long to read$"):
            parse_number(text)

    @pytest.mark.parametrize(
        "mantissa,expected",
        [("1200000", 2), ("1.20", 3), ("0.050", 2), ("1020000", 3), ("100.", 3), ("0", 1)],
    )
    def test_significant_digits(self, mantissa, expected):
        assert significant_digits(mantissa) == expected


@st.composite
def rounded_values(draw):
    digits = draw(st.integers(min_value=1, max_value=6))
    lead = draw(st.integers(min_value=1, max_value=9))
    if digits == 1:
        mantissa = lead
    else:
        rest = draw(st.integers(min_value=0, max_value=10 ** (digits - 2) - 1))
        last = draw(st.integers(min_value=1, max_value=9))  # no trailing zero
        mantissa = lead * 10 ** (digits - 1) + rest * 10 + last
    power = draw(st.integers(min_value=-9, max_value=11))
    return Fraction(mantissa) * Fraction(10) ** power, digits


class TestFormatValue:
    @given(rounded_values())
    def test_rounded_round_trip(self, pair):
        value, digits = pair
        text = format_value(value, Precision.rounded(digits))
        got_value, got_precision = parse_number(text)
        assert got_value == value
        assert got_precision == Precision.rounded(digits)

    @given(st.integers(min_value=0, max_value=10**12))
    def test_exact_round_trip(self, n):
        assert parse_number(format_value(n, Precision.exact())) == (n, Precision.exact())

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=6))
    def test_approximate_round_trip(self, n, shift):
        value = Fraction(n, 10**shift)
        if value.denominator == 1:
            value = int(value)
        text = format_value(value, Precision.approximate())
        assert parse_number(text) == (value, Precision.approximate())

    def test_percent_text_examples(self):
        assert percent_text(Fraction(47, 50)) == "94.00%"
        assert percent_text(Fraction(1, 3)) == "33.33%"
        assert parse_number(percent_text(Fraction(1, 3)))[0] == Fraction(3333, 10000)
        # exact ties go to the even neighbour, across a power of ten too
        assert percent_text(Fraction(12345, 1_000_000)) == "1.234%"
        assert percent_text(Fraction(12355, 1_000_000)) == "1.236%"
        assert percent_text(Fraction(99995, 100_000)) == "100.0%"


def decimal_round(value: Fraction, digits: int) -> Decimal:
    """`value` rounded half to even to `digits` significant digits by the
    decimal module, its coefficient exactly `digits` digits long. The quotient
    is first taken to extra digits with ROUND_05UP, which keeps a value that is
    not a tie from reading as one in the second rounding."""
    wide = Context(prec=digits + 10, rounding=ROUND_05UP)
    narrow = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    rounded = narrow.plus(wide.divide(Decimal(value.numerator), Decimal(value.denominator)))
    return rounded.quantize(Decimal(1).scaleb(rounded.adjusted() - digits + 1), context=narrow)


def ties(digits: int):
    """Rationals whose first dropped digit, at `digits` significant digits, is
    an exact half: m.5 times a power of ten, m of `digits` digits."""
    return st.builds(
        lambda m, shift: Fraction(2 * m + 1, 2) * Fraction(10) ** shift,
        st.integers(10 ** (digits - 1), 10**digits - 1),
        st.integers(-12, 12),
    )


RATIONALS = st.builds(Fraction, st.integers(1, 10**15), st.integers(1, 10**15))
# (value, digits): a random positive rational or an exact tie at `digits`
ROUNDING_CASES = st.integers(1, 12).flatmap(lambda d: st.tuples(st.one_of(RATIONALS, ties(d)), st.just(d)))


class TestRoundingMatchesDecimal:
    @given(ROUNDING_CASES)
    def test_round_to_sig(self, case):
        value, digits = case
        mantissa, k = round_to_sig(value, digits)
        assert Decimal(mantissa).scaleb(k).as_tuple() == decimal_round(value, digits).as_tuple()

    @given(ROUNDING_CASES)
    def test_percent_text(self, case):
        value, digits = case
        text = percent_text(value / 100, digits)
        expected = decimal_round(value, digits)
        assert text.endswith("%")
        written = Decimal(text[:-1])
        # plain decimal text: the same value, to the same last digit, or to the units
        assert written == expected
        assert written.as_tuple().exponent == min(expected.as_tuple().exponent, 0)


def claims_doc(entries, platform="examplehub", exhaustive=False):
    return {"platform": platform, "exhaustive": exhaustive, "claims": entries}


def count_entry(claim_id="c1", **overrides):
    entry = {
        "claim_id": claim_id,
        "metric": "count",
        "predicate": {"category": "hate_speech"},
        "period": dict(JAN),
        "value": 120,
        "source_locator": "report:p3:table1",
    }
    entry.update(overrides)
    return entry


class TestLoadClaims:
    def test_separator_value_classified_rounded(self, tmp_path):
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(claims_doc([count_entry(value="1,200,000")])))
        claimset = load_claims(path)
        claim = claimset.claims[0]
        assert claim.reported_value == 1200000
        assert claim.precision == Precision.rounded(2)

    def test_approximate_percent_share(self, tmp_path):
        entry = count_entry(
            metric="share", value="~5%", denominator_predicate={}, claim_id="s1"
        )
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(claims_doc([entry])))
        claim = load_claims(path).claims[0]
        assert claim.metric is Metric.SHARE
        assert claim.reported_value == Fraction(1, 20)
        assert claim.precision == Precision.approximate()

    def test_duplicate_claim_id_names_the_id(self, tmp_path):
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(claims_doc([count_entry("dup"), count_entry("dup")])))
        with pytest.raises(ClaimsError, match="dup"):
            load_claims(path)

    @pytest.mark.parametrize(
        "mutation,field",
        [
            ({"metric": "median"}, "metric"),
            ({"predicate": {"nope": 1}}, "predicate"),
            ({"period": {"start": "2024-01-01"}}, "period"),
            ({"value": "12 apples"}, "value"),
            ({"source_locator": ""}, "source_locator"),
            ({"value": True}, "value"),
            ({"value": -5}, "value"),
            ({"value": [1]}, "value"),
            ({"value": ABSENT}, "value"),
            ({"period": "2024-01"}, "period"),
        ],
    )
    def test_malformed_claim_names_claim_and_field(self, tmp_path, mutation, field):
        entry = {name: value for name, value in count_entry("bad-claim", **mutation).items() if value is not ABSENT}
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(claims_doc([entry])))
        with pytest.raises(ClaimsError, match="bad-claim") as exc:
            load_claims(path)
        assert field in str(exc.value)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (claims_doc([count_entry("")]), "claim #0: field claim_id: missing or empty"),
            (claims_doc([count_entry(), "c2"]), "claim #1 is not an object"),
            (claims_doc({"c1": count_entry()}), "top-level 'claims' must be a list"),
            ({"claims": [count_entry()]}, "top-level 'platform' must be a non-empty string"),
        ],
        ids=["empty_claim_id", "claim_not_an_object", "claims_not_a_list", "no_platform"],
    )
    def test_malformed_claims_file_names_the_file(self, tmp_path, doc, message):
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ClaimsError) as exc:
            load_claims(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_float_share_value_is_read_as_written(self):
        entry = count_entry(metric="share", value=0.25, denominator_predicate={})
        claim = parse_claimset(claims_doc([entry])).claims[0]
        assert claim.reported_value == Fraction(1, 4)
        assert claim.precision == Precision.rounded(2)
        assert claim.value_text == "0.25"

    def test_share_above_one_rejected(self, tmp_path):
        entry = count_entry(metric="share", value="140%", denominator_predicate={})
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(claims_doc([entry])))
        with pytest.raises(ClaimsError, match=r"outside \[0, 1\]"):
            load_claims(path)

    def test_denominator_on_count_rejected(self, tmp_path):
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(claims_doc([count_entry(denominator_predicate={})])))
        with pytest.raises(ClaimsError, match="denominator"):
            load_claims(path)

    def test_null_predicates_are_true(self):
        entry = count_entry(metric="share", value="50%", predicate=None, denominator_predicate=None)
        claim = parse_claimset(claims_doc([entry])).claims[0]
        assert claim.predicate == claim.denominator_predicate == Predicate.parse({})

    def test_exhaustive_must_be_a_boolean(self):
        # the string "false" is truthy: taken as a flag it would switch coverage findings on
        with pytest.raises(ClaimsError, match="'exhaustive' must be true or false"):
            parse_claimset(claims_doc([count_entry()], exhaustive="false"))

    def test_save_load_round_trip(self, tmp_path):
        doc = claims_doc(
            [
                count_entry("a", value="1.2M"),
                count_entry("b", value=500),
                count_entry("s", metric="share", value="34.57%", denominator_predicate={}),
            ],
            exhaustive=True,
        )
        original = parse_claimset(doc)
        path = tmp_path / "claims.json"
        save_claims(original, path)
        assert load_claims(path) == original


class TestResolveCategories:
    def test_aliases_resolve_and_unknowns_flag(self, taxonomy):
        doc = claims_doc(
            [
                count_entry("ok", predicate={"category": "Hate speech"}),
                count_entry("bad", predicate={"category": "Jaywalking"}),
            ]
        )
        claimset = parse_claimset(doc)
        resolved, unresolvable = resolve_categories(claimset, taxonomy)
        by_id = {c.claim_id: c for c in resolved}
        assert by_id["ok"].predicate == Predicate.parse({"category": "hate_speech"})
        assert unresolvable == {"bad": "Jaywalking"}

    def test_denominator_labels_also_resolve(self, taxonomy):
        entry = count_entry(
            "s",
            metric="share",
            predicate={"category": "Disinformation"},
            denominator_predicate={"category": ["Adult nudity", "Disinformation"]},
            value="10%",
        )
        resolved, unresolvable = resolve_categories(parse_claimset(claims_doc([entry])), taxonomy)
        assert not unresolvable
        claim = resolved.claims[0]
        assert claim.predicate == Predicate.parse({"category": "misinformation"})
        assert claim.denominator_predicate == Predicate.parse(
            {"category": ["nudity", "misinformation"]}
        )


REPORT_HTML = """
<html><body>
<h1>Enforcement report</h1>
<table id="summary"><caption>Totals</caption>
  <tr><th>Metric</th><th>Value</th></tr>
  <tr><td>All actions</td><td>9,000</td></tr>
</table>
<table id="by-category"><caption>Actions by policy area</caption>
  <tr><th>Policy area</th><th>Actions taken</th></tr>
  <tr><td>Hate speech</td><td>1.2M</td></tr>
  <tr><td>Disinformation</td><td>330,000</td></tr>
  <tr><td>Adult nudity</td><td>0</td></tr>
</table>
</body></html>
"""


def mapping(**overrides) -> ExtractionMapping:
    data = {
        "table_selector": "#by-category",
        "category_column": "Policy area",
        "value_column": "Actions taken",
        "metric": "count",
        "period": dict(JAN),
        "platform": "examplehub",
    }
    data.update(overrides)
    return ExtractionMapping.from_dict(data)


class TestExtractHtmlClaims:
    def test_suffix_value_row(self, taxonomy):
        claimset = extract_html_claims(REPORT_HTML, mapping())
        assert len(claimset) == 3
        first = claimset.claims[0]
        assert first.reported_value == 1200000
        assert first.precision == Precision.rounded(2)
        assert first.predicate == Predicate.parse({"category": "Hate speech"})
        resolved, unresolvable = resolve_categories(claimset, taxonomy)
        assert not unresolvable
        assert resolved.claims[0].predicate == Predicate.parse({"category": "hate_speech"})

    def test_zero_cell_is_exact(self):
        claimset = extract_html_claims(REPORT_HTML, mapping())
        zero = claimset.claims[2]
        assert zero.reported_value == 0
        assert zero.precision == Precision.exact()

    def test_header_only_table_yields_empty_set(self):
        html = "<table id='t'><tr><th>Policy area</th><th>Actions taken</th></tr></table>"
        claimset = extract_html_claims(html, mapping(table_selector="#t"))
        assert len(claimset) == 0

    def test_selector_by_caption_and_index(self):
        by_caption = extract_html_claims(REPORT_HTML, mapping(table_selector="policy area"))
        by_index = extract_html_claims(REPORT_HTML, mapping(table_selector=1))
        assert claimset_to_dict(by_caption) == claimset_to_dict(by_index)

    def test_missing_table_errors(self):
        with pytest.raises(TableNotFound):
            extract_html_claims(REPORT_HTML, mapping(table_selector="#nope"))

    def test_missing_column_errors(self):
        with pytest.raises(TableNotFound, match="Violations"):
            extract_html_claims(REPORT_HTML, mapping(value_column="Violations"))

    def test_unparseable_cell_reports_verbatim_text(self):
        html = (
            "<table id='t'><tr><th>Policy area</th><th>Actions taken</th></tr>"
            "<tr><td>Hate speech</td><td>lots!!</td></tr></table>"
        )
        with pytest.raises(ClaimsError, match="lots!!"):
            extract_html_claims(html, mapping(table_selector="#t"))

    def test_extraction_round_trips_through_claims_file(self, tmp_path):
        claimset = extract_html_claims(REPORT_HTML, mapping())
        path = tmp_path / "claims.json"
        save_claims(claimset, path)
        assert load_claims(path) == claimset

    def test_mapping_exhaustive_must_be_a_boolean(self):
        assert mapping(exhaustive=True).exhaustive is True
        with pytest.raises(ClaimsError, match="'exhaustive' must be true or false"):
            mapping(exhaustive="false")

    def test_source_locators_name_table_and_row(self):
        claimset = extract_html_claims(REPORT_HTML, mapping())
        assert claimset.claims[1].source_locator == "table=by-category row=2 col=Actions taken"


class TestHtmlTable:
    def test_colspan_repeats_cell(self):
        html = "<table><tr><th colspan='2'>Wide</th><th>C</th></tr><tr><td>1</td><td>2</td><td>3</td></tr></table>"
        table = parse_tables(html)[0]
        assert table.rows[0] == ["Wide", "Wide", "C"]

    def test_entities_and_whitespace_normalized(self):
        html = "<table><tr><td>Hate&nbsp;&amp;\n   speech</td></tr></table>"
        assert parse_tables(html)[0].rows[0] == ["Hate & speech"]

    def test_caption_lookup_is_case_insensitive(self):
        tables = parse_tables(REPORT_HTML)
        assert find_table(tables, "ACTIONS BY POLICY").ident == "by-category"
