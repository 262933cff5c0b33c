from __future__ import annotations

import random
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modaudit.sor import (
    PROFILE_ATTRIBUTES,
    CategoryTaxonomy,
    ContentType,
    DecisionGround,
    DecisionType,
    QuarantineEntry,
    QuarantineReason,
    SorRecord,
    TaxonomyError,
    default_taxonomy,
    informativeness_profile,
    read_json,
    validate_record,
)
from modaudit.verify import EVENT_FIELD_ORDER, parse_export_row

from .conftest import make_record, make_row
from .test_ingest import make_event_row


class TestValidateRecord:
    def test_valid_row_round_trips(self, taxonomy):
        record = make_record(puid="p-1", decision_ground_reference_url="https://x.test/p")
        again = validate_record(record.to_row(), taxonomy)
        assert again == record

    def test_illegal_ground_without_explanation_is_accepted(self, taxonomy):
        row = make_row(decision_ground="ILLEGAL_CONTENT", illegal_content_explanation="")
        result = validate_record(row, taxonomy)
        assert isinstance(result, SorRecord)
        assert result.decision_ground is DecisionGround.ILLEGAL_CONTENT
        assert result.illegal_content_explanation is None

    def test_equal_content_and_application_dates_accepted(self, taxonomy):
        row = make_row(content_date="2024-01-12", application_date="2024-01-12")
        assert isinstance(validate_record(row, taxonomy), SorRecord)

    def test_created_before_application_goes_to_quarantine(self, taxonomy):
        row = make_row(created_at="2024-01-11T08:00:00Z")  # application is 2024-01-12
        result = validate_record(row, taxonomy)
        assert isinstance(result, QuarantineEntry)
        assert result.reason is QuarantineReason.DATE_ORDER
        assert result.field == "created_at"

    def test_content_after_application_goes_to_quarantine(self, taxonomy):
        row = make_row(content_date="2024-01-13")
        result = validate_record(row, taxonomy)
        assert isinstance(result, QuarantineEntry)
        assert result.reason is QuarantineReason.DATE_ORDER

    def test_missing_column_is_missing_field(self, taxonomy):
        row = make_row()
        del row["category"]
        result = validate_record(row, taxonomy)
        assert isinstance(result, QuarantineEntry)
        assert (result.reason, result.field) == (QuarantineReason.MISSING_FIELD, "category")

    def test_empty_required_value_is_missing_field(self, taxonomy):
        result = validate_record(make_row(platform_name=""), taxonomy)
        assert isinstance(result, QuarantineEntry)
        assert result.reason is QuarantineReason.MISSING_FIELD

    @pytest.mark.parametrize(
        "field,value",
        [
            ("decision_type", "NUKE_FROM_ORBIT"),
            ("decision_ground", "VIBES"),
            ("content_type", "HOLOGRAM"),
            ("automated_detection", "yes"),
            ("automated_decision", "MOSTLY"),
            ("source_type", "PSYCHIC"),
        ],
    )
    def test_bad_enums(self, taxonomy, field, value):
        result = validate_record(make_row(**{field: value}), taxonomy)
        assert isinstance(result, QuarantineEntry)
        assert (result.reason, result.field) == (QuarantineReason.BAD_ENUM, field)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("content_date", "2024-13-01"),
            ("application_date", "12/01/2024"),
            ("created_at", "2024-01-13 09:30:00"),
            ("created_at", "2024-01-13T09:30:00.123Z"),
            ("content_date", "20240115"),
            ("application_date", "2024-W03-1"),
            ("created_at", "2024-01-13T09:30+05Z"),
        ],
    )
    def test_bad_dates(self, taxonomy, field, value):
        result = validate_record(make_row(**{field: value}), taxonomy)
        assert isinstance(result, QuarantineEntry)
        assert result.reason is QuarantineReason.BAD_DATE

    @pytest.mark.parametrize(
        "field,value",
        [
            ("content_created", "20240115"),
            ("content_created", "2024-W03-1"),
            ("moderated_at", "2024-01-13T09:30+05Z"),
        ],
    )
    def test_export_rows_with_loose_dates_are_bad_date(self, field, value):
        row = make_event_row(**{field: value})
        result = parse_export_row([row[name] for name in EVENT_FIELD_ORDER])
        assert result == (QuarantineReason.BAD_DATE, field)

    def test_unknown_category(self, taxonomy):
        result = validate_record(make_row(category="jaywalking"), taxonomy)
        assert isinstance(result, QuarantineEntry)
        assert result.reason is QuarantineReason.UNKNOWN_CATEGORY

    def test_other_decision_requires_free_text(self, taxonomy):
        result = validate_record(make_row(decision_type="OTHER"), taxonomy)
        assert isinstance(result, QuarantineEntry)
        assert result.reason is QuarantineReason.EMPTY_OTHER_TEXT
        ok = validate_record(
            make_row(decision_type="OTHER", decision_type_other="geo block"), taxonomy
        )
        assert isinstance(ok, SorRecord)

    @given(
        st.dictionaries(
            st.sampled_from(list(make_row().keys())),
            st.text(max_size=12),
            max_size=17,
        )
    )
    def test_total_on_arbitrary_rows(self, raw):
        # never raises, always yields exactly one of the two outcomes
        result = validate_record(raw, default_taxonomy())
        assert isinstance(result, (SorRecord, QuarantineEntry))

    def test_random_records_round_trip(self):
        import random

        from .oracles import CODES, random_record

        taxonomy = CategoryTaxonomy(codes=CODES)
        rng = random.Random(12)
        for i in range(200):
            record = random_record(rng, i)
            assert validate_record(record.to_row(), taxonomy) == record


class TestTaxonomy:
    def test_alias_resolution(self, taxonomy):
        assert taxonomy.resolve("Hate speech") == "hate_speech"
        assert taxonomy.resolve("hate_speech") == "hate_speech"
        assert taxonomy.resolve("HATE SPEECH") == "hate_speech"  # casefold fallback
        assert taxonomy.resolve("jaywalking") is None

    def test_alias_must_target_known_code(self):
        with pytest.raises(TaxonomyError):
            CategoryTaxonomy(codes=("a",), aliases={"B": "missing"})

    def test_empty_codes_rejected(self):
        with pytest.raises(TaxonomyError):
            CategoryTaxonomy(codes=())


class TestInformativenessProfile:
    def test_two_of_ten_reference_urls(self):
        records = [
            make_record(
                uuid=f"sor-{i}",
                decision_ground_reference_url="https://x.test/p" if i < 2 else None,
            )
            for i in range(10)
        ]
        report = informativeness_profile(records)
        stat = report.stats["decision_ground_reference_url"]
        assert (stat.filled, stat.applicable, stat.rate) == (2, 10, 0.2)

    def test_empty_stream_has_absent_rates(self):
        report = informativeness_profile([])
        assert all(stat.rate is None for stat in report.stats.values())

    def test_explanation_applicability_restricted_to_illegal_ground(self):
        records = [
            make_record(uuid=f"i-{i}", decision_ground=DecisionGround.ILLEGAL_CONTENT)
            for i in range(5)
        ] + [make_record(uuid=f"t-{i}") for i in range(5)]
        report = informativeness_profile(records)
        stat = report.stats["illegal_content_explanation"]
        assert (stat.filled, stat.applicable, stat.rate) == (0, 5, 0.0)

    def test_each_attribute_counts_where_it_applies(self):
        rng = random.Random(17)
        records = [
            make_record(
                uuid=f"sor-{i}",
                decision_ground=rng.choice(tuple(DecisionGround)),
                decision_type=rng.choice((DecisionType.OTHER, DecisionType.VISIBILITY_REMOVAL)),
                content_type=rng.choice((ContentType.OTHER, ContentType.TEXT)),
                **{name: rng.choice((None, "filled")) for name in PROFILE_ATTRIBUTES},
            )
            for i in range(200)
        ]
        applies = {
            "decision_ground_reference_url": lambda r: True,
            "illegal_content_explanation": lambda r: r.decision_ground is DecisionGround.ILLEGAL_CONTENT,
            "decision_type_other": lambda r: r.decision_type is DecisionType.OTHER,
            "content_type_other": lambda r: r.content_type is ContentType.OTHER,
            "puid": lambda r: True,
        }
        expected = {}
        for name, test in applies.items():
            applicable = [r for r in records if test(r)]
            expected[name] = (sum(getattr(r, name) is not None for r in applicable), len(applicable))
        stats = informativeness_profile(records).stats
        assert {name: (st.filled, st.applicable) for name, st in stats.items()} == expected

    def test_report_dict_shape(self):
        d = informativeness_profile([make_record()]).to_dict()
        assert d["puid"] == {"filled": 0, "applicable": 1, "rate": 0.0}


def at_depth(frames: int, call):
    """The value of `call()`, called `frames` Python frames deeper than here."""
    return call() if frames == 0 else at_depth(frames - 1, call)


class TestReadJson:
    @pytest.mark.parametrize("frames", [0, 100, 300])
    def test_nesting_it_reads_does_not_depend_on_the_callers_depth(self, tmp_path, frames):
        path = tmp_path / "deep.json"
        path.write_text("[" * 980 + "]" * 980, encoding="utf-8")
        doc = at_depth(frames, lambda: read_json(path, "findings file"))
        depth = 1
        while doc:
            (doc,) = doc
            depth += 1
        assert (depth, doc) == (980, [])
