"""The contract of the record types: the records that validate refuse what
they refuse with the messages they always gave, whether built by position or
by keyword; the records that cross a process boundary come back equal
through pickle; and a run with default settings records its config block as
it always has.
"""

from __future__ import annotations

import json
import pickle
from datetime import date, datetime, timezone
from fractions import Fraction

import pytest

from modaudit.aggregate import AggregateResult, Predicate, ResultStatus
from modaudit.claims import Claim, ClaimsError, Metric, NumberFormatError, Precision
from modaudit.cli import run
from modaudit.ingest import CorpusManifest
from modaudit.settings import LinkConfig
from modaudit.sor import FIELD_ORDER, Period, QuarantineEntry, QuarantineReason, default_taxonomy

JAN = Period(date(2024, 1, 1), date(2024, 2, 1))


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"category_weight": Fraction(-1, 2)}, "linkage weights and threshold must be non-negative"),
        ({"threshold": Fraction(-1)}, "linkage weights and threshold must be non-negative"),
        ({"max_day_distance": 0}, "max_day_distance must be at least 1"),
    ],
)
def test_link_config_refuses(kwargs, message):
    with pytest.raises(ValueError) as exc:
        LinkConfig(**kwargs)
    assert str(exc.value) == message


def test_link_config_checks_positional_fields():
    with pytest.raises(ValueError, match="max_day_distance must be at least 1"):
        LinkConfig(Fraction(1, 2), Fraction(3, 10), Fraction(1, 5), Fraction(7, 10), 0)


@pytest.mark.parametrize(
    "args,message",
    [
        (("exactish",), "unknown precision kind 'exactish'"),
        (("rounded",), "rounded precision needs at least one significant digit"),
        (("rounded", 0), "rounded precision needs at least one significant digit"),
        (("exact", 2), "exact precision carries no digit count"),
        (("approximate", 1), "approximate precision carries no digit count"),
    ],
)
def test_precision_refuses(args, message):
    with pytest.raises(NumberFormatError) as exc:
        Precision(*args)
    assert str(exc.value) == message
    with pytest.raises(NumberFormatError) as exc:
        Precision(**dict(zip(("kind", "digits"), args)))
    assert str(exc.value) == message


def claim_fields(**changes) -> dict[str, object]:
    fields = {
        "claim_id": "c1",
        "platform_name": "examplehub",
        "metric": Metric.COUNT,
        "predicate": Predicate(),
        "denominator_predicate": None,
        "period": JAN,
        "reported_value": 5,
        "precision": Precision.exact(),
        "source_locator": "table=t row=1",
        "value_text": "5",
    }
    return {**fields, **changes}


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"claim_id": ""}, "claim_id must be non-empty"),
        ({"source_locator": ""}, "claim c1: source_locator must be non-empty"),
        (
            {"metric": Metric.SHARE, "denominator_predicate": Predicate(), "reported_value": Fraction(3, 2)},
            "claim c1: share value 3/2 outside [0, 1]",
        ),
        ({"denominator_predicate": Predicate()}, "claim c1: only share claims take a denominator"),
    ],
)
def test_claim_refuses(changes, message):
    fields = claim_fields(**changes)
    with pytest.raises(ClaimsError) as exc:
        Claim(**fields)
    assert str(exc.value) == message
    with pytest.raises(ClaimsError) as exc:
        Claim(*fields.values())
    assert str(exc.value) == message


def test_claim_accepts_a_share_with_its_denominator():
    fields = claim_fields(metric=Metric.SHARE, denominator_predicate=Predicate(), reported_value=Fraction(1, 2))
    assert Claim(**fields)._asdict() == fields


@pytest.mark.parametrize(
    "record",
    [
        QuarantineEntry(QuarantineReason.BAD_DATE, "created_at", {"uuid": "u1", "created_at": "x"}, "part.csv", 7),
        QuarantineEntry(QuarantineReason.MISSING_FIELD, "row_shape", {}),
        CorpusManifest(("a.csv", "b.csv"), 10, 2, (date(2024, 1, 1), date(2024, 1, 31))),
        CorpusManifest((), 0, 0, None),
        CorpusManifest(("e.csv",), 1, 0, (datetime(2024, 1, 1, tzinfo=timezone.utc),) * 2),
        default_taxonomy(),
        AggregateResult("c1", Fraction(2, 3), 2, 3),
        AggregateResult.unreplicable("c2", "period gap"),
        AggregateResult("c3", None, 0, 0, ResultStatus.UNDEFINED, "share denominator matched no records"),
    ],
)
def test_records_that_cross_processes_pickle_to_equals(record):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert copy == record and type(copy) is type(record)
        assert repr(copy) == repr(record)


def test_pickled_taxonomy_still_resolves():
    taxonomy = pickle.loads(pickle.dumps(default_taxonomy(), pickle.HIGHEST_PROTOCOL))
    assert taxonomy.resolve("FRAUD") == "scam" and "scam" in taxonomy and "Fraud" not in taxonomy


def test_run_records_the_default_config(tmp_path):
    dump = tmp_path / "dump"
    dump.mkdir()
    (dump / "part-00000.csv").write_text(",".join(FIELD_ORDER) + "\n", encoding="utf-8")
    assert run(["validate", "--corpus", str(dump), "--out", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    record = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    assert record["config"] == {
        "taxonomy": "<builtin>",
        "tolerance": {"absolute_floor": 0.0, "relative": 0.0, "rounding_aware": True, "approximate_relative": 0.05},
        "linkage": {
            "category_weight": "1/2",
            "decision_weight": "3/10",
            "time_weight": "1/5",
            "threshold": "7/10",
            "max_day_distance": 3,
        },
        "deadline_days": 7,
        "severity_threshold": "warn",
        "parallel": 1,
    }
