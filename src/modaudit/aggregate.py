"""Claim replication: count a record stream into a summary of cells in one pass,
then compute the aggregate each claim asserts from the cells, with exact
arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import date
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .sor import (
    AutomatedDecision,
    ContentType,
    DecisionGround,
    DecisionType,
    SorRecord,
    SourceType,
    parse_date,
    render_cell,
)

if TYPE_CHECKING:  # pragma: no cover
    from .claims import Claim


class PredicateError(ValueError):
    pass


class PeriodError(ValueError):
    pass


# Filterable record attributes and how their literals parse. Category and
# platform_name are open string domains; the rest are closed enums.
_ENUM_ATTRS = {
    "decision_type": DecisionType,
    "decision_ground": DecisionGround,
    "content_type": ContentType,
    "automated_decision": AutomatedDecision,
    "source_type": SourceType,
}
_STRING_ATTRS = ("category", "platform_name")
FILTERABLE_ATTRIBUTES = tuple(_ENUM_ATTRS) + _STRING_ATTRS + ("automated_detection",)


def _parse_literal(attr: str, value: object) -> object:
    if attr in _ENUM_ATTRS:
        enum_cls = _ENUM_ATTRS[attr]
        try:
            return enum_cls(str(value))
        except ValueError:
            raise PredicateError(f"{value!r} is not a valid {attr} value") from None
    if attr == "automated_detection":
        if isinstance(value, bool):
            return value
        if value in ("true", "false"):
            return value == "true"
        raise PredicateError(f"{value!r} is not a valid automated_detection value")
    if not isinstance(value, str) or value == "":
        raise PredicateError(f"{attr} literal must be a non-empty string, got {value!r}")
    return value


@dataclass(frozen=True)
class Predicate:
    """Conjunction of membership tests over record attributes.

    An empty conjunct list is TRUE. Disjunctions across attributes are out of
    scope; a multi-valued conjunct expresses attribute-level alternatives.
    """

    conjuncts: tuple[tuple[str, frozenset], ...] = ()

    @classmethod
    def parse(cls, raw: object) -> "Predicate":
        if not isinstance(raw, Mapping):
            raise PredicateError("must be a JSON object")
        conjuncts: list[tuple[str, frozenset]] = []
        for attr in sorted(raw):
            if attr not in FILTERABLE_ATTRIBUTES:
                raise PredicateError(f"unknown filter attribute {attr!r}")
            value = raw[attr]
            values = value if isinstance(value, (list, tuple)) else [value]
            if not values:
                raise PredicateError(f"empty value set for attribute {attr!r}")
            parsed = frozenset(_parse_literal(attr, v) for v in values)
            conjuncts.append((attr, parsed))
        return cls(conjuncts=tuple(conjuncts))

    def allows(self, attr: str, value: object) -> bool:
        """Whether a record carrying this attribute value could satisfy the
        predicate (used for report-coverage checks)."""
        for name, allowed in self.conjuncts:
            if name == attr:
                return value in allowed
        return True

    def to_json(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for attr, allowed in self.conjuncts:
            rendered = sorted(map(render_cell, allowed))
            out[attr] = rendered[0] if len(rendered) == 1 else rendered
        return out

    def replace_values(self, attr: str, mapper) -> "Predicate":
        """Predicate with attr's literals rewritten through mapper; callers
        check first that mapper maps every literal."""
        conjuncts = []
        for name, allowed in self.conjuncts:
            if name == attr:
                allowed = frozenset(mapper(v) for v in allowed)
            conjuncts.append((name, allowed))
        return Predicate(conjuncts=tuple(conjuncts))


_RECORD_DATE = {
    "application_date": attrgetter("application_date"),
    "content_date": attrgetter("content_date"),
    "created_at": lambda record: record.created_at.date(),
}
PERIOD_FIELDS = tuple(_RECORD_DATE)


def _json_type(value: object) -> str:
    """The JSON type of a non-string value that json.loads made, as a message
    names it."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    if isinstance(value, list):
        return "an array"
    if isinstance(value, Mapping):
        return "an object"
    return type(value).__name__


@dataclass(frozen=True)
class Period:
    """Half-open date window [start, end) over one of the record's dates."""

    start: date
    end: date
    field: str = "application_date"

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise PeriodError(f"period start {self.start} must precede end {self.end}")
        if self.field not in PERIOD_FIELDS:
            raise PeriodError(f"unknown period field {self.field!r}")

    @classmethod
    def parse(cls, raw: Mapping[str, object]) -> "Period":
        """A period from its JSON object: `start` and `end` as YYYY-MM-DD
        strings, and an optional `field` string naming the date it windows."""
        for key in ("start", "end"):
            if key not in raw:
                raise PeriodError(f"period is missing {key!r}")
        text = {"start": raw["start"], "end": raw["end"], "field": raw.get("field", "application_date")}
        for key, value in text.items():
            if not isinstance(value, str):
                raise PeriodError(f"period {key} must be a string, got {_json_type(value)}")
        try:
            start, end = parse_date(text["start"]), parse_date(text["end"])  # type: ignore[arg-type]
        except ValueError as exc:
            raise PeriodError(str(exc)) from None
        return cls(start=start, end=end, field=text["field"])  # type: ignore[arg-type]

    def record_date(self, record: SorRecord) -> date:
        return _RECORD_DATE[self.field](record)

    def contains(self, record: SorRecord) -> bool:
        d = self.record_date(record)
        return self.start <= d < self.end

    def contains_date(self, d: date) -> bool:
        return self.start <= d < self.end

    def meets_coverage(self, lo: date, hi: date) -> bool:
        """Whether a record with its application date in [lo, hi] can fall in
        the period. A record is refused unless content_date <= application_date
        <= created_at, so content dates reach below lo and creation dates above hi."""
        if self.field == "content_date":
            return self.start <= hi
        if self.field == "created_at":
            return lo < self.end
        return self.start <= hi and lo < self.end

    def to_json(self) -> dict[str, str]:
        return {"start": self.start.isoformat(), "end": self.end.isoformat(), "field": self.field}


class ResultStatus(str, Enum):
    OK = "ok"
    UNDEFINED = "undefined"
    UNREPLICABLE = "unreplicable"


@dataclass(frozen=True)
class AggregateResult:
    """Replicated value for one claim. computed_value is exact: an int for
    counts, a Fraction for shares, None when UNDEFINED or UNREPLICABLE."""

    claim_id: str
    computed_value: int | Fraction | None
    matched_count: int
    denominator_count: int | None = None
    status: ResultStatus = ResultStatus.OK
    note: str = ""

    @classmethod
    def unreplicable(cls, claim_id: str, note: str) -> "AggregateResult":
        return cls(
            claim_id=claim_id,
            computed_value=None,
            matched_count=0,
            denominator_count=None,
            status=ResultStatus.UNREPLICABLE,
            note=note,
        )

    def to_dict(self) -> dict[str, object]:
        value: object
        if self.computed_value is None:
            value = None
        elif isinstance(self.computed_value, Fraction):
            value = float(self.computed_value)
        else:
            value = self.computed_value
        return {
            "claim_id": self.claim_id,
            "computed_value": value,
            "matched_count": self.matched_count,
            "denominator_count": self.denominator_count,
            "status": self.status.value,
            "note": self.note,
        }


class CellTally:
    """Per (category, decision_type) action counts over the claims' application-
    date hull, used for coverage checks of exhaustive claim sets. Filled from
    the same corpus summary the claims are replicated from."""

    def __init__(self, hull_start: date, hull_end: date) -> None:
        self.hull_start = hull_start
        self.hull_end = hull_end
        self.counts: dict[tuple[str, DecisionType], int] = {}

    @classmethod
    def for_claims(cls, claims: Sequence["Claim"]) -> "CellTally | None":
        periods = [c.period for c in claims]
        if not periods:
            return None
        return cls(min(p.start for p in periods), max(p.end for p in periods))


class CellLayout:
    """The cell key of a corpus summary for a set of claims and an optional
    coverage tally (the group-by of Gray et al., "Data Cube", ICDE 1996).

    A record's cell holds its value of every attribute that a claim's
    predicate or denominator tests (category and decision_type too when a
    tally rides along) and, for each period field in use, its date bucket:
    how many period edges on that field (the tally's hull included) fall on
    or before the record's date. Every claim, and the tally, is decided by the
    cell alone, so a claim's counts are sums over cells. Summaries of disjoint
    record streams add like counters.
    """

    def __init__(self, claims: Sequence["Claim"], cell_tally: CellTally | None = None) -> None:
        seen: set[str] = set()
        attrs: set[str] = set()
        edges: dict[str, set[date]] = {}
        for claim in claims:
            if claim.claim_id in seen:
                raise PredicateError(f"duplicate claim_id {claim.claim_id!r}")
            seen.add(claim.claim_id)
            for predicate in (claim.predicate, claim.denominator_predicate):
                if predicate is not None:
                    attrs.update(attr for attr, _ in predicate.conjuncts)
            edges.setdefault(claim.period.field, set()).update((claim.period.start, claim.period.end))
        if cell_tally is not None:
            attrs.update(("category", "decision_type"))
            edges.setdefault("application_date", set()).update((cell_tally.hull_start, cell_tally.hull_end))
        self.claims = tuple(claims)
        self.cell_tally = cell_tally
        self.attrs = tuple(sorted(attrs))
        self.edges = {field: sorted(edges[field]) for field in PERIOD_FIELDS if field in edges}

    def summarize(self, records: Iterable[SorRecord]) -> Counter:
        """Count the records by cell, in one pass."""
        # attrgetter of several names gives a tuple, of one name a bare value
        if len(self.attrs) > 1:
            values = attrgetter(*self.attrs)
        elif self.attrs:
            value = attrgetter(self.attrs[0])
            values = lambda record: (value(record),)  # noqa: E731
        else:
            values = lambda record: ()  # noqa: E731
        # Records share few dates, so each date's bucket is looked up once per
        # call and then read from that field's dict.
        buckets = [(_RECORD_DATE[field], edges, {}) for field, edges in self.edges.items()]

        def cell(record: SorRecord) -> tuple:
            key = values(record)
            for record_date, edges, bucket_of in buckets:
                day = record_date(record)
                bucket = bucket_of.get(day)
                if bucket is None:
                    bucket = bucket_of[day] = bisect_right(edges, day)
                key += (bucket,)
            return key

        return Counter(map(cell, records))

    def _window(self, field: str, start: date, end: date) -> tuple[int, int, int]:
        """(position of the field's bucket in a cell, lo, hi): a date lies in
        [start, end) exactly when lo < bucket <= hi."""
        edges = self.edges[field]
        return len(self.attrs) + list(self.edges).index(field), edges.index(start), edges.index(end)

    def evaluate(self, summary: Mapping[tuple, int]) -> list[AggregateResult]:
        """Every claim's result from a summary made with this layout, ordered
        by claim_id; the coverage tally, if any, gets its counts added."""
        column = {attr: i for i, attr in enumerate(self.attrs)}
        cells = list(summary.items())

        def count(in_period: list, predicate: Predicate) -> int:
            tests = [(column[attr], allowed) for attr, allowed in predicate.conjuncts]
            return sum(n for cell, n in in_period if all(cell[i] in allowed for i, allowed in tests))

        results = []
        for claim in self.claims:
            period = claim.period
            at, lo, hi = self._window(period.field, period.start, period.end)
            in_period = [(cell, n) for cell, n in cells if lo < cell[at] <= hi]
            matched = count(in_period, claim.predicate)
            den = claim.denominator_predicate
            results.append(_result(claim.claim_id, matched, None if den is None else count(in_period, den)))
        results.sort(key=lambda r: r.claim_id)

        tally = self.cell_tally
        if tally is not None:
            at, lo, hi = self._window("application_date", tally.hull_start, tally.hull_end)
            category, decision_type = column["category"], column["decision_type"]
            for cell, n in cells:
                if lo < cell[at] <= hi:
                    key = (cell[category], cell[decision_type])
                    tally.counts[key] = tally.counts.get(key, 0) + n
        return results


def _result(claim_id: str, matched: int, denominator: int | None) -> AggregateResult:
    if denominator is None:
        return AggregateResult(claim_id=claim_id, computed_value=matched, matched_count=matched)
    if denominator == 0:
        return AggregateResult(
            claim_id=claim_id,
            computed_value=None,
            matched_count=matched,
            denominator_count=0,
            status=ResultStatus.UNDEFINED,
            note="share denominator matched no records",
        )
    return AggregateResult(
        claim_id=claim_id,
        computed_value=Fraction(matched, denominator),
        matched_count=matched,
        denominator_count=denominator,
    )


def replicate_all(
    claims: Sequence["Claim"],
    records: Iterable[SorRecord],
    cell_tally: CellTally | None = None,
) -> list[AggregateResult]:
    """Replicate every claim from one summary of the stream.

    The records are counted by cell in a single pass (see CellLayout), then
    each claim, and the optional coverage tally, is evaluated once over the
    cells; results come back ordered by claim_id. With no claims and no tally
    the stream is not read.
    """
    layout = CellLayout(claims, cell_tally)
    if not claims and cell_tally is None:
        return []
    return layout.evaluate(layout.summarize(records))
