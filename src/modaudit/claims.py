"""Report claims: structured aggregate assertions extracted from published
reports, plus the number-normalization rules that classify how precise a
written value is.

Precision classification drives the tolerance policy downstream:
  - EXACT: bare unseparated integer text ("500", "0").
  - ROUNDED(d): anything with separators, a suffix, or a decimal point; d is
    the count of significant digits in the mantissa ("1,200,000" -> 2,
    "1.2M" -> 2, "34.57%" -> 4).
  - APPROXIMATE: an explicit hedge marker ("~5%", "approximately 300").
"""

from __future__ import annotations

import math
import re
import sys
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Mapping, NamedTuple

from .aggregate import Period, PeriodError, Predicate, PredicateError
from .sor import CategoryTaxonomy, json_text, read_json


class ClaimsError(ValueError):
    pass


class NumberFormatError(ValueError):
    pass


class Metric(str, Enum):
    COUNT = "count"
    SHARE = "share"


class _PrecisionFields(NamedTuple):
    kind: str  # exact | rounded | approximate
    digits: int | None = None


class Precision(_PrecisionFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("exact", "rounded", "approximate"):
            raise NumberFormatError(f"unknown precision kind {self.kind!r}")
        if self.kind == "rounded" and (self.digits is None or self.digits < 1):
            raise NumberFormatError("rounded precision needs at least one significant digit")
        if self.kind != "rounded" and self.digits is not None:
            raise NumberFormatError(f"{self.kind} precision carries no digit count")
        return self

    @classmethod
    def exact(cls) -> "Precision":
        return cls("exact")

    @classmethod
    def approximate(cls) -> "Precision":
        return cls("approximate")

    @classmethod
    def rounded(cls, digits: int) -> "Precision":
        return cls("rounded", digits)


_MANTISSA = re.compile(r"^(?:\d{1,3}(?:,\d{3})+|\d+)?(?:\.\d*)?$")
_SUFFIX_POW = {"K": 3, "M": 6, "B": 9}
_POW_SUFFIX = {power: suffix for suffix, power in _SUFFIX_POW.items()}
_APPROX_PREFIXES = ("approximately", "approx.", "approx", "about")


def significant_digits(mantissa: str) -> int:
    """Significant digits of a separator-free mantissa string.

    With a decimal point every digit from the first nonzero one counts;
    without one, trailing zeros do not. A zero mantissa counts as one digit.
    """
    has_point = "." in mantissa
    digits = mantissa.replace(".", "").lstrip("0")
    if not has_point:
        digits = digits.rstrip("0")
    return len(digits) if digits else 1


def parse_number(text: str) -> tuple[int | Fraction, Precision]:
    """Normalize one written value: separators, K/M/B suffixes, %, hedges.

    Returns the exact numeric value (int or Fraction) and its precision class.
    Negative values are rejected; reported aggregates are non-negative.
    """
    raw = text.strip()
    if not raw:
        raise NumberFormatError("empty value text")

    approximate = False
    if raw.startswith("~"):
        approximate = True
        raw = raw[1:].strip()
    else:
        folded = raw.casefold()
        for prefix in _APPROX_PREFIXES:
            if folded.startswith(prefix):
                approximate = True
                raw = raw[len(prefix) :].strip()
                break

    if raw.startswith("-"):
        raise NumberFormatError(f"negative value {text!r} is not a valid aggregate")

    percent = raw.endswith("%")
    if percent:
        raw = raw[:-1].strip()

    power = 0
    if raw and raw[-1].upper() in _SUFFIX_POW:
        if percent:
            raise NumberFormatError(f"cannot combine a magnitude suffix with %: {text!r}")
        power = _SUFFIX_POW[raw[-1].upper()]
        raw = raw[:-1].strip()

    if not _MANTISSA.match(raw) or raw in ("", "."):
        raise NumberFormatError(f"unparseable number {text!r}")

    had_separators = "," in raw
    mantissa = raw.replace(",", "")
    int_part, point, frac_part = mantissa.partition(".")
    digits = (int_part or "0") + frac_part
    # The interpreter's limit on converting digit strings binds the digits
    # read here and the integer digits the suffix's power adds to them. The
    # limit came in 3.10.7; before it, and at 0, there is none.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    length = max(len(digits), len(int_part) + power)
    if limit and length > limit:
        raise NumberFormatError(f"value of {length} digits is too long to read")
    value: int | Fraction = Fraction(int(digits), 10 ** len(frac_part))
    value *= Fraction(10) ** power
    if percent:
        value /= 100
    if value.denominator == 1:
        value = int(value)

    if approximate:
        precision = Precision.approximate()
    elif not percent and power == 0 and not had_separators and not point:
        precision = Precision.exact()
    else:
        precision = Precision.rounded(significant_digits(mantissa))
    return value, precision


def floor_log10(value: int | Fraction) -> int:
    """Exact floor(log10(value)) for positive rationals."""
    if value <= 0:
        raise ValueError("floor_log10 needs a positive value")
    # log10 takes ints of any size, so the estimate needs no float of the value.
    estimate = math.floor(math.log10(value.numerator) - math.log10(value.denominator))
    while Fraction(10) ** estimate > value:
        estimate -= 1
    while Fraction(10) ** (estimate + 1) <= value:
        estimate += 1
    return estimate


def _decimal_text(digits: int, exponent: int) -> str:
    """Render digits * 10**exponent as plain decimal text, keeping trailing
    zeros that the digit string carries."""
    s = str(digits)
    if exponent >= 0:
        return s + "0" * exponent
    if -exponent < len(s):
        cut = len(s) + exponent
        return s[:cut] + "." + s[cut:]
    return "0." + "0" * (-exponent - len(s)) + s


def round_to_sig(value: Fraction, digits: int) -> tuple[int, int]:
    """Round a positive rational to `digits` significant digits, half to even.

    Returns (D, k) with value ~= D * 10**k and D having exactly `digits` digits.
    """
    exp = floor_log10(value)
    k = exp - digits + 1
    scaled = round(value / Fraction(10) ** k)  # a Fraction rounds half to even
    if scaled >= 10**digits:  # rounded across a power boundary
        scaled //= 10
        k += 1
    return scaled, k


def format_value(value: int | Fraction, precision: Precision) -> str:
    """Canonical text for a value at a precision class; re-parsing the text
    recovers the same (value, precision) pair."""
    if precision.kind == "exact":
        if isinstance(value, Fraction) and value.denominator != 1:
            raise NumberFormatError("exact values must be integers")
        return str(int(value))
    if precision.kind == "approximate":
        if isinstance(value, int) or value.denominator == 1:
            return f"~{int(value)}"
        exp = 0
        v = Fraction(value)
        while v.denominator != 1:
            v *= 10
            exp += 1
            if exp > 32:
                raise NumberFormatError("approximate value has no terminating decimal form")
        return "~" + _decimal_text(int(v), -exp)

    digits = precision.digits or 1
    if value == 0:
        return "0."
    v = Fraction(value)
    exp = floor_log10(v)
    k = exp - digits + 1
    scaled = v / Fraction(10) ** k
    if scaled.denominator != 1:
        raise NumberFormatError(f"{value} cannot be written with {digits} significant digits")
    d_int = int(scaled)
    if k > 0:
        s = min(9, 3 * math.ceil(k / 3))
        return _decimal_text(d_int, k - s) + _POW_SUFFIX[s]
    if k == 0:
        return str(d_int) + "."
    return _decimal_text(d_int, k)


def percent_text(value: Fraction, digits: int = 4) -> str:
    """Render a share in (0, 1] as percent text with `digits` significant
    digits, rounded half to even."""
    if value <= 0:
        raise NumberFormatError("percent_text needs a positive share")
    d_int, k = round_to_sig(value * 100, digits)
    return _decimal_text(d_int, k) + "%"


# ---------------------------------------------------------------------------
# Claim model
# ---------------------------------------------------------------------------


class _ClaimFields(NamedTuple):
    claim_id: str
    platform_name: str
    metric: Metric
    predicate: Predicate
    denominator_predicate: Predicate | None
    period: Period
    reported_value: int | Fraction
    precision: Precision
    source_locator: str
    value_text: str


class Claim(_ClaimFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.claim_id:
            raise ClaimsError("claim_id must be non-empty")
        if not self.source_locator:
            raise ClaimsError(f"claim {self.claim_id}: source_locator must be non-empty")
        if self.metric is Metric.SHARE:
            if not (0 <= self.reported_value <= 1):
                raise ClaimsError(
                    f"claim {self.claim_id}: share value {self.reported_value} outside [0, 1]"
                )
        elif self.denominator_predicate is not None:
            raise ClaimsError(f"claim {self.claim_id}: only share claims take a denominator")
        return self


class ClaimSet:
    """The claims of one report, iterated in order; claim ids are unique."""

    __slots__ = ("claims", "exhaustive")

    def __init__(self, claims: tuple[Claim, ...], exhaustive: bool = False) -> None:
        seen: set[str] = set()
        for claim in claims:
            if claim.claim_id in seen:
                raise ClaimsError(f"duplicate claim_id {claim.claim_id!r}")
            seen.add(claim.claim_id)
        self.claims = claims
        self.exhaustive = exhaustive

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClaimSet):
            return NotImplemented
        return (self.claims, self.exhaustive) == (other.claims, other.exhaustive)

    def __repr__(self) -> str:
        return f"ClaimSet(claims={self.claims!r}, exhaustive={self.exhaustive!r})"

    def __iter__(self):
        return iter(self.claims)

    def __len__(self) -> int:
        return len(self.claims)


def _claim_value(raw: object, claim_id: str, metric: Metric) -> tuple[int | Fraction, Precision, str]:
    if isinstance(raw, bool):
        raise ClaimsError(f"claim {claim_id}: field value: booleans are not numbers")
    if isinstance(raw, int):
        if raw < 0:
            raise ClaimsError(f"claim {claim_id}: field value: negative")
        return raw, Precision.exact(), str(raw)
    if isinstance(raw, float):
        text = repr(raw)
    elif isinstance(raw, str):
        text = raw
    else:
        raise ClaimsError(f"claim {claim_id}: field value: expected number or string")
    try:
        value, precision = parse_number(text)
    except NumberFormatError as exc:
        raise ClaimsError(f"claim {claim_id}: field value: {exc}") from None
    return value, precision, text


def _claim_predicate(entry: Mapping[str, object], name: str, claim_id: str) -> Predicate:
    """The predicate in field `name`; absent or null is the true predicate."""
    raw = entry.get(name)
    try:
        return Predicate.parse({} if raw is None else raw)
    except PredicateError as exc:
        raise ClaimsError(f"claim {claim_id}: field {name}: {exc}") from None


def parse_claimset(data: Mapping[str, object], source: str = "<claims>") -> ClaimSet:
    platform = data.get("platform")
    if not isinstance(platform, str) or not platform:
        raise ClaimsError(f"{source}: top-level 'platform' must be a non-empty string")
    exhaustive = data.get("exhaustive", False)
    if not isinstance(exhaustive, bool):
        raise ClaimsError(f"{source}: top-level 'exhaustive' must be true or false")
    raw_claims = data.get("claims")
    if not isinstance(raw_claims, list):
        raise ClaimsError(f"{source}: top-level 'claims' must be a list")

    claims: list[Claim] = []
    for i, entry in enumerate(raw_claims):
        if not isinstance(entry, dict):
            raise ClaimsError(f"{source}: claim #{i} is not an object")
        claim_id = entry.get("claim_id")
        if not isinstance(claim_id, str) or not claim_id:
            raise ClaimsError(f"{source}: claim #{i}: field claim_id: missing or empty")
        try:
            metric = Metric(str(entry.get("metric", "")).lower())
        except ValueError:
            raise ClaimsError(f"claim {claim_id}: field metric: must be count or share") from None
        predicate = _claim_predicate(entry, "predicate", claim_id)
        denominator = None
        if metric is Metric.SHARE:
            denominator = _claim_predicate(entry, "denominator_predicate", claim_id)
        elif "denominator_predicate" in entry:
            raise ClaimsError(f"claim {claim_id}: field denominator_predicate: only valid for share")
        period_raw = entry.get("period")
        if not isinstance(period_raw, dict):
            raise ClaimsError(f"claim {claim_id}: field period: missing or not an object")
        try:
            period = Period.parse(period_raw)
        except PeriodError as exc:
            raise ClaimsError(f"claim {claim_id}: field period: {exc}") from None
        if "value" not in entry:
            raise ClaimsError(f"claim {claim_id}: field value: missing")
        value, precision, text = _claim_value(entry["value"], claim_id, metric)
        locator = entry.get("source_locator")
        if not isinstance(locator, str) or not locator:
            raise ClaimsError(f"claim {claim_id}: field source_locator: missing or empty")
        claims.append(
            Claim(
                claim_id=claim_id,
                platform_name=platform,
                metric=metric,
                predicate=predicate,
                denominator_predicate=denominator,
                period=period,
                reported_value=value,
                precision=precision,
                source_locator=locator,
                value_text=text,
            )
        )
    return ClaimSet(claims=tuple(claims), exhaustive=exhaustive)


def load_claims(path: str | Path) -> ClaimSet:
    """Load and fully validate a claims file. Any malformed claim aborts the
    load, naming the claim and field."""
    path = Path(path)
    data = read_json(path, "claims file")
    if not isinstance(data, dict):
        raise ClaimsError(f"{path}: top level must be an object")
    return parse_claimset(data, source=str(path))


def claimset_to_dict(claimset: ClaimSet) -> dict[str, object]:
    platform = claimset.claims[0].platform_name if claimset.claims else ""
    out: list[dict[str, object]] = []
    for claim in claimset.claims:
        entry: dict[str, object] = {
            "claim_id": claim.claim_id,
            "metric": claim.metric.value,
            "predicate": claim.predicate.to_json(),
            "period": claim.period.to_json(),
            "value": int(claim.reported_value)
            if claim.precision.kind == "exact"
            else claim.value_text,
            "source_locator": claim.source_locator,
        }
        if claim.denominator_predicate is not None:
            entry["denominator_predicate"] = claim.denominator_predicate.to_json()
        out.append(entry)
    return {"platform": platform, "exhaustive": claimset.exhaustive, "claims": out}


def save_claims(claimset: ClaimSet, path: str | Path) -> None:
    Path(path).write_text(json_text(claimset_to_dict(claimset)), encoding="utf-8")


def resolve_categories(
    claimset: ClaimSet, taxonomy: CategoryTaxonomy
) -> tuple[ClaimSet, dict[str, str]]:
    """Rewrite category literals in claim predicates through taxonomy aliases.

    Claims whose labels do not resolve are kept as-is and returned in the
    second element (claim_id -> the least offending label in sorted order,
    so the finding does not depend on set iteration order); downstream they
    become UNREPLICABLE findings rather than load failures.
    """
    resolved: list[Claim] = []
    unresolvable: dict[str, str] = {}
    for claim in claimset.claims:
        denominator = claim.denominator_predicate
        predicates = [claim.predicate, denominator or Predicate()]
        labels = {v for p in predicates for attr, allowed in p.conjuncts if attr == "category" for v in allowed}
        unknown = [label for label in labels if taxonomy.resolve(label) is None]
        if unknown:
            unresolvable[claim.claim_id] = min(unknown)
            resolved.append(claim)
            continue
        # built through Claim, which checks it, rather than _replace, which does not
        resolved.append(
            Claim(
                **{
                    **claim._asdict(),
                    "predicate": claim.predicate.replace_values("category", taxonomy.resolve),
                    "denominator_predicate": None
                    if denominator is None
                    else denominator.replace_values("category", taxonomy.resolve),
                }
            )
        )
    return ClaimSet(claims=tuple(resolved), exhaustive=claimset.exhaustive), unresolvable


# ---------------------------------------------------------------------------
# HTML extraction
# ---------------------------------------------------------------------------


class ExtractionMapping(NamedTuple):
    """Binding of one report-table layout to claim semantics."""

    table_selector: str | int
    category_column: str | int
    value_column: str | int
    metric: Metric
    period: Period
    platform: str
    exhaustive: bool = False

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExtractionMapping":
        exhaustive = data.get("exhaustive", False)
        if not isinstance(exhaustive, bool):
            raise ClaimsError("extraction mapping 'exhaustive' must be true or false")
        try:
            metric = Metric(str(data["metric"]).lower())
            period = Period.parse(data["period"])  # type: ignore[arg-type]
            return cls(
                table_selector=data["table_selector"],  # type: ignore[arg-type]
                category_column=data["category_column"],  # type: ignore[arg-type]
                value_column=data["value_column"],  # type: ignore[arg-type]
                metric=metric,
                period=period,
                platform=str(data["platform"]),
                exhaustive=exhaustive,
            )
        except KeyError as exc:
            raise ClaimsError(f"extraction mapping is missing {exc.args[0]!r}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "ExtractionMapping":
        return cls.from_dict(read_json(path, "extraction mapping"))


def extract_html_claims(document: str, mapping: ExtractionMapping) -> ClaimSet:
    """One claim per data row of the mapped table. Cell values pass through the
    number-normalization rules; category labels stay raw until taxonomy
    resolution."""
    # imported here: html.parser is needed only to read an HTML report
    from .htmltable import find_table, parse_tables, resolve_column

    tables = parse_tables(document)
    table = find_table(tables, mapping.table_selector)
    table_label = table.ident or f"table{tables.index(table)}"
    if not table.rows:
        return ClaimSet(claims=(), exhaustive=mapping.exhaustive)

    header = table.rows[0]
    cat_idx = resolve_column(header, mapping.category_column, "category")
    val_idx = resolve_column(header, mapping.value_column, "value")

    claims: list[Claim] = []
    for i, row in enumerate(table.rows[1:], start=1):
        if not any(cell for cell in row):
            continue
        if cat_idx >= len(row) or val_idx >= len(row):
            raise ClaimsError(f"{table_label} row {i}: fewer cells than the mapped columns")
        label = row[cat_idx]
        cell = row[val_idx]
        try:
            value, precision = parse_number(cell)
        except NumberFormatError:
            raise ClaimsError(f"{table_label} row {i}: unparseable value cell {cell!r}") from None
        if mapping.metric is Metric.SHARE and not (0 <= value <= 1):
            raise ClaimsError(f"{table_label} row {i}: share value {cell!r} outside [0, 1]")
        claims.append(
            Claim(
                claim_id=f"{mapping.platform}-{table_label}-r{i:03d}",
                platform_name=mapping.platform,
                metric=mapping.metric,
                predicate=Predicate.parse({"category": label}),
                denominator_predicate=Predicate() if mapping.metric is Metric.SHARE else None,
                period=mapping.period,
                reported_value=value,
                precision=precision,
                source_locator=f"table={table_label} row={i} col={mapping.value_column}",
                value_text=cell,
            )
        )
    return ClaimSet(claims=tuple(claims), exhaustive=mapping.exhaustive)
