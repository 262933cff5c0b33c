"""Report cross-checking: compare each claim's reported value with its
replicated aggregate under a tolerance policy and emit typed findings.

This is an internal-coherence check. A finding never says which side is wrong,
only that the two self-reported sources disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .aggregate import AggregateResult, CellTally, ResultStatus
from .claims import Claim, ClaimSet, Metric, Precision, floor_log10, resolve_categories, round_to_sig
from .parallel import parallel_replicate
from .report import SEVERITY_RANK, Severity
from .settings import ToleranceSpec
from .sor import CategoryTaxonomy, SorRecord


class PipelineError(RuntimeError):
    """Wiring bug: the results handed to cross_check do not cover the claims."""


def tolerance_bound(
    value: int | Fraction | float, precision: Precision, spec: ToleranceSpec
) -> Fraction:
    """Maximum accepted |reported - computed| for a reported value."""
    v = Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    if v < 0:
        raise ValueError("tolerance_bound needs a non-negative value")
    relative = spec.approximate_relative if precision.kind == "approximate" else spec.relative
    bound = max(Fraction(str(spec.absolute_floor)), Fraction(str(relative)) * v)
    if precision.kind == "rounded" and spec.rounding_aware and v > 0:
        half_ulp = Fraction(1, 2) * Fraction(10) ** (floor_log10(v) - (precision.digits or 1) + 1)
        bound = max(bound, half_ulp)
    return bound


def _plain(x: int | Fraction | None) -> int | float | None:
    """`x` as a JSON number: an int when whole, else the nearest float. Past
    the float range, where no float holds it, the nearest int."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        try:
            return float(x)
        except OverflowError:
            return round(x)
    return x


def _g(x: Fraction) -> str:
    """`x` as f"{float(x):g}" writes it, for values past the float range too:
    six significant digits, trailing zeros dropped."""
    try:
        return f"{float(x):g}"
    except OverflowError:
        digits, k = round_to_sig(x, 6)
        text = str(digits).rstrip("0")
        mantissa = text[0] + ("." + text[1:] if len(text) > 1 else "")
        return f"{mantissa}e+{k + 5}"


class FindingKind(str, Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    MISSING_IN_DB = "missing_in_db"
    MISSING_IN_REPORT = "missing_in_report"
    UNREPLICABLE = "unreplicable"


_KIND_RANK = {k: i for i, k in enumerate(FindingKind)}


@dataclass(frozen=True)
class Finding:
    kind: FindingKind
    severity: Severity
    claim_id: str | None = None
    reported_value: int | Fraction | None = None
    computed_value: int | Fraction | None = None
    deviation: Fraction | None = None
    relative_deviation: Fraction | None = None
    evidence: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind.value,
            "severity": self.severity.value,
            "claim_id": self.claim_id,
            "reported_value": _plain(self.reported_value),
            "computed_value": _plain(self.computed_value),
            "deviation": _plain(self.deviation),
            "relative_deviation": None
            if self.relative_deviation is None
            else float(self.relative_deviation),
            "evidence": self.evidence,
        }


def _check_one(claim: Claim, result: AggregateResult, spec: ToleranceSpec) -> Finding:
    deviation = relative = None
    if result.status is ResultStatus.UNREPLICABLE:
        kind, severity = FindingKind.UNREPLICABLE, Severity.WARN
        evidence = f"claim {claim.claim_id} could not be replicated: {result.note}"
    elif result.status is ResultStatus.UNDEFINED:
        kind, severity = FindingKind.UNREPLICABLE, Severity.WARN
        evidence = f"claim {claim.claim_id} share is undefined: denominator matched no records"
    else:
        reported = Fraction(claim.reported_value)
        computed = Fraction(result.computed_value)  # type: ignore[arg-type]
        deviation = abs(reported - computed)
        bound = tolerance_bound(claim.reported_value, claim.precision, spec)
        largest = max(reported, computed)
        relative = None if largest == 0 else deviation / largest
        if deviation <= bound:
            kind, severity = FindingKind.MATCH, Severity.INFO
            evidence = (
                f"reported {claim.value_text} agrees with computed {result.computed_value} "
                f"within tolerance {_g(bound)}"
            )
        elif claim.metric is Metric.COUNT and computed == 0 and reported > 0:
            kind, severity = FindingKind.MISSING_IN_DB, Severity.CRITICAL
            evidence = f"report states {claim.value_text} but the database holds no matching records at all"
        else:
            zero_vs_nonzero = (reported == 0) != (computed == 0)
            kind = FindingKind.MISMATCH
            severity = (
                Severity.CRITICAL
                if zero_vs_nonzero or (relative is not None and relative > Fraction(1, 2))
                else Severity.WARN
            )
            evidence = (
                f"reported {claim.value_text} vs computed "
                f"{_plain(computed)}; deviation {_g(deviation)} exceeds tolerance {_g(bound)}"
            )
    return Finding(
        kind=kind,
        severity=severity,
        claim_id=claim.claim_id,
        reported_value=claim.reported_value,
        computed_value=result.computed_value,
        deviation=deviation,
        relative_deviation=relative,
        evidence=f"{evidence} [{claim.source_locator}]",
    )


def cross_check(
    claims: ClaimSet,
    results: Sequence[AggregateResult],
    spec: ToleranceSpec | None = None,
    cell_tally: CellTally | None = None,
) -> list[Finding]:
    """Compare every claim against its replicated result.

    Results must cover exactly the claim ids in `claims` (unreplicable ones
    included, carrying their marker); anything else is a wiring bug, not data.
    For exhaustive claim sets a cell tally turns uncovered database activity
    into MISSING_IN_REPORT findings.
    """
    spec = spec or ToleranceSpec()
    by_id = {r.claim_id: r for r in results}
    if len(by_id) != len(results):
        raise PipelineError("duplicate claim_id among results")

    findings: list[Finding] = []
    for claim in claims:
        result = by_id.pop(claim.claim_id, None)
        if result is None:
            raise PipelineError(f"no replication result for claim {claim.claim_id!r}")
        findings.append(_check_one(claim, result, spec))
    if by_id:
        raise PipelineError(f"results for unknown claims: {sorted(by_id)}")

    if claims.exhaustive and cell_tally is not None:
        for (category, decision_type), count in sorted(
            cell_tally.counts.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            if count == 0:
                continue
            covered = any(
                c.predicate.allows("category", category)
                and c.predicate.allows("decision_type", decision_type)
                for c in claims
            )
            if not covered:
                findings.append(
                    Finding(
                        kind=FindingKind.MISSING_IN_REPORT,
                        severity=Severity.WARN,
                        computed_value=count,
                        evidence=(
                            f"database shows {count} action(s) for category={category} "
                            f"decision_type={decision_type.value} but no claim covers them"
                        ),
                    )
                )

    findings.sort(
        key=lambda f: (
            SEVERITY_RANK[f.severity],
            _KIND_RANK[f.kind],
            f.claim_id is None,
            f.claim_id or "",
            f.evidence,
        )
    )
    return findings


def finalize_results(
    resolved: ClaimSet,
    unresolvable: Mapping[str, str],
    results: Sequence[AggregateResult],
    coverage: tuple[date, date] | None,
) -> list[AggregateResult]:
    """Complete a replication result set: unresolvable-category claims get an
    UNREPLICABLE marker, and claims whose period no record of the corpus can
    fall in (Period.meets_coverage) are downgraded with a period-gap note."""
    by_id = {r.claim_id: r for r in results}
    final: list[AggregateResult] = []
    for claim in resolved:
        if claim.claim_id in unresolvable:
            final.append(
                AggregateResult.unreplicable(
                    claim.claim_id,
                    f"category label {unresolvable[claim.claim_id]!r} is not in the taxonomy",
                )
            )
            continue
        result = by_id[claim.claim_id]
        if coverage is not None and not claim.period.meets_coverage(*coverage):
            result = AggregateResult.unreplicable(
                claim.claim_id,
                (
                    f"claim period [{claim.period.start}, {claim.period.end}) lies outside "
                    f"corpus coverage [{coverage[0]}, {coverage[1]}] (period gap)"
                ),
            )
        final.append(result)
    final.sort(key=lambda r: r.claim_id)
    return final


def replicate_claims(
    claimset: ClaimSet,
    records: Iterable[SorRecord],
    taxonomy: CategoryTaxonomy,
    coverage: tuple[date, date] | None = None,
    workers: int = 1,
) -> tuple[ClaimSet, list[AggregateResult], CellTally | None]:
    """Resolve, replicate and finalize a claim set over a record stream.

    Claims with unresolvable category labels are not replicated; exhaustive
    sets also get a coverage tally. The stream is read once, by up to
    `workers` processes when it is a CorpusReader over several files, and
    coverage defaults to the reader's manifest. Returns the resolved claim
    set, the final results and the tally.
    """
    resolved, unresolvable = resolve_categories(claimset, taxonomy)
    replicable = [c for c in resolved if c.claim_id not in unresolvable]
    tally = CellTally.for_claims(list(resolved.claims)) if resolved.exhaustive else None

    results = parallel_replicate(records, replicable, workers, cell_tally=tally)

    manifest = getattr(records, "manifest", None)
    if coverage is None and manifest is not None:
        coverage = manifest.date_range

    return resolved, finalize_results(resolved, unresolvable, results, coverage), tally


def run_crosscheck(
    claimset: ClaimSet,
    records: Iterable[SorRecord],
    taxonomy: CategoryTaxonomy,
    spec: ToleranceSpec | None = None,
    coverage: tuple[date, date] | None = None,
    workers: int = 1,
) -> tuple[list[Finding], list[AggregateResult]]:
    """Full cross-checking pipeline over an already-open record stream: the
    results of replicate_claims, checked against the reported values."""
    resolved, final, tally = replicate_claims(claimset, records, taxonomy, coverage, workers)
    return cross_check(resolved, final, spec, cell_tally=tally), final
