"""Independent brute-force oracles and random fixture builders.

The replication oracle deliberately stays a per-claim full scan over a list;
it never shares the cell summary it checks. The linkage oracle is the
quadratic all-pairs candidate list that verify.link's queues and tiers
replace. The diff oracle builds a finding for every outcome, a consistent
pair's too, and sorts them all, which verify.verify_diff's id pairs and
spliced runs replace. The report oracle renders the whole findings list at
once, with one json.dumps, which report.write_report's per-finding writes
replace. The row
validators take a column-name dict and test every field in turn, as the
positional parsers sor.parse_dump_row and verify.parse_export_row, which
look each enum column up in a table, replace; they read the headers, the
required columns and the bool spelling from literals written out here, not
from the code under test. The reconstruction oracle builds each rebuilt
item by keyword and walks the classifier's rules with any(), which
verify.reconstruct's positional construction and KeywordClassifier's plain
loops replace.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from datetime import date, datetime, time, timedelta, timezone
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from modaudit.aggregate import FILTERABLE_ATTRIBUTES, PERIOD_FIELDS, Period, Predicate
from modaudit.claims import Claim, Metric, Precision
from modaudit.report import _CSV_COLUMNS, REPORT_FORMATS, SEVERITY_ORDER, Severity, _csv_cell
from modaudit.settings import DEFAULT_DEADLINE_DAYS
from modaudit.sor import (
    AutomatedDecision,
    CategoryTaxonomy,
    ContentType,
    DecisionGround,
    DecisionType,
    QuarantineEntry,
    QuarantineReason,
    SorRecord,
    SourceType,
    parse_date,
    render_cell,
)
from modaudit.verify import (
    CLASSIFIER_CONFIDENCE_FLOOR,
    DEFAULT_RECONSTRUCTED_GROUND,
    DIFF_FIELDS,
    KeywordClassifier,
    LinkageError,
    LinkConfig,
    Linkage,
    ModerationEvent,
    Outcome,
    ReconstructedSor,
    VerificationFinding,
    VerificationKind,
    VisibilityStatus,
    _decision_type_for,
    _finding_key,
)

CODES = ("hate_speech", "misinformation", "nudity", "other")
PLATFORMS = ("alpha", "beta")
SPAN_START = date(2024, 1, 1)
SPAN_DAYS = 60


def in_period(record: SorRecord, period: Period) -> bool:
    if period.field == "application_date":
        d = record.application_date
    elif period.field == "content_date":
        d = record.content_date
    else:
        d = record.created_at.date()
    return period.start <= d < period.end


def satisfies(record: SorRecord, predicate: Predicate) -> bool:
    return all(getattr(record, attr) in allowed for attr, allowed in predicate.conjuncts)


def naive_replicate(claim: Claim, records: list[SorRecord]):
    """Full-scan filter and count for one claim; exact value or None/'undefined'."""
    matched = sum(1 for r in records if in_period(r, claim.period) and satisfies(r, claim.predicate))
    if claim.metric is Metric.COUNT:
        return matched
    denominator = sum(
        1
        for r in records
        if in_period(r, claim.period) and satisfies(r, claim.denominator_predicate)
    )
    if denominator == 0:
        return None
    return Fraction(matched, denominator)


def random_record(rng: random.Random, i: int) -> SorRecord:
    application = SPAN_START + timedelta(days=rng.randrange(SPAN_DAYS))
    content = application - timedelta(days=rng.randrange(20))
    created = datetime.combine(
        application,
        time(rng.randrange(24), rng.randrange(60), rng.randrange(60)),
        tzinfo=timezone.utc,
    ) + timedelta(days=rng.randrange(5))
    decision = rng.choice(
        (
            DecisionType.VISIBILITY_REMOVAL,
            DecisionType.VISIBILITY_DISABLE,
            DecisionType.VISIBILITY_DEMOTION,
            DecisionType.ACCOUNT_SUSPENSION,
        )
    )
    content_type = rng.choice((ContentType.TEXT, ContentType.IMAGE, ContentType.VIDEO))
    automated = rng.choice(tuple(AutomatedDecision))
    return SorRecord(
        uuid=f"sor-{i:07d}",
        platform_name=rng.choice(PLATFORMS),
        decision_type=decision,
        decision_type_other=None,
        decision_ground=rng.choice(tuple(DecisionGround)),
        decision_ground_reference_url=None if rng.random() < 0.7 else "https://example.test/p",
        illegal_content_explanation=None,
        category=rng.choice(CODES),
        content_type=content_type,
        content_type_other=None,
        automated_detection=automated is not AutomatedDecision.NOT_AUTOMATED,
        automated_decision=automated,
        source_type=rng.choice(tuple(SourceType)),
        content_date=content,
        application_date=application,
        created_at=created,
        puid=f"p-{i:07d}",
    )


# The two CSV formats as the row oracles read them, written out here rather
# than taken from the code under test: the header of a dump file and of an
# export file, the columns each requires to be non-empty, and how each enum
# and bool column decodes.
DUMP_HEADER = (
    "uuid",
    "platform_name",
    "decision_type",
    "decision_type_other",
    "decision_ground",
    "decision_ground_reference_url",
    "illegal_content_explanation",
    "category",
    "content_type",
    "content_type_other",
    "automated_detection",
    "automated_decision",
    "source_type",
    "content_date",
    "application_date",
    "created_at",
    "puid",
)
EXPORT_HEADER = (
    "content_id",
    "puid",
    "content_type",
    "content_created",
    "moderated_at",
    "visibility_status",
    "platform_categories",
    "automated_detection",
    "automated_decision",
    "annotations",
    "payload",
)
DUMP_REQUIRED = frozenset(
    (
        "uuid",
        "platform_name",
        "decision_type",
        "decision_ground",
        "category",
        "content_type",
        "automated_detection",
        "automated_decision",
        "source_type",
        "content_date",
        "application_date",
        "created_at",
    )
)
EXPORT_REQUIRED = frozenset(
    (
        "content_id",
        "content_type",
        "content_created",
        "moderated_at",
        "visibility_status",
        "automated_detection",
        "automated_decision",
    )
)
BOOLS = {"true": True, "false": False}
DECISION_TYPES = {m.value: m for m in DecisionType}
DECISION_GROUNDS = {m.value: m for m in DecisionGround}
CONTENT_TYPES = {m.value: m for m in ContentType}
AUTOMATED_DECISIONS = {m.value: m for m in AutomatedDecision}
SOURCE_TYPES = {m.value: m for m in SourceType}
VISIBILITIES = {m.value: m for m in VisibilityStatus}


def _first_missing(
    raw: Mapping[str, str], field_order: tuple[str, ...], required: frozenset[str]
) -> str | None:
    """The first field in `field_order` that `raw` lacks, or leaves empty
    although it is `required`; None when there is none."""
    for name in field_order:
        value = raw.get(name)
        if value is None or (value == "" and name in required):
            return name
    return None


def naive_parse_timestamp(text: str) -> datetime:
    """Strict YYYY-MM-DDThh:mm:ssZ, with the zone attached afterwards."""
    if (
        len(text) != 20
        or text[4] != "-"
        or text[7] != "-"
        or text[10] != "T"
        or text[13] != ":"
        or text[16] != ":"
        or text[19] != "Z"
    ):
        raise ValueError(f"bad timestamp {text!r}")
    return datetime.fromisoformat(text[:19]).replace(tzinfo=timezone.utc)


def naive_validate_record(
    raw: Mapping[str, str], taxonomy: CategoryTaxonomy
) -> SorRecord | QuarantineEntry:
    """Field-by-field reference for sor.parse_dump_row over a dump row dict."""

    def bad(reason: QuarantineReason, field_name: str) -> QuarantineEntry:
        return QuarantineEntry(reason=reason, field=field_name, raw_row=dict(raw))

    missing = _first_missing(raw, DUMP_HEADER, DUMP_REQUIRED)
    if missing is not None:
        return bad(QuarantineReason.MISSING_FIELD, missing)

    decision_type = DECISION_TYPES.get(raw["decision_type"])
    if decision_type is None:
        return bad(QuarantineReason.BAD_ENUM, "decision_type")
    decision_ground = DECISION_GROUNDS.get(raw["decision_ground"])
    if decision_ground is None:
        return bad(QuarantineReason.BAD_ENUM, "decision_ground")
    content_type = CONTENT_TYPES.get(raw["content_type"])
    if content_type is None:
        return bad(QuarantineReason.BAD_ENUM, "content_type")
    automated_detection = BOOLS.get(raw["automated_detection"])
    if automated_detection is None:
        return bad(QuarantineReason.BAD_ENUM, "automated_detection")
    automated_decision = AUTOMATED_DECISIONS.get(raw["automated_decision"])
    if automated_decision is None:
        return bad(QuarantineReason.BAD_ENUM, "automated_decision")
    source_type = SOURCE_TYPES.get(raw["source_type"])
    if source_type is None:
        return bad(QuarantineReason.BAD_ENUM, "source_type")

    category = raw["category"]
    if category not in taxonomy:
        return bad(QuarantineReason.UNKNOWN_CATEGORY, "category")

    try:
        content_date = parse_date(raw["content_date"])
    except ValueError:
        return bad(QuarantineReason.BAD_DATE, "content_date")
    try:
        application_date = parse_date(raw["application_date"])
    except ValueError:
        return bad(QuarantineReason.BAD_DATE, "application_date")
    try:
        created_at = naive_parse_timestamp(raw["created_at"])
    except ValueError:
        return bad(QuarantineReason.BAD_DATE, "created_at")

    if content_date > application_date:
        return bad(QuarantineReason.DATE_ORDER, "application_date")
    if application_date > created_at.date():
        return bad(QuarantineReason.DATE_ORDER, "created_at")

    if decision_type is DecisionType.OTHER and raw["decision_type_other"] == "":
        return bad(QuarantineReason.EMPTY_OTHER_TEXT, "decision_type_other")
    if content_type is ContentType.OTHER and raw["content_type_other"] == "":
        return bad(QuarantineReason.EMPTY_OTHER_TEXT, "content_type_other")

    return SorRecord(
        uuid=raw["uuid"],
        platform_name=raw["platform_name"],
        decision_type=decision_type,
        decision_type_other=raw["decision_type_other"] or None,
        decision_ground=decision_ground,
        decision_ground_reference_url=raw["decision_ground_reference_url"] or None,
        illegal_content_explanation=raw["illegal_content_explanation"] or None,
        category=category,
        content_type=content_type,
        content_type_other=raw["content_type_other"] or None,
        automated_detection=automated_detection,
        automated_decision=automated_decision,
        source_type=source_type,
        content_date=content_date,
        application_date=application_date,
        created_at=created_at,
        puid=raw["puid"] or None,
    )


def naive_parse_event_row(raw: Mapping[str, str]) -> ModerationEvent | QuarantineEntry:
    """Field-by-field reference for verify.parse_export_row over an export
    row dict."""

    def bad(reason: QuarantineReason, field_name: str) -> QuarantineEntry:
        return QuarantineEntry(reason=reason, field=field_name, raw_row=dict(raw))

    missing = _first_missing(raw, EXPORT_HEADER, EXPORT_REQUIRED)
    if missing is not None:
        return bad(QuarantineReason.MISSING_FIELD, missing)

    content_type = CONTENT_TYPES.get(raw["content_type"])
    if content_type is None:
        return bad(QuarantineReason.BAD_ENUM, "content_type")
    visibility = VISIBILITIES.get(raw["visibility_status"])
    if visibility is None:
        return bad(QuarantineReason.BAD_ENUM, "visibility_status")
    automated_detection = BOOLS.get(raw["automated_detection"])
    if automated_detection is None:
        return bad(QuarantineReason.BAD_ENUM, "automated_detection")
    automated_decision = AUTOMATED_DECISIONS.get(raw["automated_decision"])
    if automated_decision is None:
        return bad(QuarantineReason.BAD_ENUM, "automated_decision")

    try:
        content_created = parse_date(raw["content_created"])
    except ValueError:
        return bad(QuarantineReason.BAD_DATE, "content_created")
    try:
        moderated_at = naive_parse_timestamp(raw["moderated_at"])
    except ValueError:
        return bad(QuarantineReason.BAD_DATE, "moderated_at")

    if content_created > moderated_at.date():
        return bad(QuarantineReason.DATE_ORDER, "moderated_at")

    categories = tuple(c for c in raw["platform_categories"].split(";") if c)
    annotations = tuple(a for a in raw["annotations"].split(";") if a)

    return ModerationEvent(
        content_id=raw["content_id"],
        puid=raw["puid"] or None,
        content_type=content_type,
        content_created=content_created,
        moderated_at=moderated_at,
        visibility_status=visibility,
        platform_categories=categories,
        automated_detection=automated_detection,
        automated_decision=automated_decision,
        annotations=annotations,
        payload=raw["payload"] or None,
    )


def random_event(rng: random.Random, i: int) -> ModerationEvent:
    moderated = datetime.combine(
        SPAN_START + timedelta(days=rng.randrange(SPAN_DAYS)),
        time(rng.randrange(24), rng.randrange(60), rng.randrange(60)),
        tzinfo=timezone.utc,
    )
    automated = rng.choice(tuple(AutomatedDecision))
    return ModerationEvent(
        content_id=f"c-{i:07d}",
        puid=None if rng.random() < 0.3 else f"p-{i:07d}",
        content_type=rng.choice(tuple(ContentType)),
        content_created=moderated.date() - timedelta(days=rng.randrange(20)),
        moderated_at=moderated,
        visibility_status=rng.choice(tuple(VisibilityStatus)),
        platform_categories=tuple(rng.sample(CODES, rng.randint(0, 2))),
        automated_detection=rng.random() < 0.5,
        automated_decision=automated,
        annotations=("account_suspension",) if rng.random() < 0.2 else (),
        payload=None if rng.random() < 0.5 else f"text {i}",
    )


def naive_classify(event: ModerationEvent, classifier: KeywordClassifier) -> tuple[str, float] | None:
    """Reference for verify.classify with a KeywordClassifier: each rule's
    tokens tested with any(), the first rule with a hit winning."""
    if event.content_type not in classifier.supported_types or not event.payload:
        return None
    text = event.payload.casefold()
    for verdict, tokens in classifier.rules:
        if any(token in text for token in tokens):
            return verdict
    return ("other", 0.0)


def naive_reconstruct(
    events: Iterable[ModerationEvent], classifier: KeywordClassifier, window: Period | None
) -> list[ReconstructedSor]:
    """Reference for verify.reconstruct: each rebuilt item built by keyword,
    with its own application_date object."""
    out = []
    for event in events:
        if window is not None:
            start = datetime.combine(window.start, time.min, tzinfo=timezone.utc)
            end = datetime.combine(window.end, time.min, tzinfo=timezone.utc)
            if not start <= event.moderated_at < end:
                continue
        decision_type = _decision_type_for(event)
        if decision_type is None:
            continue
        verdict = naive_classify(event, classifier)
        if verdict is not None and verdict[1] >= CLASSIFIER_CONFIDENCE_FLOOR:
            category = verdict[0]
        elif event.platform_categories:
            category = event.platform_categories[0]
        else:
            category = "other"
        out.append(
            ReconstructedSor(
                content_id=event.content_id,
                puid=event.puid,
                decision_type=decision_type,
                decision_ground=DEFAULT_RECONSTRUCTED_GROUND,
                category=category,
                content_type=event.content_type,
                automated_detection=event.automated_detection,
                automated_decision=event.automated_decision,
                content_date=event.content_created,
                application_date=event.moderated_at.date(),
                moderated_at=event.moderated_at,
                classifier_verdict=verdict,
            )
        )
    return out


def random_count_claim(rng: random.Random, claim_id: str) -> Claim:
    raw: dict[str, object] = {}
    if rng.random() < 0.7:
        raw["category"] = rng.sample(CODES, rng.randint(1, 2))
    if rng.random() < 0.5:
        raw["decision_type"] = rng.choice(
            ("VISIBILITY_REMOVAL", "VISIBILITY_DISABLE", "ACCOUNT_SUSPENSION")
        )
    if rng.random() < 0.4:
        raw["automated_decision"] = rng.choice(("FULLY", "PARTIALLY", "NOT_AUTOMATED"))
    if rng.random() < 0.3:
        raw["platform_name"] = rng.choice(PLATFORMS)
    start = SPAN_START + timedelta(days=rng.randrange(SPAN_DAYS - 1))
    end = start + timedelta(days=rng.randint(1, SPAN_DAYS))
    field = rng.choice(("application_date", "content_date", "created_at"))
    return Claim(
        claim_id=claim_id,
        platform_name="examplehub",
        metric=Metric.COUNT,
        predicate=Predicate.parse(raw),
        denominator_predicate=None,
        period=Period(start=start, end=end, field=field),
        reported_value=0,
        precision=Precision.exact(),
        source_locator="oracle:random",
        value_text="0",
    )


# Literal domains of every filterable attribute, wider than what random_record
# draws, so some predicates and denominators match nothing.
ATTRIBUTE_DOMAINS = {
    "decision_type": tuple(d.value for d in DecisionType),
    "decision_ground": tuple(g.value for g in DecisionGround),
    "content_type": tuple(c.value for c in ContentType),
    "automated_decision": tuple(a.value for a in AutomatedDecision),
    "source_type": tuple(s.value for s in SourceType),
    "category": CODES,
    "platform_name": PLATFORMS,
    "automated_detection": ("true", "false"),
}
assert set(ATTRIBUTE_DOMAINS) == set(FILTERABLE_ATTRIBUTES)


def random_predicate(rng: random.Random, rate: float = 0.3) -> Predicate:
    raw: dict[str, object] = {}
    for attr, domain in ATTRIBUTE_DOMAINS.items():
        if rng.random() < rate:
            raw[attr] = rng.sample(domain, rng.randint(1, max(1, len(domain) // 2)))
    return Predicate.parse(raw)


def random_period(rng: random.Random, edges: Sequence[date]) -> Period:
    """A period over a random date field whose bounds come from `edges`, so
    claims built from one pool share period edges."""
    start, end = sorted(rng.sample(list(edges), 2))
    return Period(start=start, end=end, field=rng.choice(PERIOD_FIELDS))


def random_share_claim(rng: random.Random, claim_id: str, edges: Sequence[date]) -> Claim:
    """A share claim over every attribute; the denominator is sometimes TRUE
    and sometimes empty (a predicate or a period that matches no record)."""
    numerator = random_predicate(rng)
    denominator = random_predicate(rng) if rng.random() < 0.7 else Predicate()
    return Claim(
        claim_id=claim_id,
        platform_name="examplehub",
        metric=Metric.SHARE,
        predicate=numerator,
        denominator_predicate=denominator,
        period=random_period(rng, edges),
        reported_value=Fraction(1, 2),
        precision=Precision.rounded(2),
        source_locator="oracle:random",
        value_text="50%",
    )


def naive_tally(records: list[SorRecord], start: date, end: date) -> dict:
    """(category, decision_type) counts of the records applied in [start, end)."""
    counts: dict = {}
    for r in records:
        if start <= r.application_date < end:
            key = (r.category, r.decision_type)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _pair_score(rec: ReconstructedSor, filed: SorRecord, config: LinkConfig) -> Fraction:
    score = Fraction(0)
    if rec.category == filed.category:
        score += config.category_weight
    if rec.decision_type is filed.decision_type:
        score += config.decision_weight
    distance = abs((filed.created_at.date() - rec.moderated_at.date()).days)
    clamped = min(distance, config.max_day_distance)
    score += config.time_weight * (1 - Fraction(clamped, config.max_day_distance))
    return score


def naive_link(
    reconstructed: Sequence[ReconstructedSor],
    filed: Sequence[SorRecord],
    config: LinkConfig | None = None,
) -> Linkage:
    """All-pairs reference for verify.link: scores every rebuilt x filed pair
    of a block and sorts the candidate list.

    One-to-one pairing of rebuilt and filed statements.

    puid matches first, in filed order; the remainder is blocked by
    (content_type, application_date) and greedily matched in descending score
    with a total tie-break, so which items pair is independent of input order.
    """
    config = config or LinkConfig()

    rec_by_puid: dict[str, ReconstructedSor] = {}
    for rec in reconstructed:
        if rec.puid:
            if rec.puid in rec_by_puid:
                raise LinkageError(f"duplicate puid {rec.puid!r} among reconstructed items")
            rec_by_puid[rec.puid] = rec
    filed_by_puid: dict[str, SorRecord] = {}
    for sor in filed:
        if sor.puid:
            if sor.puid in filed_by_puid:
                raise LinkageError(f"duplicate puid {sor.puid!r} among filed statements")
            filed_by_puid[sor.puid] = sor

    pairs: list[tuple[ReconstructedSor, SorRecord]] = [
        (rec_by_puid[p], sor) for p, sor in filed_by_puid.items() if p in rec_by_puid
    ]
    linked_rec = {id(r) for r, _ in pairs}
    linked_filed = {id(f) for _, f in pairs}

    rest_rec = [r for r in reconstructed if id(r) not in linked_rec]
    rest_filed = [f for f in filed if id(f) not in linked_filed]

    blocks_rec: dict[tuple[ContentType, date], list[ReconstructedSor]] = {}
    for rec in rest_rec:
        blocks_rec.setdefault((rec.content_type, rec.application_date), []).append(rec)

    candidates: list[tuple[Fraction, str, str, ReconstructedSor, SorRecord]] = []
    for sor in rest_filed:
        block = blocks_rec.get((sor.content_type, sor.application_date))
        if not block:
            continue
        for rec in block:
            if rec.puid and sor.puid:
                continue  # both identities known, and they differ
            score = _pair_score(rec, sor, config)
            if score >= config.threshold:
                candidates.append((score, sor.uuid, rec.content_id, rec, sor))

    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    taken_rec: set[int] = set()
    taken_filed: set[int] = set()
    for _score, _uuid, _cid, rec, sor in candidates:
        if id(rec) in taken_rec or id(sor) in taken_filed:
            continue
        taken_rec.add(id(rec))
        taken_filed.add(id(sor))
        pairs.append((rec, sor))

    unmatched_rec = [r for r in rest_rec if id(r) not in taken_rec]
    unmatched_filed = [f for f in rest_filed if id(f) not in taken_filed]
    return Linkage(pairs=pairs, unmatched_reconstructed=unmatched_rec, unmatched_filed=unmatched_filed)


def naive_verify_diff(
    outcomes: Iterable[Outcome], deadline_days: int = DEFAULT_DEADLINE_DAYS
) -> list[VerificationFinding]:
    """List reference for verify.verify_diff: one VerificationFinding, with
    its evidence, for every finding of every outcome, all sorted at the end."""
    findings: list[VerificationFinding] = []
    for rec, sor in outcomes:
        if sor is None:
            evidence = (
                f"moderated content {rec.content_id} ({rec.decision_type.value} on "
                f"{rec.application_date.isoformat()}) has no filed statement in the audited window"
            )
            findings.append(
                VerificationFinding(
                    VerificationKind.OMITTED_SOR, Severity.CRITICAL, content_id=rec.content_id, evidence=evidence
                )
            )
            continue
        if rec is None:
            evidence = (
                f"filed statement {sor.uuid} ({sor.decision_type.value} on "
                f"{sor.application_date.isoformat()}) matches no platform-side moderation action"
            )
            findings.append(
                VerificationFinding(
                    VerificationKind.PHANTOM_SOR, Severity.CRITICAL, sor_uuid=sor.uuid, evidence=evidence
                )
            )
            continue
        own: list[VerificationFinding] = []
        diffs = []
        for name in DIFF_FIELDS:
            expected, filed = getattr(rec, name), getattr(sor, name)
            if expected != filed:
                diffs.append((name, render_cell(expected), render_cell(filed)))
        if diffs:
            names = sorted(name for name, _, _ in diffs)
            severity = Severity.CRITICAL if "automated_decision" in names else Severity.WARN
            evidence = (
                f"statement {sor.uuid} diverges from platform data for {rec.content_id} on: " + ", ".join(names)
            )
            own.append(
                VerificationFinding(
                    VerificationKind.FIELD_MISMATCH, severity, rec.content_id, sor.uuid, tuple(diffs), evidence
                )
            )
        lag = sor.created_at - rec.moderated_at
        if lag > timedelta(days=deadline_days):
            evidence = (
                f"statement {sor.uuid} was filed {lag / timedelta(days=1):.1f} days after the "
                f"action, past the {deadline_days}-day deadline"
            )
            own.append(
                VerificationFinding(
                    VerificationKind.LATE_SUBMISSION, Severity.WARN, rec.content_id, sor.uuid, (), evidence
                )
            )
        if not own:
            evidence = f"statement {sor.uuid} is consistent with platform data for {rec.content_id}"
            own.append(
                VerificationFinding(VerificationKind.CONSISTENT, Severity.INFO, rec.content_id, sor.uuid, (), evidence)
            )
        findings.extend(own)
    return sorted(findings, key=_finding_key)


# Every line break str.splitlines reads, "\r\n" as one.
LINE_BREAKS = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def naive_emit_report(findings: Iterable[object], format: str = "json") -> str:
    """Whole-document reference for report.write_report: every finding becomes
    a dict first, and the document is built in memory."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}; expected one of {REPORT_FORMATS}")
    rows = [dict(f) if isinstance(f, Mapping) else f.to_dict() for f in findings]  # type: ignore[attr-defined]

    if format == "json":
        return json.dumps(rows, indent=2, ensure_ascii=False) + "\n"

    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row.get(col)) for col in _CSV_COLUMNS])
        return buf.getvalue()

    counts = {s.value: 0 for s in SEVERITY_ORDER}
    for row in rows:
        sev = str(row.get("severity", ""))
        if sev in counts:
            counts[sev] += 1
    lines = ["# Audit findings", ""]
    lines.append(
        f"{len(rows)} finding(s): "
        f"{counts['critical']} critical, {counts['warn']} warn, {counts['info']} info."
    )
    lines.append("")
    if rows:
        lines.append("| severity | kind | subject | evidence |")
        lines.append("| --- | --- | --- | --- |")
        for row in rows:
            subject = row.get("claim_id") or row.get("content_id") or row.get("sor_uuid") or ""
            cells = [row.get("severity", ""), row.get("kind", ""), subject, row.get("evidence", "")]
            # "|" escaped and every line break that str.splitlines reads a
            # <br>, so each row is one line
            cells = [LINE_BREAKS.sub("<br>", str(c).replace("|", "\\|")) for c in cells]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)
