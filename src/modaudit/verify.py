"""Filing verification: rebuild expected statements from platform-side moderation
data, link them against the filed records, and report completeness and
trustworthiness findings.

The linkage step pairs rebuilt and filed statements. Where both sides carry a
pseudonymous content id (puid) the pairing is exact; everything else falls back
to blocked fuzzy scoring. Two items that both carry puids but different ones are
never fuzzy-paired: their identities are known to differ.
"""

from __future__ import annotations

import heapq
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .report import SEVERITY_ORDER, SEVERITY_RANK, Severity
from .settings import DEFAULT_DEADLINE_DAYS, LinkConfig
from .sor import (
    _AUTOMATED_DECISIONS,
    _BOOLS,
    _CONTENT_TYPES,
    PARSE_CACHE_LIMIT,
    AutomatedDecision,
    CategoryTaxonomy,
    ContentType,
    DecisionGround,
    DecisionType,
    Fault,
    Period,
    QuarantineReason,
    SorRecord,
    _first_empty,
    _parse_date_memo,
    parse_timestamp,
    render_cell,
)


class VisibilityStatus(str, Enum):
    VISIBLE = "VISIBLE"
    REMOVED = "REMOVED"
    DISABLED = "DISABLED"
    DEMOTED = "DEMOTED"


# Annotation tokens that mark an account-level enforcement on an otherwise
# visible piece of content.
ACCOUNT_ANNOTATIONS = {
    "account_suspension": DecisionType.ACCOUNT_SUSPENSION,
    "account_termination": DecisionType.ACCOUNT_TERMINATION,
}

_VISIBILITY_TO_DECISION = {
    VisibilityStatus.REMOVED: DecisionType.VISIBILITY_REMOVAL,
    VisibilityStatus.DISABLED: DecisionType.VISIBILITY_DISABLE,
    VisibilityStatus.DEMOTED: DecisionType.VISIBILITY_DEMOTION,
}

_EVENT_REQUIRED = frozenset(
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

_VISIBILITIES = {m.value: m for m in VisibilityStatus}


# Lists repeat across rows; the bound keeps a file of distinct lists in memory.
@lru_cache(maxsize=PARSE_CACHE_LIMIT)
def _split_list(text: str) -> tuple[str, ...]:
    return tuple(item for item in text.split(";") if item)


class ModerationEvent(NamedTuple):
    """Platform-side record of one enforcement action (or of untouched
    content). Its fields are the columns of an export row, in wire order: an
    export file's header must be EVENT_FIELD_ORDER exactly."""

    content_id: str
    puid: str | None
    content_type: ContentType
    content_created: date
    moderated_at: datetime
    visibility_status: VisibilityStatus
    platform_categories: tuple[str, ...]
    automated_detection: bool
    automated_decision: AutomatedDecision
    annotations: tuple[str, ...]
    payload: str | None

    def to_row(self) -> dict[str, str]:
        return dict(zip(EVENT_FIELD_ORDER, map(render_cell, self)))


# The wire column order of an export row.
EVENT_FIELD_ORDER = ModerationEvent._fields
_EVENT_REQUIRED_INDICES = tuple(i for i, name in enumerate(EVENT_FIELD_ORDER) if name in _EVENT_REQUIRED)
_event_required_values = itemgetter(*_EVENT_REQUIRED_INDICES)


def parse_export_row(row: Sequence[str]) -> ModerationEvent | Fault:
    """Validate one platform-export row, a sequence of strings in
    EVENT_FIELD_ORDER; mirrors parse_dump_row's contract."""
    if "" in _event_required_values(row):
        return _first_empty(row, EVENT_FIELD_ORDER, _EVENT_REQUIRED_INDICES)
    (
        content_id,
        puid,
        content_type_text,
        created_text,
        moderated_text,
        visibility_text,
        categories,
        detection_text,
        automation_text,
        annotations,
        payload,
    ) = row

    content_type = _CONTENT_TYPES.get(content_type_text)
    if content_type is None:
        return QuarantineReason.BAD_ENUM, "content_type"
    visibility = _VISIBILITIES.get(visibility_text)
    if visibility is None:
        return QuarantineReason.BAD_ENUM, "visibility_status"
    automated_detection = _BOOLS.get(detection_text)
    if automated_detection is None:
        return QuarantineReason.BAD_ENUM, "automated_detection"
    automated_decision = _AUTOMATED_DECISIONS.get(automation_text)
    if automated_decision is None:
        return QuarantineReason.BAD_ENUM, "automated_decision"

    try:
        content_created = _parse_date_memo(created_text)
    except ValueError:
        return QuarantineReason.BAD_DATE, "content_created"
    try:
        moderated_at = parse_timestamp(moderated_text)
    except ValueError:
        return QuarantineReason.BAD_DATE, "moderated_at"

    if content_created > moderated_at.date():
        return QuarantineReason.DATE_ORDER, "moderated_at"

    # Built once per row, so through tuple.__new__ in EVENT_FIELD_ORDER,
    # without the named tuple's own Python-level __new__.
    return tuple.__new__(
        ModerationEvent,
        (
            content_id,
            puid or None,
            content_type,
            content_created,
            moderated_at,
            visibility,
            _split_list(categories),
            automated_detection,
            automated_decision,
            _split_list(annotations),
            payload or None,
        ),
    )


# ---------------------------------------------------------------------------
# Content classification
# ---------------------------------------------------------------------------


def marker_token(category: str) -> str:
    """Reserved payload token that the reference classifier keys on."""
    return f"<<{category}>>"


class KeywordClassifier:
    """Rule-based reference classifier: the first category whose token list
    hits a TEXT payload wins.

    Rules are checked in declaration order, so classification is deterministic.
    """

    def __init__(self, rules: Mapping[str, Sequence[str]]) -> None:
        self.rules: list[tuple[str, tuple[str, ...]]] = [
            (category, tuple(t.casefold() for t in tokens)) for category, tokens in rules.items()
        ]

    @classmethod
    def from_taxonomy(cls, taxonomy: CategoryTaxonomy) -> "KeywordClassifier":
        return cls({code: [marker_token(code)] for code in taxonomy.codes})

    def category(self, event: ModerationEvent) -> str | None:
        """The category of the first rule that hits the event's payload, or
        None for content other than TEXT, an empty payload or no hit."""
        if event.content_type != ContentType.TEXT or not event.payload:
            return None
        text = event.payload.casefold()
        for category, tokens in self.rules:
            for token in tokens:
                if token in text:
                    return category
        return None


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

# Events carry no legal ground, so rebuilt statements default to a terms basis
# and ground divergences are reported at WARN only.
DEFAULT_RECONSTRUCTED_GROUND = DecisionGround.INCOMPATIBLE_WITH_TERMS


class ReconstructedSor(NamedTuple):
    """Statement derived from an event: the fields an export can support."""

    content_id: str
    puid: str | None
    decision_type: DecisionType
    decision_ground: DecisionGround
    category: str
    content_type: ContentType
    automated_detection: bool
    automated_decision: AutomatedDecision
    content_date: date
    application_date: date
    moderated_at: datetime


def _decision_type_for(event: ModerationEvent) -> DecisionType | None:
    mapped = _VISIBILITY_TO_DECISION.get(event.visibility_status)
    if mapped is not None:
        return mapped
    for annotation in event.annotations:
        account_action = ACCOUNT_ANNOTATIONS.get(annotation)
        if account_action is not None:
            return account_action
    return None


def reconstruct(
    events: Iterable[ModerationEvent],
    classifier: KeywordClassifier,
    window: Period | None,
) -> list[ReconstructedSor]:
    """Rebuild the expected statement for every moderated event whose
    moderation timestamp falls in [window.start, window.end); a window of
    None bounds nothing. `events` is read in one pass.

    A classifier is any object with a `category(event)` method that returns
    a category or None, so a model can stand in for KeywordClassifier. On
    None the statement takes the platform's first category, or "other".
    """
    bounds = None
    if window is not None:
        bounds = (
            datetime.combine(window.start, time.min, tzinfo=timezone.utc),
            datetime.combine(window.end, time.min, tzinfo=timezone.utc),
        )
    out: list[ReconstructedSor] = []
    days: dict[date, date] = {}  # one application_date object per moderation day
    for event in events:
        content_id, puid, content_type, created, moderated_at, _, categories, detection, decision, _, _ = event
        if bounds is not None and not (bounds[0] <= moderated_at < bounds[1]):
            continue
        decision_type = _decision_type_for(event)
        if decision_type is None:
            continue  # not a moderated item
        category = classifier.category(event)
        if category is None:
            category = categories[0] if categories else "other"
        day = moderated_at.date()
        # One item per event, so through tuple.__new__ in declared field order.
        out.append(
            tuple.__new__(
                ReconstructedSor,
                (
                    content_id,
                    puid,
                    decision_type,
                    DEFAULT_RECONSTRUCTED_GROUND,
                    category,
                    content_type,
                    detection,
                    decision,
                    created,
                    days.setdefault(day, day),
                    moderated_at,
                ),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Linkage
# ---------------------------------------------------------------------------


class LinkageError(ValueError):
    """Corpus defect that makes linkage meaningless (duplicate puid)."""


# A linkage outcome: a pair, (rec, None) for an unmatched rebuilt item or (None, sor) for an unmatched statement.
Outcome = tuple[ReconstructedSor | None, SorRecord | None]


class Linkage:
    """The outcomes of a linkage, collected: the pairs and the unmatched items of each side."""

    __slots__ = ("pairs", "unmatched_reconstructed", "unmatched_filed")

    def __init__(
        self,
        pairs: list[tuple[ReconstructedSor, SorRecord]],
        unmatched_reconstructed: list[ReconstructedSor],
        unmatched_filed: list[SorRecord],
    ) -> None:
        self.pairs = pairs
        self.unmatched_reconstructed = unmatched_reconstructed
        self.unmatched_filed = unmatched_filed

    def __iter__(self) -> Iterator[Outcome]:
        """The outcomes in link_outcomes order."""
        yield from self.pairs
        for rec in self.unmatched_reconstructed:
            yield rec, None
        for sor in self.unmatched_filed:
            yield None, sor


# What the puid index holds, in place of a free rebuilt item's position, for a
# puid that a filed statement has already carried.
_FILED = -1


class link_outcomes:  # noqa: N801 - called and iterated like a generator function
    """One-to-one pairing of rebuilt and filed statements, as a stream of
    outcomes to be read once.

    The puid stage is a hash join: `reconstructed` is read first and indexed
    by puid; `filed` is then read once, and a filed statement whose puid names
    a free rebuilt item comes out as (rec, sor) on arrival, so that the stream
    keeps no reference to either. The remainder is blocked by (content_type, application_date) and
    greedily matched in descending score, then uuid, then content_id, so which
    items pair does not depend on input order. The fuzzy pairs come out in
    greedy order, then (rec, None) for each unmatched rebuilt item and
    (None, sor) for each unmatched filed statement, in input order. Each
    rebuilt item and filed statement comes out exactly once.

    Once the stream ends, `reconstructed_count` and `filed_count` count the
    items read, and `puid_pairs` and `fuzzy_pairs` the pairs each stage made:
    it is a class rather than a generator function so that these can be read.
    """

    def __init__(
        self, reconstructed: Iterable[ReconstructedSor], filed: Iterable[SorRecord], config: LinkConfig | None = None
    ) -> None:
        self._inputs = reconstructed, filed, config or LinkConfig()
        self.reconstructed_count = self.filed_count = self.puid_pairs = self.fuzzy_pairs = 0

    def __iter__(self) -> Iterator[Outcome]:
        reconstructed, filed, config = self._inputs
        # Rebuilt items by position, None once paired; a free puid maps to
        # its item's position.
        slots: list[ReconstructedSor | None] = []
        puid_index: dict[str, int] = {}
        for i, rec in enumerate(reconstructed):
            slots.append(rec)
            if rec.puid:
                if rec.puid in puid_index:
                    raise LinkageError(f"duplicate puid {rec.puid!r} among reconstructed items")
                puid_index[rec.puid] = i

        rest_filed: list[SorRecord] = []
        for sor in filed:
            puid = sor.puid
            if puid:
                i = puid_index.get(puid)
                if i == _FILED:
                    raise LinkageError(f"duplicate puid {puid!r} among filed statements")
                puid_index[puid] = _FILED
                if i is not None:
                    rec, slots[i] = slots[i], None
                    yield rec, sor
                    continue
            rest_filed.append(sor)

        rest_rec = [r for r in slots if r is not None]
        outcomes = _fuzzy_link(rest_rec, rest_filed, config)
        self.reconstructed_count = len(slots)
        self.puid_pairs = len(slots) - len(rest_rec)
        self.filed_count = self.puid_pairs + len(rest_filed)
        # Each item of the fuzzy stage comes out once, a pair's two in one outcome.
        self.fuzzy_pairs = len(rest_rec) + len(rest_filed) - len(outcomes)
        yield from outcomes


def link(
    reconstructed: Iterable[ReconstructedSor], filed: Iterable[SorRecord], config: LinkConfig | None = None
) -> Linkage:
    """link_outcomes collected into a Linkage: the puid pairs in filed order,
    then the fuzzy pairs in greedy order; the unmatched lists in input order."""
    linkage = Linkage([], [], [])
    for rec, sor in link_outcomes(reconstructed, filed, config):
        if sor is None:
            linkage.unmatched_reconstructed.append(rec)
        elif rec is None:
            linkage.unmatched_filed.append(sor)
        else:
            linkage.pairs.append((rec, sor))
    return linkage


# A queue of free rebuilt items, as (content_id, position) in descending
# order so that its head is the last element.
_Queue = list[tuple[str, int]]


def _fuzzy_link(
    rest_rec: list[ReconstructedSor], rest_filed: list[SorRecord], config: LinkConfig
) -> list[Outcome]:
    """Greedy fuzzy pairing: the pairs in greedy order, then (rec, None) for
    each unpaired item of `rest_rec` and (None, sor) for each of `rest_filed`.

    The result is the greedy walk over every above-threshold pair in the order
    (score desc, uuid, content_id, filed position, rebuilt position), without
    listing the pairs. For one filed item a pair's score depends only on
    whether category and decision type are equal and on the clamped distance
    to the rebuilt item's moderation day, so the rebuilt items of a block sit
    in queues keyed by those attributes and sorted by (content_id, position).
    Each filed item gets one tier per distinct score that reaches the
    threshold, holding the queues at that score; walking the tiers in (score
    desc, uuid, filed position) order, a filed item takes the smallest free
    queue head. With the categories, decision types and days of a block held
    fixed, a block costs O(n log n).
    """
    blocks: dict[tuple[ContentType, date], dict[tuple[str, DecisionType, bool, date], _Queue]] = {}
    for i, rec in enumerate(rest_rec):
        queues = blocks.setdefault((rec.content_type, rec.application_date), {})
        key = (rec.category, rec.decision_type, bool(rec.puid), rec.moderated_at.date())
        queues.setdefault(key, []).append((rec.content_id, i))
    for queues in blocks.values():
        for queue in queues.values():
            queue.sort(reverse=True)

    # Scores are cached lazily by feature key, never tabulated over the day
    # distance, whose clamp comes from the config. Equal weights can give
    # different keys one score, so an id stands for a score value.
    score_ids: dict[tuple[bool, bool, int], int | None] = {}
    value_ids: dict[Fraction, int] = {}

    def score_id(category_equal: bool, decision_equal: bool, days: int) -> int | None:
        key = (category_equal, decision_equal, min(days, config.max_day_distance))
        if key not in score_ids:
            score = config.score(*key)
            score_ids[key] = None
            if score >= config.threshold:
                score_ids[key] = value_ids.setdefault(score, len(value_ids))
        return score_ids[key]

    # Filed items with the same block, category, decision type, puid presence
    # and filing day see the same tiers.
    tier_memo: dict[tuple, list[tuple[int, list[_Queue]]]] = {}
    tiers: list[tuple[int, str, int, list[_Queue]]] = []
    for j, sor in enumerate(rest_filed):
        block_key = (sor.content_type, sor.application_date)
        queues = blocks.get(block_key)
        if not queues:
            continue
        filed_day = sor.created_at.date()
        signature = (block_key, sor.category, sor.decision_type, bool(sor.puid), filed_day)
        own = tier_memo.get(signature)
        if own is None:
            by_score: dict[int, list[_Queue]] = {}
            for (category, decision_type, has_puid, day), queue in queues.items():
                if has_puid and sor.puid:
                    continue  # both identities known, and they differ
                sid = score_id(
                    category == sor.category,
                    decision_type is sor.decision_type,
                    abs((filed_day - day).days),
                )
                if sid is not None:
                    by_score.setdefault(sid, []).append(queue)
            own = tier_memo[signature] = list(by_score.items())
        for sid, tier_queues in own:
            tiers.append((sid, sor.uuid, j, tier_queues))

    rank = [0] * len(value_ids)
    for r, score in enumerate(sorted(value_ids, reverse=True)):
        rank[value_ids[score]] = r
    tiers.sort(key=lambda t: (rank[t[0]], t[1], t[2]))

    taken_rec = bytearray(len(rest_rec))
    taken_filed = bytearray(len(rest_filed))
    outcomes: list[Outcome] = []

    def free_head(tier_queues: list[_Queue]) -> tuple[str, int] | None:
        best = None
        for queue in tier_queues:
            while queue and taken_rec[queue[-1][1]]:
                queue.pop()
            if queue and (best is None or queue[-1] < best):
                best = queue[-1]
        return best

    # Tiers sharing (score, uuid) come from filed items with a duplicate uuid;
    # they are walked as one group, by (content_id, filed position, rebuilt
    # position), through a heap of each filed item's smallest free head.
    start = 0
    while start < len(tiers):
        sid, uuid = tiers[start][0], tiers[start][1]
        stop = start + 1
        while stop < len(tiers) and tiers[stop][0] == sid and tiers[stop][1] == uuid:
            stop += 1
        heap: list[tuple[str, int, int, list[_Queue]]] = []
        for _, _, j, tier_queues in tiers[start:stop]:
            if not taken_filed[j]:
                head = free_head(tier_queues)
                if head is not None:
                    heap.append((head[0], j, head[1], tier_queues))
        start = stop
        heapq.heapify(heap)
        while heap:
            _, j, i, tier_queues = heapq.heappop(heap)
            if taken_rec[i]:
                head = free_head(tier_queues)
                if head is not None:
                    heapq.heappush(heap, (head[0], j, head[1], tier_queues))
                continue
            taken_rec[i] = 1
            taken_filed[j] = 1
            outcomes.append((rest_rec[i], rest_filed[j]))
    outcomes.extend((r, None) for i, r in enumerate(rest_rec) if not taken_rec[i])
    outcomes.extend((None, f) for j, f in enumerate(rest_filed) if not taken_filed[j])
    return outcomes


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


class VerificationKind(str, Enum):
    CONSISTENT = "consistent"
    OMITTED_SOR = "omitted_sor"
    PHANTOM_SOR = "phantom_sor"
    FIELD_MISMATCH = "field_mismatch"
    LATE_SUBMISSION = "late_submission"


_VKIND_RANK = {k: i for i, k in enumerate(VerificationKind)}

# Fields a platform export can support, and so diffed.
DIFF_FIELDS = (
    "category",
    "decision_type",
    "decision_ground",
    "content_type",
    "automated_detection",
    "automated_decision",
    "content_date",
)
# Every other statement column, in column order, but the four that identify,
# select or block a statement: source_type, the free texts and created_at are
# excluded from diffing and listed in run metadata instead.
UNDIFFED_FIELDS = tuple(
    name
    for name in SorRecord._fields
    if name not in DIFF_FIELDS and name not in ("uuid", "platform_name", "application_date", "puid")
)

_diff_values = attrgetter(*DIFF_FIELDS)


class VerificationFinding(NamedTuple):
    kind: VerificationKind
    severity: Severity
    content_id: str | None = None
    sor_uuid: str | None = None
    mismatched_fields: tuple[tuple[str, str, str], ...] = ()
    evidence: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind.value,
            "severity": self.severity.value,
            "content_id": self.content_id,
            "sor_uuid": self.sor_uuid,
            "mismatched_fields": [
                {"field": f, "expected": e, "filed": g} for f, e, g in self.mismatched_fields
            ],
            "evidence": self.evidence,
        }


def _finding_key(f: VerificationFinding) -> tuple:
    # Severity, kind and which ids are None in one int, then the ids, then the
    # finding itself, compared only when all before it tie, and so never a
    # None with a string. Every finding's key is held during the sort, so the
    # key keeps four slots.
    rank = SEVERITY_RANK[f.severity] * len(_VKIND_RANK) + _VKIND_RANK[f.kind]
    return rank * 4 + (f.content_id is None) * 2 + (f.sor_uuid is None), f.content_id or "", f.sor_uuid or "", f


def _consistent_finding(content_id: str, sor_uuid: str) -> VerificationFinding:
    # Built each time a consistent finding is read, so through tuple.__new__,
    # without the named tuple's own Python-level __new__.
    evidence = f"statement {sor_uuid} is consistent with platform data for {content_id}"
    return tuple.__new__(
        VerificationFinding, (VerificationKind.CONSISTENT, Severity.INFO, content_id, sor_uuid, (), evidence)
    )


def outcome_findings(
    rec: ReconstructedSor | None, sor: SorRecord | None, deadline_days: int
) -> list[VerificationFinding]:
    """The divergences of one linkage outcome. An unmatched rebuilt item is an
    OMITTED_SOR and an unmatched filed statement a PHANTOM_SOR. In a pair, a
    field divergence and a late submission can both fire; a pair with neither
    gives no finding here, and is CONSISTENT."""
    if sor is None:
        return [
            VerificationFinding(
                kind=VerificationKind.OMITTED_SOR,
                severity=Severity.CRITICAL,
                content_id=rec.content_id,
                evidence=(
                    f"moderated content {rec.content_id} "
                    f"({rec.decision_type.value} on {rec.application_date.isoformat()}) "
                    "has no filed statement in the audited window"
                ),
            )
        ]
    if rec is None:
        return [
            VerificationFinding(
                kind=VerificationKind.PHANTOM_SOR,
                severity=Severity.CRITICAL,
                sor_uuid=sor.uuid,
                evidence=(
                    f"filed statement {sor.uuid} "
                    f"({sor.decision_type.value} on {sor.application_date.isoformat()}) "
                    "matches no platform-side moderation action"
                ),
            )
        ]
    findings: list[VerificationFinding] = []
    expected_values = _diff_values(rec)
    filed_values = _diff_values(sor)
    if expected_values != filed_values:
        diffs = tuple(
            (name, render_cell(expected), render_cell(filed_value))
            for name, expected, filed_value in zip(DIFF_FIELDS, expected_values, filed_values)
            if expected != filed_value
        )
        fields = {d[0] for d in diffs}
        severity = Severity.CRITICAL if "automated_decision" in fields else Severity.WARN
        findings.append(
            VerificationFinding(
                kind=VerificationKind.FIELD_MISMATCH,
                severity=severity,
                content_id=rec.content_id,
                sor_uuid=sor.uuid,
                mismatched_fields=diffs,
                evidence=(
                    f"statement {sor.uuid} diverges from platform data for "
                    f"{rec.content_id} on: " + ", ".join(sorted(fields))
                ),
            )
        )
    lag = sor.created_at - rec.moderated_at
    if lag > timedelta(days=deadline_days):
        findings.append(
            VerificationFinding(
                kind=VerificationKind.LATE_SUBMISSION,
                severity=Severity.WARN,
                content_id=rec.content_id,
                sor_uuid=sor.uuid,
                evidence=(
                    f"statement {sor.uuid} was filed {lag / timedelta(days=1):.1f} days after the "
                    f"action, past the {deadline_days}-day deadline"
                ),
            )
        )
    return findings


class VerificationFindings:
    """Verification findings, read in _finding_key order as often as needed,
    with `counts` per severity. The divergences are held as findings; a
    consistent pair only as its (content_id, sor_uuid), made into a finding
    each time it is read. Both lists are sorted in place and kept;
    `divergences` holds no CONSISTENT finding.

    Consistent findings share one rank and set both ids, so their key order is
    the order of the id pairs. outcome_findings makes only CRITICAL and WARN
    findings, which rank before INFO, so the consistent run comes last."""

    def __init__(self, divergences: list[VerificationFinding], consistent: list[tuple[str, str]]) -> None:
        # _finding_key ties only equal findings, so the order ignores input order.
        divergences.sort(key=_finding_key)
        consistent.sort()
        self._divergences, self._consistent = divergences, consistent
        self.counts = {s.value: 0 for s in SEVERITY_ORDER}
        for f in divergences:
            self.counts[f.severity.value] += 1
        self.counts[Severity.INFO.value] += len(consistent)

    def __len__(self) -> int:
        return len(self._divergences) + len(self._consistent)

    def __iter__(self) -> Iterator[VerificationFinding]:
        yield from self._divergences
        for content_id, sor_uuid in self._consistent:
            yield _consistent_finding(content_id, sor_uuid)


def verify_diff(outcomes: Iterable[Outcome], deadline_days: int = DEFAULT_DEADLINE_DAYS) -> VerificationFindings:
    """The sorted findings of linkage outcomes (link_outcomes, or a Linkage),
    read once."""
    divergences: list[VerificationFinding] = []
    consistent: list[tuple[str, str]] = []
    for rec, sor in outcomes:
        found = outcome_findings(rec, sor, deadline_days)
        if found:
            divergences.extend(found)
        else:
            consistent.append((rec.content_id, sor.uuid))
    return VerificationFindings(divergences, consistent)
