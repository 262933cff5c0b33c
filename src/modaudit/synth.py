"""Coupled synthetic corpora: platform export + SoR dump + claims file, with
injected inconsistencies and the exact ground truth a correct audit must find.

Injection counts are exact integers (rate * volume, rounded half up), not
random draws, so ground truth is equality-checkable. All randomness flows from
one seeded generator; a fixed config yields byte-identical artifacts.

Claims are computed from the published (post-injection) dump, so record-level
injections never leak into the cross-check ground truth; only explicit claim
perturbations do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from datetime import date, datetime, time, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from .aggregate import Period, PeriodError
from .claims import parse_number, percent_text
from .crosscheck import ToleranceSpec, tolerance_bound
from .ingest import write_dump, write_export
from .settings import DEFAULT_DEADLINE_DAYS, SettingError as ScenarioError, _integer, _known_keys, _number
from .sor import (
    AutomatedDecision,
    CategoryTaxonomy,
    ContentType,
    DecisionGround,
    DecisionType,
    SorRecord,
    SourceType,
    json_text,
    read_json,
)
from .verify import ModerationEvent, VisibilityStatus, marker_token


def _object(value: object, name: str) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{name} must be a JSON object, got {value!r}")
    return value


@dataclass(frozen=True)
class ClaimPerturbation:
    """Additive or multiplicative tampering of one claim's reported value."""

    claim_id: str
    delta: float | None = None
    factor: float | None = None

    def __post_init__(self) -> None:
        if (self.delta is None) == (self.factor is None):
            raise ScenarioError(
                f"perturbation of {self.claim_id!r} needs exactly one of delta or factor"
            )


_RATES = (
    "drop_sor_rate",
    "phantom_sor_rate",
    "flip_automation_rate",
    "shift_category_rate",
    "late_filing_rate",
)


@dataclass(frozen=True)
class InjectionSpec:
    drop_sor_rate: float = 0.0
    phantom_sor_rate: float = 0.0
    flip_automation_rate: float = 0.0
    shift_category_rate: float = 0.0
    late_filing_rate: float = 0.0
    claim_perturbations: tuple[ClaimPerturbation, ...] = ()
    strip_puid: bool = False

    def __post_init__(self) -> None:
        for name in _RATES:
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ScenarioError(f"{name} must be in [0, 1], got {rate}")
        if not isinstance(self.strip_puid, bool):
            raise ScenarioError("strip_puid must be true or false")

    @classmethod
    def from_dict(cls, data: object) -> "InjectionSpec":
        data = _object(data, "injections")
        _known_keys(data, (*_RATES, "claim_perturbations", "strip_puid"), "injections")
        entries = data.get("claim_perturbations", [])
        if not isinstance(entries, list):
            raise ScenarioError(f"claim_perturbations must be a JSON array, got {entries!r}")
        perturbations = []
        for entry in entries:
            entry = _object(entry, "a claim perturbation")
            _known_keys(entry, ("claim_id", "delta", "factor"), "a claim perturbation")
            delta, factor = entry.get("delta"), entry.get("factor")
            perturbations.append(
                ClaimPerturbation(
                    claim_id=str(entry["claim_id"]),
                    delta=None if delta is None else _number(delta, "delta"),
                    factor=None if factor is None else _number(factor, "factor"),
                )
            )
        return cls(
            **{name: float(_number(data.get(name, 0.0), name)) for name in _RATES},
            claim_perturbations=tuple(perturbations),
            strip_puid=data.get("strip_puid", False),  # type: ignore[arg-type]
        )

    def to_dict(self) -> dict[str, object]:
        return {
            **{name: getattr(self, name) for name in _RATES},
            "claim_perturbations": [
                {"claim_id": p.claim_id}
                | ({"delta": p.delta} if p.delta is not None else {"factor": p.factor})
                for p in self.claim_perturbations
            ],
            "strip_puid": self.strip_puid,
        }


def _check_mix(mix: Mapping[str, float], name: str) -> None:
    if not mix:
        raise ScenarioError(f"{name} must not be empty")
    for weight in mix.values():
        _number(weight, f"a {name} weight")
    if any(w < 0 for w in mix.values()):
        raise ScenarioError(f"{name} weights must be non-negative")
    if sum(mix.values()) <= 0:
        raise ScenarioError(f"{name} weights must sum to a positive value")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    platform: str
    window: Period
    volume: int
    category_mix: Mapping[str, float]
    automation_mix: Mapping[str, float]  # keyed by AutomatedDecision values
    injections: InjectionSpec = field(default_factory=InjectionSpec)

    def __post_init__(self) -> None:
        if self.volume < 0:
            raise ScenarioError("volume must be non-negative")
        if not self.platform:
            raise ScenarioError("platform must be non-empty")
        _check_mix(self.category_mix, "category_mix")
        _check_mix(self.automation_mix, "automation_mix")
        for key in self.automation_mix:
            if key not in AutomatedDecision._value2member_map_:
                raise ScenarioError(f"unknown automation_mix key {key!r}")

    @classmethod
    def from_dict(cls, data: object) -> "ScenarioConfig":
        data = _object(data, "scenario config")
        _known_keys(data, [f.name for f in fields(cls)], "scenario config")
        try:
            return cls(
                seed=_integer(data["seed"], "seed"),
                platform=str(data["platform"]),
                window=Period.parse(_object(data["window"], "window")),
                volume=_integer(data["volume"], "volume"),
                category_mix=dict(_object(data["category_mix"], "category_mix")),
                automation_mix=dict(_object(data["automation_mix"], "automation_mix")),
                injections=InjectionSpec.from_dict(data.get("injections", {}) or {}),
            )
        except KeyError as exc:
            raise ScenarioError(f"scenario config is missing {exc.args[0]!r}") from None
        except PeriodError as exc:
            raise ScenarioError(f"window: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_dict(read_json(path, "scenario file"))

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "platform": self.platform,
            "window": self.window.to_json(),
            "volume": self.volume,
            "category_mix": dict(self.category_mix),
            "automation_mix": dict(self.automation_mix),
            "injections": self.injections.to_dict(),
        }


@dataclass
class GroundTruth:
    """What a correct auditor must find: every injected fault, exactly once."""

    crosscheck: list[tuple[str, str]] = field(default_factory=list)  # (claim_id, kind)
    verification: list[tuple[str | None, str | None, str]] = field(default_factory=list)

    def crosscheck_multiset(self) -> list[tuple[str, str]]:
        return sorted(self.crosscheck)

    def verification_multiset(self) -> list[tuple[str, str, str]]:
        return sorted((c or "", s or "", k) for c, s, k in self.verification)

    def to_dict(self) -> dict[str, object]:
        return {
            "crosscheck": [
                {"claim_id": cid, "kind": kind} for cid, kind in sorted(self.crosscheck)
            ],
            "verification": [
                {"content_id": c, "sor_uuid": s, "kind": k}
                for c, s, k in sorted(self.verification, key=lambda t: (t[0] or "", t[1] or "", t[2]))
            ],
        }

    @classmethod
    def from_file(cls, path: str | Path) -> "GroundTruth":
        data = read_json(path, "ground truth")
        return cls(
            crosscheck=[(e["claim_id"], e["kind"]) for e in data.get("crosscheck", [])],
            verification=[
                (e.get("content_id"), e.get("sor_uuid"), e["kind"])
                for e in data.get("verification", [])
            ],
        )


@dataclass
class ScenarioArtifacts:
    out_dir: Path
    export_path: Path
    dump_dir: Path
    claims_path: Path
    taxonomy_path: Path
    ground_truth_path: Path
    ground_truth: GroundTruth
    config: ScenarioConfig


_DECISION_ROLL = (
    (0.55, DecisionType.VISIBILITY_REMOVAL, VisibilityStatus.REMOVED),
    (0.75, DecisionType.VISIBILITY_DISABLE, VisibilityStatus.DISABLED),
    (0.90, DecisionType.VISIBILITY_DEMOTION, VisibilityStatus.DEMOTED),
    (1.01, DecisionType.ACCOUNT_SUSPENSION, VisibilityStatus.VISIBLE),
)

_CONTENT_ROLL = (
    (0.70, ContentType.TEXT),
    (0.90, ContentType.IMAGE),
    (1.01, ContentType.VIDEO),
)

_SOURCE_ROLL = (
    (0.40, SourceType.VOLUNTARY_INITIATIVE),
    (0.70, SourceType.ARTICLE_16_NOTICE),
    (0.85, SourceType.TRUSTED_FLAGGER),
    (1.01, SourceType.OTHER),
)

_FLIP = {
    AutomatedDecision.FULLY: AutomatedDecision.NOT_AUTOMATED,
    AutomatedDecision.NOT_AUTOMATED: AutomatedDecision.FULLY,
    AutomatedDecision.PARTIALLY: AutomatedDecision.NOT_AUTOMATED,
}

_LATE_DELAY_MIN_DAYS = DEFAULT_DEADLINE_DAYS + 1  # past the default filing deadline
_LATE_DELAY_MAX_DAYS = 12


def _roll(table, r):
    for bound, *payload in table:
        if r < bound:
            return payload
    return table[-1][1:]


def _exact_count(rate: float, volume: int) -> int:
    # rate * volume rounded half up, computed exactly
    return int(Fraction(str(rate)) * volume + Fraction(1, 2))


def scenario_taxonomy(config: ScenarioConfig) -> CategoryTaxonomy:
    codes = sorted(set(config.category_mix) | {"other"})
    return CategoryTaxonomy(codes=tuple(codes))


def generate(config: ScenarioConfig, out_dir: str | Path) -> ScenarioArtifacts:
    """Materialize one scenario under out_dir.

    Layout: export.csv, dump/part-*.csv, claims.json, taxonomy.json,
    ground_truth.json, scenario.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(config.seed)
    inj = config.injections
    window = config.window
    platform = config.platform
    volume = config.volume

    start_dt = datetime.combine(window.start, time.min, tzinfo=timezone.utc)
    window_seconds = (window.end - window.start).days * 86400
    if window_seconds <= 0:
        raise ScenarioError("scenario window must span at least one day")

    categories = list(config.category_mix)
    cat_weights = [config.category_mix[c] for c in categories]
    automations = [AutomatedDecision(k) for k in config.automation_mix]
    auto_weights = list(config.automation_mix.values())

    events: list[ModerationEvent] = []
    filed: list[SorRecord] = []
    for i in range(volume):
        content_id = f"c-{i:07d}"
        puid = f"p-{i:07d}"
        moderated_at = start_dt + timedelta(seconds=rng.randrange(window_seconds))
        content_created = moderated_at.date() - timedelta(days=rng.randint(0, 30))
        category = rng.choices(categories, weights=cat_weights)[0]
        automation = rng.choices(automations, weights=auto_weights)[0]
        detection = automation is not AutomatedDecision.NOT_AUTOMATED
        decision_type, visibility = _roll(_DECISION_ROLL, rng.random())
        content_type = _roll(_CONTENT_ROLL, rng.random())[0]
        source_type = _roll(_SOURCE_ROLL, rng.random())[0]
        reference_url = (
            f"https://{platform}.example/policies/{category}" if rng.random() < 0.3 else None
        )
        delay_days = rng.randint(0, 2)

        annotations: tuple[str, ...] = ()
        if decision_type is DecisionType.ACCOUNT_SUSPENSION:
            annotations = ("account_suspension",)
        payload = (
            f"synthetic text for {content_id} {marker_token(category)}"
            if content_type is ContentType.TEXT
            else None
        )
        events.append(
            ModerationEvent(
                content_id=content_id,
                puid=puid,
                content_type=content_type,
                content_created=content_created,
                moderated_at=moderated_at,
                visibility_status=visibility,
                platform_categories=(category,),
                automated_detection=detection,
                automated_decision=automation,
                annotations=annotations,
                payload=payload,
            )
        )
        filed.append(
            SorRecord(
                uuid=f"sor-{i:07d}",
                platform_name=platform,
                decision_type=decision_type,
                decision_type_other=None,
                decision_ground=DecisionGround.INCOMPATIBLE_WITH_TERMS,
                decision_ground_reference_url=reference_url,
                illegal_content_explanation=None,
                category=category,
                content_type=content_type,
                content_type_other=None,
                automated_detection=detection,
                automated_decision=automation,
                source_type=source_type,
                content_date=content_created,
                application_date=moderated_at.date(),
                created_at=moderated_at + timedelta(days=delay_days),
                puid=puid,
            )
        )

    # Untouched filler content: exercises the moderated-content filter.
    for j in range(volume // 10):
        content_id = f"c-{volume + j:07d}"
        seen_at = start_dt + timedelta(seconds=rng.randrange(window_seconds))
        events.append(
            ModerationEvent(
                content_id=content_id,
                puid=f"p-{volume + j:07d}",
                content_type=ContentType.TEXT,
                content_created=seen_at.date() - timedelta(days=rng.randint(0, 30)),
                moderated_at=seen_at,
                visibility_status=VisibilityStatus.VISIBLE,
                platform_categories=(),
                automated_detection=False,
                automated_decision=AutomatedDecision.NOT_AUTOMATED,
                annotations=(),
                payload=f"benign text for {content_id}",
            )
        )

    ground_truth = GroundTruth()

    # Record-level injections over disjoint targets.
    n_drop = _exact_count(inj.drop_sor_rate, volume)
    n_flip = _exact_count(inj.flip_automation_rate, volume)
    n_shift = _exact_count(inj.shift_category_rate, volume)
    n_late = _exact_count(inj.late_filing_rate, volume)
    if n_drop + n_flip + n_shift + n_late > volume:
        raise ScenarioError("injection rates target more records than the scenario holds")
    if n_shift > 0 and len(categories) < 2:
        raise ScenarioError("shift_category needs at least two categories in the mix")

    deck = list(range(volume))
    rng.shuffle(deck)
    cursor = 0
    drop_set = frozenset(deck[cursor : cursor + n_drop])
    cursor += n_drop
    flip_set = frozenset(deck[cursor : cursor + n_flip])
    cursor += n_flip
    shift_set = frozenset(deck[cursor : cursor + n_shift])
    cursor += n_shift
    late_set = frozenset(deck[cursor : cursor + n_late])

    sorted_codes = sorted(categories)
    published: list[SorRecord] = []
    for i, record in enumerate(filed):
        if i in drop_set:
            ground_truth.verification.append((events[i].content_id, None, "omitted_sor"))
            continue
        changes: dict[str, object] = {}
        if i in flip_set:
            changes["automated_decision"] = _FLIP[record.automated_decision]
            ground_truth.verification.append((events[i].content_id, record.uuid, "field_mismatch"))
        if i in shift_set:
            shifted = sorted_codes[(sorted_codes.index(record.category) + 1) % len(sorted_codes)]
            changes["category"] = shifted
            ground_truth.verification.append((events[i].content_id, record.uuid, "field_mismatch"))
        if i in late_set:
            extra = rng.randint(_LATE_DELAY_MIN_DAYS, _LATE_DELAY_MAX_DAYS)
            changes["created_at"] = record.created_at + timedelta(days=extra)
            ground_truth.verification.append((events[i].content_id, record.uuid, "late_submission"))
        if changes:
            record = record._replace(**changes)
        published.append(record)

    n_phantom = _exact_count(inj.phantom_sor_rate, volume)
    if n_phantom > 0 and volume == 0:
        raise ScenarioError("phantom injections need a non-empty scenario")
    for j in range(n_phantom):
        base = events[rng.randrange(volume)]
        application_date = base.moderated_at.date()
        uuid = f"sor-phantom-{j:05d}"
        automation = rng.choices(automations, weights=auto_weights)[0]
        decision_type = _roll(_DECISION_ROLL, rng.random())[0]
        if decision_type is DecisionType.ACCOUNT_SUSPENSION:
            decision_type = DecisionType.VISIBILITY_REMOVAL
        published.append(
            SorRecord(
                uuid=uuid,
                platform_name=platform,
                decision_type=decision_type,
                decision_type_other=None,
                decision_ground=DecisionGround.INCOMPATIBLE_WITH_TERMS,
                decision_ground_reference_url=None,
                illegal_content_explanation=None,
                category=rng.choice(sorted_codes),
                content_type=base.content_type,
                content_type_other=None,
                automated_detection=automation is not AutomatedDecision.NOT_AUTOMATED,
                automated_decision=automation,
                source_type=_roll(_SOURCE_ROLL, rng.random())[0],
                content_date=application_date - timedelta(days=rng.randint(0, 30)),
                application_date=application_date,
                created_at=base.moderated_at + timedelta(days=rng.randint(0, 2)),
                puid=f"p-phantom-{j:05d}",
            )
        )
        ground_truth.verification.append((None, uuid, "phantom_sor"))

    if inj.strip_puid:
        published = [r._replace(puid=None) for r in published]

    # Claims: exact aggregates of the published dump.
    total = 0
    fully = 0
    cat_counts = {c: 0 for c in categories}
    for record in published:
        if window.contains(record):
            total += 1
            if record.automated_decision is AutomatedDecision.FULLY:
                fully += 1
            if record.category in cat_counts:
                cat_counts[record.category] += 1

    claims_entries: list[dict[str, object]] = []
    period_json = {"start": window.start.isoformat(), "end": window.end.isoformat()}
    claims_entries.append(
        {
            "claim_id": f"{platform}-total",
            "metric": "count",
            "predicate": {},
            "period": period_json,
            "value": total,
            "source_locator": "report:summary:total-actions",
        }
    )
    for code in sorted_codes:
        claims_entries.append(
            {
                "claim_id": f"{platform}-cat-{code}",
                "metric": "count",
                "predicate": {"category": code},
                "period": period_json,
                "value": cat_counts[code],
                "source_locator": f"report:by-category:{code}",
            }
        )
    if total > 0:
        share = Fraction(fully, total)
        claims_entries.append(
            {
                "claim_id": f"{platform}-share-fully",
                "metric": "share",
                "predicate": {"automated_decision": "FULLY"},
                "denominator_predicate": {},
                "period": period_json,
                "value": "0" if share == 0 else percent_text(share, 4),
                "source_locator": "report:automation:fully-share",
            }
        )

    _apply_perturbations(claims_entries, inj.claim_perturbations, ground_truth)

    taxonomy = scenario_taxonomy(config)
    export_path = out / "export.csv"
    dump_dir = out / "dump"
    claims_path = out / "claims.json"
    taxonomy_path = out / "taxonomy.json"
    ground_truth_path = out / "ground_truth.json"

    write_export(events, export_path)
    write_dump(published, dump_dir)
    claims_doc = {"platform": platform, "exhaustive": True, "claims": claims_entries}
    claims_path.write_text(json_text(claims_doc), encoding="utf-8")
    taxonomy_path.write_text(json_text(taxonomy.to_dict()), encoding="utf-8")
    ground_truth_path.write_text(json_text(ground_truth.to_dict()), encoding="utf-8")
    (out / "scenario.json").write_text(json_text(config.to_dict()), encoding="utf-8")

    return ScenarioArtifacts(
        out_dir=out,
        export_path=export_path,
        dump_dir=dump_dir,
        claims_path=claims_path,
        taxonomy_path=taxonomy_path,
        ground_truth_path=ground_truth_path,
        ground_truth=ground_truth,
        config=config,
    )


def _apply_perturbations(
    entries: list[dict[str, object]],
    perturbations: Sequence[ClaimPerturbation],
    ground_truth: GroundTruth,
) -> None:
    by_id = {str(e["claim_id"]): e for e in entries}
    spec = ToleranceSpec()
    for pert in perturbations:
        entry = by_id.get(pert.claim_id)
        if entry is None:
            raise ScenarioError(f"perturbation targets unknown claim {pert.claim_id!r}")
        computed, _ = parse_number(str(entry["value"]))
        computed = Fraction(computed)
        if pert.delta is not None:
            perturbed = computed + Fraction(str(pert.delta))
        else:
            perturbed = computed * Fraction(str(pert.factor))
        if perturbed < 0:
            raise ScenarioError(f"perturbation of {pert.claim_id!r} yields a negative value")

        if entry["metric"] == "count":
            new_value: object = int(perturbed) if perturbed.denominator == 1 else round(
                float(perturbed)
            )
            text = str(new_value)
        else:
            if perturbed > 1:
                raise ScenarioError(f"perturbation of {pert.claim_id!r} yields a share above 1")
            text = "0" if perturbed == 0 else percent_text(perturbed, 4)
            new_value = text
        reported, precision = parse_number(text)
        deviation = abs(Fraction(reported) - computed)
        if deviation <= tolerance_bound(reported, precision, spec):
            raise ScenarioError(
                f"perturbation of {pert.claim_id!r} stays within the default tolerance "
                "and would be undetectable"
            )
        entry["value"] = new_value
        kind = (
            "missing_in_db"
            if entry["metric"] == "count" and computed == 0 and reported > 0
            else "mismatch"
        )
        ground_truth.crosscheck.append((pert.claim_id, kind))


def write_bulk_dump(
    directory: str | Path,
    volume: int,
    seed: int = 7,
    platform: str = "examplehub",
    start: date | None = None,
    days: int = 31,
    categories: Sequence[str] = ("hate_speech", "misinformation", "nudity", "scam"),
) -> Path:
    """Fast faithful-only dump writer for throughput and memory tests."""
    rng = random.Random(seed)
    start = start or date(2024, 1, 1)
    start_dt = datetime.combine(start, time.min, tzinfo=timezone.utc)
    window_seconds = days * 86400
    cats = list(categories)

    def records():
        for i in range(volume):
            moderated_at = start_dt + timedelta(seconds=rng.randrange(window_seconds))
            category = cats[rng.randrange(len(cats))]
            automation = (
                AutomatedDecision.FULLY if rng.random() < 0.4 else AutomatedDecision.NOT_AUTOMATED
            )
            yield SorRecord(
                uuid=f"sor-{i:08d}",
                platform_name=platform,
                decision_type=DecisionType.VISIBILITY_REMOVAL,
                decision_type_other=None,
                decision_ground=DecisionGround.INCOMPATIBLE_WITH_TERMS,
                decision_ground_reference_url=None,
                illegal_content_explanation=None,
                category=category,
                content_type=ContentType.TEXT,
                content_type_other=None,
                automated_detection=automation is AutomatedDecision.FULLY,
                automated_decision=automation,
                source_type=SourceType.VOLUNTARY_INITIATIVE,
                content_date=moderated_at.date() - timedelta(days=1),
                application_date=moderated_at.date(),
                created_at=moderated_at + timedelta(days=1),
                puid=f"p-{i:08d}",
            )

    directory = Path(directory)
    write_dump(records(), directory)
    return directory
