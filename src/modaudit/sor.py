"""Statement of Reasons (SoR) records: schema, row validation, fill-rate profiling.

A SoR travels on disk as one CSV row. parse_dump_row turns the row, a list of
strings in FIELD_ORDER, into either a typed SorRecord or the reason and field
of its rejection; validate_record does the same for a row given as a mapping
of column name to string and returns a QuarantineEntry for a rejected row. Bad
data is never an exception, it is routed to quarantine with a
machine-readable reason.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence


class DecisionType(str, Enum):
    VISIBILITY_REMOVAL = "VISIBILITY_REMOVAL"
    VISIBILITY_DISABLE = "VISIBILITY_DISABLE"
    VISIBILITY_DEMOTION = "VISIBILITY_DEMOTION"
    MONETARY = "MONETARY"
    SERVICE_PROVISION = "SERVICE_PROVISION"
    ACCOUNT_SUSPENSION = "ACCOUNT_SUSPENSION"
    ACCOUNT_TERMINATION = "ACCOUNT_TERMINATION"
    OTHER = "OTHER"


class DecisionGround(str, Enum):
    ILLEGAL_CONTENT = "ILLEGAL_CONTENT"
    INCOMPATIBLE_WITH_TERMS = "INCOMPATIBLE_WITH_TERMS"


class ContentType(str, Enum):
    TEXT = "TEXT"
    IMAGE = "IMAGE"
    VIDEO = "VIDEO"
    AUDIO = "AUDIO"
    SYNTHETIC_MEDIA = "SYNTHETIC_MEDIA"
    APP = "APP"
    PRODUCT = "PRODUCT"
    OTHER = "OTHER"


class AutomatedDecision(str, Enum):
    FULLY = "FULLY"
    PARTIALLY = "PARTIALLY"
    NOT_AUTOMATED = "NOT_AUTOMATED"


class SourceType(str, Enum):
    ARTICLE_16_NOTICE = "ARTICLE_16_NOTICE"
    TRUSTED_FLAGGER = "TRUSTED_FLAGGER"
    VOLUNTARY_INITIATIVE = "VOLUNTARY_INITIATIVE"
    OTHER = "OTHER"


class QuarantineReason(str, Enum):
    MISSING_FIELD = "MISSING_FIELD"
    BAD_ENUM = "BAD_ENUM"
    BAD_DATE = "BAD_DATE"
    DATE_ORDER = "DATE_ORDER"
    EMPTY_OTHER_TEXT = "EMPTY_OTHER_TEXT"
    UNKNOWN_CATEGORY = "UNKNOWN_CATEGORY"


# Fields that must carry a non-empty value in every row.
_REQUIRED = frozenset(
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

_DECISION_TYPES = {m.value: m for m in DecisionType}
_DECISION_GROUNDS = {m.value: m for m in DecisionGround}
_CONTENT_TYPES = {m.value: m for m in ContentType}
_AUTOMATED_DECISIONS = {m.value: m for m in AutomatedDecision}
_SOURCE_TYPES = {m.value: m for m in SourceType}
_BOOLS = {"true": True, "false": False}

# A row's rejection: its reason and the field it names.
Fault = tuple[QuarantineReason, str]

# Entries each process-wide cache of row parsing, the date cache and the list
# cache, holds at most, the least recently used leaving first. Valid rows
# repeat these values; real data stays far below it.
PARSE_CACHE_LIMIT = 4096


class SorRecord(NamedTuple):
    """One moderation action as filed to the transparency database. Its fields
    are the columns of a dump row, in wire order: a dump file's header must be
    FIELD_ORDER exactly."""

    uuid: str
    platform_name: str
    decision_type: DecisionType
    decision_type_other: str | None
    decision_ground: DecisionGround
    decision_ground_reference_url: str | None
    illegal_content_explanation: str | None
    category: str
    content_type: ContentType
    content_type_other: str | None
    automated_detection: bool
    automated_decision: AutomatedDecision
    source_type: SourceType
    content_date: date
    application_date: date
    created_at: datetime
    puid: str | None

    def to_row(self) -> dict[str, str]:
        """Render the record back into its CSV row form."""
        return dict(zip(FIELD_ORDER, map(render_cell, self)))


# The wire column order of a dump row.
FIELD_ORDER = SorRecord._fields
_REQUIRED_INDICES = tuple(i for i, name in enumerate(FIELD_ORDER) if name in _REQUIRED)
_required_values = itemgetter(*_REQUIRED_INDICES)
_row_values = itemgetter(*FIELD_ORDER)


@dataclass(frozen=True)
class QuarantineEntry:
    """A rejected input row plus why it was rejected.

    file and row_number are set by the reader that hit the row; a bare
    validate_record call leaves them unset.
    """

    reason: QuarantineReason
    field: str
    raw_row: dict[str, str]
    file: str | None = None
    row_number: int | None = None

    def to_json_line(self) -> str:
        payload = {
            "file": self.file,
            "row_number": self.row_number,
            "reason": self.reason.value,
            "field": self.field,
            "raw_row": self.raw_row,
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False)


class TaxonomyError(ValueError):
    pass


class JsonInputError(ValueError):
    """A JSON input file that cannot be read or decoded. The message is one
    line that names the input and its file."""


def _parse_on_fresh_stack(text: str) -> object:
    """json.loads run on a new thread, which starts with an empty stack, so
    the nesting it reads does not depend on how deep the caller is; its error
    is raised here."""
    outcome: list[object] = []

    def parse() -> None:
        try:
            outcome.append(json.loads(text))
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=parse)
    thread.start()
    thread.join()
    (result,) = outcome
    if isinstance(result, Exception):
        raise result
    return result


def json_text(document: object) -> str:
    """`document` as the JSON files this package writes hold it, findings
    aside: indented by two, keys sorted, one trailing newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def read_json(path: str | Path, what: str) -> object:
    """The JSON document in the UTF-8 file at `path`. Every way the file can
    fail to yield a document, an OS error, a non-UTF-8 byte, malformed JSON,
    nesting past the recursion limit or an integer past the digit limit,
    raises JsonInputError; `what` names the input in its message, e.g. "config file"."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise JsonInputError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise JsonInputError(f"{what} {path} is not valid UTF-8 (byte {exc.start})") from None
    try:
        return _parse_on_fresh_stack(text)
    except json.JSONDecodeError as exc:
        raise JsonInputError(f"{what} {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise JsonInputError(f"{what} {path} nests too deeply to read") from None
    except ValueError:
        raise JsonInputError(f"{what} {path} holds an integer too long to read") from None


@dataclass(frozen=True)
class CategoryTaxonomy:
    """Configurable violation-category vocabulary with report-label aliases."""

    codes: tuple[str, ...]
    labels: Mapping[str, str] = field(default_factory=dict)
    aliases: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.codes:
            raise TaxonomyError("taxonomy must declare at least one category code")
        if len(set(self.codes)) != len(self.codes):
            raise TaxonomyError("duplicate category codes in taxonomy")
        if "" in self.codes:
            raise TaxonomyError("taxonomy category codes must be non-empty")
        code_set = set(self.codes)
        for alias, target in self.aliases.items():
            if target not in code_set:
                raise TaxonomyError(f"alias {alias!r} points at unknown code {target!r}")
        # Labels equal under casefold must name one code, or resolve would
        # keep whichever came last.
        folded: dict[str, tuple[str, str]] = {}
        for label, target in (*zip(self.codes, self.codes), *self.aliases.items()):
            first, first_target = folded.setdefault(label.casefold(), (label, target))
            if first_target != target:
                raise TaxonomyError(
                    f"labels {first!r} and {label!r} are equal under casefold but name codes "
                    f"{first_target!r} and {target!r}"
                )
        object.__setattr__(self, "_code_set", code_set)
        object.__setattr__(self, "_folded", {key: target for key, (_, target) in folded.items()})

    def __contains__(self, code: str) -> bool:
        return code in self._code_set  # type: ignore[attr-defined]

    def resolve(self, label: str) -> str | None:
        """Map a category code, declared alias, or case-variant thereof to a code.

        Returns None for labels the taxonomy does not know; callers decide
        whether that is an error or a finding.
        """
        if label in self._code_set:  # type: ignore[attr-defined]
            return label
        target = self.aliases.get(label)
        if target is not None:
            return target
        return self._folded.get(label.casefold())  # type: ignore[attr-defined]

    @classmethod
    def from_dict(cls, data: object) -> "CategoryTaxonomy":
        if not isinstance(data, dict):
            raise TaxonomyError("taxonomy must be a JSON object")
        codes = data.get("codes")
        if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
            raise TaxonomyError("taxonomy 'codes' must be a list of strings")
        labels = data.get("labels", {})
        aliases = data.get("aliases", {})
        if not isinstance(labels, dict) or not isinstance(aliases, dict):
            raise TaxonomyError("taxonomy 'labels' and 'aliases' must be objects")
        for section, mapping in (("labels", labels), ("aliases", aliases)):
            for name, value in mapping.items():
                if not isinstance(value, str):
                    raise TaxonomyError(f"taxonomy {section} value for {name!r} must be a string")
        return cls(codes=tuple(codes), labels=dict(labels), aliases=dict(aliases))

    @classmethod
    def from_file(cls, path: str | Path) -> "CategoryTaxonomy":
        return cls.from_dict(read_json(path, "taxonomy"))

    def to_dict(self) -> dict[str, object]:
        return {"codes": list(self.codes), "labels": dict(self.labels), "aliases": dict(self.aliases)}


def default_taxonomy() -> CategoryTaxonomy:
    """Built-in vocabulary used when no taxonomy file is supplied."""
    return CategoryTaxonomy(
        codes=(
            "hate_speech",
            "misinformation",
            "nudity",
            "deepfake",
            "scam",
            "other",
        ),
        labels={
            "hate_speech": "Hate speech",
            "misinformation": "Misinformation",
            "nudity": "Adult nudity",
            "deepfake": "Synthetic or manipulated media",
            "scam": "Scams and fraud",
            "other": "Other violation",
        },
        aliases={
            "Hate speech": "hate_speech",
            "Hateful conduct": "hate_speech",
            "Misinformation": "misinformation",
            "Disinformation": "misinformation",
            "Adult nudity": "nudity",
            "Nudity and sexual content": "nudity",
            "Deepfakes": "deepfake",
            "Manipulated media": "deepfake",
            "Scams": "scam",
            "Fraud": "scam",
            "Other": "other",
        },
    )


def parse_date(text: str) -> date:
    """Strict YYYY-MM-DD."""
    # date.fromisoformat alone also takes 20240115 and 2024-W03-1.
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"bad date {text!r}")
    return date.fromisoformat(text)


_parse_date_memo = lru_cache(maxsize=PARSE_CACHE_LIMIT)(parse_date)


def parse_timestamp(text: str) -> datetime:
    """Strict YYYY-MM-DDThh:mm:ssZ, second precision, UTC."""
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
    # With every separator in place no UTC offset fits before the Z. A zero
    # offset parses to timezone.utc itself, and costs far less than replace().
    return datetime.fromisoformat(text[:19] + "+00:00")


def format_timestamp(dt: datetime) -> str:
    return f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z"


def render_cell(value: object) -> str:
    """One field of a record as CSV text: None as "", an enum as its value, a
    bool as true/false, a timestamp or date in the format its parser takes,
    and a tuple of strings joined by ";"."""
    if value.__class__ is str:  # most fields: tested first for speed
        return value
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime):  # before date: a datetime is a date
        return format_timestamp(value)
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, tuple):
        return ";".join(value)
    return str(value)


def _first_empty(row: Sequence[str], field_order: tuple[str, ...], indices: tuple[int, ...]) -> Fault:
    """The MISSING_FIELD fault of the first of `indices` that `row`, which
    leaves one of them empty, leaves empty."""
    i = next(i for i in indices if row[i] == "")
    return QuarantineReason.MISSING_FIELD, field_order[i]


def parse_dump_row(taxonomy: CategoryTaxonomy, row: Sequence[str]) -> SorRecord | Fault:
    """Validate one dump row, a sequence of strings in FIELD_ORDER, against
    `taxonomy`. Total and deterministic: returns a SorRecord or the fault of
    the first failed check, never raises on data."""
    if "" in _required_values(row):
        return _first_empty(row, FIELD_ORDER, _REQUIRED_INDICES)
    (
        uuid,
        platform_name,
        decision_text,
        decision_type_other,
        ground_text,
        reference_url,
        explanation,
        category,
        content_type_text,
        content_type_other,
        detection_text,
        automation_text,
        source_text,
        content_text,
        application_text,
        created_text,
        puid,
    ) = row

    decision_type = _DECISION_TYPES.get(decision_text)
    if decision_type is None:
        return QuarantineReason.BAD_ENUM, "decision_type"
    decision_ground = _DECISION_GROUNDS.get(ground_text)
    if decision_ground is None:
        return QuarantineReason.BAD_ENUM, "decision_ground"
    content_type = _CONTENT_TYPES.get(content_type_text)
    if content_type is None:
        return QuarantineReason.BAD_ENUM, "content_type"
    automated_detection = _BOOLS.get(detection_text)
    if automated_detection is None:
        return QuarantineReason.BAD_ENUM, "automated_detection"
    automated_decision = _AUTOMATED_DECISIONS.get(automation_text)
    if automated_decision is None:
        return QuarantineReason.BAD_ENUM, "automated_decision"
    source_type = _SOURCE_TYPES.get(source_text)
    if source_type is None:
        return QuarantineReason.BAD_ENUM, "source_type"
    if category not in taxonomy:
        return QuarantineReason.UNKNOWN_CATEGORY, "category"

    try:
        content_date = _parse_date_memo(content_text)
    except ValueError:
        return QuarantineReason.BAD_DATE, "content_date"
    try:
        application_date = _parse_date_memo(application_text)
    except ValueError:
        return QuarantineReason.BAD_DATE, "application_date"
    try:
        created_at = parse_timestamp(created_text)
    except ValueError:
        return QuarantineReason.BAD_DATE, "created_at"

    if content_date > application_date:
        return QuarantineReason.DATE_ORDER, "application_date"
    if application_date > created_at.date():
        return QuarantineReason.DATE_ORDER, "created_at"

    if decision_type is DecisionType.OTHER and decision_type_other == "":
        return QuarantineReason.EMPTY_OTHER_TEXT, "decision_type_other"
    if content_type is ContentType.OTHER and content_type_other == "":
        return QuarantineReason.EMPTY_OTHER_TEXT, "content_type_other"

    # Built once per row, so through tuple.__new__ in FIELD_ORDER, without
    # the named tuple's own Python-level __new__.
    return tuple.__new__(
        SorRecord,
        (
            uuid,
            platform_name,
            decision_type,
            decision_type_other or None,
            decision_ground,
            reference_url or None,
            explanation or None,
            category,
            content_type,
            content_type_other or None,
            automated_detection,
            automated_decision,
            source_type,
            content_date,
            application_date,
            created_at,
            puid or None,
        ),
    )


def validate_record(
    raw: Mapping[str, str], taxonomy: CategoryTaxonomy
) -> SorRecord | QuarantineEntry:
    """Validate one raw dump row given as a mapping of column name to string.
    Total and deterministic: always returns exactly one of SorRecord or
    QuarantineEntry, never raises on data. A lacking column is MISSING_FIELD
    at the first column in FIELD_ORDER that is lacking, or empty although
    required.
    """
    try:
        row = _row_values(raw)
    except KeyError:
        name = next(n for n in FIELD_ORDER if raw.get(n) is None or (raw[n] == "" and n in _REQUIRED))
        result: SorRecord | Fault = (QuarantineReason.MISSING_FIELD, name)
    else:
        result = parse_dump_row(taxonomy, row)
    if isinstance(result, SorRecord):
        return result
    reason, field_name = result
    return QuarantineEntry(reason=reason, field=field_name, raw_row=dict(raw))


# Optional and conditionally required attributes whose fill rates quantify how
# informative a corpus is, each with the (field, value) a record must carry for
# it to apply; None where it applies to every record.
_FILL_CONDITIONS: dict[str, tuple[str, Enum] | None] = {
    "decision_ground_reference_url": None,
    "illegal_content_explanation": ("decision_ground", DecisionGround.ILLEGAL_CONTENT),
    "decision_type_other": ("decision_type", DecisionType.OTHER),
    "content_type_other": ("content_type", ContentType.OTHER),
    "puid": None,
}
PROFILE_ATTRIBUTES: tuple[str, ...] = tuple(_FILL_CONDITIONS)


def informativeness_profile(records: Iterable[SorRecord]) -> dict[str, dict[str, object]]:
    """Count, per optional or conditional attribute, how often it is filled:
    the profile.json document, mapping each attribute to its "filled" and
    "applicable" counts and its fill "rate", None when no record applied."""
    counts = {name: [0, 0] for name in PROFILE_ATTRIBUTES}
    for record in records:
        for name, condition in _FILL_CONDITIONS.items():
            if condition is None or getattr(record, condition[0]) is condition[1]:
                count = counts[name]
                count[1] += 1
                if getattr(record, name):
                    count[0] += 1
    return {
        name: {"filled": filled, "applicable": applicable, "rate": filled / applicable if applicable else None}
        for name, (filled, applicable) in counts.items()
    }
