"""modaudit: batch auditing of content-moderation transparency data.

Two complementary pipelines: cross-checking published report aggregates
against the per-action statement database, and verifying filed statements
against platform-side moderation data.

The names below load their submodule on first use (PEP 562), so that
importing one submodule, as each CLI invocation does, loads no other.
"""

from importlib import import_module

_EXPORTS = {
    "aggregate": ("AggregateResult", "CellTally", "Period", "Predicate", "ResultStatus", "replicate_all"),
    "claims": (
        "Claim",
        "ClaimSet",
        "ExtractionMapping",
        "Metric",
        "Precision",
        "extract_html_claims",
        "load_claims",
        "parse_number",
        "resolve_categories",
        "save_claims",
    ),
    "crosscheck": ("Finding", "FindingKind", "cross_check", "run_crosscheck", "tolerance_bound"),
    "ingest": ("CorpusManifest", "CorpusReader", "open_corpus", "open_platform_export"),
    "report": ("Severity", "emit_report"),
    "settings": ("LinkConfig", "ToleranceSpec"),
    "sor": (
        "CategoryTaxonomy",
        "QuarantineEntry",
        "SorRecord",
        "default_taxonomy",
        "informativeness_profile",
        "validate_record",
    ),
    "synth": ("GroundTruth", "InjectionSpec", "ScenarioConfig", "generate"),
    "verify": (
        "KeywordClassifier",
        "ModerationEvent",
        "ReconstructedSor",
        "VerificationFinding",
        "VerificationKind",
        "link",
        "link_outcomes",
        "reconstruct",
        "verify_diff",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
