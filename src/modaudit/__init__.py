"""modaudit: batch auditing of content-moderation transparency data.

Two complementary pipelines: cross-checking published report aggregates
against the per-action statement database, and verifying filed statements
against platform-side moderation data.
"""

from .aggregate import (
    AggregateResult,
    CellTally,
    Period,
    Predicate,
    ResultStatus,
    replicate_all,
)
from .claims import (
    Claim,
    ClaimSet,
    ExtractionMapping,
    Metric,
    Precision,
    extract_html_claims,
    load_claims,
    parse_number,
    resolve_categories,
    save_claims,
)
from .crosscheck import (
    Finding,
    FindingKind,
    ToleranceSpec,
    cross_check,
    run_crosscheck,
    tolerance_bound,
)
from .ingest import CorpusManifest, CorpusReader, open_corpus, open_platform_export
from .report import Severity, emit_report
from .sor import (
    AttributeFillReport,
    CategoryTaxonomy,
    QuarantineEntry,
    SorRecord,
    default_taxonomy,
    informativeness_profile,
    validate_record,
)
from .synth import GroundTruth, InjectionSpec, ScenarioConfig, generate
from .verify import (
    KeywordClassifier,
    LinkConfig,
    ModerationEvent,
    ReconstructedSor,
    VerificationFinding,
    VerificationKind,
    classify,
    link,
    link_outcomes,
    reconstruct,
    verify_diff,
)

__version__ = "0.1.0"
