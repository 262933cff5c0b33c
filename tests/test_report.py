"""report.write_report streams findings one at a time; its documents must equal
the whole-list rendering of tests/oracles.naive_emit_report byte for byte."""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modaudit.report import REPORT_FORMATS, Severity, emit_report, write_report
from modaudit.verify import VerificationFinding, VerificationKind

from .oracles import naive_emit_report

# Characters a renderer could get wrong: JSON and CSV quoting, the markdown
# cell separator, line breaks (U+2028 and U+2029 are ones that JSON leaves
# raw, and \x85 is one that str.splitlines reads), non-ASCII.
TRICKY = st.sampled_from(
    ['"', "\\", "|", "\n", "\r", ",", ";", "\u2028", "\u2029", "\x85", "\u00a0", "é", "名", "\U0001f600"]
)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | TRICKY, max_size=12)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**20), max_value=10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT
)
# What json.loads can give back, which the `report` subcommand renders, and
# what else json renders: tuples as arrays, number, bool and null keys quoted.
KEYS = TEXT | st.integers() | st.booleans() | st.none() | st.floats()
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)
COLUMNS = st.sampled_from(
    ["severity", "kind", "claim_id", "content_id", "sor_uuid", "evidence", "reported_value", "deviation"]
)
MISMATCHES = st.lists(
    st.fixed_dictionaries({"field": TEXT, "expected": TEXT, "filed": TEXT}), max_size=3
)
ROWS = st.dictionaries(COLUMNS | TEXT, JSON_VALUES, max_size=6) | st.fixed_dictionaries(
    {"severity": st.sampled_from(["info", "warn", "critical", "other"]) | SCALARS},
    optional={
        "kind": TEXT,
        "content_id": TEXT | st.none(),
        "sor_uuid": TEXT | st.none(),
        "mismatched_fields": MISMATCHES,
        "evidence": TEXT,
    },
)
FINDING_OBJECTS = st.builds(
    VerificationFinding,
    kind=st.sampled_from(VerificationKind),
    severity=st.sampled_from(Severity),
    content_id=TEXT | st.none(),
    sor_uuid=TEXT | st.none(),
    mismatched_fields=st.lists(st.tuples(TEXT, TEXT, TEXT), max_size=3).map(tuple),
    evidence=TEXT,
)


class TestWriterMatchesNaiveEmitter:
    @settings(max_examples=200, deadline=None)
    @given(findings=st.lists(ROWS | FINDING_OBJECTS, max_size=6), fmt=st.sampled_from(REPORT_FORMATS))
    def test_same_document_in_every_format(self, findings, fmt):
        buf = io.StringIO()
        write_report(findings, fmt, buf)
        assert buf.getvalue() == naive_emit_report(findings, fmt)

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    @pytest.mark.parametrize(
        "findings",
        [
            [],
            [{}],
            [{}, {"mismatched_fields": []}, {"mismatched_fields": [{"field": "a", "expected": "b", "filed": "c"}]}],
        ],
        ids=["no_findings", "empty_row", "empty_and_nested"],
    )
    def test_edge_documents(self, findings, fmt):
        assert emit_report(findings, fmt) == naive_emit_report(findings, fmt)


class RecordingStream:
    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def sample_findings(n: int) -> list[VerificationFinding]:
    rng = random.Random(7)
    findings = []
    for i in range(n):
        mismatched = tuple((f"field{j}", "x" * rng.randrange(40), "y") for j in range(rng.randrange(3)))
        findings.append(
            VerificationFinding(
                kind=rng.choice(list(VerificationKind)),
                severity=rng.choice(list(Severity)),
                content_id=f"c-{i:05d}",
                sor_uuid=None if i % 7 == 0 else f"u-{i:05d}",
                mismatched_fields=mismatched,
                evidence="e" * rng.randrange(200),
            )
        )
    return findings


@pytest.mark.parametrize("fmt", REPORT_FORMATS)
def test_writer_never_holds_more_than_one_finding(fmt):
    findings = sample_findings(1000)
    stream = RecordingStream()
    write_report(findings, fmt, stream)
    assert "".join(stream.writes) == naive_emit_report(findings, fmt)
    # A document of one finding is that finding plus the whole fixed frame.
    bound = max(len(naive_emit_report([f], fmt)) for f in findings)
    assert len(stream.writes) >= len(findings)
    assert max(len(text) for text in stream.writes) <= bound


class CountingFinding:
    """A finding object that counts its to_dict calls."""

    def __init__(self, severity: Severity, subject: str) -> None:
        self.severity = severity
        self.subject = subject
        self.to_dict_calls = 0

    def to_dict(self) -> dict[str, object]:
        self.to_dict_calls += 1
        return {"severity": self.severity.value, "kind": "mismatch", "claim_id": self.subject, "evidence": ""}


def test_markdown_builds_one_dict_per_finding():
    findings = [CountingFinding(severity, f"claim-{i}") for i, severity in enumerate([*Severity, Severity.WARN])]
    text = emit_report(findings, "markdown")
    assert [f.to_dict_calls for f in findings] == [1] * len(findings)
    assert "4 finding(s): 1 critical, 2 warn, 1 info." in text
    assert text == naive_emit_report(findings, "markdown")


@pytest.mark.parametrize(
    "finding,row",
    [
        (
            {"severity": "warn", "kind": "mismatch", "claim_id": "eu|total", "evidence": "a\nb"},
            "| warn | mismatch | eu\\|total | a<br>b |",
        ),
        (
            {"severity": "in|fo", "kind": "k\r\nind", "content_id": "c\r1", "evidence": "x y|z\n"},
            "| in\\|fo | k<br>ind | c<br>1 | x<br>y\\|z<br> |",
        ),
        (
            {"severity": "warn", "kind": "mismatch", "claim_id": "a\u2029b", "evidence": "x\u2029"},
            "| warn | mismatch | a<br>b | x<br> |",
        ),
        (
            {"severity": "info", "kind": "k\x85ind", "content_id": "c1", "evidence": "\x85y\x85\x85z"},
            "| info | k<br>ind | c1 | <br>y<br><br>z |",
        ),
        (
            {"severity": "info", "kind": "k\vi\fnd", "content_id": "c\x1c1", "evidence": "x\x1dy\x1ez"},
            "| info | k<br>i<br>nd | c<br>1 | x<br>y<br>z |",
        ),
    ],
    ids=["pipe_subject_newline_evidence", "every_cell", "paragraph_separator", "next_line", "control_breaks"],
)
def test_markdown_row_stays_one_line_of_four_cells(finding, row):
    lines = emit_report([finding], "markdown").splitlines()
    assert lines[-1] == row
    assert len(lines) == 7
