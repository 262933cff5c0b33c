"""Finding severity scale and deterministic report emission.

Both audit pipelines produce findings with the same surface (kind, severity,
identifiers, evidence); write_report streams any mix of them to JSON (canonical
machine format), CSV, or a MARKDOWN summary, one finding at a time, and
emit_report returns the same text as a string. Identical findings always yield
byte-identical documents.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections.abc import Collection, Iterable, Mapping, Sequence
from enum import Enum
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, TextIO

if TYPE_CHECKING:
    from .verify import VerificationFinding


class Severity(str, Enum):
    INFO = "info"
    WARN = "warn"
    CRITICAL = "critical"


SEVERITY_RANK = {Severity.CRITICAL: 0, Severity.WARN: 1, Severity.INFO: 2}
SEVERITY_ORDER = (Severity.CRITICAL, Severity.WARN, Severity.INFO)


def parse_severity(text: str) -> Severity:
    try:
        return Severity(text.lower())
    except ValueError:
        raise ValueError(f"unknown severity {text!r}; expected info, warn, or critical") from None


def meets_threshold(severity: Severity, threshold: Severity) -> bool:
    return SEVERITY_RANK[severity] <= SEVERITY_RANK[threshold]


REPORT_FORMATS = ("json", "csv", "markdown")

# Union of the two finding schemas; absent fields render empty in CSV.
_CSV_COLUMNS = (
    "severity",
    "kind",
    "claim_id",
    "reported_value",
    "computed_value",
    "deviation",
    "relative_deviation",
    "content_id",
    "sor_uuid",
    "mismatched_fields",
    "evidence",
)


def _as_dict(finding: object) -> dict[str, object]:
    if isinstance(finding, dict):
        return finding
    if isinstance(finding, Mapping):
        return dict(finding)
    return finding.to_dict()  # type: ignore[attr-defined]


def _markdown_row(cells: Sequence[object]) -> str:
    """One markdown table row of `cells`, which stays one line of as many
    cells: a "|" in a cell is escaped, and each line break is a <br>. No
    separator holds a line break, so breaks are replaced over the whole row."""
    row = "| " + " | ".join([str(cell).replace("|", "\\|") for cell in cells]) + " |"
    return row.replace("\r\n", "<br>").replace("\n", "<br>").replace("\r", "<br>").replace("\u2028", "<br>")


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, list):  # mismatched_fields
        return ";".join(
            f"{m.get('field')}:{m.get('expected')}->{m.get('filed')}"
            if isinstance(m, Mapping)
            else str(m)
            for m in value
        )
    return str(value)


def _verification_json(finding: VerificationFinding, prefixes: dict[tuple, str]) -> str:
    """A verification finding exactly as json.dumps(..., indent=2,
    ensure_ascii=False) renders its to_dict() one level deep: the text up to
    content_id, cached in `prefixes` per (kind, severity), then the fields
    that vary, each string encoded alone."""
    kind, severity, content_id, sor_uuid, mismatched, evidence = finding
    prefix = prefixes.get((kind, severity))
    if prefix is None:
        prefix = prefixes[kind, severity] = (
            f'{{\n    "kind": {encode_basestring(kind.value)},\n'
            f'    "severity": {encode_basestring(severity.value)},\n    "content_id": '
        )
    fields = "[]"
    if mismatched:
        fields = (
            "[\n"
            + ",\n".join(
                f'      {{\n        "field": {encode_basestring(name)},\n'
                f'        "expected": {encode_basestring(expected)},\n'
                f'        "filed": {encode_basestring(filed)}\n      }}'
                for name, expected, filed in mismatched
            )
            + "\n    ]"
        )
    return (
        f'{prefix}{"null" if content_id is None else encode_basestring(content_id)},\n'
        f'    "sor_uuid": {"null" if sor_uuid is None else encode_basestring(sor_uuid)},\n'
        f'    "mismatched_fields": {fields},\n    "evidence": {encode_basestring(evidence)}\n  }}'
    )


def severity_counts(findings: Iterable[object]) -> dict[str, int]:
    """The findings' tally per severity value: the collection's own `counts`
    when it keeps one, else one pass over the findings, each read by its
    `severity` attribute or, for a mapping, its "severity" key. A value
    outside the scale counts for none."""
    counts = getattr(findings, "counts", None)
    if counts is not None:
        return counts
    counts = {s.value: 0 for s in SEVERITY_ORDER}
    for finding in findings:
        # read without to_dict(), which a markdown row calls once per finding
        if isinstance(finding, Mapping):
            severity = str(finding.get("severity", ""))
        else:
            severity = finding.severity.value  # type: ignore[attr-defined]
        if severity in counts:
            counts[severity] += 1
    return counts


def write_report(findings: Collection[object], format: str, fh: TextIO) -> None:
    """Write findings (objects with to_dict, or plain dicts) to an open text
    stream in `format`, one finding per write after a fixed header. In JSON, a
    VerificationFinding goes through _verification_json, anything else through
    json.dumps; both give the bytes of json.dumps on the whole list.

    Markdown heads its table with len(findings) and their severity_counts,
    then reads the findings again, so `findings` must be a sized collection
    that can be read more than once, such as a list or a VerificationFindings.
    """
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}; expected one of {REPORT_FORMATS}")

    if format == "json":
        # A VerificationFinding can exist only once verify is loaded, so a
        # run that has not loaded it (a cross-check) need not load it here.
        verify = sys.modules.get(f"{__package__}.verify")
        verification = None if verify is None else verify.VerificationFinding
        separator = "[\n  "
        prefixes: dict[tuple, str] = {}
        for finding in findings:
            if finding.__class__ is verification:
                text = _verification_json(finding, prefixes)
            else:
                # Structural newlines are the only raw newlines json emits.
                text = json.dumps(_as_dict(finding), indent=2, ensure_ascii=False).replace("\n", "\n  ")
            fh.write(separator + text)
            separator = ",\n  "
        fh.write("[]\n" if separator == "[\n  " else "\n]\n")
        return

    if format == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for finding in findings:
            row = _as_dict(finding)
            writer.writerow([_csv_cell(row.get(col)) for col in _CSV_COLUMNS])
        return

    counts = severity_counts(findings)
    fh.write(
        f"# Audit findings\n\n{len(findings)} finding(s): "
        f"{counts['critical']} critical, {counts['warn']} warn, {counts['info']} info.\n"
    )
    if not findings:
        return
    fh.write("\n| severity | kind | subject | evidence |\n| --- | --- | --- | --- |\n")
    for finding in findings:
        row = _as_dict(finding)
        subject = row.get("claim_id") or row.get("content_id") or row.get("sor_uuid") or ""
        fh.write(_markdown_row((row.get("severity", ""), row.get("kind", ""), subject, row.get("evidence", ""))) + "\n")


def emit_report(findings: Sequence[object], format: str = "json") -> str:
    """Render findings deterministically, as write_report writes them."""
    buf = io.StringIO()
    write_report(findings, format, buf)
    return buf.getvalue()
