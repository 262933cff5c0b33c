"""What a correct audit must report, computed apart from the program.

Nothing here imports modaudit. The crosscheck expectations come from a recount
of the dump rows with the csv module and string comparisons; the verify ones
from the export and dump files and from synth's ground truth, as acceptance
gate C2 uses it. The checks compare a run's findings.json and manifest.json
with these expectations and return a list of problems, empty when the run is
right.
"""

from __future__ import annotations

import csv
import json
import random
from bisect import bisect_right
from collections import Counter
from datetime import date, timedelta
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from workloads import CATEGORY_MIX, Workload

PERIOD_FIELDS = ("application_date", "content_date", "created_at")
PREDICATE_ATTRS = ("category", "decision_type", "automated_decision", "content_type")
ACCOUNT_ANNOTATIONS = ("account_suspension", "account_termination")
PAIR_KINDS = ("consistent", "field_mismatch", "late_submission")

CATEGORIES = sorted(CATEGORY_MIX)
DECISIONS = ("VISIBILITY_REMOVAL", "VISIBILITY_DISABLE", "VISIBILITY_DEMOTION", "ACCOUNT_SUSPENSION")
AUTOMATIONS = ("FULLY", "PARTIALLY", "NOT_AUTOMATED")
CONTENT_TYPES = ("TEXT", "IMAGE", "VIDEO")

# Every period meets the dump's application-date range (January 2024): a
# claim period outside it is reported unreplicable whatever its field.
CLAIM_PERIODS = {
    "application_date": (
        ("2024-01-01", "2024-01-08"),
        ("2024-01-08", "2024-01-15"),
        ("2024-01-15", "2024-01-22"),
        ("2024-01-22", "2024-02-01"),
    ),
    "content_date": (
        ("2023-12-01", "2024-01-04"),
        ("2024-01-04", "2024-01-12"),
        ("2024-01-12", "2024-01-22"),
        ("2024-01-22", "2024-02-01"),
    ),
    "created_at": (
        ("2024-01-01", "2024-01-09"),
        ("2024-01-09", "2024-01-17"),
        ("2024-01-17", "2024-01-25"),
        ("2024-01-25", "2024-02-04"),
    ),
}

# Claims pushed past tolerance; each must come back as a mismatch.
PERTURB_EVERY, PERTURB_AT = 10, 3
PERTURBED_SYNTH_CLAIM = "examplehub-total"

CORRUPTIONS = ("bad_enum", "unknown_category", "short_row", "bad_date", "date_order")


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def dump_files(inputs: Path) -> list[Path]:
    return sorted((inputs / "dump").glob("*.csv"))


def data_rows(paths: list[Path]) -> int:
    """CSV data rows in the files, headers not counted."""
    total = 0
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            total += sum(1 for _ in csv.reader(fh)) - 1
    return total


def write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# crosscheck-claims inputs
# ---------------------------------------------------------------------------


def corrupt_dump(inputs: Path, share: float, seed: int) -> tuple[list[str], list[list[str]], int]:
    """Make `share` of the dump rows malformed, one corruption kind in turn.

    Rewrites the dump files in place and returns the header, the rows left
    valid and the number of rows in all.
    """
    files = [(path, *read_rows(path)) for path in dump_files(inputs)]
    header = files[0][1]
    col = {name: i for i, name in enumerate(header)}
    total = sum(len(rows) for _, _, rows in files)
    rng = random.Random(f"corrupt-{seed}")
    chosen = sorted(rng.sample(range(total), int(total * share)))
    kind_of = {row: CORRUPTIONS[j % len(CORRUPTIONS)] for j, row in enumerate(chosen)}

    kept: list[list[str]] = []
    offset = 0
    for path, _, rows in files:
        for i, row in enumerate(rows):
            kind = kind_of.get(offset + i)
            if kind is None:
                kept.append(row)
            elif kind == "bad_enum":
                row[col["decision_type"]] = "VISIBILITY_REMOVED"
            elif kind == "unknown_category":
                row[col["category"]] = "spam"
            elif kind == "short_row":
                del row[-3:]
            elif kind == "bad_date":
                row[col["content_date"]] = "2024-13-45"
            else:  # date_order: content dated after the action
                applied = date.fromisoformat(row[col["application_date"]])
                row[col["content_date"]] = (applied + timedelta(days=1)).isoformat()
        offset += len(rows)
        write_rows(path, header, rows)
    return header, kept, total


def _bench_claims() -> list[dict]:
    """About a hundred count and share claims over every period field."""
    claims: list[dict] = []
    k = 0
    for field, periods in CLAIM_PERIODS.items():
        for p, (start, end) in enumerate(periods):
            k += 1
            cat, cat2 = CATEGORIES[k % 4], CATEGORIES[(k + 1) % 4]
            decision = DECISIONS[k % 4]
            period = {"start": start, "end": end, "field": field}
            counts = (
                {"category": cat},
                {"decision_type": decision},
                {"automated_decision": AUTOMATIONS[k % 3]},
                {"content_type": CONTENT_TYPES[k % 3]},
                {"category": cat, "content_type": "TEXT"},
                {"category": [cat, cat2], "automated_decision": ["FULLY", "PARTIALLY"]},
                {
                    "decision_type": decision,
                    "content_type": ["IMAGE", "VIDEO"],
                    "automated_decision": "NOT_AUTOMATED",
                },
            )
            for j, predicate in enumerate(counts):
                claims.append(
                    {
                        "claim_id": f"bench-{field}-{p}-count-{j}",
                        "metric": "count",
                        "predicate": predicate,
                        "period": period,
                        "source_locator": f"bench:{field}:{p}:count:{j}",
                    }
                )
            claims.append(
                {
                    "claim_id": f"bench-{field}-{p}-share-fully-{cat}",
                    "metric": "share",
                    "predicate": {"automated_decision": "FULLY", "category": cat},
                    "denominator_predicate": {"category": cat},
                    "period": period,
                    "source_locator": f"bench:{field}:{p}:share",
                }
            )
    return claims


class _Recount:
    """Claim aggregates over valid dump rows, by string comparison.

    Rows are tallied once by their predicate attributes and, per period
    field, by which claim-period boundaries their date falls between; each
    claim then sums the matching tally cells.
    """

    def __init__(self, header: list[str], rows: list[list[str]], claims: list[dict]) -> None:
        col = {name: i for i, name in enumerate(header)}
        edges: dict[str, set[str]] = {field: set() for field in PERIOD_FIELDS}
        for claim in claims:
            period = claim["period"]
            edges[period.get("field", "application_date")] |= {period["start"], period["end"]}
        self.bounds = {field: sorted(e) for field, e in edges.items()}
        attr_cols = [col[a] for a in PREDICATE_ATTRS]
        date_cols = [(col[f], self.bounds[f]) for f in PERIOD_FIELDS]
        self.tally = Counter(
            tuple(row[i] for i in attr_cols)
            + tuple(bisect_right(b, row[i][:10]) for i, b in date_cols)
            for row in rows
        )

    def count(self, predicate: dict, period: dict) -> int:
        field = period.get("field", "application_date")
        bounds = self.bounds[field]
        lo, hi = bisect_right(bounds, period["start"]), bisect_right(bounds, period["end"])
        at = len(PREDICATE_ATTRS) + PERIOD_FIELDS.index(field)
        tests = [
            (PREDICATE_ATTRS.index(attr), set(v if isinstance(v, list) else [v]))
            for attr, v in predicate.items()
        ]
        return sum(
            n
            for key, n in self.tally.items()
            if lo <= key[at] < hi and all(key[i] in allowed for i, allowed in tests)
        )


def _percent_text(share: Fraction) -> str:
    """The share as percent text, correctly rounded to 6 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 6
        return f"{Decimal(share.numerator * 100) / Decimal(share.denominator):f}%"


def write_claims(inputs: Path, header: list[str], kept: list[list[str]]) -> dict[str, dict]:
    """Rewrite claims.json: synth's claims plus the benchmark's, every value
    from the recount, a fixed subset perturbed past tolerance.

    Returns, per claim id, the finding kind and computed value a correct
    crosscheck reports, the value as [numerator, denominator].
    """
    doc = json.loads((inputs / "claims.json").read_text(encoding="utf-8"))
    extra = _bench_claims()
    perturbed = {PERTURBED_SYNTH_CLAIM} | {
        c["claim_id"] for i, c in enumerate(extra) if i % PERTURB_EVERY == PERTURB_AT
    }
    claims = doc["claims"] + extra
    recount = _Recount(header, kept, claims)
    expected: dict[str, dict] = {}
    for claim in claims:
        num = recount.count(claim["predicate"], claim["period"])
        den = 1
        if claim["metric"] == "share":
            den = recount.count(claim["denominator_predicate"], claim["period"])
            if den == 0:
                raise ValueError(f"share claim {claim['claim_id']} has an empty denominator")
        kind = "match"
        if claim["metric"] == "count":
            value: object = num
            if claim["claim_id"] in perturbed:
                value = num + max(5, num // 5)
                kind = "mismatch" if num else "missing_in_db"
        else:
            share = Fraction(num, den)
            if claim["claim_id"] in perturbed:
                share += Fraction(1, 20) if share < Fraction(1, 2) else -Fraction(1, 20)
                kind = "mismatch"
            value = _percent_text(share)
        claim["value"] = value
        expected[claim["claim_id"]] = {"kind": kind, "computed": [num, den]}
    doc["claims"] = claims
    (inputs / "claims.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return expected


# ---------------------------------------------------------------------------
# verify inputs
# ---------------------------------------------------------------------------


def moderated_in_window(inputs: Path, window: tuple[str, str]) -> list[str]:
    """Content ids of export events that are moderation actions in the window."""
    header, rows = read_rows(inputs / "export.csv")
    col = {name: i for i, name in enumerate(header)}
    out = []
    for row in rows:
        moderated = row[col["visibility_status"]] != "VISIBLE" or any(
            a in ACCOUNT_ANNOTATIONS for a in row[col["annotations"]].split(";")
        )
        if moderated and window[0] <= row[col["moderated_at"]][:10] < window[1]:
            out.append(row[col["content_id"]])
    return sorted(out)


def filed_in_window(inputs: Path, window: tuple[str, str]) -> list[str]:
    """uuids of dump statements whose application date is in the window."""
    out = []
    for path in dump_files(inputs):
        header, rows = read_rows(path)
        col = {name: i for i, name in enumerate(header)}
        out += [r[col["uuid"]] for r in rows if window[0] <= r[col["application_date"]] < window[1]]
    return sorted(out)


def ground_truth(inputs: Path) -> list[list[str]]:
    doc = json.loads((inputs / "ground_truth.json").read_text(encoding="utf-8"))
    return sorted([e["content_id"] or "", e["sor_uuid"] or "", e["kind"]] for e in doc["verification"])


def expectations(workload: Workload, inputs: Path, seed: int) -> dict:
    """Make the workload's benchmark-side inputs and what its audit must report."""
    expect: dict = {"setup_exit_code": 0}
    if workload.subcommand == "crosscheck":
        header, kept, rows = corrupt_dump(inputs, workload.corrupt_share, seed)
        claims = write_claims(inputs, header, kept)
        expect.update(
            exit_code=1,
            setup_exit_code=1,  # every claim states activity an empty dump lacks
            rows_read=rows,
            claims=claims,
            record_count=len(kept),
            quarantine_count=rows - len(kept),
        )
        return expect
    truth = ground_truth(inputs)
    contents = moderated_in_window(inputs, workload.window)
    expect.update(
        exit_code=1,
        rows_read=data_rows([inputs / "export.csv", *dump_files(inputs)]),
    )
    if workload.scenario["injections"].get("strip_puid"):
        expect.update(
            contents=contents,
            statements=filed_in_window(inputs, workload.window),
            late=sum(1 for _, _, kind in truth if kind == "late_submission"),
        )
    else:
        faulted = {c for c, _, _ in truth if c}
        expect.update(flagged=truth, consistent=len(set(contents) - faulted))
    return expect


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _json_number(value: Fraction) -> object:
    return int(value) if value.denominator == 1 else float(value)


def check_crosscheck(findings: list[dict], manifest: dict, expect: dict) -> list[str]:
    problems = []
    claims = expect["claims"]
    seen = Counter(f.get("claim_id") for f in findings)
    if set(seen) != set(claims) or any(n != 1 for n in seen.values()):
        problems.append(f"findings cover {len(seen)} claim ids in {len(findings)} rows, want one each for {len(claims)}")
    for f in findings:
        want = claims.get(f.get("claim_id"))
        if want is None:
            continue
        if f["kind"] != want["kind"]:
            problems.append(f"{f['claim_id']}: kind {f['kind']}, want {want['kind']}")
        computed = _json_number(Fraction(*want["computed"]))
        if f["computed_value"] != computed:
            problems.append(f"{f['claim_id']}: computed {f['computed_value']}, recount {computed}")
    for key in ("record_count", "quarantine_count"):
        if manifest.get(key) != expect[key]:
            problems.append(f"manifest {key} {manifest.get(key)}, want {expect[key]}")
    return problems


def check_verify_puid(findings: list[dict], manifest: dict, expect: dict) -> list[str]:
    problems = []
    flagged = sorted(
        [f["content_id"] or "", f["sor_uuid"] or "", f["kind"]]
        for f in findings
        if f["kind"] != "consistent"
    )
    if flagged != expect["flagged"]:
        problems.append(f"{len(flagged)} flagged findings differ from the {len(expect['flagged'])} in the ground truth")
    consistent = len(findings) - len(flagged)
    if consistent != expect["consistent"]:
        problems.append(f"{consistent} consistent findings, want {expect['consistent']} unfaulted pairs")
    return problems


def check_verify_fuzzy(findings: list[dict], manifest: dict, expect: dict) -> list[str]:
    """Properties greedy linkage must have when every (content_type, date,
    category, decision_type) group is the same size on both sides."""
    problems = []
    kinds = Counter(f["kind"] for f in findings)
    for kind in ("omitted_sor", "phantom_sor"):
        if kinds[kind]:
            problems.append(f"{kinds[kind]} {kind} findings, want 0")
    pairs = {(f["content_id"], f["sor_uuid"]) for f in findings if f["kind"] in PAIR_KINDS}
    contents = sorted(c for c, _ in pairs)
    statements = sorted(s for _, s in pairs)
    if contents != expect["contents"]:
        problems.append(f"{len(pairs)} pairs do not pair each of the {len(expect['contents'])} moderated events once")
    if statements != expect["statements"]:
        problems.append(f"{len(pairs)} pairs do not pair each of the {len(expect['statements'])} filed statements once")
    if kinds["late_submission"] != expect["late"]:
        problems.append(f"{kinds['late_submission']} late_submission findings, want {expect['late']}")
    return problems


def check_findings(workload: Workload, findings: list[dict], manifest: dict, expect: dict) -> list[str]:
    if workload.subcommand == "crosscheck":
        return check_crosscheck(findings, manifest, expect)
    if "flagged" in expect:
        return check_verify_puid(findings, manifest, expect)
    return check_verify_fuzzy(findings, manifest, expect)


def load_run(out: Path) -> tuple[list[dict], dict] | str:
    """findings and manifest of the one run under `out`, or what is missing."""
    runs = [p for p in out.iterdir() if p.is_dir()] if out.is_dir() else []
    if len(runs) != 1:
        return f"{len(runs)} run directories under --out, want 1"
    run = runs[0]
    for name in ("run.json", "findings.json", "manifest.json"):
        if not (run / name).is_file():
            return f"no {name} in {run.name}"
    findings = json.loads((run / "findings.json").read_text(encoding="utf-8"))
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    return findings, manifest


def check_run(workload: Workload, expect: dict, out: Path, exit_code: int, header_only: bool) -> list[str]:
    """Problems with one invocation's exit code and outputs; empty when right."""
    want = expect["setup_exit_code" if header_only else "exit_code"]
    if exit_code != want:
        return [f"exit code {exit_code}, want {want}"]
    loaded = load_run(out)
    if isinstance(loaded, str):
        return [loaded]
    findings, manifest = loaded
    if header_only:
        want_n = len(expect["claims"]) if workload.subcommand == "crosscheck" else 0
        return [] if len(findings) == want_n else [f"{len(findings)} findings on header-only inputs, want {want_n}"]
    return check_findings(workload, findings, manifest, expect)


def damaged(findings: list[dict]) -> list[tuple[str, list[dict]]]:
    """Copies of a correct findings list with one fault each."""
    first = dict(findings[0])
    if first.get("computed_value") is not None:
        first["computed_value"] += 1
        what = "first computed_value changed"
    else:
        first["content_id"] = "c-none"
        what = "first content_id changed"
    return [
        ("first finding dropped", findings[1:]),
        ("last finding dropped", findings[:-1]),
        (what, [first, *findings[1:]]),
    ]


def self_test(workload: Workload, out: Path, expect: dict) -> list[str]:
    """Problems with the checks themselves: each damaged copy of a run's
    findings must be rejected."""
    loaded = load_run(out)
    if isinstance(loaded, str):
        return [f"self-test needs a complete run: {loaded}"]
    findings, manifest = loaded
    problems = check_findings(workload, findings, manifest, expect)
    for what, bad in damaged(findings):
        if not check_findings(workload, bad, manifest, expect):
            problems.append(f"check accepted findings with the {what}")
    return problems
