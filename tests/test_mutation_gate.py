"""A standing gate over mutated inputs.

Seeded mutations of the 150-event injected synth scenario go through every
data subcommand in-process through cli.run. Whatever the damage, each run
ends cleanly: exit 0-3 and no traceback; a refusal (2 or 3) is one `error: `
line; a completed run (0 or 1) has its run.json, an exit code that its
finding counts call for, row counts that add up to the rows of its CSV inputs,
and, for verify, linkage pairs that add up with the omitted and phantom
statements.

`report` and `synth` take JSON documents, so their gates mutate nodes of one:
the findings of both pipelines over that scenario, rendered in every format,
and the scenario config itself. Each of their runs exits 0, 2 or 3.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
from collections import Counter
from pathlib import Path

import pytest

from modaudit.cli import run

from .test_cli import INJECTED, write_scenario

SUBCOMMANDS = ("validate", "profile", "replicate", "crosscheck", "verify")
SEVERITIES = ("info", "warn", "critical")

CONFIG = {
    "severity_threshold": "warn",
    "deadline_days": 7,
    "tolerance": {"absolute_floor": 0, "relative": 0.0, "rounding_aware": True, "approximate_relative": 0.05},
    "linkage": {
        "category_weight": "1/2",
        "decision_weight": "3/10",
        "time_weight": "1/5",
        "threshold": "7/10",
        "max_day_distance": 3,
    },
}

# Text with a control character in it, for cells, JSON strings and file names.
CONTROL_TEXTS = ("a\nb", "a\rb", "\x00", "\x1b[31m", "\x7f", "\x85", "a\u2028b", "\u2029", "\t")

# Values a mutation writes into a CSV cell: empties, enum and bool strings,
# dates out of range or order, lists, ids that clash, quotes, NULs, CRs, BOMs
# and other control characters, and long text.
CELL_VALUES = (
    "",
    " ",
    "x",
    "TEXT",
    "OTHER",
    "REMOVED",
    "VISIBLE",
    "true",
    "FALSE",
    "FULLY",
    "hate_speech",
    "nudity",
    "2024-13-01",
    "2024-01-05",
    "2023-12-31",
    "0001-01-01",
    "9999-12-31",
    "2024-01-05T00:00:00Z",
    "9999-12-31T23:59:59Z",
    "2024-01-05T00:00:00+01:00",
    "a;b;;c",
    ";;",
    "account_suspension",
    "p-0000001",
    "c-0000002",
    "sor-0000003",
    '"',
    "\ufeff",
    "x" * 300,
    *CONTROL_TEXTS,
)

# Values a mutation puts in place of a JSON node: the wrong type, extremes,
# and strings with control characters.
JSON_VALUES = (
    None,
    True,
    False,
    0,
    -1,
    1.5,
    1e308,
    -1e308,
    10**30,
    "",
    "x",
    "2024-13-01",
    "9" * 60,
    "1/0",
    [],
    {},
    [1, "a"],
    {"k": None},
    *CONTROL_TEXTS,
)

# Characters an insertion puts at a random place of a CSV file.
INSERTED = ('"', "\x00", "\r", "\ufeff", "\n", ",")


def csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


def csv_text(rows: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def mutate_csv(text: str, rng: random.Random) -> tuple[str, str]:
    """`text` with one mutation, and a description of it. A file already cut
    to its header or less only takes insertions."""
    kind = rng.choice(("replace", "replace", "duplicate", "cut_row", "short_row", "insert", "swap_header", "cut_file"))
    header, *rows = csv_rows(text) or [[]]
    if kind in ("insert", "cut_file") or not rows:
        at = rng.randrange(len(text) + 1)
        if kind == "cut_file":
            return text[:at], f"cut_file@{at}"
        char = rng.choice(INSERTED)
        return text[:at] + char + text[at:], f"insert@{at}={char!r}"
    if kind == "swap_header":
        i, j = rng.sample(range(len(header)), 2)
        header[i], header[j] = header[j], header[i]
        return csv_text([header, *rows]), f"swap_header {i},{j}"
    at = rng.randrange(len(rows))
    if kind == "replace":
        column = rng.randrange(len(header))
        value = rng.choice(CELL_VALUES)
        rows[at][column] = value
        description = f"replace row {at} {header[column]}={value!r}"
    elif kind == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), list(rows[at]))
        description = f"duplicate row {at}"
    elif kind == "cut_row":
        del rows[at]
        description = f"cut row {at}"
    else:
        rows[at] = rows[at][: rng.randrange(len(header))]
        description = f"short row {at}"
    return csv_text([header, *rows]), description


def json_paths(node, path=()):
    """The path of every node under `node`, itself included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, (*path, key))


def mutate_json(doc, rng: random.Random) -> tuple[object, str]:
    """A copy of `doc` with one node replaced, one key dropped or one string
    given a control character, and a description of it."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(json_paths(doc))[1:])
    *parent_path, key = path
    parent = doc
    for step in parent_path:
        parent = parent[step]
    kind = rng.choice(("replace", "replace", "control", "drop"))
    if kind == "drop" and isinstance(parent, dict):
        del parent[key]
        return doc, f"drop {list(path)}"
    if kind == "control" and isinstance(parent[key], str):
        value = parent[key] + rng.choice(CONTROL_TEXTS)
    else:
        value = rng.choice(JSON_VALUES)
    parent[key] = value
    return doc, f"set {list(path)}={value!r}"


def data_rows(paths: list[Path]) -> int:
    """The CSV rows after the header of each file, as a csv.reader counts them."""
    total = 0
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            total += sum(1 for _ in csv.reader(fh)) - 1
    return total


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    base = tmp_path_factory.mktemp("mutation")
    out = base / "scen"
    assert run(["synth", "--scenario", str(write_scenario(base, INJECTED)), "--out", str(out)]) == 0
    (out / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    return out


class Case:
    """One mutated copy of the scenario: its input paths, after any rename."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.dump = root / "dump"
        self.export = root / "export.csv"
        self.claims = root / "claims.json"
        self.taxonomy = root / "taxonomy.json"
        self.config = root / "config.json"

    def args(self, command: str, out: Path, windowed: bool) -> list[str]:
        common = ["--taxonomy", str(self.taxonomy), "--config", str(self.config), "--out", str(out)]
        if command in ("validate", "profile"):
            return [command, "--corpus", str(self.dump), *common]
        if command in ("replicate", "crosscheck"):
            return [command, "--corpus", str(self.dump), "--claims", str(self.claims), *common]
        window = ["--window-start", "2024-01-01", "--window-end", "2024-02-01"] if windowed else []
        return ["verify", "--corpus", str(self.dump), "--export", str(self.export), *window, *common]


def mutate(case: Case, rng: random.Random) -> tuple[tuple[str, ...], str]:
    """Apply one mutation to `case`; returns the subcommands that read the
    mutated input and a description of the mutation."""
    target = rng.choice(("dump", "dump", "dump", "export", "export", "export", "claims", "taxonomy", "config", "name"))
    if target == "name":
        attribute = rng.choice(("dump", "export", "claims", "taxonomy", "config"))
        old = getattr(case, attribute)
        new = old.with_name(f"{old.stem}{rng.choice(CONTROL_TEXTS).replace(chr(0), '-')}{old.suffix}")
        old.rename(new)
        setattr(case, attribute, new)
        readers = {"dump": SUBCOMMANDS, "export": ("verify",), "claims": ("replicate", "crosscheck")}
        return readers.get(attribute, SUBCOMMANDS), f"rename {attribute} to {new.name!r}"
    if target in ("dump", "export"):
        path = case.dump / "part-00000.csv" if target == "dump" else case.export
        text, description = mutate_csv(path.read_text(encoding="utf-8"), rng)
        path.write_text(text, encoding="utf-8", newline="")
        return (SUBCOMMANDS if target == "dump" else ("verify",)), f"{target}: {description}"
    path = getattr(case, target)
    doc, description = mutate_json(json.loads(path.read_text(encoding="utf-8")), rng)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return (("replicate", "crosscheck") if target == "claims" else SUBCOMMANDS), f"{target}: {description}"


def check_refusal(code: int, err: str, label: str) -> bool:
    """Whether a run that exited `code` with `err` on stderr refused its
    input, one `error: ` line with exit 2 or 3; no run leaves a traceback."""
    assert code in (0, 1, 2, 3), label
    assert "Traceback" not in err, f"{label}: {err}"
    if code in (2, 3):
        assert len(err.splitlines()) == 1 and err.startswith("error: "), f"{label}: {err!r}"
        return True
    return False


def check_run(command: str, case: Case, out: Path, code: int, err: str, label: str) -> None:
    if check_refusal(code, err, label):
        return
    assert err == "", f"{label}: {err!r}"
    (run_dir,) = out.iterdir()
    record = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    counts = record["finding_counts"]
    threshold = SEVERITIES.index(record["config"]["severity_threshold"])
    assert code == (1 if any(counts[s] for s in SEVERITIES[threshold:]) else 0), f"{label}: {counts}"

    manifest = record["manifest"]
    logged = (run_dir / "quarantine.log").read_text(encoding="utf-8").count("\n")
    dump_files = sorted(p for p in case.dump.iterdir() if p.suffix == ".csv")
    corpus = manifest["corpus"] if command == "verify" else manifest
    assert corpus["record_count"] + corpus["quarantine_count"] == data_rows(dump_files), f"{label}: {corpus}"
    quarantined = corpus["quarantine_count"]
    if command == "verify":
        export = manifest["export"]
        assert export["events"] + export["quarantined"] == data_rows([case.export]), f"{label}: {export}"
        quarantined += export["quarantined"]
        kinds = Counter(f["kind"] for f in json.loads((run_dir / "findings.json").read_text(encoding="utf-8")))
        pairs = manifest["linkage"]["puid_pairs"] + manifest["linkage"]["fuzzy_pairs"]
        assert pairs + kinds["omitted_sor"] == manifest["reconstructed"], f"{label}: {manifest} {kinds}"
        assert pairs + kinds["phantom_sor"] == manifest["filed_in_window"], f"{label}: {manifest} {kinds}"
    assert logged == quarantined, f"{label}: {logged} logged, {quarantined} quarantined"


CASES = 150


def test_mutated_inputs_end_cleanly(scenario, tmp_path, capsys):
    rng = random.Random(20261020)
    codes: Counter[tuple[str, int]] = Counter()
    for number in range(CASES):
        case = Case(tmp_path / f"case-{number}")
        shutil.copytree(scenario, case.root)
        mutations = [mutate(case, rng) for _ in range(rng.randint(1, 3))]
        commands = [c for c in SUBCOMMANDS if any(c in readers for readers, _ in mutations)]
        description = "; ".join(text for _, text in mutations)
        for command in commands:
            out = case.root / f"out-{command}"
            label = f"case {number} ({description}) {command}"
            capsys.readouterr()
            try:
                code = run(case.args(command, out, windowed=number % 2 == 0))
            except Exception as exc:  # nothing may escape cli.run
                pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
            check_run(command, case, out, code, capsys.readouterr().err, label)
            codes[command, code] += 1
        shutil.rmtree(case.root)
    # the cases reach every exit code, and each subcommand completes in some
    reached = {code for _, code in codes}
    assert reached == {0, 1, 2, 3}, codes
    assert all(codes[command, 0] + codes[command, 1] for command in SUBCOMMANDS), codes


def mutated_document(doc, rng: random.Random) -> tuple[object, str]:
    """`doc` after one to three mutate_json mutations, and their description."""
    descriptions = []
    for _ in range(rng.randint(1, 3)):
        doc, description = mutate_json(doc, rng)
        descriptions.append(description)
    return doc, "; ".join(descriptions)


@pytest.fixture(scope="module")
def findings(scenario, tmp_path_factory) -> dict[str, list]:
    """The findings.json document of a cross-check and of a verify over the scenario."""
    base = tmp_path_factory.mktemp("findings")
    docs = {}
    for command in ("crosscheck", "verify"):
        out = base / command
        assert run(Case(scenario).args(command, out, windowed=True)) == 1
        (run_dir,) = out.iterdir()
        docs[command] = json.loads((run_dir / "findings.json").read_text(encoding="utf-8"))
    return docs


def test_report_on_mutated_findings_ends_cleanly(findings, tmp_path, capsysbinary):
    rng = random.Random(20261022)
    codes: Counter[int] = Counter()
    path = tmp_path / "findings.json"
    for number in range(CASES):
        pipeline = rng.choice(sorted(findings))
        doc, description = mutated_document(findings[pipeline], rng)
        path.write_text(json.dumps(doc), encoding="utf-8")
        for fmt in ("json", "csv", "markdown"):
            label = f"case {number} ({pipeline}: {description}) report --format {fmt}"
            try:
                code = run(["report", str(path), "--format", fmt])
            except Exception as exc:  # nothing may escape cli.run
                pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
            out, err = capsysbinary.readouterr()
            if not check_refusal(code, err.decode("utf-8"), label):
                assert code == 0 and out, f"{label}: exit {code}"
            codes[code] += 1
    assert set(codes) == {0, 3}, codes


def test_synth_on_mutated_scenarios_ends_cleanly(tmp_path, capsys):
    rng = random.Random(20261023)
    codes: Counter[int] = Counter()
    path = tmp_path / "scenario.json"
    for number in range(CASES):
        doc, description = mutated_document(INJECTED, rng)
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / f"scen-{number}"
        label = f"case {number} ({description}) synth"
        try:
            code = run(["synth", "--scenario", str(path), "--out", str(out)])
        except Exception as exc:  # nothing may escape cli.run
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
        if not check_refusal(code, capsys.readouterr().err, label):
            assert code == 0, f"{label}: exit {code}"
            assert {"claims.json", "dump", "export.csv", "ground_truth.json"} <= {p.name for p in out.iterdir()}, label
        codes[code] += 1
        shutil.rmtree(out, ignore_errors=True)
    assert set(codes) == {0, 2}, codes
