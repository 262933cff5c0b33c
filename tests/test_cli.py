from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import pytest

import modaudit
from modaudit.cli import RunDir, run
from modaudit.sor import QuarantineEntry, QuarantineReason

SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh_env(**extra: str) -> dict[str, str]:
    """The whole environment of a fresh interpreter: the package on its path,
    and no bytecode written into the source tree."""
    return {"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1", **extra}


SCENARIO = {
    "seed": 13,
    "platform": "examplehub",
    "window": {"start": "2024-01-01", "end": "2024-02-01"},
    "volume": 150,
    "category_mix": {"hate_speech": 3, "misinformation": 2, "nudity": 1},
    "automation_mix": {"FULLY": 1, "NOT_AUTOMATED": 2, "PARTIALLY": 1},
    "injections": {},
}

INJECTED = {
    **SCENARIO,
    "injections": {
        "drop_sor_rate": 0.02,
        "claim_perturbations": [{"claim_id": "examplehub-total", "delta": 500}],
    },
}


def write_scenario(tmp_path: Path, doc, name="scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def faithful(tmp_path):
    scen = write_scenario(tmp_path, SCENARIO)
    out = tmp_path / "scen"
    assert run(["synth", "--scenario", str(scen), "--out", str(out)]) == 0
    return out


@pytest.fixture
def injected(tmp_path):
    scen = write_scenario(tmp_path, INJECTED, "injected.json")
    out = tmp_path / "scen-injected"
    assert run(["synth", "--scenario", str(scen), "--out", str(out)]) == 0
    return out


def crosscheck_args(scen_dir, out_dir, *extra):
    return [
        "crosscheck",
        "--corpus",
        str(scen_dir / "dump"),
        "--claims",
        str(scen_dir / "claims.json"),
        "--taxonomy",
        str(scen_dir / "taxonomy.json"),
        "--out",
        str(out_dir),
        *extra,
    ]


def verify_args(scen_dir, out_dir, *extra):
    return [
        "verify",
        "--corpus",
        str(scen_dir / "dump"),
        "--export",
        str(scen_dir / "export.csv"),
        "--taxonomy",
        str(scen_dir / "taxonomy.json"),
        "--window-start",
        "2024-01-01",
        "--window-end",
        "2024-02-01",
        "--out",
        str(out_dir),
        *extra,
    ]


def without_window(args: list[str]) -> list[str]:
    at = args.index("--window-start")
    return args[:at] + args[at + 4 :]


def split_dump(dump_dir: Path, parts: int) -> None:
    """Spread the rows of the one dump file over `parts` files, in order."""
    first = dump_dir / "part-00000.csv"
    header, *rows = first.read_text(encoding="utf-8").splitlines(keepends=True)
    size = -(-len(rows) // parts)
    for i in range(parts):
        (dump_dir / f"part-{i:05d}.csv").write_text(
            header + "".join(rows[i * size : (i + 1) * size]), encoding="utf-8"
        )


def only_run_dir(out_dir: Path) -> Path:
    dirs = [p for p in out_dir.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


class TestExitCodes:
    def test_faithful_crosscheck_exits_zero(self, faithful, tmp_path):
        out = tmp_path / "runs"
        assert run(crosscheck_args(faithful, out)) == 0
        findings = json.loads((only_run_dir(out) / "findings.json").read_text())
        assert findings and all(f["kind"] == "match" for f in findings)

    def test_injected_crosscheck_exits_one_at_warn_threshold(self, injected, tmp_path):
        assert run(crosscheck_args(injected, tmp_path / "runs")) == 1

    def test_threshold_critical_ignores_warn_findings(self, injected, tmp_path):
        # the delta-500 perturbation lands above 0.5 relative deviation: critical
        code = run(
            crosscheck_args(injected, tmp_path / "runs", "--severity-threshold", "critical")
        )
        assert code == 1

    def test_faithful_verify_exits_zero(self, faithful, tmp_path):
        assert run(verify_args(faithful, tmp_path / "runs")) == 0

    @pytest.mark.parametrize(
        "threshold, code", [("info", 1), ("warn", 0), ("critical", 0)], ids=["info", "warn", "critical"]
    )
    @pytest.mark.parametrize(
        "args, summary",
        [
            (verify_args, "verify: 0 critical, 0 warn, 150 info"),
            (crosscheck_args, "cross-check: 0 critical, 0 warn, 5 info"),
        ],
        ids=["verify", "crosscheck"],
    )
    def test_one_tally_gives_the_summary_and_the_exit_code(
        self, faithful, tmp_path, capsys, args, summary, threshold, code
    ):
        out = tmp_path / "runs"
        capsys.readouterr()
        assert run(args(faithful, out, "--severity-threshold", threshold)) == code
        assert capsys.readouterr().out == f"{summary} -> {only_run_dir(out)}\n"

    def test_verify_derives_window_from_export(self, faithful, tmp_path):
        # no --window-start/--window-end: hull of the export's moderation times
        args = [
            "verify",
            "--corpus",
            str(faithful / "dump"),
            "--export",
            str(faithful / "export.csv"),
            "--taxonomy",
            str(faithful / "taxonomy.json"),
            "--out",
            str(tmp_path / "runs"),
        ]
        assert run(args) == 0
        findings = json.loads((only_run_dir(tmp_path / "runs") / "findings.json").read_text())
        assert len(findings) == 150
        assert all(f["kind"] == "consistent" for f in findings)

    def test_injected_verify_exits_one(self, injected, tmp_path):
        assert run(verify_args(injected, tmp_path / "runs")) == 1

    @pytest.mark.parametrize(
        "extra, code, phantoms, filed",
        [((), 1, 5, 155), (("--platform", "examplehub"), 0, 0, 150)],
        ids=["every_platform", "examplehub"],
    )
    def test_verify_platform_audits_only_that_platforms_statements(
        self, faithful, tmp_path, extra, code, phantoms, filed
    ):
        # A second dump file holds five otherhub statements that no
        # examplehub event explains.
        with open(faithful / "dump" / "part-00000.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))[:5]
        with open(faithful / "dump" / "part-00001.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            for i, row in enumerate(rows):
                writer.writerow({**row, "uuid": f"other-{i}", "platform_name": "otherhub", "puid": f"other-p-{i}"})
        out = tmp_path / "runs"
        assert run(verify_args(faithful, out, *extra)) == code
        run_dir = only_run_dir(out)
        record = json.loads((run_dir / "run.json").read_text())
        assert record["finding_counts"] == {"critical": phantoms, "warn": 0, "info": 150}
        assert record["manifest"]["filed_in_window"] == filed
        findings = json.loads((run_dir / "findings.json").read_text())
        phantom_uuids = [f["sor_uuid"] for f in findings if f["kind"] == "phantom_sor"]
        assert phantom_uuids == [f"other-{i}" for i in range(phantoms)]

    def test_derived_window_equals_the_export_hull_given_explicitly(self, injected, tmp_path):
        with open(injected / "export.csv", newline="", encoding="utf-8") as fh:
            days = sorted(row["moderated_at"][:10] for row in csv.DictReader(fh))
        hull = [days[0], (date.fromisoformat(days[-1]) + timedelta(days=1)).isoformat()]
        args = verify_args(injected, tmp_path / "explicit")
        at = args.index("--window-start")
        args[at + 1], args[at + 3] = hull
        assert run(args) == 1
        assert run(without_window(verify_args(injected, tmp_path / "derived"))) == 1
        for name in ("findings.json", "manifest.json"):
            explicit = (only_run_dir(tmp_path / "explicit") / name).read_bytes()
            assert (only_run_dir(tmp_path / "derived") / name).read_bytes() == explicit, name

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--corpus", "x"],
            [],
            ["validate", "--corpus", "x", "--severity-threshold", "severe"],
            ["crosscheck", "--corpus", "x", "--claims", "y", "--parallel", "abc"],
            ["validate", "--corpus", "x", "--parallel", "2"],
        ],
        ids=["missing_flag", "no_subcommand", "bad_choice", "bad_int", "unknown_flag"],
    )
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "runs"
        assert run([*argv, "--out", str(out)] if argv else argv) == 2
        assert_one_line_input_error(capsys, out)
        assert not out.exists()

    def test_missing_corpus_is_input_error(self, tmp_path, capsys):
        code = run(
            [
                "crosscheck",
                "--corpus",
                str(tmp_path / "nope"),
                "--claims",
                str(tmp_path / "claims.json"),
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_claims_is_input_error(self, faithful, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = run(
            [
                "crosscheck",
                "--corpus",
                str(faithful / "dump"),
                "--claims",
                str(bad),
                "--out",
                str(tmp_path / "runs"),
            ]
        )
        assert code == 3

    def test_half_window_is_config_error(self, faithful, tmp_path, capsys):
        args = [
            "verify",
            "--corpus",
            str(faithful / "dump"),
            "--export",
            str(faithful / "export.csv"),
            "--window-start",
            "2024-01-01",
            "--out",
            str(tmp_path / "runs"),
        ]
        assert run(args) == 2

    @pytest.mark.parametrize("command", ["validate", "profile", "verify"])
    def test_parallel_is_refused_where_it_does_nothing(self, faithful, tmp_path, command):
        out = tmp_path / "runs"
        args = verify_args(faithful, out, "--parallel", "2")
        if command != "verify":
            args = [command, "--corpus", str(faithful / "dump"), "--out", str(out), "--parallel", "2"]
        assert run(args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("command", ["replicate", "crosscheck"])
    def test_parallel_below_one_is_a_config_error(self, faithful, tmp_path, capsys, command, value):
        out = tmp_path / "runs"
        assert run([command, *crosscheck_args(faithful, out, "--parallel", value)[1:]]) == 2
        assert_one_line_input_error(capsys, out, f"--parallel must be at least 1, got {value}")
        assert not out.exists()

    def test_bad_scenario_config_is_config_error(self, tmp_path):
        scen = write_scenario(tmp_path, {"seed": 1})
        assert run(["synth", "--scenario", str(scen), "--out", str(tmp_path / "x")]) == 2


def append_copy(source: Path, target: Path, changes: dict[str, str]) -> int:
    """Append to `target` the first moderated data row of `source` with
    `changes` applied; returns the line number of the new row."""
    with open(source, newline="", encoding="utf-8") as fh:
        row = next(r for r in csv.DictReader(fh) if r.get("visibility_status") != "VISIBLE")
    row.update(changes)
    out = io.StringIO()
    csv.DictWriter(out, fieldnames=list(row), lineterminator="\n").writerow(row)
    with open(target, "a", encoding="utf-8", newline="") as fh:
        fh.write(out.getvalue())
    return len(target.read_bytes().splitlines())


def assert_one_line_input_error(capsys, out_dir: Path, *fragments: str) -> None:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: ")
    for fragment in fragments:
        assert fragment in err
    assert not list(out_dir.glob("*/run.json"))


class TestInputErrors:
    @pytest.mark.parametrize(
        "target,column,side",
        [
            ("export.csv", "content_id", "among reconstructed items"),
            ("dump/part-00000.csv", "uuid", "among filed statements"),
        ],
    )
    def test_duplicate_puid_exits_three(self, faithful, tmp_path, capsys, target, column, side):
        append_copy(faithful / target, faithful / target, {column: "dup-0000001"})
        out = tmp_path / "runs"
        assert run(verify_args(faithful, out)) == 3
        assert_one_line_input_error(capsys, out, "error: duplicate puid 'p-", side)

    def test_duplicate_filed_puid_cuts_the_quarantine_log_short_at_its_row(self, faithful, tmp_path, capsys):
        # The dump streams through the puid join, so the run stops at the
        # duplicate's row and never reads the rows after it.
        dump = faithful / "dump" / "part-00000.csv"
        before = append_copy(dump, dump, {"uuid": ""})
        append_copy(dump, dump, {"uuid": "dup-0000001"})
        append_copy(dump, dump, {"uuid": ""})
        out = tmp_path / "runs"
        assert run(verify_args(faithful, out)) == 3
        assert_one_line_input_error(capsys, out, "error: duplicate puid 'p-", "among filed statements")
        log = (only_run_dir(out) / "quarantine.log").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["row_number"] for line in log] == [before]

    @pytest.mark.parametrize("value", ["BAD\xffBYTE", "x" * 131073], ids=["byte_ff", "long_field"])
    @pytest.mark.parametrize(
        "command", ["validate", "crosscheck", "crosscheck-parallel", "verify-dump", "verify-export"]
    )
    def test_undecodable_or_oversized_row_exits_three(self, faithful, tmp_path, capsys, command, value):
        first_part = faithful / "dump" / "part-00000.csv"
        if command == "verify-export":
            source = target = faithful / "export.csv"
        else:
            # a second dump file, so that --parallel reads the damaged row in a worker
            source, target = first_part, faithful / "dump" / "part-00001.csv"
            target.write_bytes(first_part.read_bytes().splitlines(keepends=True)[0])
        line = append_copy(source, target, {"uuid": value, "content_id": value})
        target.write_bytes(target.read_bytes().replace(b"BAD\xc3\xbfBYTE", b"BAD\xffBYTE"))
        out = tmp_path / "runs"
        args = {
            "validate": ["validate", "--corpus", str(faithful / "dump"), "--out", str(out)],
            "crosscheck": crosscheck_args(faithful, out),
            "crosscheck-parallel": crosscheck_args(faithful, out, "--parallel", "2"),
            "verify-dump": verify_args(faithful, out),
            "verify-export": verify_args(faithful, out),
        }[command]
        assert run(args) == 3
        assert_one_line_input_error(capsys, out, f"{target}: line {line}: ")

    def test_derived_window_past_the_last_representable_day_exits_three(self, faithful, tmp_path, capsys):
        export = faithful / "export.csv"
        append_copy(export, export, {"moderated_at": "9999-12-31T10:00:00Z"})
        out = tmp_path / "runs"
        assert run(without_window(verify_args(faithful, out))) == 3
        assert_one_line_input_error(capsys, out, "9999-12-31")

    def test_newline_in_a_claim_id_stays_on_one_line(self, faithful, tmp_path, capsys):
        doc = json.loads((faithful / "claims.json").read_text())
        doc["claims"][0].update(claim_id="evil\nsecond line", value=True)
        claims = faithful / "evil.json"
        claims.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        args = crosscheck_args(faithful, out)
        args[args.index("--claims") + 1] = str(claims)
        assert run(args) == 3
        assert_one_line_input_error(capsys, out, "error: claim evil\\nsecond line: field value: booleans are not numbers")

    def test_newline_in_a_corpus_path_stays_on_one_line(self, tmp_path, capsys):
        corpus = tmp_path / "bad\ndump"
        corpus.mkdir()
        (corpus / "part-00000.csv").write_text("not,the,header\n", encoding="utf-8")
        out = tmp_path / "runs"
        assert run(["validate", "--corpus", str(corpus), "--out", str(out)]) == 3
        assert_one_line_input_error(
            capsys, out, f"error: {tmp_path}/bad\\ndump/part-00000.csv: header row does not match"
        )

    def test_quarantine_write_failure_is_not_a_read_failure(self, faithful, tmp_path, capsys, monkeypatch):
        def full_disk(run_dir):
            def sink(entry):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            return sink

        monkeypatch.setattr(RunDir, "quarantine_sink", full_disk)
        dump = faithful / "dump" / "part-00000.csv"
        append_copy(dump, dump, {"uuid": ""})
        out = tmp_path / "runs"
        assert run(["validate", "--corpus", str(faithful / "dump"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert "cannot read" not in err and not list(out.glob("*/run.json"))

    def test_run_dir_closes_quarantine_log_on_error(self, tmp_path):
        entry = QuarantineEntry(reason=QuarantineReason.MISSING_FIELD, field="uuid", raw_row={})
        with pytest.raises(RuntimeError):
            with RunDir(tmp_path, ["validate"]) as run_dir:
                run_dir.quarantine_sink()(entry)
                raise RuntimeError("boom")
        # a small write reaches the file only once the handle is flushed or closed
        log = (run_dir.path / "quarantine.log").read_text(encoding="utf-8")
        assert log == entry.to_json_line() + "\n"
        assert not (run_dir.path / "run.json").exists()


class TestRunPersistence:
    def test_run_directory_layout(self, faithful, tmp_path):
        out = tmp_path / "runs"
        assert run(crosscheck_args(faithful, out)) == 0
        run_dir = only_run_dir(out)
        for name in ("findings.json", "quarantine.log", "manifest.json", "run.json"):
            assert (run_dir / name).exists(), name
        record = json.loads((run_dir / "run.json").read_text())
        assert record["run_id"] == run_dir.name
        assert record["finding_counts"]["info"] > 0
        assert record["manifest"]["record_count"] == 150
        assert any(p.endswith("claims.json") for p in record["input_digests"])
        assert all(len(d) == 64 for d in record["input_digests"].values())

    def test_outputs_exist_and_match_recorded_digests(self, faithful, tmp_path):
        out = tmp_path / "runs"
        assert run(crosscheck_args(faithful, out)) == 0
        record = json.loads((only_run_dir(out) / "run.json").read_text())
        assert set(record["outputs"]) >= {"findings.json", "manifest.json", "quarantine.log"}
        for name, entry in record["outputs"].items():
            path = Path(entry["path"])
            assert path.exists(), name
            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"], name

    @pytest.mark.parametrize(
        "scenario, fmt, name, digest",
        [
            ("faithful", "json", "findings.json", "c1886306c2b3a9db8516a45a3f0ddd77ba461e858296f7dd1d4ec1e4b48823b3"),
            ("faithful", "markdown", "findings.md", "e7c4ebc429e74248fb93cfb53031c7ce6a057a7c394f90aafccbc8184cd47ac5"),
            ("faithful", "csv", "findings.csv", "0d4a83a4cf71bbd9eb8c93cf336fd6c459ed97c97c77bfb997a92e9a463d34eb"),
            ("injected", "json", "findings.json", "583b0af6aa576243f5dada613aa086d061722594817a24593893b81550da7f9a"),
            ("injected", "markdown", "findings.md", "b72f462f95496c7197269f3d39c0fecee473b75c038b03b7f9e5a110ca345fe1"),
            ("injected", "csv", "findings.csv", "26f2fc01dbbbcd8e880825fc786e3554cc028103c060d03f4d5b4f1ed241d55b"),
        ],
    )
    def test_verify_findings_bytes_are_pinned(self, request, tmp_path, scenario, fmt, name, digest):
        # The digests were recorded when verify held every finding in one
        # sorted list. Markdown reads the findings twice.
        out = tmp_path / "runs"
        assert run(verify_args(request.getfixturevalue(scenario), out, "--format", fmt)) == (scenario == "injected")
        assert hashlib.sha256((only_run_dir(out) / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "scenario, fmt, name, digest",
        [
            ("faithful", "json", "findings.json", "43c29f4cdc412e189b5b8054d1110623836803485a113cbfb092c949e8b4cbba"),
            ("faithful", "markdown", "findings.md", "afbfe171e5e5edda754444553a9ff8142a736853cf35de43477fb888a97c59ec"),
            ("faithful", "csv", "findings.csv", "d33467b23d6caf32fb88cc514d075bc3515312a561b00e5e5e43ec44d6a9898b"),
            ("injected", "json", "findings.json", "9fb41a23fd139d0ea43f87aac9613b0cbe807db35e2f7009da6cd81aba1298bb"),
            ("injected", "markdown", "findings.md", "ceddc5a9de0590fda6531cd7d7984bd4d265e8e9e354145cbabc7be592894753"),
            ("injected", "csv", "findings.csv", "ef09817fe92db14bbbbfc5621c5d1c0052f394ba2e9bc8947c3af4dd043b23fb"),
        ],
    )
    def test_crosscheck_findings_bytes_are_pinned(self, request, tmp_path, scenario, fmt, name, digest):
        # The digests were recorded when the markdown header counted the
        # findings in a pass of its own.
        out = tmp_path / "runs"
        assert run(crosscheck_args(request.getfixturevalue(scenario), out, "--format", fmt)) == (scenario == "injected")
        assert hashlib.sha256((only_run_dir(out) / name).read_bytes()).hexdigest() == digest

    def test_findings_bytes_identical_across_runs(self, injected, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(crosscheck_args(injected, out_a))
        run(crosscheck_args(injected, out_b))
        bytes_a = (only_run_dir(out_a) / "findings.json").read_bytes()
        bytes_b = (only_run_dir(out_b) / "findings.json").read_bytes()
        assert bytes_a == bytes_b

    def test_verify_findings_bytes_identical_across_runs(self, injected, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(verify_args(injected, out_a))
        run(verify_args(injected, out_b))
        assert (only_run_dir(out_a) / "findings.json").read_bytes() == (
            only_run_dir(out_b) / "findings.json"
        ).read_bytes()

    def test_parallel_output_matches_serial(self, injected, tmp_path):
        out_serial, out_parallel = tmp_path / "s", tmp_path / "p"
        assert run(crosscheck_args(injected, out_serial)) == 1
        assert run(crosscheck_args(injected, out_parallel, "--parallel", "3")) == 1
        assert (only_run_dir(out_serial) / "findings.json").read_bytes() == (
            only_run_dir(out_parallel) / "findings.json"
        ).read_bytes()

    @pytest.mark.parametrize("command,output", [("replicate", "results.json"), ("crosscheck", "findings.json")])
    def test_parallel_over_split_dump_matches_serial(self, injected, tmp_path, command, output):
        dump = injected / "dump"
        split_dump(dump, 3)
        with open(dump / "part-00001.csv", "a", encoding="utf-8") as fh:
            fh.write("not,a,row\n")
        written = {}
        for mode, extra in (("serial", ()), ("parallel", ("--parallel", "2"))):
            out = tmp_path / mode
            run([command, *crosscheck_args(injected, out, *extra)[1:]])
            run_dir = only_run_dir(out)
            written[mode] = {
                name: (run_dir / name).read_bytes() for name in (output, "manifest.json", "quarantine.log")
            }
        assert written["parallel"] == written["serial"]
        manifest = json.loads(written["serial"]["manifest.json"])
        assert len(manifest["files"]) == 3
        assert manifest["quarantine_count"] == 1

    def test_verify_manifest_records_linkage_provenance(self, tmp_path):
        doc = {**SCENARIO, "injections": {"strip_puid": True}}
        scen = tmp_path / "scen-stripped"
        assert run(["synth", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(scen)]) == 0
        out = tmp_path / "runs"
        run(verify_args(scen, out))
        run_dir = only_run_dir(out)
        findings = json.loads((run_dir / "findings.json").read_text())
        pairs = {(f["content_id"], f["sor_uuid"]) for f in findings if f["content_id"] and f["sor_uuid"]}
        record = json.loads((run_dir / "run.json").read_text())
        assert record["manifest"]["linkage"] == {"puid_pairs": 0, "fuzzy_pairs": len(pairs)}
        assert len(pairs) > 0

    @pytest.mark.parametrize("strip_puid", [False, True], ids=["puid", "no_puid"])
    def test_verify_findings_do_not_depend_on_row_order(self, tmp_path, strip_puid):
        doc = {**SCENARIO, "injections": {"strip_puid": strip_puid}}
        scen = tmp_path / "scen"
        assert run(["synth", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(scen)]) == 0
        run(verify_args(scen, tmp_path / "filed-order"))
        rng = random.Random(7)
        for path in (scen / "export.csv", scen / "dump" / "part-00000.csv"):
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            rng.shuffle(rows)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        run(verify_args(scen, tmp_path / "shuffled"))
        written = [
            (only_run_dir(tmp_path / side) / "findings.json").read_bytes() for side in ("filed-order", "shuffled")
        ]
        assert written[0] == written[1]
        assert b'"consistent"' in written[0]

    def test_unknown_label_finding_does_not_depend_on_the_hash_seed(self, faithful, tmp_path):
        doc = json.loads((faithful / "claims.json").read_text())
        labels = ["zzz_one", "aaa_two", "mmm_three", "qqq_four"]
        doc["claims"][0]["predicate"] = {"category": labels}
        claims = faithful / "unknown-labels.json"
        claims.write_text(json.dumps(doc), encoding="utf-8")
        outputs = set()
        for seed in "123456":
            out = tmp_path / f"runs-{seed}"
            args = crosscheck_args(faithful, out)
            args[4] = str(claims)
            env = fresh_env(PYTHONHASHSEED=seed)
            subprocess.run([sys.executable, "-m", "modaudit.cli", *args], env=env, capture_output=True, check=False)
            outputs.add((only_run_dir(out) / "findings.json").read_bytes())
        (findings,) = outputs
        assert [label for label in labels if label.encode() in findings] == ["aaa_two"]

    def test_outputs_do_not_depend_on_the_hash_seed(self, injected, tmp_path):
        for path in (injected / "export.csv", injected / "dump" / "part-00000.csv"):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("not,a,row\n")
        corpus = ["--corpus", str(injected / "dump"), "--taxonomy", str(injected / "taxonomy.json")]
        commands = {
            "validate": ["validate", *corpus],
            "profile": ["profile", *corpus],
            "replicate": ["replicate", *corpus, "--claims", str(injected / "claims.json")],
            "crosscheck": crosscheck_args(injected, "")[:-2] + ["--format", "markdown"],
            "verify": verify_args(injected, "")[:-2] + ["--format", "csv"],
        }
        # One interpreter per seed runs every subcommand and prints their exit codes.
        script = "\n".join(
            (
                "import json, sys",
                "from modaudit.cli import run",
                "print(json.dumps([run(args) for args in json.loads(sys.argv[1])]))",
            )
        )
        outputs = set()
        for seed in "123":
            out = tmp_path / f"runs-{seed}"
            argv = [[*args, "--out", str(out / name)] for name, args in commands.items()]
            done = subprocess.run(
                [sys.executable, "-c", script, json.dumps(argv)],
                env=fresh_env(PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                check=True,
            )
            written = {
                (name, path.name): path.read_bytes()
                for name in commands
                for path in only_run_dir(out / name).iterdir()
                if path.name != "run.json"
            }
            outputs.add((done.stdout.splitlines()[-1], tuple(sorted(written.items()))))
        ((codes, files),) = outputs
        written = dict(files)
        assert json.loads(codes) == [0, 0, 0, 1, 1]
        assert {name for _, name in written} >= {
            "findings.json",
            "findings.md",
            "findings.csv",
            "results.json",
            "profile.json",
            "manifest.json",
            "quarantine.log",
        }
        assert all(written[name, "quarantine.log"] for name in commands)

    def test_run_json_carries_metrics_that_findings_do_not(self, injected, tmp_path):
        with open(injected / "export.csv", "a", encoding="utf-8") as fh:
            fh.write("not,a,row\n")
        written = []
        for side in ("a", "b"):
            assert run(verify_args(injected, tmp_path / side)) == 1
            run_dir = only_run_dir(tmp_path / side)
            record = json.loads((run_dir / "run.json").read_text())
            assert record["metrics"]["peak_rss_kb"] > 0
            assert record["metrics"]["quarantine_by_reason"] == {"MISSING_FIELD": 1}
            assert record["metrics"]["quarantine_by_file"] == {"export.csv": 1}
            findings = (run_dir / "findings.json").read_bytes()
            for key in (b"peak_rss", b"quarantine_by_reason", b"quarantine_by_file"):
                assert key not in findings
            written.append(findings)
        assert written[0] == written[1]

    def test_requested_format_written_alongside_json(self, faithful, tmp_path):
        out = tmp_path / "runs"
        run(crosscheck_args(faithful, out, "--format", "markdown"))
        run_dir = only_run_dir(out)
        assert (run_dir / "findings.md").exists()

    @pytest.mark.parametrize("command", ["validate", "profile", "replicate", "crosscheck", "verify"])
    def test_every_subcommand_records_its_run(self, faithful, tmp_path, command):
        split_dump(faithful / "dump", 2)
        config = tmp_path / "audit.json"
        doc = {  # values at the limits of what the config reader takes
            "tolerance": {"absolute_floor": 0, "relative": 1e300, "approximate_relative": 1e300},
            "linkage": {"category_weight": "1/2", "decision_weight": 0.3, "threshold": "0.7", "max_day_distance": 1},
            "deadline_days": 999999999,
        }
        taxonomy = faithful / "taxonomy.json"
        args = [command, "--corpus", str(faithful / "dump")]
        if command in ("profile", "verify"):  # the taxonomy named in the config file
            doc["taxonomy"] = str(taxonomy)
        else:
            args += ["--taxonomy", str(taxonomy)]
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        own = {"replicate": "claims.json", "crosscheck": "claims.json", "verify": "export.csv"}.get(command)
        if own:
            args += ["--export" if command == "verify" else "--claims", str(faithful / own)]
        assert run([*args, "--config", str(config), "--out", str(out)]) == 0
        run_dir = only_run_dir(out)
        record = json.loads((run_dir / "run.json").read_text())
        manifest = run_dir / "manifest.json"
        assert record["outputs"]["manifest.json"]["sha256"] == hashlib.sha256(manifest.read_bytes()).hexdigest()
        assert json.loads(manifest.read_text()) == record["manifest"]
        expected = [config, taxonomy, *(faithful / "dump").glob("*.csv"), *([faithful / own] if own else [])]
        assert len(expected) == 4 + bool(own)
        assert len(record["input_digests"]) == len(expected)
        for path in expected:
            assert record["input_digests"][str(path)] == hashlib.sha256(path.read_bytes()).hexdigest(), path
        assert record["config"]["tolerance"]["absolute_floor"] == 0.0
        assert isinstance(record["config"]["tolerance"]["absolute_floor"], float)
        assert record["config"]["linkage"]["decision_weight"] == "3/10"
        assert record["config"]["linkage"]["threshold"] == "7/10"
        assert record["config"]["deadline_days"] == 999999999


class TestStartup:
    def test_cli_import_leaves_multiprocessing_out(self):
        # only --parallel needs it; every other invocation skips its import cost
        code = "import sys, modaudit.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

    # Modules that one subcommand runs and another should never load.
    WATCHED = (
        "html.parser",
        "modaudit.claims",
        "modaudit.crosscheck",
        "modaudit.htmltable",
        "modaudit.parallel",
        "modaudit.synth",
        "modaudit.verify",
    )

    # Runs the CLI on the probe's arguments and requires exit code 0.
    RUN = "import sys\nfrom modaudit.cli import run\nassert run(sys.argv[1:]) == 0"

    def loaded(self, code: str, *args: str) -> list[str]:
        """The WATCHED modules that a fresh interpreter has loaded after
        running `code` with `args` as sys.argv[1:], as its last line of output."""
        probe = f"{code}\nimport sys\nprint(*[m for m in {self.WATCHED!r} if m in sys.modules])"
        out = subprocess.run(
            [sys.executable, "-c", probe, *args], env=fresh_env(), capture_output=True, text=True, check=True
        )
        return out.stdout.splitlines()[-1].split()

    def test_cli_import_loads_no_pipeline_module(self):
        assert self.loaded("import modaudit.cli") == []

    def test_verify_loads_only_its_own_pipeline(self, tmp_path):
        from modaudit.sor import FIELD_ORDER
        from modaudit.verify import EVENT_FIELD_ORDER

        (tmp_path / "dump").mkdir()
        (tmp_path / "dump" / "part-00000.csv").write_text(",".join(FIELD_ORDER) + "\n", encoding="utf-8")
        (tmp_path / "export.csv").write_text(",".join(EVENT_FIELD_ORDER) + "\n", encoding="utf-8")
        args = ["verify", "--corpus", str(tmp_path / "dump"), "--export", str(tmp_path / "export.csv")]
        args += ["--window-start", "2024-01-01", "--window-end", "2024-02-01", "--out", str(tmp_path / "runs")]
        assert self.loaded(self.RUN, *args) == ["modaudit.verify"]

    def test_crosscheck_loads_neither_verify_nor_synth(self, faithful, tmp_path):
        loaded = self.loaded(self.RUN, *crosscheck_args(faithful, tmp_path / "runs"))
        assert loaded == ["modaudit.claims", "modaudit.crosscheck", "modaudit.parallel"]

    def test_package_names_are_their_submodules_objects(self):
        assert len(modaudit.__all__) == 48
        for name in modaudit.__all__:
            value = getattr(modaudit, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert set(modaudit.__all__) <= set(dir(modaudit))
        namespace: dict[str, object] = {}
        exec("from modaudit import *", namespace)
        assert all(namespace[name] is getattr(modaudit, name) for name in modaudit.__all__)

    def test_unknown_package_name_is_an_attribute_error_that_loads_nothing(self):
        code = "import modaudit\ntry:\n    modaudit.no_such_name\nexcept AttributeError:\n    pass"
        assert self.loaded(code) == []
        with pytest.raises(AttributeError, match="module 'modaudit' has no attribute 'no_such_name'"):
            modaudit.no_such_name


def test_readme_library_use_runs(faithful, tmp_path):
    # The README's "Library use" block reads a synth scenario at scen/,
    # where the faithful fixture writes one.
    section = (Path(SRC).parent / "README.md").read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=fresh_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout == "150 0\n"


class TestOtherSubcommands:
    def test_validate_reports_quarantine(self, faithful, tmp_path, capsys):
        dump = faithful / "dump"
        part = sorted(dump.glob("*.csv"))[0]
        lines = part.read_text().splitlines()
        lines.insert(1, ",".join([""] * 17))  # empty uuid etc -> quarantined
        part.write_text("\n".join(lines) + "\n")
        out = tmp_path / "runs"
        assert (
            run(
                [
                    "validate",
                    "--corpus",
                    str(dump),
                    "--taxonomy",
                    str(faithful / "taxonomy.json"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        run_dir = only_run_dir(out)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["quarantine_count"] == 1
        assert manifest["record_count"] == 150
        quarantine_lines = (run_dir / "quarantine.log").read_text().splitlines()
        assert len(quarantine_lines) == 1
        assert json.loads(quarantine_lines[0])["reason"] == "MISSING_FIELD"

    def test_profile_writes_fill_rates(self, faithful, tmp_path):
        out = tmp_path / "runs"
        code = run(
            [
                "profile",
                "--corpus",
                str(faithful / "dump"),
                "--taxonomy",
                str(faithful / "taxonomy.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        profile = json.loads((only_run_dir(out) / "profile.json").read_text())
        assert profile["puid"]["applicable"] == 150
        assert 0 < profile["decision_ground_reference_url"]["rate"] < 1

    def test_replicate_writes_results(self, faithful, tmp_path):
        out = tmp_path / "runs"
        code = run(
            [
                "replicate",
                "--corpus",
                str(faithful / "dump"),
                "--claims",
                str(faithful / "claims.json"),
                "--taxonomy",
                str(faithful / "taxonomy.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        results = json.loads((only_run_dir(out) / "results.json").read_text())
        assert {r["status"] for r in results} == {"ok"}
        total = next(r for r in results if r["claim_id"] == "examplehub-total")
        assert total["computed_value"] == 150

    def test_replicate_with_no_replicable_claim_still_reads_the_corpus(self, faithful, tmp_path):
        doc = json.loads((faithful / "claims.json").read_text())
        doc["exhaustive"] = False
        doc["claims"] = [{**doc["claims"][0], "predicate": {"category": "Jaywalking"}}]
        claims = faithful / "unresolvable.json"
        claims.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        args = crosscheck_args(faithful, out)
        args[0], args[4] = "replicate", str(claims)
        assert run(args) == 0
        run_dir = only_run_dir(out)
        results = json.loads((run_dir / "results.json").read_text())
        assert [r["status"] for r in results] == ["unreplicable"]
        assert json.loads((run_dir / "manifest.json").read_text())["record_count"] == 150

    def test_report_renders_markdown(self, faithful, tmp_path, capsys):
        out = tmp_path / "runs"
        run(crosscheck_args(faithful, out))
        findings_path = only_run_dir(out) / "findings.json"
        capsys.readouterr()
        assert run(["report", str(findings_path), "--format", "markdown"]) == 0
        rendered = capsys.readouterr().out
        assert rendered.startswith("# Audit findings")

    def test_report_renders_csv(self, faithful, tmp_path, capsys):
        out = tmp_path / "runs"
        run(crosscheck_args(faithful, out))
        findings_path = only_run_dir(out) / "findings.json"
        capsys.readouterr()
        assert run(["report", str(findings_path), "--format", "csv"]) == 0
        rendered = capsys.readouterr().out
        assert rendered.splitlines()[0].startswith("severity,kind")

    @pytest.mark.parametrize("doc", [[1], [], {"rows": []}], ids=["numbers", "empty_array", "object"])
    def test_report_refuses_a_document_that_is_not_an_array_of_objects(self, tmp_path, capsys, doc):
        path = tmp_path / "findings.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["report", str(path)])
        if doc == []:
            assert code == 0
            assert capsys.readouterr().out.startswith("# Audit findings\n\n0 finding(s)")
            return
        assert code == 3
        assert_one_line_input_error(capsys, tmp_path, "must hold a JSON array of objects")

    @pytest.mark.parametrize("depth", [500, 980])
    def test_report_renders_deep_nesting_in_every_format(self, tmp_path, depth):
        # A fresh interpreter, as from a shell: under the test runner's deeper
        # stack the json renderer runs out of stack at 980 levels.
        path = tmp_path / "findings.json"
        path.write_text('[{"a": ' + "[" * depth + "]" * depth + "}]", encoding="utf-8")

        def fresh(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, *args], env=fresh_env(), capture_output=True, text=True)

        def report(fmt: str) -> subprocess.CompletedProcess:
            return fresh("-m", "modaudit.cli", "report", str(path), "--format", fmt)

        dumped = fresh(
            "-c",
            "import json, sys; doc = json.load(open(sys.argv[1], encoding='utf-8')); "
            "sys.stdout.write(json.dumps(doc, indent=2, ensure_ascii=False) + '\\n')",
            str(path),
        )
        assert dumped.returncode == 0, dumped.stderr
        rendered = report("json")
        assert (rendered.returncode, rendered.stderr) == (0, "")
        assert rendered.stdout == dumped.stdout
        rendered = report("csv")
        assert (rendered.returncode, rendered.stdout.splitlines()[1:]) == (0, [",,,,,,,,,,"])
        rendered = report("markdown")
        assert rendered.returncode == 0
        assert rendered.stdout.startswith("# Audit findings\n\n1 finding(s)")

    def test_report_that_runs_out_of_stack_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # A document within a few frames of the reader's limit can still fail
        # in the renderer; the report is then one error line and no output.
        path = tmp_path / "findings.json"
        path.write_text('[{"a": 1}]', encoding="utf-8")

        def overflow(rows, fmt):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("modaudit.cli.emit_report", overflow)
        assert run(["report", str(path), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: findings file {path} nests too deeply to render as json\n"

    def test_config_file_with_flag_precedence(self, injected, tmp_path):
        # config file loosens tolerance enough to absorb the +500 perturbation
        config_path = tmp_path / "audit.json"
        config_path.write_text(
            json.dumps(
                {
                    "tolerance": {"absolute_floor": 10000, "relative": 0.0},
                    "severity_threshold": "critical",
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "runs"
        code = run(crosscheck_args(injected, out, "--config", str(config_path)))
        assert code == 0  # perturbed claim now matches, drops stay invisible to crosscheck
        record = json.loads((only_run_dir(out) / "run.json").read_text())
        assert record["config"]["tolerance"]["absolute_floor"] == 10000
        assert record["config"]["severity_threshold"] == "critical"

        # flag overrides the file threshold
        out2 = tmp_path / "runs2"
        code = run(
            crosscheck_args(
                injected, out2, "--config", str(config_path), "--severity-threshold", "info"
            )
        )
        assert code == 1  # info threshold counts the MATCH findings

    def test_synth_seed_override_changes_artifacts(self, tmp_path):
        scen = write_scenario(tmp_path, SCENARIO)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--scenario", str(scen), "--out", str(out_a)]) == 0
        assert run(["synth", "--scenario", str(scen), "--out", str(out_b), "--seed", "99"]) == 0
        assert (out_a / "export.csv").read_bytes() != (out_b / "export.csv").read_bytes()


class TestSettingTypes:
    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({"linkage": [1]}, "'linkage' must be an object"),
            ({"tolerance": "x"}, "'tolerance' must be an object"),
            ({"taxonomy": 5}, "'taxonomy' must be a string"),
            ({"deadline_days": -3}, "deadline_days must be a non-negative integer"),
            ({"tolerance": {"rounding_aware": "false"}}, "rounding_aware must be true or false"),
            (
                {"tolerance": {"relative": float("inf"), "approximate_relative": float("inf")}},
                "tolerance.relative must be a finite number",
            ),
            ({"tolerance": {"absolute_floor": float("nan")}}, "tolerance.absolute_floor must be a finite number"),
            ({"tolerance": {"absolute_floor": True}}, "tolerance.absolute_floor must be a finite number"),
            ({"tolerance": {"relative": "0.1"}}, "tolerance.relative must be a finite number"),
            ({"tolerance": {"approximate_relative": None}}, "tolerance.approximate_relative must be a finite number"),
            ({"linkage": {"max_day_distance": 2.7}}, "linkage.max_day_distance must be an integer"),
            ({"linkage": {"max_day_distance": True}}, "linkage.max_day_distance must be an integer"),
            ({"linkage": {"max_day_distance": "3"}}, "linkage.max_day_distance must be an integer"),
            ({"linkage": {"threshold": True}}, "linkage.threshold must be a finite number"),
            ({"linkage": {"threshold": float("inf")}}, "linkage.threshold must be a finite number"),
            ({"linkage": {"threshold": "inf"}}, "linkage.threshold must be a finite number or a fraction"),
            ({"linkage": {"time_weight": "1/0"}}, "linkage.time_weight must be a finite number or a fraction"),
            ({"linkage": {"threshold": "1e-5000"}}, "linkage.threshold must be a finite number or a fraction"),
            ({"linkage": {"threshold": "0." + "1" * 51}}, "linkage.threshold must be a finite number or a fraction"),
            ({"deadline_days": 1000000000}, "deadline_days must be a non-negative integer <= 999999999"),
            ({"deadline_days": 7.0}, "deadline_days must be an integer"),
            ({"deadline": 1}, "audit.json: unknown key 'deadline'"),
            ({"tolerance": {"absolut_floor": 10000}}, "tolerance: unknown key 'absolut_floor'"),
            ({"linkage": {"treshold": 0.1}}, "linkage: unknown key 'treshold'"),
        ],
        ids=[
            "linkage_list",
            "tolerance_string",
            "taxonomy_number",
            "negative_deadline",
            "rounding_aware_string",
            "infinite_relative",
            "nan_floor",
            "boolean_floor",
            "string_relative",
            "null_approximate_relative",
            "fractional_day_distance",
            "boolean_day_distance",
            "string_day_distance",
            "boolean_threshold",
            "infinite_threshold",
            "infinite_threshold_string",
            "zero_denominator_weight",
            "exponent_fraction_string",
            "long_fraction_string",
            "deadline_past_timedelta",
            "float_deadline",
            "unknown_top_level_key",
            "unknown_tolerance_key",
            "unknown_linkage_key",
        ],
    )
    def test_config_section_of_the_wrong_type_exits_two(self, faithful, tmp_path, capsys, doc, fragment):
        config = tmp_path / "audit.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        assert run(verify_args(faithful, out, "--config", str(config))) == 2
        assert_one_line_input_error(capsys, out, fragment)
        assert not out.exists()

    @pytest.mark.parametrize(
        "value,digits",
        [("9" * 5000, 5000), ("1." + "0" * 5000, 5001), ("9" * 4300 + "B", 4309)],
        ids=["integer", "decimal", "suffix"],
    )
    @pytest.mark.parametrize("command", ["replicate", "crosscheck"])
    def test_claim_value_past_the_digit_limit_exits_three(self, faithful, tmp_path, capsys, command, value, digits):
        doc = json.loads((faithful / "claims.json").read_text())
        doc["claims"][0]["value"] = value
        claims = faithful / "long-value.json"
        claims.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        args = crosscheck_args(faithful, out)
        args[4] = str(claims)
        assert run([command, *args[1:]]) == 3
        claim_id = doc["claims"][0]["claim_id"]
        assert_one_line_input_error(capsys, out, f"claim {claim_id}: field value: value of {digits} digits is too long")

    @pytest.mark.parametrize(
        "value,deviation",
        [
            ("1" + "0" * 309, "1e+309"),
            ("9" * 400, "1e+400"),
            ("~1" + "0" * 309, "1e+309"),
            ("1" + "0" * 309 + ".5", "1e+309"),
            ("12345675" + "0" * 305 + "K", "1.23457e+315"),
        ],
        ids=["power_of_ten", "nines", "approximate", "decimal", "suffix"],
    )
    @pytest.mark.parametrize("command", ["replicate", "crosscheck"])
    def test_claim_value_past_the_float_range_is_checked(self, faithful, tmp_path, command, value, deviation):
        doc = json.loads((faithful / "claims.json").read_text())
        doc["claims"][0]["value"] = value
        claims = faithful / "huge-value.json"
        claims.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        args = crosscheck_args(faithful, out)
        args[4] = str(claims)
        claim_id = doc["claims"][0]["claim_id"]
        if command == "replicate":
            assert run(["replicate", *args[1:]]) == 0
            results = json.loads((only_run_dir(out) / "results.json").read_text())
            assert claim_id in {r["claim_id"] for r in results}
            return
        assert run(args) == 1
        findings = json.loads((only_run_dir(out) / "findings.json").read_text())
        (finding,) = [f for f in findings if f["claim_id"] == claim_id]
        assert (finding["kind"], finding["severity"]) == ("mismatch", "critical")
        assert f"deviation {deviation} exceeds tolerance" in finding["evidence"]

    def test_claims_exhaustive_must_be_a_boolean(self, faithful, tmp_path, capsys):
        doc = json.loads((faithful / "claims.json").read_text())
        doc["exhaustive"] = "false"
        claims = faithful / "string-flag.json"
        claims.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        args = crosscheck_args(faithful, out)
        args[4] = str(claims)
        assert run(args) == 3
        assert_one_line_input_error(capsys, out, "'exhaustive' must be true or false")

    @pytest.mark.parametrize("value", [5, True, 0, False, "", [], "category"])
    @pytest.mark.parametrize("field", ["predicate", "denominator_predicate"])
    def test_claim_predicate_that_is_not_an_object_exits_three(self, faithful, tmp_path, capsys, field, value):
        doc = json.loads((faithful / "claims.json").read_text())
        (share,) = [claim for claim in doc["claims"] if claim["metric"] == "share"]
        share[field] = value
        claims = faithful / "bad-predicate.json"
        claims.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        args = crosscheck_args(faithful, out)
        args[4] = str(claims)
        assert run(args) == 3
        assert_one_line_input_error(capsys, out, f"claim {share['claim_id']}: field {field}: must be a JSON object")

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({"codes": ["hate_speech"], "aliases": {"x": ["hate_speech"]}}, "aliases value for 'x' must be a string"),
            ({"codes": ["hate_speech"], "aliases": {"x": {"y": 1}}}, "aliases value for 'x' must be a string"),
            ({"codes": ["hate_speech"], "aliases": {"x": 5}}, "aliases value for 'x' must be a string"),
            ({"codes": ["hate_speech"], "labels": {"hate_speech": [1]}}, "labels value for 'hate_speech'"),
            (["hate_speech"], "taxonomy must be a JSON object"),
            ({"codes": ["Scam", "scam"]}, "labels 'Scam' and 'scam' are equal under casefold"),
            ({"codes": ["scam", "fraud"], "aliases": {"SCAM": "fraud"}}, "labels 'scam' and 'SCAM'"),
            ({"codes": ["scam", ""]}, "category codes must be non-empty"),
        ],
        ids=[
            "alias_list",
            "alias_object",
            "alias_number",
            "label_list",
            "not_an_object",
            "codes_equal_under_casefold",
            "alias_on_another_code",
            "empty_code",
        ],
    )
    def test_taxonomy_of_the_wrong_type_exits_three(self, faithful, tmp_path, capsys, doc, fragment):
        taxonomy = tmp_path / "taxonomy.json"
        taxonomy.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        args = ["validate", "--corpus", str(faithful / "dump"), "--taxonomy", str(taxonomy), "--out", str(out)]
        assert run(args) == 3
        assert_one_line_input_error(capsys, out, f"error: bad taxonomy {taxonomy}: ", fragment)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ([1], "scenario config must be a JSON object"),
            ({"seed": "x"}, "seed must be an integer"),
            ({**SCENARIO, "injections": [1]}, "injections must be a JSON object"),
            ({**SCENARIO, "volume": "x"}, "volume must be an integer"),
            ({**SCENARIO, "window": "x"}, "window must be a JSON object"),
            ({**SCENARIO, "window": {"start": "2024-02-01", "end": "2024-01-01"}}, "window: period start"),
            ({**SCENARIO, "category_mix": {"hate_speech": "x"}}, "category_mix weight must be a finite number"),
            ({**SCENARIO, "injections": {"drop_sor_rate": "x"}}, "drop_sor_rate must be a finite number"),
            ({**SCENARIO, "injections": {"claim_perturbations": ["x"]}}, "claim perturbation must be a JSON object"),
            (
                {**SCENARIO, "injections": {"claim_perturbations": [{"claim_id": "examplehub-total", "delta": "x"}]}},
                "delta must be a finite number",
            ),
            ({**SCENARIO, "volumne": 150}, "scenario config: unknown key 'volumne'"),
            ({**SCENARIO, "injections": {"drop_sor_rat": 0.05}}, "injections: unknown key 'drop_sor_rat'"),
            (
                {**SCENARIO, "injections": {"claim_perturbations": [{"claim_id": "examplehub-total", "delat": 5}]}},
                "a claim perturbation: unknown key 'delat'",
            ),
            ({**SCENARIO, "platform": None}, "platform must be a non-empty string, got None"),
            ({**SCENARIO, "platform": 5}, "platform must be a non-empty string, got 5"),
            (
                {**SCENARIO, "injections": {"claim_perturbations": [{"claim_id": 5, "delta": 5}]}},
                "a claim perturbation's claim_id must be a string, got 5",
            ),
            (
                {**SCENARIO, "category_mix": {"Scam": 1, "scam": 1}},
                "category_mix: labels 'Scam' and 'scam' are equal under casefold",
            ),
            ({**SCENARIO, "category_mix": {"Other": 1}}, "category_mix: labels 'Other' and 'other'"),
            ({**SCENARIO, "category_mix": {"": 1}}, "category_mix: taxonomy category codes must be non-empty"),
        ],
        ids=[
            "top_level_array",
            "seed_string",
            "injections_array",
            "volume_string",
            "window_string",
            "window_reversed",
            "mix_weight_string",
            "rate_string",
            "perturbation_string",
            "delta_string",
            "unknown_top_level_key",
            "unknown_injection_key",
            "unknown_perturbation_key",
            "platform_null",
            "platform_number",
            "claim_id_number",
            "mix_keys_equal_under_casefold",
            "mix_key_other_in_capitals",
            "mix_key_empty",
        ],
    )
    def test_scenario_of_the_wrong_type_exits_two(self, tmp_path, capsys, doc, fragment):
        out = tmp_path / "scen"
        assert run(["synth", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
        assert_one_line_input_error(capsys, out, "error: bad scenario config: ", fragment)
        assert not out.exists()

    @pytest.mark.parametrize(
        "path,fragment",
        [
            ((key,), f"scenario config is missing {key!r}")
            for key in ("seed", "platform", "window", "volume", "category_mix", "automation_mix")
        ]
        + [(("window", key), f"window: period is missing {key!r}") for key in ("start", "end")]
        + [
            (("injections", "claim_perturbations", 0, "claim_id"), "a claim perturbation is missing 'claim_id'"),
            (("injections", "claim_perturbations", 0, "delta"), "needs exactly one of delta or factor"),
        ],
    )
    def test_scenario_without_a_required_key_exits_two(self, tmp_path, capsys, path, fragment):
        doc = json.loads(json.dumps(INJECTED))
        *parents, key = path
        node = doc
        for parent in parents:
            node = node[parent]
        del node[key]
        out = tmp_path / "scen"
        assert run(["synth", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
        assert_one_line_input_error(capsys, out, "error: bad scenario config: ", fragment)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["injections", *INJECTED["injections"]])
    def test_scenario_injection_keys_are_optional(self, tmp_path, capsys, key):
        doc = json.loads(json.dumps(INJECTED))
        del (doc if key == "injections" else doc["injections"])[key]
        out = tmp_path / "scen"
        assert run(["synth", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_scenario_strip_puid_must_be_a_boolean(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, {**SCENARIO, "injections": {"strip_puid": "false"}})
        out = tmp_path / "scen"
        assert run(["synth", "--scenario", str(scen), "--out", str(out)]) == 2
        assert_one_line_input_error(capsys, out, "strip_puid must be true or false")
        assert not out.exists()


CORRUPTION_BYTES = b'",\n\r\x00\xff;'


def corrupt(data: bytes, rng: random.Random) -> tuple[bytes, list[str]]:
    """Overwrite, delete or insert 1-4 single bytes of `data`; returns the new
    bytes and a description of each change."""
    changes = []
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("overwrite", "delete", "insert"))
        at = rng.randrange(len(data))
        byte = bytes([rng.choice(CORRUPTION_BYTES)])
        if op == "overwrite":
            data = data[:at] + byte + data[at + 1 :]
        elif op == "delete":
            data = data[:at] + data[at + 1 :]
        else:
            data = data[:at] + byte + data[at:]
        changes.append(f"{op}@{at}" + ("" if op == "delete" else f"={byte!r}"))
    return data, changes


JSON_DAMAGE = {
    "byte_ff": (lambda data: data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :], "is not valid UTF-8"),
    "truncated": (lambda data: data[: len(data) // 2], "is not valid JSON"),
    "nested": (lambda data: b"[" * 200_000, "nests too deeply"),
    "long_integer": (lambda data: b"[" + b"1" * 5_000 + b"]", "holds an integer too long to read"),
}


class TestByteCorruption:
    """Damaged bytes in any input end in a clean exit. A CSV file in either
    format gives a quarantined row, a one-line error (2 or 3), or exit 1 only
    with findings to show; a JSON file gives a one-line error naming it."""

    CASES = 60

    @pytest.fixture(scope="class")
    def scenario(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("corruption")
        out = base / "scen"
        assert run(["synth", "--scenario", str(write_scenario(base, SCENARIO)), "--out", str(out)]) == 0
        return out

    def test_damaged_bytes_never_escape(self, scenario, tmp_path, capsys):
        rng = random.Random(20240607)
        targets = [scenario / "export.csv", scenario / "dump" / "part-00000.csv"]
        originals = {path: path.read_bytes() for path in targets}
        codes = Counter()
        for case in range(self.CASES):
            target = targets[case % 2]
            damaged, changes = corrupt(originals[target], rng)
            target.write_bytes(damaged)
            out = tmp_path / f"case-{case}"
            commands = {
                "validate": ["validate", "--corpus", str(scenario / "dump"), "--out", str(out / "validate")],
                "profile": ["profile", "--corpus", str(scenario / "dump"), "--out", str(out / "profile")],
                "crosscheck": crosscheck_args(scenario, out / "crosscheck"),
                "verify": verify_args(scenario, out / "verify"),
            }
            if target.name == "export.csv":
                commands = {"verify": commands["verify"]}
            try:
                for name, args in commands.items():
                    label = f"case {case} ({target.name} {' '.join(changes)}) {name}"
                    capsys.readouterr()
                    try:
                        code = run(args)
                    except Exception as exc:  # nothing may escape cli.run
                        pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
                    err = capsys.readouterr().err
                    codes[name, code] += 1
                    assert code in (0, 1, 2, 3), label
                    if code in (2, 3):
                        assert len(err.splitlines()) == 1 and err.startswith("error: "), f"{label}: {err}"
                        continue
                    assert err == "", f"{label}: {err}"
                    flagged = 0
                    if name in ("crosscheck", "verify"):
                        findings = json.loads((only_run_dir(out / name) / "findings.json").read_text())
                        flagged = sum(1 for f in findings if f["severity"] in ("warn", "critical"))
                    assert code == (1 if flagged else 0), label
            finally:
                target.write_bytes(originals[target])
        # the cases reach clean runs, runs with findings and refused inputs
        assert codes["verify", 0] and codes["verify", 1] and codes["verify", 3], codes

    @pytest.mark.parametrize("damage", sorted(JSON_DAMAGE))
    @pytest.mark.parametrize(
        "target,code", [("taxonomy", 3), ("config", 2), ("claims", 3), ("scenario", 2), ("report", 3)]
    )
    def test_damaged_json_input_is_a_one_line_error(self, scenario, tmp_path, capsys, target, code, damage):
        path = tmp_path / f"{target}.json"
        out = tmp_path / "out"
        args = crosscheck_args(scenario, out)
        if target in ("taxonomy", "claims"):
            valid = (scenario / f"{target}.json").read_bytes()
            args[args.index(f"--{target}") + 1] = str(path)
        elif target == "config":
            valid = json.dumps({"severity_threshold": "critical"}).encode()
            args += ["--config", str(path)]
        elif target == "scenario":
            valid = (scenario / "scenario.json").read_bytes()
            args = ["synth", "--scenario", str(path), "--out", str(out)]
        else:
            valid = json.dumps([{"severity": "warn", "kind": "mismatch", "evidence": "e"}]).encode()
            args = ["report", str(path)]
        damaged, message = JSON_DAMAGE[damage]
        path.write_bytes(damaged(valid))
        capsys.readouterr()
        assert run(args) == code
        assert_one_line_input_error(capsys, out, f"{path} {message}")
        assert not out.exists()
