"""Benchmark of modaudit's crosscheck and verify subcommands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a modaudit checkout: the subcommands run as
`python -m modaudit.cli` against the checkout's own src/. The workloads, their
metrics and each metric's bound are in BENCHMARK.json; perfbench/README.md
says what each measures.

One run makes the workload's inputs from --seed, then repeats rounds until
--seconds have passed. A round is one invocation of the workload's subcommand,
then SETUP_RUNS invocations with the same flags on header-only inputs (the
set-up cost), then a fixed reference loop timed in this process as a
host-speed gauge. Every invocation gets a fresh --out directory, has its exit
code and outputs checked against expectations computed apart from the program
(oracle.py), and fails if either is wrong. The first invocation that passes
also serves to check that the checks reject damaged findings.

Each metric is the median over the invocations that did not fail. Lines
before the last give each metric's quartiles, the gauge of every round and
the launcher's own peak RSS. The last stdout line is the result: correct,
attempted, failed, and with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics of one traced pass (trace.py) after the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from workloads import WORKLOADS, audit_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 3
# String hash randomisation alone moves a subcommand's wall time by about a
# tenth from one process to the next; every process runs with it off, so runs
# differ only by their inputs and the host.
HASH_SEED = "0"
GAUGE_LOOP = 1_000_000


class Launcher:
    """The small process that starts each measured invocation (launcher.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], env: dict[str, str], log: Path) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "env": env, "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def program_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)


def gauge() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def findings_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.glob("*/findings.json"))


def measure(workload, inputs: Path, expect: dict, seconds: float, launcher: Launcher, scratch: Path) -> dict:
    """Run whole rounds until `seconds` have passed; returns every invocation."""
    invocations: list[dict] = []
    gauges: list[float] = []
    problems: list[str] = []
    self_tested = False
    start = time.perf_counter()
    while not gauges or time.perf_counter() - start < seconds:
        r = len(gauges)
        for header_only in (False,) + (True,) * SETUP_RUNS:
            out = scratch / f"out-{len(invocations)}"
            log = scratch / f"out-{len(invocations)}.log"
            argv = [sys.executable, "-m", "modaudit.cli", *audit_args(workload, inputs, out, header_only)]
            result = launcher.run(argv, program_env(), log)
            failures = oracle.check_run(workload, expect, out, result["exit_code"], header_only)
            if not (self_tested or header_only or failures):
                problems += oracle.self_test(workload, out, expect)
                self_tested = True
            if failures:
                tail = log.read_text(encoding="utf-8", errors="replace")[-500:]
                print(f"round {r}: {' '.join(argv[3:5])}... failed: {failures[:3]} {tail}", file=sys.stderr)
            result.update(header_only=header_only, failed=bool(failures), findings_bytes=findings_bytes(out))
            invocations.append(result)
            shutil.rmtree(out, ignore_errors=True)
            log.unlink()
        gauges.append(gauge())
    return {"invocations": invocations, "gauges": gauges, "problems": problems}


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def end_to_end(invocations: list[dict], rows_read: int) -> dict[str, list[float]]:
    audits = [i for i in invocations if not i["header_only"] and not i["failed"]]
    return {
        "wall_s": [i["wall_s"] for i in audits],
        "rows_per_s": [rows_read / i["wall_s"] for i in audits],
        "cpu_s": [i["cpu_s"] for i in audits],
        "peak_rss_mb": [i["maxrss_kb"] * 1024 / 1e6 for i in audits],
        "findings_mb": [i["findings_bytes"] / 1e6 for i in audits],
        "setup_s": [i["wall_s"] for i in invocations if i["header_only"] and not i["failed"]],
    }


def traced(workload, inputs: Path, expect: dict, scratch: Path, seed: int) -> tuple[dict, float, list[str]]:
    """One traced pass in its own process; returns its metrics, its traced
    total, and problems with the findings its staged pipeline wrote."""
    spans = HERE / "out" / f"trace-{workload.name}-seed{seed}.json"
    out = scratch / "trace-out"
    proc = subprocess.run(
        [sys.executable, str(HERE / "trace.py"), "--workload", workload.name, "--inputs", str(inputs),
         "--out", str(out), "--spans", str(spans)],
        env=program_env(),
        stdout=subprocess.PIPE,
        check=True,
        text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    loaded = oracle.load_run(out)
    if isinstance(loaded, str):
        problems = [f"traced pass: {loaded}"]
    else:
        problems = [f"traced pass: {p}" for p in oracle.check_findings(workload, *loaded, expect)]
    print(f"spans written to {spans.relative_to(ROOT)}", file=sys.stderr)
    return result["metrics"], result["traced_total_s"], problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "modaudit" / "cli.py").is_file():
        print(f"error: no modaudit sources under {SRC}; run from a modaudit checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    launcher = Launcher()  # first, while this process is small
    scratch = HERE / "work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        inputs = scratch / "inputs"
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload.name,
             "--seed", str(args.seed), "--dest", str(inputs)],
            env=program_env(),
            check=True,
        )
        expect = json.loads((inputs / "expect.json").read_text(encoding="utf-8"))
        rounds = measure(workload, inputs, expect, args.seconds, launcher, scratch)
        invocations = rounds["invocations"]
        problems = rounds["problems"]
        samples = end_to_end(invocations, expect["rows_read"])
        if not samples["wall_s"] or not samples["setup_s"]:
            print("error: every invocation failed", file=sys.stderr)
            return 1
        values = {name: statistics.median(v) for name, v in samples.items()}
        if args.trace:
            values, total, trace_problems = traced(workload, inputs, expect, scratch, args.seed)
            values["trace.overhead_s"] = total - statistics.median(samples["wall_s"])
            problems += trace_problems
    finally:
        launcher.close()
        shutil.rmtree(scratch, ignore_errors=True)

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        print(f"error: measured {sorted(values)}, BENCHMARK.json declares {sorted(names)}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "rounds": len(rounds["gauges"]),
                "end_to_end": {name: summary(v) for name, v in samples.items()},
                "host_gauge_s": rounds["gauges"],
                "launcher_rss_kb": max(i["launcher_rss_kb"] for i in invocations),
                "problems": problems,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(invocations),
                "failed": sum(i["failed"] for i in invocations),
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
