"""Make one workload's inputs for one seed.

    PYTHONPATH=src python3 perfbench/inputs.py --workload NAME --seed N --dest DIR

Writes synth's scenario for the workload (export.csv, dump/, claims.json,
taxonomy.json, ground_truth.json), the benchmark's changes to it, header-only
copies of the dump and export under header-only/, and expect.json, what a
correct audit of the inputs reports. The same seed gives the same files.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

from modaudit.synth import ScenarioConfig, generate

import oracle
from workloads import WORKLOADS


def write_header_only(inputs: Path) -> None:
    """Header-only dump and export, for the fixed per-audit cost."""
    target = inputs / "header-only"
    (target / "dump").mkdir(parents=True)
    for source, dest in (
        (oracle.dump_files(inputs)[0], target / "dump" / "part-00000.csv"),
        (inputs / "export.csv", target / "export.csv"),
    ):
        with open(source, encoding="utf-8") as fh:
            dest.write_text(fh.readline(), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    dest = Path(args.dest)
    shutil.rmtree(dest, ignore_errors=True)
    generate(ScenarioConfig.from_dict({**workload.scenario, "seed": args.seed}), dest)
    write_header_only(dest)
    expect = oracle.expectations(workload, dest, args.seed)
    (dest / "expect.json").write_text(json.dumps(expect, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
