"""The benchmark's workloads: the scenario each one's inputs come from, and the
subcommand it runs on them.

This module imports nothing from modaudit, so run.py and the output checks
can use it without loading the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

PLATFORM = "examplehub"
CATEGORY_MIX = {"hate_speech": 4, "misinformation": 3, "nudity": 2, "scam": 1}
AUTOMATION_MIX = {"FULLY": 2, "PARTIALLY": 1, "NOT_AUTOMATED": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str  # "crosscheck" or "verify"
    # ScenarioConfig.from_dict document, without the seed (that comes from --seed)
    scenario: dict
    # Audit window handed to verify. Crosscheck runs no verify; the traced
    # run still exercises the verify layers on its inputs over this window.
    window: tuple[str, str]
    # Share of dump rows the benchmark corrupts after generation.
    corrupt_share: float = 0.0


def _scenario(volume: int, window: tuple[str, str], **injections) -> dict:
    return {
        "platform": PLATFORM,
        "window": {"start": window[0], "end": window[1]},
        "volume": volume,
        "category_mix": CATEGORY_MIX,
        "automation_mix": AUTOMATION_MIX,
        "injections": injections,
    }


MONTH = ("2024-01-01", "2024-02-01")
WEEK = ("2024-01-01", "2024-01-08")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crosscheck-claims",
            subcommand="crosscheck",
            scenario=_scenario(100_000, MONTH),
            window=WEEK,
            corrupt_share=0.01,
        ),
        Workload(
            name="verify-puid",
            subcommand="verify",
            scenario=_scenario(
                40_000,
                MONTH,
                drop_sor_rate=0.01,
                phantom_sor_rate=0.005,
                flip_automation_rate=0.01,
                shift_category_rate=0.005,
                late_filing_rate=0.005,
            ),
            window=MONTH,
        ),
        Workload(
            name="verify-fuzzy",
            subcommand="verify",
            scenario=_scenario(
                2_000, WEEK, flip_automation_rate=0.01, late_filing_rate=0.01, strip_puid=True
            ),
            window=WEEK,
        ),
    )
}


def audit_args(workload: Workload, inputs: Path, out: Path, header_only: bool = False) -> list[str]:
    """modaudit CLI arguments for one invocation of the workload's subcommand.

    With header_only the same flags, claims and taxonomy point at header-only
    dump and export files: that run is the fixed per-audit cost (set-up).
    """
    data = inputs / "header-only" if header_only else inputs
    common = ["--corpus", str(data / "dump"), "--taxonomy", str(inputs / "taxonomy.json")]
    if workload.subcommand == "crosscheck":
        return ["crosscheck", *common, "--claims", str(inputs / "claims.json"), "--out", str(out)]
    return [
        "verify",
        *common,
        "--export",
        str(data / "export.csv"),
        "--window-start",
        workload.window[0],
        "--window-end",
        workload.window[1],
        "--out",
        str(out),
    ]
