"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configured elsewhere.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from datetime import date
from fractions import Fraction
from pathlib import Path

import pytest

from modaudit.aggregate import Period, replicate_all
from modaudit.claims import ClaimSet, Precision, load_claims
from modaudit.cli import run
from modaudit.crosscheck import FindingKind, ToleranceSpec, cross_check, run_crosscheck, tolerance_bound
from modaudit.ingest import open_corpus, open_platform_export
from modaudit.report import Severity
from modaudit.sor import CategoryTaxonomy, default_taxonomy
from modaudit.synth import (
    ClaimPerturbation,
    InjectionSpec,
    ScenarioConfig,
    generate,
    write_bulk_dump,
)
from modaudit.verify import KeywordClassifier, VerificationKind, link, reconstruct, verify_diff

from .oracles import naive_replicate, random_count_claim, random_record
from .test_crosscheck import claim as make_claim
from .test_crosscheck import count_result

WINDOW = Period(start=date(2024, 1, 1), end=date(2024, 2, 1))
MIX = {"hate_speech": 3, "misinformation": 2, "nudity": 1}
AUTO = {"FULLY": 1, "NOT_AUTOMATED": 2, "PARTIALLY": 1}


def scenario(volume, seed, injections=None, automation=None):
    return ScenarioConfig(
        seed=seed,
        platform="examplehub",
        window=WINDOW,
        volume=volume,
        category_mix=MIX,
        automation_mix=automation or AUTO,
        injections=injections or InjectionSpec(),
    )


def audit_scenario(artifacts):
    """Run both pipelines; returns (crosscheck findings, verify findings)."""
    taxonomy = CategoryTaxonomy.from_file(artifacts.taxonomy_path)
    claims = load_claims(artifacts.claims_path)
    reader = open_corpus(artifacts.dump_dir, taxonomy)
    cc_findings, _ = run_crosscheck(claims, reader, taxonomy)

    events = list(open_platform_export(artifacts.export_path))
    classifier = KeywordClassifier.from_taxonomy(taxonomy)
    reconstructed = reconstruct(events, classifier, WINDOW)
    filed = [
        r
        for r in open_corpus(artifacts.dump_dir, taxonomy)
        if WINDOW.contains_date(r.application_date)
    ]
    v_findings = verify_diff(link(reconstructed, filed))
    return cc_findings, v_findings


def flagged_multisets(cc_findings, v_findings):
    cc = sorted(
        (f.claim_id, f.kind.value) for f in cc_findings if f.kind is not FindingKind.MATCH
    )
    vv = sorted(
        (f.content_id or "", f.sor_uuid or "", f.kind.value)
        for f in v_findings
        if f.kind is not VerificationKind.CONSISTENT
    )
    return cc, vv


def test_c1_faithful_corpus_nullity(tmp_path):
    volumes = [10, 20, 40, 80, 120, 180, 250, 350, 500, 700,
               900, 1200, 1500, 2000, 2500, 3200, 4000, 5000, 7000, 10000]
    assert len(volumes) == 20
    started = time.perf_counter()
    for i, volume in enumerate(volumes):
        artifacts = generate(scenario(volume, seed=1000 + i), tmp_path / f"s{i:02d}")
        cc_findings, v_findings = audit_scenario(artifacts)
        assert cc_findings and all(f.kind is FindingKind.MATCH for f in cc_findings), volume
        assert len(v_findings) == volume
        assert all(f.kind is VerificationKind.CONSISTENT for f in v_findings), volume
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"20 faithful scenarios took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C1 faithful-corpus nullity (20 scenarios, {elapsed:.1f}s): PASS")


def test_c2_fault_injection_exactness(tmp_path):
    perturbations = (
        ClaimPerturbation("examplehub-cat-hate_speech", factor=2.0),
        ClaimPerturbation("examplehub-total", delta=5000),
    )
    grid = [
        ("drop", 1000, InjectionSpec(drop_sor_rate=0.03)),
        ("phantom", 1000, InjectionSpec(phantom_sor_rate=0.02)),
        ("flip", 1000, InjectionSpec(flip_automation_rate=0.03)),
        ("shift", 1000, InjectionSpec(shift_category_rate=0.02)),
        ("late", 1000, InjectionSpec(late_filing_rate=0.02)),
        ("perturb", 1000, InjectionSpec(claim_perturbations=perturbations)),
        (
            "combined",
            1000,
            InjectionSpec(
                drop_sor_rate=0.02,
                phantom_sor_rate=0.01,
                flip_automation_rate=0.02,
                shift_category_rate=0.01,
                late_filing_rate=0.01,
                claim_perturbations=perturbations,
            ),
        ),
        (
            "combined-10k",
            10_000,
            InjectionSpec(
                drop_sor_rate=0.01,
                phantom_sor_rate=0.005,
                flip_automation_rate=0.01,
                shift_category_rate=0.005,
                late_filing_rate=0.005,
                claim_perturbations=perturbations,
            ),
        ),
    ]
    for name, volume, injections in grid:
        artifacts = generate(scenario(volume, seed=77, injections=injections), tmp_path / name)
        cc_flagged, v_flagged = flagged_multisets(*audit_scenario(artifacts))
        gt = artifacts.ground_truth
        assert cc_flagged == gt.crosscheck_multiset(), name
        assert v_flagged == gt.verification_multiset(), name
        injected = len(gt.crosscheck) + len(gt.verification)
        assert injected > 0 or name == "none", name
    print("\nACCEPTANCE C2 fault-injection exactness (precision=recall=1.0 on 8 scenarios): PASS")


def test_c3_zero_automation_scenario(tmp_path):
    # report asserts a 94% fully-automated share; the database shows none
    injections = InjectionSpec(
        claim_perturbations=(ClaimPerturbation("examplehub-share-fully", delta=0.94),)
    )
    artifacts = generate(
        scenario(2000, seed=5, injections=injections, automation={"NOT_AUTOMATED": 1}),
        tmp_path / "report-side",
    )
    cc_findings, _ = audit_scenario(artifacts)
    non_match = [f for f in cc_findings if f.kind is not FindingKind.MATCH]
    assert len(non_match) == 1
    finding = non_match[0]
    assert finding.kind is FindingKind.MISMATCH
    assert finding.severity is Severity.CRITICAL
    assert finding.claim_id == "examplehub-share-fully"
    assert finding.computed_value == 0
    assert finding.reported_value == Fraction(47, 50)

    # filings claim full automation for actions the platform took manually
    flip = generate(
        scenario(
            2000,
            seed=6,
            injections=InjectionSpec(flip_automation_rate=0.05),
            automation={"NOT_AUTOMATED": 1},
        ),
        tmp_path / "filing-side",
    )
    _, v_findings = audit_scenario(flip)
    expected_pairs = {
        (c, s) for c, s, kind in flip.ground_truth.verification if kind == "field_mismatch"
    }
    assert len(expected_pairs) == 100
    mismatches = [f for f in v_findings if f.kind is VerificationKind.FIELD_MISMATCH]
    assert {(f.content_id, f.sor_uuid) for f in mismatches} == expected_pairs
    for f in mismatches:
        assert f.severity is Severity.CRITICAL
        assert f.mismatched_fields == (("automated_decision", "NOT_AUTOMATED", "FULLY"),)
    print("\nACCEPTANCE C3 zero-automation discrepancy scenario: PASS")


def test_c4_aggregation_oracle_equivalence():
    rng = random.Random(2024)
    sizes = [rng.randint(0, 2500) for _ in range(95)] + [10_000] * 4 + [0]
    assert len(sizes) == 100 and max(sizes) <= 10_000
    for corpus_index, size in enumerate(sizes):
        records = [random_record(rng, i) for i in range(size)]
        claims = [random_count_claim(rng, f"r{corpus_index:03d}-c{j}") for j in range(10)]
        results = {r.claim_id: r.computed_value for r in replicate_all(claims, records)}
        for c in claims:
            assert results[c.claim_id] == naive_replicate(c, records), c.claim_id
    print("\nACCEPTANCE C4 aggregation oracle equivalence (100 corpora x 10 claims): PASS")


def test_c5_tolerance_formula():
    assert tolerance_bound(1_200_000, Precision.rounded(2), ToleranceSpec()) == 50_000
    rng = random.Random(55)
    for _ in range(100):
        v = rng.randint(0, 10**12)
        assert tolerance_bound(v, Precision.exact(), ToleranceSpec()) == 0

    for trial in range(1000):
        reported = rng.randint(0, 10**6)
        computed = max(0, reported + rng.randint(-20_000, 20_000))
        text = rng.choice([str(reported), f"{reported:,}", f"~{reported}"])
        c = make_claim("c", text)
        base_rel = rng.uniform(0, 0.1)
        base = ToleranceSpec(
            absolute_floor=rng.uniform(0, 5000),
            relative=base_rel,
            approximate_relative=base_rel + rng.uniform(0, 0.1),
        )
        grown_rel = base.relative + rng.uniform(0, 0.1)
        grown = ToleranceSpec(
            absolute_floor=base.absolute_floor + rng.uniform(0, 5000),
            relative=grown_rel,
            approximate_relative=base.approximate_relative
            + (grown_rel - base.relative)
            + rng.uniform(0, 0.1),
        )
        before = cross_check(ClaimSet(claims=(c,)), [count_result("c", computed)], base)[0].kind
        after = cross_check(ClaimSet(claims=(c,)), [count_result("c", computed)], grown)[0].kind
        if before is FindingKind.MATCH:
            assert after is FindingKind.MATCH, trial
    print("\nACCEPTANCE C5 tolerance formula and monotonicity (1000 enlargements): PASS")


def test_c6_linkage_determinism_and_conservation(tmp_path):
    artifacts = generate(
        scenario(120, seed=8, injections=InjectionSpec(drop_sor_rate=0.05, phantom_sor_rate=0.05)),
        tmp_path / "linkage",
    )
    taxonomy = CategoryTaxonomy.from_file(artifacts.taxonomy_path)
    events = list(open_platform_export(artifacts.export_path))
    classifier = KeywordClassifier.from_taxonomy(taxonomy)
    reconstructed = reconstruct(events, classifier, WINDOW)
    filed = list(open_corpus(artifacts.dump_dir, taxonomy))
    # strip puid from a third of each side so the fuzzy stage is exercised too
    reconstructed = [r._replace(puid=None) if i % 3 == 0 else r for i, r in enumerate(reconstructed)]
    filed = [f._replace(puid=None) if i % 3 == 0 else f for i, f in enumerate(filed)]

    baseline = link(reconstructed, filed)
    base_pairs = {(r.content_id, f.uuid) for r, f in baseline.pairs}
    assert len(baseline.pairs) + len(baseline.unmatched_reconstructed) == len(reconstructed)
    assert len(baseline.pairs) + len(baseline.unmatched_filed) == len(filed)

    rng = random.Random(99)
    for _ in range(1000):
        rec = reconstructed[:]
        fil = filed[:]
        rng.shuffle(rec)
        rng.shuffle(fil)
        result = link(rec, fil)
        assert {(r.content_id, f.uuid) for r, f in result.pairs} == base_pairs
        assert len(result.pairs) + len(result.unmatched_reconstructed) == len(rec)
        assert len(result.pairs) + len(result.unmatched_filed) == len(fil)
    print("\nACCEPTANCE C6 linkage determinism (1000 permutations) and conservation: PASS")


_MEASURE_SNIPPET = """
import resource, sys
from modaudit.aggregate import replicate_all
from modaudit.ingest import open_corpus
from modaudit.sor import default_taxonomy
sys.path.insert(0, {tests_dir!r})
from oracles import random_count_claim
import random
rng = random.Random(4)
claims = [random_count_claim(rng, f"c{{i:02d}}") for i in range(20)]
reader = open_corpus({dump!r}, default_taxonomy())
replicate_all(claims, reader)
assert reader.manifest.record_count == {expected}
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_kb(dump: Path, expected: int, scratch: Path) -> int:
    """Peak RSS (KB) of a fresh process streaming the dump.

    ru_maxrss survives exec, so a child forked from the large pytest process
    would inherit its footprint; spawning through a tiny launcher makes the
    grandchild's peak reflect only its own work.
    """
    script = scratch / f"measure-{expected}.py"
    script.write_text(
        _MEASURE_SNIPPET.format(
            tests_dir=str(Path(__file__).parent), dump=str(dump), expected=expected
        ),
        encoding="utf-8",
    )
    launcher = (
        "import subprocess, sys\n"
        f"out = subprocess.run([sys.executable, {str(script)!r}], capture_output=True, text=True)\n"
        "sys.stdout.write(out.stdout)\n"
        "sys.stderr.write(out.stderr)\n"
        "sys.exit(out.returncode)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", launcher], capture_output=True, text=True, check=True
    )
    return int(out.stdout.strip())


@pytest.mark.slow
def test_c7_throughput_and_memory(tmp_path):
    small_dump = write_bulk_dump(tmp_path / "dump100k", 100_000, seed=7)
    big_dump = write_bulk_dump(tmp_path / "dump1m", 1_000_000, seed=7)

    rng = random.Random(4)
    claims = [random_count_claim(rng, f"c{i:02d}") for i in range(20)]
    taxonomy = default_taxonomy()
    started = time.perf_counter()
    reader = open_corpus(big_dump, taxonomy)
    results = replicate_all(claims, reader)
    elapsed = time.perf_counter() - started
    assert reader.manifest.record_count == 1_000_000
    assert len(results) == 20
    assert elapsed < 60.0, f"1M ingest+replicate took {elapsed:.1f}s"

    small_rss = _peak_rss_kb(small_dump, 100_000, tmp_path)
    big_rss = _peak_rss_kb(big_dump, 1_000_000, tmp_path)
    ratio = big_rss / small_rss
    assert ratio < 2.0, f"peak RSS grew {ratio:.2f}x for 10x volume"
    print(
        f"\nACCEPTANCE C7 throughput/memory (1M in {elapsed:.1f}s; "
        f"RSS {small_rss}->{big_rss} KB, {ratio:.2f}x for 10x volume): PASS"
    )


def test_c8_end_to_end_determinism(tmp_path):
    scen_doc = {
        "seed": 21,
        "platform": "examplehub",
        "window": {"start": "2024-01-01", "end": "2024-02-01"},
        "volume": 400,
        "category_mix": MIX,
        "automation_mix": AUTO,
        "injections": {
            "drop_sor_rate": 0.02,
            "flip_automation_rate": 0.02,
            "claim_perturbations": [{"claim_id": "examplehub-total", "delta": 300}],
        },
    }
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(scen_doc), encoding="utf-8")
    scen_out = tmp_path / "scen"
    assert run(["synth", "--scenario", str(scen_path), "--out", str(scen_out)]) == 0

    def crosscheck(out):
        code = run(
            [
                "crosscheck",
                "--corpus", str(scen_out / "dump"),
                "--claims", str(scen_out / "claims.json"),
                "--taxonomy", str(scen_out / "taxonomy.json"),
                "--out", str(out),
            ]
        )
        assert code == 1
        (run_dir,) = [p for p in Path(out).iterdir() if p.is_dir()]
        return (run_dir / "findings.json").read_bytes()

    def verify(out):
        code = run(
            [
                "verify",
                "--corpus", str(scen_out / "dump"),
                "--export", str(scen_out / "export.csv"),
                "--taxonomy", str(scen_out / "taxonomy.json"),
                "--window-start", "2024-01-01",
                "--window-end", "2024-02-01",
                "--out", str(out),
            ]
        )
        assert code == 1
        (run_dir,) = [p for p in Path(out).iterdir() if p.is_dir()]
        return (run_dir / "findings.json").read_bytes()

    assert crosscheck(tmp_path / "cc1") == crosscheck(tmp_path / "cc2")
    assert verify(tmp_path / "v1") == verify(tmp_path / "v2")
    print("\nACCEPTANCE C8 end-to-end determinism (byte-identical findings): PASS")
