from __future__ import annotations

import hashlib
from datetime import date

import pytest

from modaudit.aggregate import Period
from modaudit.claims import load_claims
from modaudit.crosscheck import FindingKind, run_crosscheck
from modaudit.ingest import open_corpus, open_platform_export
from modaudit.sor import CategoryTaxonomy
from modaudit.synth import (
    ClaimPerturbation,
    GroundTruth,
    InjectionSpec,
    ScenarioConfig,
    ScenarioError,
    generate,
)
from modaudit.verify import KeywordClassifier, VerificationKind, link, reconstruct, verify_diff

from .test_cli import SCENARIO

WINDOW = Period(start=date(2024, 1, 1), end=date(2024, 2, 1))


def config(volume=120, seed=9, injections=None, **overrides):
    base = dict(
        seed=seed,
        platform="examplehub",
        window=WINDOW,
        volume=volume,
        category_mix={"hate_speech": 3, "misinformation": 2, "nudity": 1},
        automation_mix={"FULLY": 1, "NOT_AUTOMATED": 2, "PARTIALLY": 1},
        injections=injections or InjectionSpec(),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def audit(artifacts, window=WINDOW):
    """Run both pipelines over generated artifacts; returns flagged multisets."""
    taxonomy = CategoryTaxonomy.from_file(artifacts.taxonomy_path)
    claims = load_claims(artifacts.claims_path)
    reader = open_corpus(artifacts.dump_dir, taxonomy)
    findings, _ = run_crosscheck(claims, reader, taxonomy)
    flagged_cc = sorted(
        (f.claim_id, f.kind.value) for f in findings if f.kind is not FindingKind.MATCH
    )

    events = list(open_platform_export(artifacts.export_path))
    classifier = KeywordClassifier.from_taxonomy(taxonomy)
    reconstructed = reconstruct(events, classifier, window)
    filed = [
        r for r in open_corpus(artifacts.dump_dir, taxonomy) if window.contains_date(r.application_date)
    ]
    vfindings = verify_diff(link(reconstructed, filed))
    flagged_v = sorted(
        (f.content_id or "", f.sor_uuid or "", f.kind.value)
        for f in vfindings
        if f.kind is not VerificationKind.CONSISTENT
    )
    return findings, flagged_cc, vfindings, flagged_v


class TestDeterminism:
    def test_same_config_yields_byte_identical_artifacts(self, tmp_path):
        cfg = config(
            injections=InjectionSpec(drop_sor_rate=0.03, flip_automation_rate=0.02)
        )
        a = generate(cfg, tmp_path / "a")
        b = generate(cfg, tmp_path / "b")
        files_a = sorted(p.relative_to(a.out_dir) for p in a.out_dir.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b.out_dir) for p in b.out_dir.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a.out_dir / rel).read_bytes() == (b.out_dir / rel).read_bytes(), rel

    @pytest.mark.parametrize(
        "strip_puid,dump_digest",
        [
            (False, "6f07c72ca407aff7abdcab09b0dbdde1ba9afd8849be805fab69ffd162319eaa"),
            (True, "f4b6f7ba7a0cf8b9debc064c3b97a2a9126f06f1bd8f2d4d2cb1627e2c592fe4"),
        ],
    )
    def test_csv_files_keep_their_pinned_bytes(self, tmp_path, strip_puid, dump_digest):
        # Pinned digests of the two CSV files of a fixed scenario: a change to
        # either writer that moves one byte fails here.
        inj = InjectionSpec(
            drop_sor_rate=0.02,
            phantom_sor_rate=0.02,
            flip_automation_rate=0.02,
            shift_category_rate=0.02,
            late_filing_rate=0.02,
            strip_puid=strip_puid,
        )
        art = generate(config(volume=200, seed=31, injections=inj), tmp_path)
        digests = [
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (art.export_path, art.dump_dir / "part-00000.csv")
        ]
        assert digests == ["df34a1c1bc9c13b6b38f57802d438fb9336fa089356c4454420376cd03d344a6", dump_digest]

    def test_cli_scenario_keeps_its_pinned_bytes(self, tmp_path):
        # Every artifact of the scenario the CLI tests generate, pinned: the
        # benchmark's inputs come from synth, so a writer that moves one byte
        # of any of them fails here.
        art = generate(ScenarioConfig.from_dict(SCENARIO), tmp_path)
        digests = {
            str(path.relative_to(art.out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in art.out_dir.rglob("*")
            if path.is_file()
        }
        assert digests == {
            "claims.json": "c380973a00856f6764b3d9d169c3b52971fcca870565a585d8a3c3d25f984f2a",
            "dump/part-00000.csv": "edda89b1c31b15ddef2ed9c788598b209c6a097a4b974f90156610b08e8c6c37",
            "export.csv": "67122cbcaac6fb004857b1311ee2543438a2b6ee4c638cd70ad34cb729f3bc94",
            "ground_truth.json": "f092f7268ebc17858dc892d6026a15f5caa64e89add617817864cf58c222dde2",
            "scenario.json": "214927c492cdb7b2bca9b33182d02d4afb530b072a539263f72be72c3575ac42",
            "taxonomy.json": "850a7607cb727e9024eac98cb2aed2924cd7b850c1c4206a363c0f59cd718e72",
        }

    def test_different_seeds_differ(self, tmp_path):
        a = generate(config(seed=1), tmp_path / "a")
        b = generate(config(seed=2), tmp_path / "b")
        assert a.export_path.read_bytes() != b.export_path.read_bytes()


class TestClosure:
    def test_artifacts_parse_cleanly_with_zero_quarantine(self, tmp_path):
        art = generate(config(volume=150), tmp_path)
        taxonomy = CategoryTaxonomy.from_file(art.taxonomy_path)
        reader = open_corpus(art.dump_dir, taxonomy)
        records = list(reader)
        assert reader.manifest.quarantine_count == 0
        assert reader.manifest.record_count == len(records) == 150
        export = open_platform_export(art.export_path)
        events = list(export)
        assert export.quarantine_count == 0
        assert len(events) == 150 + 15  # moderated plus untouched filler
        load_claims(art.claims_path)  # must not raise

    def test_faithful_scenario_yields_only_match_and_consistent(self, tmp_path):
        art = generate(config(volume=200), tmp_path)
        findings, flagged_cc, vfindings, flagged_v = audit(art)
        assert flagged_cc == []
        assert flagged_v == []
        assert len(vfindings) == 200
        assert art.ground_truth.crosscheck_multiset() == []
        assert art.ground_truth.verification_multiset() == []


class TestInjectionBookkeeping:
    def test_drop_rate_realized_as_exact_count(self, tmp_path):
        art = generate(config(volume=100, injections=InjectionSpec(drop_sor_rate=0.05)), tmp_path)
        omitted = [e for e in art.ground_truth.verification if e[2] == "omitted_sor"]
        assert len(omitted) == 5
        taxonomy = CategoryTaxonomy.from_file(art.taxonomy_path)
        reader = open_corpus(art.dump_dir, taxonomy)
        assert sum(1 for _ in reader) == 95

    def test_half_up_rounding_of_injection_counts(self, tmp_path):
        art = generate(config(volume=110, injections=InjectionSpec(drop_sor_rate=0.05)), tmp_path)
        # 5.5 rounds half up to 6
        assert len(art.ground_truth.verification) == 6

    def test_each_injection_kind_maps_to_its_finding(self, tmp_path):
        inj = InjectionSpec(
            drop_sor_rate=0.02,
            phantom_sor_rate=0.02,
            flip_automation_rate=0.02,
            shift_category_rate=0.02,
            late_filing_rate=0.02,
        )
        art = generate(config(volume=200, seed=31, injections=inj), tmp_path)
        kinds = sorted(e[2] for e in art.ground_truth.verification)
        assert kinds.count("omitted_sor") == 4
        assert kinds.count("phantom_sor") == 4
        assert kinds.count("field_mismatch") == 8  # flips plus shifts
        assert kinds.count("late_submission") == 4
        _, flagged_cc, _, flagged_v = audit(art)
        assert flagged_cc == art.ground_truth.crosscheck_multiset()
        assert flagged_v == art.ground_truth.verification_multiset()

    def test_doubling_perturbation_yields_mismatch_ground_truth(self, tmp_path):
        inj = InjectionSpec(
            claim_perturbations=(ClaimPerturbation("examplehub-cat-hate_speech", factor=2.0),)
        )
        art = generate(config(volume=150, injections=inj), tmp_path)
        assert art.ground_truth.crosscheck_multiset() == [
            ("examplehub-cat-hate_speech", "mismatch")
        ]
        _, flagged_cc, _, _ = audit(art)
        assert flagged_cc == art.ground_truth.crosscheck_multiset()

    def test_verification_injections_never_leak_into_crosscheck(self, tmp_path):
        inj = InjectionSpec(drop_sor_rate=0.1, phantom_sor_rate=0.05, flip_automation_rate=0.1)
        art = generate(config(volume=200, injections=inj), tmp_path)
        _, flagged_cc, _, _ = audit(art)
        assert flagged_cc == []  # claims are aggregates of the published dump

    def test_ground_truth_file_round_trips(self, tmp_path):
        inj = InjectionSpec(drop_sor_rate=0.05, claim_perturbations=(
            ClaimPerturbation("examplehub-total", delta=1000),
        ))
        art = generate(config(volume=100, injections=inj), tmp_path)
        loaded = GroundTruth.from_file(art.ground_truth_path)
        assert loaded.crosscheck_multiset() == art.ground_truth.crosscheck_multiset()
        assert loaded.verification_multiset() == art.ground_truth.verification_multiset()


class TestConfigValidation:
    def test_volume_zero_is_valid_and_silent(self, tmp_path):
        art = generate(config(volume=0), tmp_path)
        findings, flagged_cc, vfindings, flagged_v = audit(art)
        assert flagged_cc == [] and flagged_v == []
        assert all(f.kind is FindingKind.MATCH for f in findings)
        assert list(vfindings) == []

    def test_rates_must_fit_the_volume(self, tmp_path):
        inj = InjectionSpec(drop_sor_rate=0.6, flip_automation_rate=0.6)
        with pytest.raises(ScenarioError, match="more records"):
            generate(config(volume=50, injections=inj), tmp_path)

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ScenarioError):
            InjectionSpec(drop_sor_rate=1.5)

    def test_perturbation_needs_exactly_one_mode(self):
        with pytest.raises(ScenarioError):
            ClaimPerturbation("c", delta=1, factor=2.0)
        with pytest.raises(ScenarioError):
            ClaimPerturbation("c")

    def test_noop_perturbation_rejected(self, tmp_path):
        inj = InjectionSpec(claim_perturbations=(ClaimPerturbation("examplehub-total", factor=1.0),))
        with pytest.raises(ScenarioError, match="undetectable"):
            generate(config(volume=50, injections=inj), tmp_path)

    def test_unknown_perturbation_target_rejected(self, tmp_path):
        inj = InjectionSpec(claim_perturbations=(ClaimPerturbation("nope", delta=5),))
        with pytest.raises(ScenarioError, match="unknown claim"):
            generate(config(volume=50, injections=inj), tmp_path)

    def test_shift_needs_two_categories(self, tmp_path):
        cfg = config(
            volume=50,
            category_mix={"hate_speech": 1},
            injections=InjectionSpec(shift_category_rate=0.1),
        )
        with pytest.raises(ScenarioError, match="two categories"):
            generate(cfg, tmp_path)

    def test_bad_mixes_rejected(self):
        with pytest.raises(ScenarioError):
            config(category_mix={})
        with pytest.raises(ScenarioError):
            config(automation_mix={"FULLY": -1})
        with pytest.raises(ScenarioError):
            config(automation_mix={"ROBOTIC": 1})

    def test_config_file_round_trip(self, tmp_path):
        cfg = config(injections=InjectionSpec(strip_puid=True, drop_sor_rate=0.1))
        path = tmp_path / "scenario.json"
        import json

        path.write_text(json.dumps(cfg.to_dict()))
        assert ScenarioConfig.from_file(path) == cfg


class TestStrippedPuidScenario:
    def test_fuzzy_linkage_recovers_pairs_without_puid(self, tmp_path):
        art = generate(
            config(volume=150, injections=InjectionSpec(strip_puid=True)), tmp_path
        )
        _, flagged_cc, vfindings, _ = audit(art)
        assert flagged_cc == []
        # every published statement must still pair up with its action
        kinds = {f.kind for f in vfindings}
        assert VerificationKind.PHANTOM_SOR not in kinds
