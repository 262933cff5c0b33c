"""Traced run: each modaudit layer on one workload's inputs, in one process.

    PYTHONPATH=src python3 perfbench/trace.py --workload NAME --inputs DIR --out DIR --spans FILE

It stages the workload's subcommand the way the CLI wires it, but with a span
around each call into a layer's public function and each layer's input built
beforehand, so every span holds that layer's work alone. The layers the
subcommand does not use run after it on the same inputs: crosscheck inputs
also go through the verify layers over the workload's window, verify inputs
through the claims layers with synth's claims. Row validation is timed on
rows already split into dicts, and the parallel path with 2 workers.

Spans carry a name, a start, an end and their parent; they are kept in memory
and written to the --spans file at the end, with each span's self time (its
duration minus its children's). The last stdout line is one JSON object: the
per-layer metrics, the traced total of the subcommand's span, and the run
directory its staged pipeline wrote.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import time
from collections import Counter
from contextlib import contextmanager
from datetime import date
from pathlib import Path

from modaudit.aggregate import CellTally, Period, replicate_all
from modaudit.claims import load_claims, resolve_categories
from modaudit.cli import AppConfig, RunDir
from modaudit.crosscheck import ToleranceSpec, cross_check, finalize_results
from modaudit.ingest import open_corpus, open_platform_export
from modaudit.parallel import parallel_replicate
from modaudit.report import Severity, emit_report
from modaudit.sor import FIELD_ORDER, CategoryTaxonomy, validate_record
from modaudit.verify import (
    DEFAULT_DEADLINE_DAYS,
    KeywordClassifier,
    LinkConfig,
    link,
    reconstruct,
    verify_diff,
)

from workloads import WORKLOADS

VALIDATE_CHUNK = 20_000  # rows split into dicts at a time, to bound memory
PARALLEL_WORKERS = 2


class Tracer:
    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Time the block as a child of the innermost open span; the yielded
        dict takes counts recorded at the same boundary."""
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span["counts"]
        finally:
            span["end"] = time.perf_counter() - self._origin
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        children = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        spans = [
            {**s, "duration_s": s["end"] - s["start"], "self_s": s["end"] - s["start"] - children[s["id"]]}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"trace_id": self.trace_id, "spans": spans}, indent=1) + "\n", encoding="utf-8")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _severity_counts(findings) -> dict[str, int]:
    counts = {s.value: 0 for s in Severity}
    for f in findings:
        counts[f.severity.value] += 1
    return counts


def ingest(tr: Tracer, inputs: Path, taxonomy: CategoryTaxonomy, sink):
    with tr.span("ingest.read") as counts:
        reader = open_corpus(inputs / "dump", taxonomy, sink)
        records = list(reader)
    counts["rows"] = len(records)
    counts["quarantined"] = reader.manifest.quarantine_count
    return reader, records


def crosscheck_layers(tr: Tracer, inputs: Path, config: AppConfig, records, coverage):
    with tr.span("claims.load"):
        resolved, unresolvable = resolve_categories(load_claims(inputs / "claims.json"), config.taxonomy)
    replicable = [c for c in resolved if c.claim_id not in unresolvable]
    tally = CellTally.for_claims(list(resolved.claims)) if resolved.exhaustive else None
    with tr.span("aggregate.replicate") as counts:
        results = replicate_all(replicable, records, cell_tally=tally)
    counts["claim_rows"] = len(replicable) * len(records)
    with tr.span("crosscheck.check"):
        final = finalize_results(resolved, unresolvable, results, coverage)
        findings = cross_check(resolved, final, config.tolerance, cell_tally=tally)
    return findings


def block_pairs(reconstructed, filed) -> tuple[int, int]:
    """rec x filed pairs the fuzzy stage of link faces, all blocks and the
    largest: items left after puid matching, blocked by (content_type,
    application_date)."""
    shared = {r.puid for r in reconstructed if r.puid} & {s.puid for s in filed if s.puid}
    rec = Counter((r.content_type, r.application_date) for r in reconstructed if r.puid not in shared)
    sor = Counter((s.content_type, s.application_date) for s in filed if s.puid not in shared)
    sizes = [n * sor[key] for key, n in rec.items()]
    return sum(sizes), max(sizes, default=0)


def verify_layers(tr: Tracer, inputs: Path, config: AppConfig, records, window: Period, sink):
    with tr.span("ingest.export_read") as counts:
        export_reader = open_platform_export(inputs / "export.csv", sink)
        events = list(export_reader)
    counts["rows"] = len(events)
    classifier = KeywordClassifier.from_taxonomy(config.taxonomy)
    with tr.span("verify.reconstruct") as counts:
        reconstructed = reconstruct(events, classifier, window)
    counts["reconstructed"] = len(reconstructed)
    filed = [r for r in records if window.contains_date(r.application_date)]
    with tr.span("verify.link") as counts:
        linkage = link(reconstructed, filed, config.link)
    puid = sum(1 for rec, sor in linkage.pairs if rec.puid and rec.puid == sor.puid)
    counts["puid_pairs"] = puid
    counts["fuzzy_pairs"] = len(linkage.pairs) - puid
    with tr.span("verify.diff"):
        findings = verify_diff(linkage, config.deadline_days)
    manifest = {
        "export": {"events": export_reader.event_count, "quarantined": export_reader.quarantine_count},
        "window": window.to_json(),
        "reconstructed": len(reconstructed),
        "filed_in_window": len(filed),
    }
    return findings, manifest, (reconstructed, filed)


def emit_and_finish(tr: Tracer, run: RunDir, config: AppConfig, findings, manifest, inputs) -> None:
    """Write the run's outputs; its inputs are those the CLI records."""
    with tr.span("report.emit") as counts:
        text = emit_report(findings, "json")
    counts["bytes"] = len(text.encode("utf-8"))
    run.write("findings.json", text)
    run.write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    own = inputs / ("claims.json" if run.command[0] == "crosscheck" else "export.csv")
    run.track_inputs(*sorted((inputs / "dump").glob("*.csv")), own)
    with tr.span("cli.finish"):
        run.finish(config, manifest, _severity_counts(findings))


def validate_rows(tr: Tracer, inputs: Path, taxonomy: CategoryTaxonomy) -> None:
    for path in sorted((inputs / "dump").glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            while True:
                raws = [
                    dict(zip(FIELD_ORDER, row))
                    for _, row in zip(range(VALIDATE_CHUNK), reader)
                    if len(row) == len(FIELD_ORDER)
                ]
                if not raws:
                    break
                with tr.span("sor.validate") as counts:
                    for raw in raws:
                        validate_record(raw, taxonomy)
                counts["rows"] = len(raws)


def replicate_parallel(tr: Tracer, inputs: Path, taxonomy: CategoryTaxonomy) -> None:
    resolved, unresolvable = resolve_categories(load_claims(inputs / "claims.json"), taxonomy)
    replicable = [c for c in resolved if c.claim_id not in unresolvable]
    tally = CellTally.for_claims(list(resolved.claims)) if resolved.exhaustive else None
    reader = open_corpus(inputs / "dump", taxonomy)
    with tr.span("parallel.replicate") as counts:
        before = _cpu_s()
        parallel_replicate(reader, replicable, PARALLEL_WORKERS, cell_tally=tally)
        counts["cpu_s"] = _cpu_s() - before


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    inputs = Path(args.inputs)
    window = Period(date.fromisoformat(workload.window[0]), date.fromisoformat(workload.window[1]))
    tr = Tracer(Path(args.spans).stem)
    top = f"cli.{workload.subcommand}"

    with tr.span(top):
        taxonomy_path = inputs / "taxonomy.json"
        config = AppConfig(
            taxonomy=CategoryTaxonomy.from_file(taxonomy_path),
            taxonomy_path=taxonomy_path,
            tolerance=ToleranceSpec(),
            link=LinkConfig(),
            deadline_days=DEFAULT_DEADLINE_DAYS,
            severity_threshold=Severity.WARN,
        )
        run = RunDir(args.out, [workload.subcommand, str(inputs)])
        sink = run.quarantine_sink()
        reader, records = ingest(tr, inputs, config.taxonomy, sink)
        coverage = reader.manifest.date_range
        if workload.subcommand == "crosscheck":
            findings = crosscheck_layers(tr, inputs, config, records, coverage)
            manifest = reader.manifest.to_dict()
        else:
            findings, manifest, link_inputs = verify_layers(tr, inputs, config, records, window, sink)
            manifest["corpus"] = reader.manifest.to_dict()
        emit_and_finish(tr, run, config, findings, manifest, inputs)
    del findings

    with tr.span("unused-layers"):
        if workload.subcommand == "crosscheck":
            _, _, link_inputs = verify_layers(tr, inputs, config, records, window, None)
        else:
            crosscheck_layers(tr, inputs, config, records, coverage)
    pairs, largest = block_pairs(*link_inputs)
    del records, link_inputs
    validate_rows(tr, inputs, config.taxonomy)
    replicate_parallel(tr, inputs, config.taxonomy)
    tr.write(Path(args.spans))

    validated = tr.count("sor.validate", "rows")
    metrics = {
        "ingest.read_s": tr.seconds("ingest.read"),
        "ingest.rows": tr.count("ingest.read", "rows"),
        "ingest.quarantined": tr.count("ingest.read", "quarantined"),
        "sor.validate_s": tr.seconds("sor.validate"),
        "sor.validate_us_per_row": tr.seconds("sor.validate") / validated * 1e6,
        "ingest.export_read_s": tr.seconds("ingest.export_read"),
        "ingest.export_rows": tr.count("ingest.export_read", "rows"),
        "claims.load_s": tr.seconds("claims.load"),
        "aggregate.replicate_s": tr.seconds("aggregate.replicate"),
        "aggregate.ns_per_claim_row": tr.seconds("aggregate.replicate")
        / tr.count("aggregate.replicate", "claim_rows")
        * 1e9,
        "crosscheck.check_s": tr.seconds("crosscheck.check"),
        "verify.reconstruct_s": tr.seconds("verify.reconstruct"),
        "verify.reconstructed": tr.count("verify.reconstruct", "reconstructed"),
        "verify.diff_s": tr.seconds("verify.diff"),
        "verify.link_s": tr.seconds("verify.link"),
        "verify.puid_pairs": tr.count("verify.link", "puid_pairs"),
        "verify.fuzzy_pairs": tr.count("verify.link", "fuzzy_pairs"),
        "verify.block_pairs": pairs,
        "verify.largest_block": largest,
        "report.emit_s": tr.seconds("report.emit"),
        "report.findings_bytes": tr.count("report.emit", "bytes"),
        "cli.finish_s": tr.seconds("cli.finish"),
        "parallel.replicate_s": tr.seconds("parallel.replicate"),
        "parallel.cpu_s": tr.count("parallel.replicate", "cpu_s"),
    }
    print(json.dumps({"metrics": metrics, "traced_total_s": tr.seconds(top), "run_dir": str(run.path)}))


if __name__ == "__main__":
    main()
