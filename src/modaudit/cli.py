"""Command-line driver wiring the audit pipelines.

Every data-touching subcommand persists its run under <out>/<run_id>/ with
fixed file names (findings.json, quarantine.log, manifest.json, run.json);
run.json is written last and only on successful completion. Findings files are
byte-identical across runs over identical inputs.

Exit codes: 0 completed with no findings at or above the severity threshold,
1 completed with such findings, 2 usage or config error, 3 input error.

Each subcommand imports the pipeline modules it runs inside its own function,
so that an invocation loads, and without bytecode compiles, only those.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import resource
import secrets
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Mapping, NoReturn, Sequence, TextIO

from .aggregate import Period
from .ingest import CorpusReader, IngestError, open_corpus, open_platform_export
from .report import (
    REPORT_FORMATS,
    Severity,
    emit_report,
    meets_threshold,
    parse_severity,
    severity_counts,
    write_report,
)
from .settings import DEFAULT_DEADLINE_DAYS, LinkConfig, ToleranceSpec, _integer, _known_keys, _number
from .sor import (
    CategoryTaxonomy,
    JsonInputError,
    TaxonomyError,
    default_taxonomy,
    informativeness_profile,
    json_text,
    read_json,
)


class ConfigError(Exception):
    pass


class InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors are ConfigErrors, so that they leave as one
    `error:` line with exit code 2; its subparsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


@dataclass
class AppConfig:
    taxonomy: CategoryTaxonomy
    taxonomy_path: Path | None
    tolerance: ToleranceSpec
    link: LinkConfig
    deadline_days: int
    severity_threshold: Severity
    parallel: int = 1
    extra_inputs: list[Path] = field(default_factory=list)


_CONFIG_KEYS = ("taxonomy", "tolerance", "linkage", "deadline_days", "severity_threshold")

# Fraction or decimal text of bounded digits, with no exponent and no zero
# denominator, so that run.json can always print the value as read.
_FRACTION_TEXT = re.compile(r"[0-9]{1,50}(/0{0,49}[1-9][0-9]{0,49}|\.[0-9]{1,50})?")

# C0, DEL, C1, U+2028 and U+2029 as Python escapes, so that an error message stays one line.
_CONTROL_ESCAPES = {code: ascii(chr(code))[1:-1] for code in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


def _read_value(value: object, default: object, name: str) -> object:
    """`value` read, uncoerced, as the kind of `default`: bool, int, float or Fraction."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        return value
    if isinstance(default, int):
        return _integer(value, name)
    if isinstance(default, float):
        return float(_number(value, name))
    if not isinstance(value, str):
        return Fraction(str(_number(value, name)))
    if not _FRACTION_TEXT.fullmatch(value):
        raise ConfigError(f'{name} must be a finite number or a fraction such as "7/10", got {value!r}')
    return Fraction(value)


def _read_section(cls, data: Mapping[str, object], section: str):
    """`cls` built from one config section: an absent field keeps its default."""
    _known_keys(data, (f.name for f in fields(cls)), section)
    given = [f for f in fields(cls) if f.name in data]
    return cls(**{f.name: _read_value(data[f.name], f.default, f"{section}.{f.name}") for f in given})


def _resolve_config(args: argparse.Namespace) -> AppConfig:
    """Precedence: flags > config file > defaults."""
    file_data: dict = {}
    extra_inputs: list[Path] = []
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        try:
            file_data = read_json(path, "config file")
        except JsonInputError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(file_data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, kind, what in (
            ("taxonomy", str, "a string"),
            ("tolerance", dict, "an object"),
            ("linkage", dict, "an object"),
        ):
            if file_data.get(key) is not None and not isinstance(file_data[key], kind):
                raise ConfigError(f"config file {path}: {key!r} must be {what}")
        extra_inputs.append(path)

    taxonomy_arg = getattr(args, "taxonomy", None) or file_data.get("taxonomy")
    taxonomy_path: Path | None = None
    if taxonomy_arg:
        taxonomy_path = Path(taxonomy_arg)
        try:
            taxonomy = CategoryTaxonomy.from_file(taxonomy_path)
        except JsonInputError as exc:
            raise InputError(str(exc)) from None
        except TaxonomyError as exc:
            raise InputError(f"bad taxonomy {taxonomy_path}: {exc}") from None
        extra_inputs.append(taxonomy_path)
    else:
        taxonomy = default_taxonomy()

    try:
        _known_keys(file_data, _CONFIG_KEYS, f"config file {config_path}")
        tolerance = _read_section(ToleranceSpec, file_data.get("tolerance") or {}, "tolerance")
        link_config = _read_section(LinkConfig, file_data.get("linkage") or {}, "linkage")
        deadline_days = _integer(file_data.get("deadline_days", DEFAULT_DEADLINE_DAYS), "deadline_days")
        if not 0 <= deadline_days <= timedelta.max.days:
            raise ValueError(f"deadline_days must be a non-negative integer <= 999999999, got {deadline_days}")
        threshold_text = getattr(args, "severity_threshold", None) or file_data.get("severity_threshold", "warn")
        threshold = parse_severity(str(threshold_text))
        parallel = getattr(args, "parallel", 1)
        if parallel is None:
            parallel = _usable_cpus()
        if parallel < 1:
            raise ValueError(f"--parallel must be at least 1, got {parallel}")
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None

    return AppConfig(
        taxonomy=taxonomy,
        taxonomy_path=taxonomy_path,
        tolerance=tolerance,
        link=link_config,
        deadline_days=deadline_days,
        severity_threshold=threshold,
        parallel=parallel,
        extra_inputs=extra_inputs,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _config_snapshot(config: AppConfig) -> dict[str, object]:
    def block(spec) -> dict[str, object]:
        return {k: str(v) if isinstance(v, Fraction) else v for k, v in asdict(spec).items()}

    return {
        "taxonomy": str(config.taxonomy_path) if config.taxonomy_path else "<builtin>",
        "tolerance": block(config.tolerance),
        "linkage": block(config.link),
        "deadline_days": config.deadline_days,
        "severity_threshold": config.severity_threshold.value,
        "parallel": config.parallel,
    }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class RunDir:
    """Audit-run persistence: fixed file names, run.json written once, last.

    Use it as a context manager: leaving the block closes quarantine.log on
    every path, including an error that leaves no run.json.
    """

    def __init__(self, out_base: str | Path, command: Sequence[str]) -> None:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
        self.run_id = f"{stamp}-{secrets.token_hex(3)}"
        self.path = Path(out_base) / self.run_id
        self.path.mkdir(parents=True, exist_ok=False)
        self.command = list(command)
        self.inputs: list[Path] = []
        self._output_paths: dict[str, Path] = {}
        self._quarantine_fh = None
        self.quarantine_by_reason: Counter[str] = Counter()
        self.quarantine_by_file: Counter[str] = Counter()

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._quarantine_fh is not None:
            self._quarantine_fh.close()
            self._quarantine_fh = None

    def track_inputs(self, *paths: Path) -> None:
        self.inputs.extend(paths)

    def quarantine_sink(self) -> Callable:
        log_path = self.path / "quarantine.log"
        self._quarantine_fh = open(log_path, "w", encoding="utf-8")
        self._output_paths["quarantine.log"] = log_path

        def sink(entry) -> None:
            self.quarantine_by_reason[entry.reason.value] += 1
            self.quarantine_by_file[entry.file] += 1
            self._quarantine_fh.write(entry.to_json_line() + "\n")

        return sink

    @contextmanager
    def open(self, name: str) -> Iterator[TextIO]:
        """Register output `name` and yield a UTF-8 text handle to stream it."""
        target = self.path / name
        self._output_paths[name] = target
        with open(target, "w", encoding="utf-8") as fh:
            yield fh

    def write(self, name: str, text: str) -> None:
        with self.open(name) as fh:
            fh.write(text)

    def finish(self, config: AppConfig, manifest: dict, finding_counts: dict[str, int]) -> None:
        """Write manifest.json, then run.json: the resolved config, a digest of
        every input (the config file included) and of every output, and the
        run's metrics. run.json is the last file written."""
        self.write("manifest.json", json_text(manifest))
        self.close()
        record = {
            "run_id": self.run_id,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "command": self.command,
            "config": _config_snapshot(config),
            "input_digests": {str(p): _sha256(p) for p in sorted({*self.inputs, *config.extra_inputs})},
            "manifest": manifest,
            "finding_counts": finding_counts,
            "outputs": {
                name: {"path": str(path), "sha256": _sha256(path)}
                for name, path in sorted(self._output_paths.items())
            },
            "metrics": {
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "quarantine_by_reason": dict(self.quarantine_by_reason),
                "quarantine_by_file": dict(self.quarantine_by_file),
            },
        }
        (self.path / "run.json").write_text(json_text(record), encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    with RunDir(args.out, ["validate", str(args.corpus)]) as run:
        reader = open_corpus(args.corpus, config.taxonomy, run.quarantine_sink())
        for _ in reader:
            pass
        manifest = reader.manifest.to_dict()
        run.track_inputs(*reader.files)
        run.finish(config, manifest, severity_counts(()))
        print(
            f"validated {manifest['record_count']} record(s), "
            f"quarantined {manifest['quarantine_count']} row(s) -> {run.path}"
        )
        return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    with RunDir(args.out, ["profile", str(args.corpus)]) as run:
        reader = open_corpus(args.corpus, config.taxonomy, run.quarantine_sink())
        profile = informativeness_profile(reader)
        manifest = reader.manifest.to_dict()
        run.write("profile.json", json_text(profile))
        run.track_inputs(*reader.files)
        run.finish(config, manifest, severity_counts(()))
        print(f"profiled {manifest['record_count']} record(s) -> {run.path}")
        return 0


def _load_claimset(path: str) -> object:
    from .claims import ClaimsError, load_claims

    try:
        return load_claims(path)
    except (ClaimsError, JsonInputError) as exc:
        raise InputError(str(exc)) from None


def _cmd_replicate(args: argparse.Namespace) -> int:
    from .crosscheck import replicate_claims

    config = _resolve_config(args)
    claimset = _load_claimset(args.claims)
    with RunDir(args.out, ["replicate", str(args.corpus), str(args.claims)]) as run:
        sink = run.quarantine_sink()
        reader = open_corpus(args.corpus, config.taxonomy, sink)
        _resolved, results, _tally = replicate_claims(
            claimset, reader, config.taxonomy, workers=config.parallel
        )
        run.write("results.json", json_text([r.to_dict() for r in results]))
        run.track_inputs(*reader.files, Path(args.claims))
        run.finish(config, reader.manifest.to_dict(), severity_counts(()))
        print(f"replicated {len(results)} claim(s) -> {run.path}")
        return 0


def _finish_with_findings(run: RunDir, config: AppConfig, manifest: dict, findings, fmt: str, label: str) -> int:
    """Write the findings files and the run record; return the exit code that
    the findings' severity_counts call for at the threshold. write_report
    reads `findings` once per file, so they must be a list or a
    VerificationFindings."""
    with run.open("findings.json") as fh:
        write_report(findings, "json", fh)
    if fmt != "json":
        with run.open(f"findings.{'md' if fmt == 'markdown' else fmt}") as fh:
            write_report(findings, fmt, fh)
    counts = severity_counts(findings)
    run.finish(config, manifest, counts)
    print(f"{label}: {counts['critical']} critical, {counts['warn']} warn, {counts['info']} info -> {run.path}")
    return 1 if any(counts[s.value] for s in Severity if meets_threshold(s, config.severity_threshold)) else 0


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    from .crosscheck import run_crosscheck

    config = _resolve_config(args)
    claimset = _load_claimset(args.claims)
    with RunDir(args.out, ["crosscheck", str(args.corpus), str(args.claims)]) as run:
        sink = run.quarantine_sink()
        reader = open_corpus(args.corpus, config.taxonomy, sink)
        findings, _results = run_crosscheck(
            claimset, reader, config.taxonomy, config.tolerance, workers=config.parallel
        )
        run.track_inputs(*reader.files, Path(args.claims))
        return _finish_with_findings(run, config, reader.manifest.to_dict(), findings, args.format, "cross-check")


def _parse_window(args: argparse.Namespace) -> Period | None:
    """The audit window the flags give, or None when they give none."""
    if args.window_start and args.window_end:
        try:
            return Period.parse({"start": args.window_start, "end": args.window_end})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if args.window_start or args.window_end:
        raise ConfigError("--window-start and --window-end must be given together")
    return None


def _hull_window(export_reader: CorpusReader) -> Period:
    """The whole days that hold every moderation time of a pass over the export."""
    if export_reader.manifest.date_range is None:
        raise InputError("export holds no events and no window was given")
    first, last = export_reader.manifest.date_range
    try:
        end = last.date() + timedelta(days=1)
    except OverflowError:
        raise InputError(
            f"export has events on {last.date().isoformat()}, the last representable day, "
            "so no window can hold them"
        ) from None
    return Period(start=first.date(), end=end, field="application_date")


def _released(items: list) -> Iterator:
    """Yield `items` in order, dropping each from the list as it is yielded,
    so that the list keeps none of them alive."""
    for i, item in enumerate(items):
        items[i] = None
        yield item


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import (
        DIFF_FIELDS,
        UNDIFFED_FIELDS,
        KeywordClassifier,
        LinkageError,
        link_outcomes,
        reconstruct,
        verify_diff,
    )

    config = _resolve_config(args)
    window = _parse_window(args)
    with RunDir(args.out, ["verify", str(args.export), str(args.corpus)]) as run:
        sink = run.quarantine_sink()

        # The export streams through reconstruction. Without a window every
        # event lies inside the hull of all events, so an unbounded pass
        # rebuilds what the hull window would.
        export_reader = open_platform_export(args.export, sink)
        classifier = KeywordClassifier.from_taxonomy(config.taxonomy)
        reconstructed = reconstruct(export_reader, classifier, window)
        if window is None:
            window = _hull_window(export_reader)

        # The dump streams through the puid join: each rebuilt item and filed
        # record is dropped once its pair is diffed.
        corpus_reader = open_corpus(args.corpus, config.taxonomy, sink)
        start, end = window.start, window.end  # window.contains_date, without a call per record
        filed = (
            r
            for r in corpus_reader
            if start <= r.application_date < end and (not args.platform or r.platform_name == args.platform)
        )
        outcomes = link_outcomes(_released(reconstructed), filed, config.link)
        try:
            findings = verify_diff(outcomes, config.deadline_days)
        except LinkageError as exc:
            raise InputError(str(exc)) from None
        export = export_reader.manifest
        manifest = {
            "export": {"events": export.record_count, "quarantined": export.quarantine_count},
            "corpus": corpus_reader.manifest.to_dict(),
            "window": window.to_json(),
            "reconstructed": outcomes.reconstructed_count,
            "filed_in_window": outcomes.filed_count,
            "diffed_fields": list(DIFF_FIELDS),
            "undiffed_fields": list(UNDIFFED_FIELDS),
            "linkage": {"puid_pairs": outcomes.puid_pairs, "fuzzy_pairs": outcomes.fuzzy_pairs},
        }
        run.track_inputs(Path(args.export), *corpus_reader.files)
        return _finish_with_findings(run, config, manifest, findings, args.format, "verify")


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import ScenarioConfig, ScenarioError, generate

    try:
        config = ScenarioConfig.from_file(args.scenario)
        if args.seed is not None:
            config = ScenarioConfig.from_dict({**config.to_dict(), "seed": args.seed})
        artifacts = generate(config, args.out)
    except JsonInputError as exc:
        raise ConfigError(str(exc)) from None
    except ScenarioError as exc:
        raise ConfigError(f"bad scenario config: {exc}") from None
    print(
        f"scenario written: export={artifacts.export_path} dump={artifacts.dump_dir} "
        f"claims={artifacts.claims_path} ground-truth={artifacts.ground_truth_path}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.findings)
    try:
        rows = read_json(path, "findings file")
    except JsonInputError as exc:
        raise InputError(str(exc)) from None
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise InputError(f"findings file {path} must hold a JSON array of objects")
    # Rendered whole before any of it is printed: the JSON renderer recurses
    # once per nesting level, so a document nested near the parser's limit
    # can fail part way.
    try:
        text = emit_report(rows, args.format)
    except RecursionError:
        raise InputError(f"findings file {path} nests too deeply to render as {args.format}") from None
    # UTF-8 whatever the locale, like every file modaudit writes
    sys.stdout.buffer.write(text.encode("utf-8"))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="modaudit",
        description="Batch auditing of content-moderation transparency data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, fmt: bool = True, parallel: bool = False) -> None:
        p.add_argument("--taxonomy", help="category taxonomy JSON file")
        p.add_argument("--config", help="declarative config JSON file")
        p.add_argument("--out", default="runs", help="directory for run output (default: runs)")
        p.add_argument(
            "--severity-threshold",
            choices=[s.value for s in Severity],
            help="lowest severity that drives a nonzero exit code (default: warn)",
        )
        if parallel:
            p.add_argument(
                "--parallel",
                type=int,
                help="processes that read the dump, one run of files each (default: the usable CPUs)",
            )
        if fmt:
            p.add_argument(
                "--format", choices=REPORT_FORMATS, default="json", help="extra findings format"
            )

    p = sub.add_parser("validate", help="ingest a corpus and report quarantine stats")
    p.add_argument("--corpus", required=True, help="SoR dump directory")
    common(p, fmt=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("profile", help="attribute fill-rate report over a corpus")
    p.add_argument("--corpus", required=True)
    common(p, fmt=False)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("replicate", help="replicate claims against a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--claims", required=True, help="claims JSON file")
    common(p, fmt=False, parallel=True)
    p.set_defaults(func=_cmd_replicate)

    p = sub.add_parser("crosscheck", help="compare report claims with replicated aggregates")
    p.add_argument("--corpus", required=True)
    p.add_argument("--claims", required=True)
    common(p, parallel=True)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("verify", help="verify filed statements against a platform export")
    p.add_argument("--corpus", required=True)
    p.add_argument("--export", required=True, help="platform export CSV")
    p.add_argument("--platform", help="restrict filed statements to one platform name")
    p.add_argument("--window-start", help="audit window start date (YYYY-MM-DD)")
    p.add_argument("--window-end", help="audit window end date, exclusive (YYYY-MM-DD)")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", default="scenario-out", help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="render a findings JSON file")
    p.add_argument("findings", help="findings.json produced by crosscheck or verify")
    p.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, once the text is printed
        return 0 if exc.code in (0, None) else 2
    except ConfigError as exc:
        message, code = str(exc), 2
    except (InputError, IngestError, OSError) as exc:
        message, code = str(exc), 3
    print(f"error: {message.translate(_CONTROL_ESCAPES)}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
