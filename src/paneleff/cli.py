"""Command-line interface.

Subcommands: validate, dea, cluster, pls, pipeline, demo. Exit codes:
0 success, 1 validation errors, 2 runtime errors. Diagnostics go to
stderr with stage context; stack traces never reach the user.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .dea import require_valid, score_period
from .errors import ConfigError, PanelEffError, StageError, ValidationFailedError
from .panel_data import slice_period, write_panel_csv
from .pipeline import (
    REPORT_BASENAME,
    PipelineConfig,
    ReportBundle,
    build_provenance,
    config_from_file,
    emit_report,
    load_dataset,
    render_text,
    run_cluster_stage,
    run_dea_stage,
    run_pls_stage,
    run_pipeline,
    unrun_report,
    validate_config_dataset,
)
from .synthetic import DEMO_SEED, make_demo_config, make_demo_panel


def main(argv=None) -> int:
    return cli_main(argv)


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        _err(args, f"configuration error: {exc}")
        return 1
    except ValidationFailedError as exc:
        _err(args, f"validation failed: {exc}")
        return 1
    except StageError as exc:
        _err(args, f"stage error in {exc.stage}: {exc}")
        if exc.partial_bundle is not None:
            try:
                config = args.load_config(args)
                emit_report(exc.partial_bundle, config.output_dir, config.formats)
                _note(args, f"partial report (INCOMPLETE) written to {config.output_dir}")
            except (PanelEffError, OSError):
                pass
        return 2
    except PanelEffError as exc:
        _err(args, f"error: {exc}")
        return 2
    except OSError as exc:
        _err(args, f"filesystem error: {exc}")
        return 2
    except Exception as exc:  # contract: never a bare stack trace
        _err(args, f"internal error: {type(exc).__name__}: {exc}")
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paneleff",
        description="DEA efficiency scoring, cluster validation, and PLS path modeling over panel data",
    )
    parser.add_argument("--version", action="version", version=f"paneleff {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None, quiet=False)

    def common(p):
        p.add_argument("--config", required=True, help="pipeline configuration JSON")
        p.add_argument("--out", help="output directory (overrides the configuration)")
        p.add_argument("--format", dest="formats", action="append", choices=("csv", "json", "text"),
                       help="report format (repeatable; overrides the configuration)")
        p.add_argument("--seed", type=int, help="override the bootstrap seed (needs a pls stage)")
        p.add_argument("--quiet", action="store_true", help="suppress progress notes")
        p.set_defaults(load_config=_load_config)

    p = sub.add_parser("validate", help="check a configuration and its dataset")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("pipeline", help="run all configured stages")
    common(p)
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("dea", help="run the DEA stage (writes/updates report.json)")
    common(p)
    p.add_argument("--period", help="solve a single period and print its table")
    p.set_defaults(handler=_cmd_dea)

    p = sub.add_parser("cluster", help="run the cluster stage from an existing DEA report")
    common(p)
    p.set_defaults(handler=_cmd_cluster)

    p = sub.add_parser("pls", help="run the path-model stage (writes/updates report.json)")
    common(p)
    p.set_defaults(handler=_cmd_pls)

    p = sub.add_parser("demo", help="generate the bundled synthetic dataset and run the pipeline")
    p.add_argument("--out", default="paneleff_demo", help="directory for dataset, config, and reports")
    p.add_argument("--seed", type=int, default=DEMO_SEED, help="dataset generator seed")
    p.add_argument("--samples", type=int, default=500, help="bootstrap resamples")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=_cmd_demo, load_config=_demo_config)
    return parser


def _note(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _err(args, message: str) -> None:
    print(message, file=sys.stderr)


def _load_config(args) -> PipelineConfig:
    """The configuration file with --seed, --format and --out applied."""
    config = config_from_file(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return replace(
        config,
        output_dir=args.out or config.output_dir,
        formats=tuple(dict.fromkeys(args.formats)) if args.formats else config.formats,
    )


def _demo_config(args) -> PipelineConfig:
    """The configuration `paneleff demo` wrote into its --out directory."""
    return config_from_file(os.path.join(args.out, "config.json"))


def _emit(args, config: PipelineConfig, bundle: ReportBundle) -> int:
    for path in emit_report(bundle, config.output_dir, config.formats):
        _note(args, f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    reports, pls = validate_config_dataset(config)
    failed = False
    for name, report in reports.items():
        print(f"analysis {name}: {report.summary()}")
        failed = failed or not report.ok
    if pls is not None:
        print(f"pls stage: {pls.summary()}")
        failed = failed or not pls.ok
    return 1 if failed else 0


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    _note(args, "running dea, cluster, and pls stages")
    return _emit(args, config, run_pipeline(config))


def _cmd_dea(args) -> int:
    config = _load_config(args)
    panel = load_dataset(config)
    if args.period is not None:
        for analysis in config.dea_analyses:
            require_valid(panel, analysis.spec)
        for analysis in config.dea_analyses:
            cs = slice_period(panel, args.period, analysis.spec)  # raises lookup error
            print(f"analysis {analysis.name}, period {args.period}")
            for dmu, score in zip(cs.dmus, score_period(cs, analysis.spec)):
                print(f"  {dmu}  {score:.7f}")
        return 0
    section = run_dea_stage(config, panel)
    return _emit(args, config, _merge_stage(config, _read_report(config), dea=section))


def _cmd_cluster(args) -> int:
    config = _load_config(args)
    if config.cluster is None:
        raise ConfigError("configuration has no cluster stage")
    existing = _read_report(config)
    if existing is None or not existing.dea or "pending" in existing.dea:
        raise StageError("cluster", "no DEA results of this configuration and seed on disk; "
                                    "run the dea stage first")
    cluster_section, correspondence = run_cluster_stage(config, existing.dea)
    bundle = _merge_stage(config, existing, cluster=cluster_section, correspondence=correspondence)
    return _emit(args, config, bundle)


def _cmd_pls(args) -> int:
    config = _load_config(args)
    if config.pls is None:
        raise ConfigError("configuration has no pls stage")
    section = run_pls_stage(config, load_dataset(config))
    return _emit(args, config, _merge_stage(config, _read_report(config), pls=section))


def _read_report(config: PipelineConfig) -> ReportBundle | None:
    """The report.json of this configuration and seed in the output
    directory, or None. A report of another run, or a file that is not a
    well-formed report (truncated, not JSON, missing a key, a section of
    the wrong shape), counts as absent."""
    path = os.path.join(config.output_dir, f"{REPORT_BASENAME}.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = ReportBundle.from_json(fh.read())
        if report.provenance != build_provenance(config) or not _well_formed(report, config):
            return None
    except (ValueError, KeyError, TypeError, AttributeError, IndexError):
        return None
    # report.json has sorted keys; tables and text follow configuration order
    dea_names = [a.name for a in config.dea_analyses]
    cluster = report.cluster
    if "analyses" in cluster:
        cluster = {**cluster, "analyses": _in_order(cluster["analyses"], dea_names)}
    pls = report.pls
    if "models" in pls:
        pls = {**pls, "models": _in_order(pls["models"], [m.name for m in config.pls.models])}
    return replace(report, dea=_in_order(report.dea, dea_names), cluster=cluster, pls=pls)


def _well_formed(report: ReportBundle, config: PipelineConfig) -> bool:
    """Whether each section of a report is a JSON object that the emitter
    renders, the sections of a stage the configuration lacks are skipped,
    and the DEA section, which the cluster stage reads, is pending or one
    table per configured analysis. A malformed section may also raise."""
    if not all(isinstance(s, dict) for s in (report.dea, report.cluster, report.correspondence, report.pls)):
        return False
    skipped = {"skipped": True}
    if config.cluster is None and (report.cluster, report.correspondence) != (skipped, skipped):
        return False
    if config.pls is None and report.pls != skipped:
        return False
    render_text(report)
    return "pending" in report.dea or set(report.dea) == {a.name for a in config.dea_analyses}


def _in_order(section: dict, names) -> dict:
    """section with the entries named in names first, in that order."""
    rank = {name: i for i, name in enumerate(names)}
    return dict(sorted(section.items(), key=lambda item: rank.get(item[0], len(rank))))


def _merge_stage(config: PipelineConfig, existing: ReportBundle | None, **fresh) -> ReportBundle:
    """The on-disk report, or without one the unrun report, with freshly
    computed sections in place of its own."""
    return replace(existing or unrun_report(config), incomplete=None, **fresh)


def _cmd_demo(args) -> int:
    out = args.out
    os.makedirs(out, exist_ok=True)
    panel = make_demo_panel(args.seed)
    dataset_path = os.path.join(out, "dataset.csv")
    write_panel_csv(panel, dataset_path)
    document = make_demo_config("dataset.csv", "reports", bootstrap_samples=args.samples)
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _note(args, f"wrote {dataset_path} and {config_path}")

    config = _demo_config(args)
    bundle = run_pipeline(config)
    _emit(args, config, bundle)
    if not args.quiet:
        print(render_text(bundle))
    return 0


if __name__ == "__main__":
    sys.exit(main())
