"""Command-line interface.

Subcommands: validate, dea, cluster, pls, pipeline, demo. Exit codes:
0 success, 1 validation errors, 2 runtime errors. Diagnostics go to
stderr with stage context; stack traces never reach the user. Each command
parses its configuration once; the report it writes, and what a stage
command may reuse from report.json, are the pipeline module's business.

At import this module loads only errors, config and panel_data. Each
handler imports the stage modules it runs, so `validate` compiles no stage
code, `dea --period` only dea and linprog, and only `demo` loads the
synthetic generator. run_pipeline and emit_report stay names of this
module, resolved when called, so a caller can replace them here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .config import PipelineConfig, config_from_file, validate_config_dataset
from .errors import ConfigError, PanelEffError, StageError, ValidationFailedError
from .panel_data import load_panel, slice_period, write_panel_csv


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
    p.add_argument("--seed", type=int, help="dataset generator seed (default: synthetic.DEMO_SEED)")
    p.add_argument("--samples", type=int, default=500, help="bootstrap resamples")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=_cmd_demo)
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


def run_pipeline(config: PipelineConfig) -> dict:
    """pipeline.run_pipeline, with the pipeline loaded on the first call."""
    from . import pipeline

    return pipeline.run_pipeline(config)


def emit_report(report: dict, out_dir: str, formats) -> list[str]:
    """pipeline.emit_report, with the pipeline loaded on the first call."""
    from . import pipeline

    return pipeline.emit_report(report, out_dir, formats)


def _emit(args, config: PipelineConfig, report: dict) -> int:
    for path in emit_report(report, config.output_dir, config.formats):
        _note(args, f"wrote {path}")
    return 0


def _run(args, config: PipelineConfig) -> dict | None:
    """run_pipeline's report, written out; None after a stage failure,
    once the partial report the failure carries is written."""
    try:
        report = run_pipeline(config)
    except StageError as exc:
        _err(args, f"stage error in {exc.stage}: {exc}")
        try:
            emit_report(exc.partial_report, config.output_dir, config.formats)
        except (PanelEffError, OSError) as write_exc:
            _err(args, f"partial report not written: {write_exc}")
        else:
            _note(args, f"partial report (INCOMPLETE) written to {config.output_dir}")
        return None
    _emit(args, config, report)
    return report


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
    return 2 if _run(args, config) is None else 0


def _cmd_dea(args) -> int:
    config = _load_config(args)
    if args.period is None:
        from .pipeline import chain_report, load_dataset, run_dea_stage

        return _emit(args, config, chain_report(config, dea=run_dea_stage(config, load_dataset(config))))
    from .dea import require_valid, score_period

    panel = load_panel(config.dataset_path, config.schema, config.transforms)
    for analysis in config.dea_analyses:
        require_valid(panel, analysis.spec)
    for analysis in config.dea_analyses:
        cs = slice_period(panel, args.period, analysis.spec)  # raises lookup error
        print(f"analysis {analysis.name}, period {args.period}")
        for dmu, score in zip(cs.dmus, score_period(cs, analysis.spec)):
            print(f"  {dmu}  {score:.7f}")
    return 0


def _cmd_cluster(args) -> int:
    config = _load_config(args)
    if config.cluster is None:
        raise ConfigError("configuration has no cluster stage")
    from .pipeline import chain_cluster_stage

    return _emit(args, config, chain_cluster_stage(config))


def _cmd_pls(args) -> int:
    config = _load_config(args)
    if config.pls is None:
        raise ConfigError("configuration has no pls stage")
    from .pipeline import chain_report, load_dataset, run_pls_stage

    return _emit(args, config, chain_report(config, pls=run_pls_stage(config, load_dataset(config))))


def _cmd_demo(args) -> int:
    from .pipeline import render_text
    from .synthetic import DEMO_SEED, make_demo_config, make_demo_panel

    out = args.out
    os.makedirs(out, exist_ok=True)
    panel = make_demo_panel(DEMO_SEED if args.seed is None else args.seed)
    dataset_path = os.path.join(out, "dataset.csv")
    write_panel_csv(panel, dataset_path)
    document = make_demo_config("dataset.csv", "reports", bootstrap_samples=args.samples)
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _note(args, f"wrote {dataset_path} and {config_path}")

    config = config_from_file(config_path)
    report = _run(args, config)
    if report is None:
        return 2
    if not args.quiet:
        print(render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
