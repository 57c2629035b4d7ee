"""Command-line interface.

Subcommands: validate, dea, cluster, pls, pipeline, demo. Exit codes:
0 success, 1 validation or configuration errors, 2 runtime errors.
Diagnostics go to stderr with stage context; stack traces never reach the
user. Each command parses its configuration once. pipeline and the stage
commands dea, cluster and pls share one handler, which runs its stages
through run_pipeline and prints each stage error once: a stage failure
exits 2 once the partial report it carries, if any, is written, and a
dataset that fails DEA validation exits 1 with nothing written. The
report, and what a stage command may reuse from report.json, are the
pipeline module's business.

At import this module loads only errors, config and panel_data. Each
handler imports the stage modules it runs, so `validate` compiles no stage
code, `dea --period` only dea and linprog, and only `demo` loads the
synthetic generator. The other commands load pipeline, which imports a
stage's modules only when that stage runs: `dea` adds dea and linprog,
`cluster` cluster and distributions, `pls` pls and distributions, and
`pipeline` those of its configured stages. run_pipeline and emit_report
stay names of this module, resolved when called, so a caller can replace
them here.

main is the process entry point (the console script and `python -m
paneleff.cli`): it runs cli_main and freezes the heap before the process
exits, so the interpreter's exit-time collection skips what the run left.
In-process callers use cli_main, which leaves the heap collectable.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import __version__, _lazy
from .config import PipelineConfig, config_from_file, validate_config_dataset
from .errors import ConfigError, PanelEffError, StageError, ValidationFailedError
from .panel_data import load_panel, slice_period, write_panel_csv

# one OpenBLAS thread unless the user sets a count (numpy is not loaded yet): a
# threaded product splits by core count, and the bootstrap's last bits move with it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


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
    except PanelEffError as exc:
        _err(args, f"error: {exc}")
        return 2
    except OSError as exc:
        _err(args, f"filesystem error: {exc}")
        return 2
    except Exception as exc:  # contract: never a bare stack trace
        _err(args, f"internal error: {type(exc).__name__}: {exc}")
        return 2


def main(argv=None) -> int:
    code = cli_main(argv)
    gc.freeze()
    return code


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
    p.set_defaults(handler=_cmd_run, stage=None)

    p = sub.add_parser("dea", help="run the DEA stage (writes/updates report.json)")
    common(p)
    p.add_argument("--period", help="solve a single period and print its table")
    p.set_defaults(handler=_cmd_dea, stage="dea")

    p = sub.add_parser("cluster", help="run the cluster stage from an existing DEA report")
    common(p)
    p.set_defaults(handler=_cmd_run, stage="cluster")

    p = sub.add_parser("pls", help="run the path-model stage (writes/updates report.json)")
    common(p)
    p.set_defaults(handler=_cmd_run, stage="pls")

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
    formats = tuple(dict.fromkeys(args.formats)) if args.formats else config.formats
    return config._replace(output_dir=args.out or config.output_dir, formats=formats)


run_pipeline = _lazy("pipeline", "run_pipeline")
emit_report = _lazy("pipeline", "emit_report")


def _run(args, config: PipelineConfig, stage: str | None) -> int:
    """Write run_pipeline's report and return 0, or print the stage error
    and return 2 once the partial report it carries, if any, is written."""
    try:
        report = run_pipeline(config, stage)
    except StageError as exc:
        _err(args, f"stage error in {exc.stage}: {exc}")
        if exc.partial_report is not None:
            try:
                emit_report(exc.partial_report, config.output_dir, config.formats)
            except (PanelEffError, OSError) as write_exc:
                _err(args, f"partial report not written: {write_exc}")
            else:
                _note(args, f"partial report (INCOMPLETE) written to {config.output_dir}")
        return 2
    for path in emit_report(report, config.output_dir, config.formats):
        _note(args, f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    analyses, stages = validate_config_dataset(config)
    reports = [*((f"analysis {name}", r) for name, r in analyses.items()),
               *((f"{stage} stage", r) for stage, r in stages.items())]
    for heading, report in reports:
        print(f"{heading}: {report.summary()}")
    return 0 if all(report.ok for _, report in reports) else 1


def _cmd_run(args) -> int:
    """pipeline (stage None) and the stage commands."""
    config = _load_config(args)
    _note(args, f"running stages: {', '.join(config.stages if args.stage is None else [args.stage])}")
    return _run(args, config, args.stage)


def _cmd_dea(args) -> int:
    if args.period is None:
        return _cmd_run(args)
    config = _load_config(args)
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


def _cmd_demo(args) -> int:
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
    code = _run(args, config, None)
    if code == 0 and not args.quiet:
        # the demo configuration always emits report.txt
        with open(os.path.join(config.output_dir, "report.txt"), encoding="utf-8") as fh:
            print(fh.read())
    return code


if __name__ == "__main__":
    sys.exit(main())
