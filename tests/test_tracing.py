import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

from paneleff.cli import cli_main
from paneleff.panel_data import write_panel_csv
from paneleff.synthetic import make_demo_config, make_demo_panel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracer_target_resolves():
    # perfbench/tracing.py wraps these module attributes by name and skips
    # any it cannot find, so a renamed or moved function goes untraced
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_a_traced_pipeline_run_records_every_stage_span_once(tmp_path):
    # a call that routes around a wrapped name leaves its span out, and the
    # benchmark's per-layer numbers then read zero
    write_panel_csv(make_demo_panel(), tmp_path / "dataset.csv")
    document = make_demo_config("dataset.csv", "reports", bootstrap_samples=100)
    (tmp_path / "config.json").write_text(json.dumps(document))
    argv = ["pipeline", "--config", str(tmp_path / "config.json"), "--format", "json", "--quiet"]
    code, spans, _ = load_tracing().Tracer().run("cli", lambda: cli_main(argv))
    assert code == 0
    names = Counter(span[1] for span in spans)
    stages = ("pipeline.run", "pipeline.load", "pipeline.dea_stage", "pipeline.cluster_stage",
              "pipeline.pls_stage", "pipeline.emit")
    assert {name: names[name] for name in stages} == dict.fromkeys(stages, 1)
    # the stage code calls these through pipeline's names, which load their
    # stage module when called; a stage that bound the function itself
    # would route around the wrapper
    analyses, models, baselines = (len(document["dea"]), len(document["pls"]["models"]),
                                   len(document["pls"]["cobb_douglas"]))
    calls = {"dea.run_panel_dea": analyses, "cluster.sweep_k": analyses, "pls.fit_path_model": models,
             "pls.bootstrap": models, "pls.ols": baselines}
    assert {name: names[name] for name in calls} == calls
    assert min(calls.values()) > 0
