"""Benchmark workloads: a dataset and a pipeline configuration per seed.

Every workload is built from the public ``PanelDataset`` and
``write_panel_csv`` (or the bundled demo generator), so the program under
test receives nothing but a CSV file and a JSON configuration. The same
seed always produces the same files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from paneleff.panel_data import PanelDataset, VariableDef, write_panel_csv
from paneleff.synthetic import make_demo_config, make_demo_panel

FORMATS = ["json", "csv", "text"]
CLUSTER_SEED = 271998
BOOTSTRAP_SEED = 271999


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], tuple]  # seed -> (PanelDataset, configuration document)


@dataclass(frozen=True)
class BuiltWorkload:
    name: str
    directory: str
    config_path: str
    panel: PanelDataset
    document: dict


def _schema_doc(schema) -> list:
    return [{"name": v.name, "role": v.role, "direction": v.direction} for v in schema]


def _dea_pair(rng, size, n_in, n_out):
    """One period of DEA data: inputs scale with DMU size; outputs are
    size times an efficiency draw U(0.4, 1), each jittered by U(0.5, 1.5)."""
    n = size.size
    inputs = size[:, None] * rng.uniform(0.5, 1.5, (n, n_in))
    outputs = rng.uniform(0.4, 1.0, (n, 1)) * size[:, None] * rng.uniform(0.5, 1.5, (n, n_out))
    return inputs, outputs


def build_demo(seed: int):
    return make_demo_panel(seed), make_demo_config("dataset.csv", "reports")


DEA_WIDE_DMUS = 40
DEA_WIDE_PERIODS = 4
DEA_WIDE_SCHEMA = tuple(
    [VariableDef(f"x{i + 1}", "dea_input") for i in range(3)]
    + [VariableDef(f"y{r + 1}", "dea_output") for r in range(2)]
)


def build_dea_wide(seed: int):
    rng = np.random.default_rng(seed)
    size = rng.uniform(10.0, 1000.0, DEA_WIDE_DMUS)
    values = np.empty((DEA_WIDE_DMUS, DEA_WIDE_PERIODS, len(DEA_WIDE_SCHEMA)))
    for p in range(DEA_WIDE_PERIODS):
        inputs, outputs = _dea_pair(rng, size, 3, 2)
        values[:, p, :3] = inputs
        values[:, p, 3:] = outputs
    panel = PanelDataset(
        tuple(f"D{d + 1:02d}" for d in range(DEA_WIDE_DMUS)),
        tuple(str(2001 + p) for p in range(DEA_WIDE_PERIODS)),
        DEA_WIDE_SCHEMA,
        values,
    )
    inputs = ["x1", "x2", "x3"]
    outputs = ["y1", "y2"]
    document = {
        "dataset": {"path": "dataset.csv", "schema": _schema_doc(DEA_WIDE_SCHEMA)},
        "dea": [
            {"name": "crs_in", "inputs": inputs, "outputs": outputs,
             "returns_to_scale": "CRS", "orientation": "input"},
            {"name": "vrs_out", "inputs": inputs, "outputs": outputs,
             "returns_to_scale": "VRS", "orientation": "output"},
        ],
        "cluster": {"k_max": 9, "k_min": 3, "restarts": 32, "seed": CLUSTER_SEED,
                    "significance": 0.05},
        "output": {"directory": "reports", "formats": FORMATS},
    }
    return panel, document


PLS_DMUS = 12
PLS_PERIODS = 60
PLS_LATENTS = ("A", "B", "C", "D")
PLS_INDICATORS = 3
PLS_CHAIN_COEF = 0.6
PLS_SCHEMA = tuple(
    [VariableDef("x", "dea_input"), VariableDef("y", "dea_output")]
    + [VariableDef(f"{lat.lower()}{j + 1}", "indicator")
       for lat in PLS_LATENTS for j in range(PLS_INDICATORS)]
)


def build_pls_heavy(seed: int):
    rng = np.random.default_rng(seed)
    n_rows = PLS_DMUS * PLS_PERIODS
    values = np.empty((PLS_DMUS, PLS_PERIODS, len(PLS_SCHEMA)))

    size = rng.uniform(10.0, 1000.0, PLS_DMUS)
    for p in range(PLS_PERIODS):
        inputs, outputs = _dea_pair(rng, size, 1, 1)
        values[:, p, 0] = inputs[:, 0]
        values[:, p, 1] = outputs[:, 0]

    # latent chain A -> B -> C -> D, each latent with unit variance
    latents = [rng.normal(size=n_rows)]
    for _ in PLS_LATENTS[1:]:
        noise = rng.normal(size=n_rows) * np.sqrt(1.0 - PLS_CHAIN_COEF ** 2)
        latents.append(PLS_CHAIN_COEF * latents[-1] + noise)
    col = 2
    for latent in latents:
        for _ in range(PLS_INDICATORS):
            loading = rng.uniform(0.6, 0.8)
            noise = rng.normal(size=n_rows) * np.sqrt(1.0 - loading ** 2)
            values[:, :, col] = (50.0 + 10.0 * (loading * latent + noise)).reshape(PLS_DMUS, PLS_PERIODS)
            col += 1

    panel = PanelDataset(
        tuple(f"P{d + 1:02d}" for d in range(PLS_DMUS)),
        tuple(str(1961 + p) for p in range(PLS_PERIODS)),
        PLS_SCHEMA,
        values,
    )
    blocks = [
        {"latent": lat, "indicators": [f"{lat.lower()}{j + 1}" for j in range(PLS_INDICATORS)]}
        for lat in PLS_LATENTS
    ]
    chain = [["A", "B"], ["B", "C"], ["C", "D"]]
    document = {
        "dataset": {"path": "dataset.csv", "schema": _schema_doc(PLS_SCHEMA)},
        "dea": [
            {"name": "size", "inputs": ["x"], "outputs": ["y"],
             "returns_to_scale": "CRS", "orientation": "input"},
        ],
        "pls": {
            "models": [
                {"name": "weighted", "blocks": blocks, "paths": chain + [["A", "C"], ["B", "D"]],
                 "inner_scheme": "path_weighting"},
                {"name": "centroid", "blocks": blocks, "paths": chain,
                 "inner_scheme": "centroid"},
            ],
            "bootstrap": {"samples": 1000, "seed": BOOTSTRAP_SEED},
        },
        "output": {"directory": "reports", "formats": FORMATS},
    }
    return panel, document


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo", "the paper's 27x10 case and the ROADMAP baseline; time splits "
                 "about 40% DEA (setup-bound tiny LPs) and 55% PLS bootstrap", build_demo),
        Workload("dea_wide", "3x2 CRS-input plus VRS-output DEA on 40 DMUs: pivot-bound solver "
                 "work, k=9 label matching, and no PLS stage as the PLS control", build_dea_wide),
        Workload("pls_heavy", "720 pooled rows, two 4-latent x 3-indicator models with 1000 "
                 "resamples: bootstrap-bound, multi-iteration ALS, no cluster stage", build_pls_heavy),
    )
}


def build(name: str, seed: int, directory: str) -> BuiltWorkload:
    """Write the workload's dataset.csv and config.json into directory."""
    panel, document = WORKLOADS[name].build(seed)
    os.makedirs(directory, exist_ok=True)
    write_panel_csv(panel, os.path.join(directory, "dataset.csv"))
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return BuiltWorkload(name, directory, config_path, panel, document)
