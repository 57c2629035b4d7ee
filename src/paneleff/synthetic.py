"""Bundled synthetic demo dataset: 27 DMUs x 10 periods with a planted
three-tier efficiency structure.

Tier targets are exact: one dominant DMU holds the best input/output ratio
in every period of both analyses (so its efficiency is 1.0 in every period
and its mean is exactly 1.0), and the remaining DMUs sit in two tiers whose
within-tier spread (~1e-9) is far below the between-tier separation. The
tier memberships coincide across the "ict" and "health" analyses, so the
cluster correspondence table agrees on every DMU.

Indicator variables for the path-model stage share a per-observation
development factor with tier membership, giving the infrastructure ->
outcome paths strong positive (and, for mortality, negative) coefficients.
"""

from __future__ import annotations

import numpy as np

from .panel_data import PanelDataset, VariableDef

DEMO_SEED = 19982007

N_DMUS = 27
N_PERIODS = 10
_PERIODS = tuple(str(y) for y in range(1998, 1998 + N_PERIODS))

# tier 0 is the single dominant DMU; tiers 1 and 2 hold 16 and 10 DMUs
_TIER_SIZES = (1, 16, 10)
_TIER_LEVELS = {
    "ict": (1.0, 0.88, 0.58),
    "health": (1.0, 0.76, 0.52),
}
_WITHIN_TIER_JITTER = 1e-9
_PER_PERIOD_JITTER = 1e-10

DEMO_SCHEMA = (
    VariableDef("ict_spend", "dea_input"),
    VariableDef("ict_services", "dea_output"),
    VariableDef("health_spend", "dea_input"),
    VariableDef("health_outcomes", "dea_output"),
    VariableDef("mcs", "indicator"),
    VariableDef("iu", "indicator"),
    VariableDef("mtl", "indicator"),
    VariableDef("leb", "indicator"),
    VariableDef("imr", "indicator", "undesirable"),
    VariableDef("hec", "indicator"),
    VariableDef("hgdp", "indicator"),
)


def demo_tiers() -> tuple[int, ...]:
    """Planted tier index per DMU, in DMU order."""
    tiers = []
    for t, size in enumerate(_TIER_SIZES):
        tiers.extend([t] * size)
    return tuple(tiers)


def demo_dmus() -> tuple[str, ...]:
    return tuple(f"C{i + 1:02d}" for i in range(N_DMUS))


def make_demo_panel(seed: int = DEMO_SEED) -> PanelDataset:
    """Generate the bundled synthetic panel, deterministically from seed."""
    rng = np.random.default_rng(seed)
    tiers = demo_tiers()
    n_vars = len(DEMO_SCHEMA)
    values = np.zeros((N_DMUS, N_PERIODS, n_vars))
    col = {v.name: i for i, v in enumerate(DEMO_SCHEMA)}

    # Efficiency targets per analysis: exact tier level plus a per-DMU
    # offset far below the tier separation (and a smaller per-period one),
    # except the dominant DMU which stays exactly on target.
    for analysis, (in_var, out_var) in {
        "ict": ("ict_spend", "ict_services"),
        "health": ("health_spend", "health_outcomes"),
    }.items():
        levels = _TIER_LEVELS[analysis]
        dmu_offset = rng.uniform(-_WITHIN_TIER_JITTER, _WITHIN_TIER_JITTER, N_DMUS)
        dmu_offset[0] = 0.0
        size = rng.uniform(40.0, 400.0, N_DMUS)
        growth = rng.uniform(1.0, 1.04, N_PERIODS).cumprod()
        for d in range(N_DMUS):
            for p in range(N_PERIODS):
                target = levels[tiers[d]] + dmu_offset[d]
                if d > 0:
                    target += rng.uniform(-_PER_PERIOD_JITTER, _PER_PERIOD_JITTER)
                x = size[d] * growth[p]
                values[d, p, col[in_var]] = x
                values[d, p, col[out_var]] = target * x

    # Indicators: a shared development factor tied to tier quality drives
    # infrastructure indicators up, outcome indicators up, and mortality down.
    quality = {0: 1.6, 1: 0.7, 2: -1.1}
    for d in range(N_DMUS):
        for p in range(N_PERIODS):
            dev = quality[tiers[d]] + rng.normal(0.0, 0.35)
            values[d, p, col["mcs"]] = max(55.0 + 18.0 * dev + rng.normal(0.0, 4.0), 1.0)
            values[d, p, col["iu"]] = max(30.0 + 10.0 * dev + rng.normal(0.0, 3.0), 0.5)
            values[d, p, col["mtl"]] = max(12.0 + 4.0 * dev + rng.normal(0.0, 1.5), 0.2)
            values[d, p, col["leb"]] = max(58.0 + 7.0 * dev + rng.normal(0.0, 2.0), 30.0)
            values[d, p, col["imr"]] = max(70.0 - 16.0 * dev + rng.normal(0.0, 5.0), 2.0)
            values[d, p, col["hec"]] = max(95.0 + 35.0 * dev + rng.normal(0.0, 12.0), 5.0)
            values[d, p, col["hgdp"]] = max(5.5 + 1.1 * dev + rng.normal(0.0, 0.5), 0.5)

    return PanelDataset(demo_dmus(), _PERIODS, DEMO_SCHEMA, values)


def make_demo_config(dataset_path: str = "dataset.csv", out_dir: str = "reports",
                     bootstrap_samples: int = 500) -> dict:
    """The pipeline configuration document that drives the bundled demo."""
    pls_models = []
    for ict in ("mcs", "iu", "mtl"):
        blocks = [{"latent": ict.upper(), "indicators": [ict]}]
        paths = []
        for health in ("leb", "hec", "hgdp", "imr"):
            blocks.append({"latent": health.upper(), "indicators": [health]})
            paths.append([ict.upper(), health.upper()])
        pls_models.append({
            "name": ict,
            "blocks": blocks,
            "paths": paths,
            "inner_scheme": "path_weighting",
        })
    return {
        "dataset": {
            "path": dataset_path,
            "schema": [
                {"name": v.name, "role": v.role, "direction": v.direction}
                for v in DEMO_SCHEMA
            ],
        },
        "dea": [
            {
                "name": "ict",
                "inputs": ["ict_spend"],
                "outputs": ["ict_services"],
                "returns_to_scale": "CRS",
                "orientation": "input",
            },
            {
                "name": "health",
                "inputs": ["health_spend"],
                "outputs": ["health_outcomes"],
                "returns_to_scale": "CRS",
                "orientation": "input",
            },
        ],
        "cluster": {
            "k_max": 6,
            "k_min": 3,
            "significance": 0.05,
        },
        "pls": {
            "models": pls_models,
            "bootstrap": {"samples": bootstrap_samples, "seed": 271999},
            "cobb_douglas": [
                {"ict_var": "mcs", "health_vars": ["imr", "hec", "hgdp"], "target": "leb"}
            ],
        },
        "output": {"directory": out_dir, "formats": ["json", "csv", "text"]},
    }
