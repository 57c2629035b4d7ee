"""Pipeline configuration: the records a configuration document parses
into, and the checks that need only the configuration and its dataset.

Parsing validates each DEA analysis and path model as it reads it, so the
specs it builds (DeaSpec, LatentBlock, PathModelSpec) are defined here and
the dea and pls modules import them. This module loads nothing beyond
errors and panel_data, so a command that reads a configuration and its
dataset without running a stage (validate, dea --period) never loads the
solver, cluster, PLS or report code.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

from .errors import ConfigError, PanelEffError, UsageError
from .panel_data import (
    TRANSFORM_METHODS,
    Finding,
    PanelDataset,
    ValidationReport,
    VariableDef,
    cell_findings,
    load_panel,
    validate_for_dea,
)

FORMATS = ("csv", "json", "text")

RETURNS_TO_SCALE = ("CRS", "VRS")
ORIENTATIONS = ("input", "output")
INNER_SCHEMES = ("path_weighting", "centroid")
MIN_BOOTSTRAP_SAMPLES = 100


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class DeaSpec:
    """Configuration of one DEA analysis: variable lists, returns to scale,
    and orientation."""

    input_vars: tuple[str, ...]
    output_vars: tuple[str, ...]
    returns_to_scale: str = "CRS"
    orientation: str = "input"

    def __post_init__(self):
        object.__setattr__(self, "input_vars", tuple(self.input_vars))
        object.__setattr__(self, "output_vars", tuple(self.output_vars))
        if not self.input_vars or not self.output_vars:
            raise UsageError("input_vars and output_vars must be non-empty")
        if set(self.input_vars) & set(self.output_vars):
            raise UsageError("input_vars and output_vars must be disjoint")
        if self.returns_to_scale not in RETURNS_TO_SCALE:
            raise UsageError(f"returns_to_scale must be one of {RETURNS_TO_SCALE}")
        if self.orientation not in ORIENTATIONS:
            raise UsageError(f"orientation must be one of {ORIENTATIONS}")


@dataclass(frozen=True)
class LatentBlock:
    """A reflective (mode A) latent variable and its indicator columns."""

    name: str
    indicators: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "indicators", tuple(self.indicators))
        if not self.name:
            raise UsageError("latent name must be non-empty")
        if not self.indicators:
            raise UsageError(f"latent {self.name!r} needs at least one indicator")


@dataclass(frozen=True)
class PathModelSpec:
    """Latent blocks plus directed structural paths; the path graph must be
    acyclic and every indicator belongs to exactly one block."""

    blocks: tuple[LatentBlock, ...]
    paths: tuple[tuple[str, str], ...]
    inner_scheme: str = "path_weighting"

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "paths", tuple((str(a), str(b)) for a, b in self.paths))
        if self.inner_scheme not in INNER_SCHEMES:
            raise UsageError(f"inner_scheme must be one of {INNER_SCHEMES}")
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise UsageError("latent names must be unique")
        seen: dict[str, str] = {}
        for b in self.blocks:
            for ind in b.indicators:
                if ind in seen:
                    raise UsageError(f"indicator {ind!r} appears in blocks {seen[ind]!r} and {b.name!r}")
                seen[ind] = b.name
        known = set(names)
        if not self.paths:
            raise UsageError("a path model needs at least one structural path")
        for a, b in self.paths:
            if a not in known or b not in known:
                raise UsageError(f"path ({a!r}, {b!r}) references an unknown latent")
            if a == b:
                raise UsageError(f"self-path on latent {a!r}")
        if len(set(self.paths)) != len(self.paths):
            raise UsageError("duplicate structural path")
        _toposort(names, self.paths)  # raises on cycles
        connected = {a for a, _ in self.paths} | {b for _, b in self.paths}
        isolated = known - connected
        if isolated:
            raise UsageError(f"latents {sorted(isolated)} appear in no structural path")

    @property
    def latent_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks)

    @property
    def indicator_names(self) -> tuple[str, ...]:
        return tuple(ind for b in self.blocks for ind in b.indicators)

    def predecessors(self, latent: str) -> tuple[str, ...]:
        return tuple(a for a, b in self.paths if b == latent)

    def successors(self, latent: str) -> tuple[str, ...]:
        return tuple(b for a, b in self.paths if a == latent)

    @property
    def endogenous(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks if self.predecessors(b.name))


def _toposort(names, paths):
    order = []
    pending = {n: set(a for a, b in paths if b == n) for n in names}
    while pending:
        ready = sorted(n for n, deps in pending.items() if not deps)
        if not ready:
            raise UsageError(f"path graph contains a cycle among {sorted(pending)}")
        for n in ready:
            order.append(n)
            del pending[n]
        for deps in pending.values():
            deps.difference_update(ready)
    return order


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class DeaAnalysisConfig:
    name: str
    spec: DeaSpec


@dataclass(frozen=True)
class ClusterStageConfig:
    k_max: int
    k_min: int
    significance: float


@dataclass(frozen=True)
class PlsModelConfig:
    name: str
    spec: PathModelSpec


@dataclass(frozen=True)
class CobbDouglasConfig:
    ict_var: str
    health_vars: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class PlsStageConfig:
    models: tuple[PlsModelConfig, ...]
    bootstrap_samples: int
    bootstrap_seed: int
    cobb_douglas: tuple[CobbDouglasConfig, ...] = ()


@dataclass(frozen=True)
class PipelineConfig:
    dataset_path: str
    schema: tuple[VariableDef, ...]
    transforms: tuple[tuple[str, str], ...]
    dea_analyses: tuple[DeaAnalysisConfig, ...]
    cluster: ClusterStageConfig | None
    pls: PlsStageConfig | None
    output_dir: str
    formats: tuple[str, ...]
    config_hash: str

    @property
    def stages(self) -> tuple[str, ...]:
        """The stages a pipeline run of this configuration runs, in order."""
        return ("dea",) + tuple(stage for stage in ("cluster", "pls") if getattr(self, stage) is not None)

    def with_seed(self, seed: int) -> "PipelineConfig":
        """Override the bootstrap seed (the --seed flag), the only seed of a
        run; a configuration without a pls stage has no seed to override."""
        if self.pls is None:
            raise ConfigError("--seed sets the bootstrap seed and needs a pls stage; "
                              "this configuration has none")
        return replace(self, pls=replace(self.pls, bootstrap_seed=_seed({"seed": seed}, "--seed")))


def config_from_file(path) -> PipelineConfig:
    """Parse and validate a configuration file; the provenance hash covers
    the raw file bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not a valid JSON document: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))
    return parse_config(document, config_hash=hashlib.sha256(raw).hexdigest(), base_dir=base)


def parse_config(document: dict, config_hash: str | None = None, base_dir: str | None = None) -> PipelineConfig:
    """Validate a configuration document and resolve relative paths against
    base_dir (the config file's directory)."""
    if config_hash is None:
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
        config_hash = hashlib.sha256(canonical).hexdigest()
    if not isinstance(document, dict):
        raise ConfigError("configuration must be a JSON object")

    dataset = _require(document, "dataset", dict)
    path = _require(dataset, "path", str)
    if base_dir and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    schema_entries = _require(dataset, "schema", list)
    if not schema_entries:
        raise ConfigError("dataset.schema must not be empty")
    schema = []
    for entry in schema_entries:
        if not isinstance(entry, dict) or "name" not in entry or "role" not in entry:
            raise ConfigError(f"dataset.schema entries need 'name' and 'role': {entry!r}")
        try:
            schema.append(VariableDef(_name(entry["name"], "dataset.schema"), entry["role"],
                                      entry.get("direction", "desirable")))
        except PanelEffError as exc:
            raise ConfigError(str(exc)) from exc
    names = {v.name: v for v in schema}
    if len(names) != len(schema):
        raise ConfigError("dataset.schema variable names must be unique")

    def known(name, where):
        if _name(name, where) not in names:
            raise ConfigError(f"{where} references unknown variable {name!r}")
        return name

    transforms = []
    for entry in _optional(dataset, "transforms", list, []):
        variable = known(_require(entry, "variable", str), "dataset.transforms")
        method = entry.get("method", "max_minus")
        if method not in TRANSFORM_METHODS:
            raise ConfigError(f"dataset.transforms: unknown method {method!r}")
        if names[variable].direction != "undesirable":
            raise ConfigError(f"dataset.transforms: variable {variable!r} is not marked undesirable")
        if any(variable == done for done, _ in transforms):
            raise ConfigError(f"dataset.transforms: variable {variable!r} is transformed twice")
        transforms.append((variable, method))

    analyses = []
    seen = set()
    for entry in _require(document, "dea", list):
        name = _file_name(entry, "name", "dea analysis")
        if name in seen:
            raise ConfigError(f"duplicate dea analysis name {name!r}")
        seen.add(name)
        inputs = [known(v, f"dea analysis {name!r}") for v in _require(entry, "inputs", list)]
        outputs = [known(v, f"dea analysis {name!r}") for v in _require(entry, "outputs", list)]
        try:
            spec = DeaSpec(
                tuple(inputs),
                tuple(outputs),
                entry.get("returns_to_scale", "CRS"),
                entry.get("orientation", "input"),
            )
        except PanelEffError as exc:
            raise ConfigError(f"dea analysis {name!r}: {exc}") from exc
        analyses.append(DeaAnalysisConfig(name, spec))
    if not analyses:
        raise ConfigError("at least one dea analysis is required")

    cluster = None
    if "cluster" in document and document["cluster"]:
        entry = document["cluster"]
        cluster = ClusterStageConfig(
            k_max=_require(entry, "k_max", int),
            k_min=_require(entry, "k_min", int),
            significance=_optional(entry, "significance", float, 0.05),
        )
        if not (cluster.k_max >= cluster.k_min >= 2):
            raise ConfigError("cluster stage needs k_max >= k_min >= 2")
        if not (0.0 < cluster.significance < 1.0):
            raise ConfigError("cluster.significance must be in (0, 1)")

    pls = None
    if "pls" in document and document["pls"]:
        entry = document["pls"]
        models = []
        model_names = set()
        for m in _require(entry, "models", list):
            mname = _require(m, "name", str)
            if mname in model_names:
                raise ConfigError(f"duplicate pls model name {mname!r}")
            model_names.add(mname)
            blocks = []
            for b in _require(m, "blocks", list):
                indicators = [known(i, f"pls model {mname!r}") for i in _require(b, "indicators", list)]
                blocks.append(LatentBlock(_require(b, "latent", str), tuple(indicators)))
            paths = tuple(_path_pair(p, mname) for p in _require(m, "paths", list))
            try:
                spec = PathModelSpec(tuple(blocks), paths, m.get("inner_scheme", "path_weighting"))
            except PanelEffError as exc:
                raise ConfigError(f"pls model {mname!r}: {exc}") from exc
            models.append(PlsModelConfig(mname, spec))
        if not models:
            raise ConfigError("pls stage needs at least one model")
        boot = _require(entry, "bootstrap", dict)
        samples = _optional(boot, "samples", int, 500)
        if samples < MIN_BOOTSTRAP_SAMPLES:
            raise ConfigError(f"pls.bootstrap.samples must be >= {MIN_BOOTSTRAP_SAMPLES}")
        cobb = []
        for c in _optional(entry, "cobb_douglas", list, []):
            baseline = CobbDouglasConfig(
                ict_var=known(_file_name(c, "ict_var", "pls.cobb_douglas"), "pls.cobb_douglas"),
                health_vars=tuple(known(v, "pls.cobb_douglas") for v in _require(c, "health_vars", list)),
                target=known(_file_name(c, "target", "pls.cobb_douglas"), "pls.cobb_douglas"),
            )
            if any((b.ict_var, b.target) == (baseline.ict_var, baseline.target) for b in cobb):
                raise ConfigError(f"pls.cobb_douglas: two baselines of {baseline.ict_var!r} "
                                  f"against target {baseline.target!r}")
            cobb.append(baseline)
        pls = PlsStageConfig(tuple(models), samples, _seed(boot, "pls.bootstrap.seed"), tuple(cobb))

    output = _optional(document, "output", dict, {})
    out_dir = _optional(output, "directory", str, "reports")
    if base_dir and not os.path.isabs(out_dir):
        out_dir = os.path.join(base_dir, out_dir)
    formats = _optional(output, "formats", list, ["json"])
    for f in formats:
        if f not in FORMATS:
            raise ConfigError(f"output.formats: unknown format {f!r} (choose from {FORMATS})")

    return PipelineConfig(
        dataset_path=path,
        schema=tuple(schema),
        transforms=tuple(transforms),
        dea_analyses=tuple(analyses),
        cluster=cluster,
        pls=pls,
        output_dir=out_dir,
        formats=tuple(dict.fromkeys(formats)) or ("json",),
        config_hash=config_hash,
    )


def _require(obj, key, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"missing required configuration key {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"configuration key {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ConfigError(f"configuration key {key!r} must be {kind.__name__}")
    return value


def _optional(obj, key, kind, default):
    """obj[key] checked as _require checks it, or default when obj has no key."""
    if isinstance(obj, dict) and key not in obj:
        return default
    return _require(obj, key, kind)


def _name(name, where) -> str:
    """A variable name, which must be a string."""
    if not isinstance(name, str):
        raise ConfigError(f"{where}: variable name {name!r} must be a string")
    return name


def _file_name(obj, key, where) -> str:
    """obj[key], a string that becomes part of report file names, so may
    hold no path separator or NUL."""
    name = _require(obj, key, str)
    if any(sep and sep in name for sep in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"{where} {key} {name!r} must not hold a path separator or NUL: it names report files")
    return name


def _path_pair(pair, model) -> tuple[str, str]:
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, str) for v in pair)):
        raise ConfigError(f"pls model {model!r}: each path must be a [from, to] pair of latent names, "
                          f"got {pair!r}")
    return pair[0], pair[1]


def _seed(obj, where) -> int:
    # stochastic stages must not fall back to implicit randomness
    if "seed" not in obj:
        raise ConfigError(f"{where} is required: stochastic stages need an explicit seed")
    seed = obj["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{where} must be a non-negative integer")
    return seed


# ---------------------------------------------------------------------------
# dataset checks


def validate_config_dataset(config: PipelineConfig) -> tuple[dict[str, ValidationReport], ValidationReport | None]:
    """validate_for_dea for every configured analysis, keyed by name, and
    with a PLS stage the report of the cells it cannot use."""
    panel = load_panel(config.dataset_path, config.schema, config.transforms)
    dea = {a.name: validate_for_dea(panel, a.spec) for a in config.dea_analyses}
    return dea, ValidationReport(tuple(_unusable_pls_cells(config.pls, panel))) if config.pls else None


def _unusable_pls_cells(cfg: PlsStageConfig, panel: PanelDataset) -> list[Finding]:
    """`cell_findings` of the variables the PLS stage reads, model
    indicators first: each must be finite, and a Cobb-Douglas variable,
    which the stage logs, strictly positive."""
    indicators = [i for m in cfg.models for i in m.spec.indicator_names]
    logged = [v for c in cfg.cobb_douglas for v in (c.ict_var, *c.health_vars, c.target)]
    return [finding for name in dict.fromkeys(indicators + logged)
            for finding in cell_findings(panel, (name,), positive=name in logged)]
