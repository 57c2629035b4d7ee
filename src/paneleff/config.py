"""Pipeline configuration: the records a configuration document parses
into, and the checks that need only the configuration and its dataset.

Parsing validates each DEA analysis and path model as it reads it, so the
specs it builds (DeaSpec, LatentBlock, PathModelSpec) are defined here and
the dea and pls modules import them. One reader, _fields, reads every
object of a document and declares the object's keys and their kinds once:
a key it does not declare, a missing required key, a value of the wrong
kind and a failed spec check are each a ConfigError (exit 1) naming the
JSON path of the key at fault. This module loads nothing beyond errors and
panel_data, so a command that reads a configuration and its dataset
without running a stage (validate, dea --period) never loads the solver,
cluster, PLS or report code.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

# the interpreter's own sha256, so that no command loads OpenSSL's libcrypto
# (hashlib does, about 3.5 MB); hashlib only where the build lacks it
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

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
# the bootstrap holds every replicate's row counts and fit at once, so its
# memory grows with the samples: at this bound a pipeline peaks at about
# 230 MB on the demo and 550 MB on the 720-row, 12-indicator pls_heavy
# benchmark panel
MAX_BOOTSTRAP_SAMPLES = 100_000


# ---------------------------------------------------------------------------
# specs


class _DeaSpec(NamedTuple):
    input_vars: tuple[str, ...]
    output_vars: tuple[str, ...]
    returns_to_scale: str = "CRS"
    orientation: str = "input"


class DeaSpec(_DeaSpec):
    """Configuration of one DEA analysis: variable lists, returns to scale,
    and orientation."""

    __slots__ = ()

    def __new__(cls, input_vars, output_vars, *args, **kwargs):
        self = super().__new__(cls, tuple(input_vars), tuple(output_vars), *args, **kwargs)
        if not self.input_vars or not self.output_vars:
            raise UsageError("input_vars and output_vars must be non-empty")
        if set(self.input_vars) & set(self.output_vars):
            raise UsageError("input_vars and output_vars must be disjoint")
        if self.returns_to_scale not in RETURNS_TO_SCALE:
            raise UsageError(f"returns_to_scale must be one of {RETURNS_TO_SCALE}")
        if self.orientation not in ORIENTATIONS:
            raise UsageError(f"orientation must be one of {ORIENTATIONS}")
        return self


class _LatentBlock(NamedTuple):
    name: str
    indicators: tuple[str, ...]


class LatentBlock(_LatentBlock):
    """A reflective (mode A) latent variable and its indicator columns."""

    __slots__ = ()

    def __new__(cls, name, indicators):
        self = super().__new__(cls, name, tuple(indicators))
        if not self.name:
            raise UsageError("latent name must be non-empty")
        if not self.indicators:
            raise UsageError(f"latent {self.name!r} needs at least one indicator")
        return self


class _PathModelSpec(NamedTuple):
    blocks: tuple[LatentBlock, ...]
    paths: tuple[tuple[str, str], ...]
    inner_scheme: str = "path_weighting"


class PathModelSpec(_PathModelSpec):
    """Latent blocks plus directed structural paths; the path graph must be
    acyclic and every indicator belongs to exactly one block."""

    __slots__ = ()

    def __new__(cls, blocks, paths, *args, **kwargs):
        self = super().__new__(cls, tuple(blocks), tuple((str(a), str(b)) for a, b in paths), *args, **kwargs)
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
        return self

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


class DeaAnalysisConfig(NamedTuple):
    name: str
    spec: DeaSpec


class ClusterStageConfig(NamedTuple):
    k_max: int
    k_min: int
    significance: float


class PlsModelConfig(NamedTuple):
    name: str
    spec: PathModelSpec


class CobbDouglasConfig(NamedTuple):
    ict_var: str
    health_vars: tuple[str, ...]
    target: str


class PlsStageConfig(NamedTuple):
    models: tuple[PlsModelConfig, ...]
    bootstrap_samples: int
    bootstrap_seed: int
    cobb_douglas: tuple[CobbDouglasConfig, ...] = ()


class PipelineConfig(NamedTuple):
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
        return self._replace(pls=self.pls._replace(bootstrap_seed=_seed(seed, "--seed")))


def config_from_file(path) -> PipelineConfig:
    """Parse and validate a configuration file; the provenance hash is the
    sha256 of the raw file bytes (this module's sha256: the interpreter's
    builtin one, hashlib's only where the build has none)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not a valid JSON document: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))
    return parse_config(document, config_hash=sha256(raw).hexdigest(), base_dir=base)


def parse_config(document: dict, config_hash: str | None = None, base_dir: str | None = None) -> PipelineConfig:
    """Validate a configuration document and resolve relative paths against
    base_dir (the config file's directory).

    Each of the document's objects is read by one call of _fields, which
    declares its keys and their kinds; whatever is wrong with a JSON
    document, a failed spec check included, is a ConfigError that names
    its JSON path."""
    if config_hash is None:
        try:
            canonical = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
        except (TypeError, ValueError) as exc:  # a key or value JSON cannot hold, or a cycle
            raise ConfigError(f"the configuration is not a JSON document: {exc}") from exc
        config_hash = sha256(canonical).hexdigest()
    dataset, dea, cluster, pls, output = _fields(
        document, "", dataset=dict, dea=[dict], cluster=(dict, None), pls=(dict, None), output=(dict, {}))
    path, schema_entries, transform_entries = _fields(
        dataset, "dataset", path=str, schema=[dict], transforms=([dict], []))
    if base_dir and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    if not schema_entries:
        raise ConfigError("dataset.schema must not be empty")
    schema = []
    for i, entry in enumerate(schema_entries):
        where = f"dataset.schema[{i}]"
        schema.append(_spec(where, VariableDef,
                            *_fields(entry, where, name=str, role=str, direction=(str, "desirable"))))
    names = {v.name: v for v in schema}
    if len(names) != len(schema):
        raise ConfigError("dataset.schema variable names must be unique")

    def known(name, at):
        """A variable name the schema declares."""
        if _check(name, str, at) not in names:
            raise ConfigError(f"{at} references unknown variable {name!r}")
        return name

    def known_file_part(name, at):
        return known(_file_part(name, at), at)

    transforms = []
    for i, entry in enumerate(transform_entries):
        where = f"dataset.transforms[{i}]"
        variable, method = _fields(entry, where, variable=known, method=(str, "max_minus"))
        if method not in TRANSFORM_METHODS:
            raise ConfigError(f"{where}: unknown method {method!r}")
        if names[variable].direction != "undesirable":
            raise ConfigError(f"{where}: variable {variable!r} is not marked undesirable")
        if any(variable == done for done, _ in transforms):
            raise ConfigError(f"{where}: variable {variable!r} is transformed twice")
        transforms.append((variable, method))

    analyses = []
    for i, entry in enumerate(dea):
        where = f"dea[{i}]"
        name, *spec = _fields(entry, where, name=_file_part, inputs=[known], outputs=[known],
                              returns_to_scale=(str, "CRS"), orientation=(str, "input"))
        if any(name == a.name for a in analyses):
            raise ConfigError(f"{where}: duplicate dea analysis name {name!r}")
        analyses.append(DeaAnalysisConfig(name, _spec(where, DeaSpec, *spec)))
    if not analyses:
        raise ConfigError("at least one dea analysis is required")

    if cluster is not None:
        # restarts and seed drove the retired multivariate k-means path:
        # configurations that still carry them parse, and they are ignored
        *fields, _, _ = _fields(cluster, "cluster", k_max=int, k_min=int, significance=(float, 0.05),
                                restarts=(object, None), seed=(object, None))
        cluster = ClusterStageConfig(*fields)
        if not (cluster.k_max >= cluster.k_min >= 2):
            raise ConfigError("cluster stage needs k_max >= k_min >= 2")
        if not (0.0 < cluster.significance < 1.0):
            raise ConfigError("cluster.significance must be in (0, 1)")

    if pls is not None:
        model_entries, bootstrap, cobb_entries = _fields(
            pls, "pls", models=[dict], bootstrap=dict, cobb_douglas=([dict], []))
        models = []
        for i, entry in enumerate(model_entries):
            where = f"pls.models[{i}]"
            name, block_entries, paths, inner_scheme = _fields(
                entry, where, name=str, blocks=[dict], paths=[_path_pair], inner_scheme=(str, "path_weighting"))
            if any(name == m.name for m in models):
                raise ConfigError(f"{where}: duplicate pls model name {name!r}")
            blocks = [_spec(f"{where}.blocks[{j}]", LatentBlock,
                            *_fields(block, f"{where}.blocks[{j}]", latent=str, indicators=[known]))
                      for j, block in enumerate(block_entries)]
            models.append(PlsModelConfig(name, _spec(where, PathModelSpec, blocks, paths, inner_scheme)))
        if not models:
            raise ConfigError("pls stage needs at least one model")
        samples, seed = _fields(bootstrap, "pls.bootstrap", samples=(int, 500), seed=_seed)
        if samples < MIN_BOOTSTRAP_SAMPLES:
            raise ConfigError(f"pls.bootstrap.samples must be >= {MIN_BOOTSTRAP_SAMPLES}")
        if samples > MAX_BOOTSTRAP_SAMPLES:
            raise ConfigError(f"pls.bootstrap.samples must be <= {MAX_BOOTSTRAP_SAMPLES}")
        cobb = []
        for i, entry in enumerate(cobb_entries):
            where = f"pls.cobb_douglas[{i}]"
            ict_var, health_vars, target = _fields(entry, where, ict_var=known_file_part, health_vars=[known],
                                                   target=known_file_part)
            if any((b.ict_var, b.target) == (ict_var, target) for b in cobb):
                raise ConfigError(f"{where}: two baselines of {ict_var!r} against target {target!r}")
            cobb.append(CobbDouglasConfig(ict_var, tuple(health_vars), target))
        pls = PlsStageConfig(tuple(models), samples, seed, tuple(cobb))

    out_dir, formats = _fields(output, "output", directory=(str, "reports"), formats=([str], ["json"]))
    if base_dir and not os.path.isabs(out_dir):
        out_dir = os.path.join(base_dir, out_dir)
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


_NOUNS = {str: "a string", int: "an integer", float: "a number", dict: "an object", list: "a list"}


def _fields(obj, where, **kinds) -> list:
    """The values of the configuration object obj at JSON path where, in
    the order of kinds, which declares every key obj may have, each by its
    kind (see _check), or by (kind, default) for an optional key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'the configuration'} must be an object, got {obj!r}")
    prefix = f"{where}: " if where else ""
    for key in obj:
        if key not in kinds:
            import difflib  # only on this error path, so that a good configuration never loads it

            close = difflib.get_close_matches(str(key), kinds, n=1)
            raise ConfigError(f"{prefix}unknown key {key!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
    values = []
    for key, kind in kinds.items():
        if key in obj:
            values.append(_check(obj[key], kind[0] if isinstance(kind, tuple) else kind, f"{prefix}{key!r}"))
        elif isinstance(kind, tuple):
            values.append(kind[1])
        else:
            raise ConfigError(f"{where + '.' if where else ''}{key} is required")
    return values


def _check(value, kind, at):
    """value checked against kind: a type (int excludes bool), [kind] for a
    list of that kind, or a function kind(value, at) that returns the
    checked value; at names the value in the error."""
    if isinstance(kind, list):
        return [_check(item, kind[0], f"{at}[{i}]") for i, item in enumerate(_check(value, list, at))]
    if not isinstance(kind, type):
        return kind(value, at)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{at} must be {_NOUNS[kind]}, got {value!r}")
    return value


def _spec(where, cls, *args):
    """cls(*args): a spec check that fails is a ConfigError at where."""
    try:
        return cls(*args)
    except PanelEffError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _file_part(name, at) -> str:
    """A string that becomes part of report file names, so may hold no
    path separator or NUL."""
    if any(sep and sep in _check(name, str, at) for sep in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"{at} {name!r} must not hold a path separator or NUL: it names report files")
    return name


def _path_pair(pair, at) -> tuple[str, str]:
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, str) for v in pair)):
        raise ConfigError(f"{at} must be a [from, to] pair of latent names, got {pair!r}")
    return pair[0], pair[1]


def _seed(seed, at) -> int:
    # stochastic stages must not fall back to implicit randomness
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{at} must be a non-negative integer, got {seed!r}")
    return seed


# ---------------------------------------------------------------------------
# dataset checks


def validate_config_dataset(config: PipelineConfig) -> tuple[dict[str, ValidationReport], dict[str, ValidationReport]]:
    """validate_for_dea for every configured analysis, keyed by name, and
    a report for each configured stage of pls and cluster, in that order:
    the PLS cells the stage cannot use, and a k_max the DMUs cannot reach."""
    panel = load_panel(config.dataset_path, config.schema, config.transforms)
    dea = {a.name: validate_for_dea(panel, a.spec) for a in config.dea_analyses}
    stages = {}
    if config.pls:
        stages["pls"] = ValidationReport(tuple(_unusable_pls_cells(config.pls, panel)))
    if config.cluster:
        # the cluster stage scores each k with an ANOVA of one mean per DMU
        n, k = len(panel.dmus), config.cluster.k_max
        message = f"k_max={k} is not below the {n} DMUs: ANOVA needs more points than clusters"
        stages["cluster"] = ValidationReport((Finding("K_MAX", message, f"dmus={n}"),) if k >= n else ())
    return dea, stages


def _unusable_pls_cells(cfg: PlsStageConfig, panel: PanelDataset) -> list[Finding]:
    """`cell_findings` of the variables the PLS stage reads, model
    indicators first: each must be finite, and a Cobb-Douglas variable,
    which the stage logs, strictly positive."""
    indicators = [i for m in cfg.models for i in m.spec.indicator_names]
    logged = [v for c in cfg.cobb_douglas for v in (c.ict_var, *c.health_vars, c.target)]
    return [finding for name in dict.fromkeys(indicators + logged)
            for finding in cell_findings(panel, (name,), positive=name in logged)]
