"""Which paneleff modules each entry point loads: a command loads the
modules it runs and no more, and the package loads its names lazily."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paneleff
from paneleff.panel_data import write_panel_csv
from paneleff.synthetic import make_demo_config, make_demo_panel

SRC = Path(__file__).resolve().parents[1] / "src"
CLI_BASE = {"paneleff", "paneleff.cli", "paneleff.config", "paneleff.errors", "paneleff.panel_data"}


def loaded_after(code: str, package: str = "paneleff") -> set:
    """The modules of package (a dotted name: it and its submodules) in
    sys.modules after a fresh interpreter runs code."""
    report = ("\nimport json, sys\n"
              f"print(json.dumps(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r}))))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code + report], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_by_command(tmp_path, *argv, package: str = "paneleff", prelude: str = "", without=()) -> set:
    """loaded_after a command succeeds on the demo, run after the code
    prelude, with the configuration's sections named in without left out."""
    write_panel_csv(make_demo_panel(), tmp_path / "dataset.csv")
    document = make_demo_config("dataset.csv", "reports")
    (tmp_path / "config.json").write_text(json.dumps({k: v for k, v in document.items() if k not in without}))
    args = [*argv, "--config", str(tmp_path / "config.json")]
    return loaded_after(f"{prelude}from paneleff.cli import cli_main\nassert cli_main({args!r}) == 0", package)


def test_validate_loads_no_stage_module(tmp_path):
    assert loaded_by_command(tmp_path, "validate") == CLI_BASE


def test_validate_of_a_good_configuration_loads_no_difflib(tmp_path):
    # the configuration reader imports it only to suggest the key an unknown one meant
    assert loaded_by_command(tmp_path, "validate", package="difflib") == set()


def test_validate_and_version_load_no_numpy(tmp_path):
    # a panel's cells are a stdlib buffer; the numpy view is built by the
    # first stage that reads it
    assert loaded_by_command(tmp_path, "validate", package="numpy") == set()
    version = "from paneleff.cli import cli_main\nassert cli_main(['--version']) == 0"
    assert loaded_after(version, package="numpy") == set()


@pytest.mark.parametrize("package, argv", [
    pytest.param("dataclasses", ("validate",), id="validate"),
    pytest.param("dataclasses", ("dea", "--period", "1998"), id="dea-period"),
    pytest.param("dataclasses", ("pipeline", "--quiet"), id="pipeline"),
    pytest.param("_hashlib", ("--version",), id="version-openssl"),
    pytest.param("_hashlib", ("validate",), id="validate-openssl"),
    pytest.param("_hashlib", ("dea", "--period", "1998"), id="dea-period-openssl"),
    pytest.param("_hashlib", ("pipeline", "--quiet"), id="pipeline-openssl"),
    pytest.param("secrets", ("pipeline", "--quiet"), id="pipeline-secrets"),
    pytest.param("numpy.random", ("pipeline", "--quiet"), id="pipeline-numpy-random"),
])
def test_commands_build_no_dataclass(tmp_path, package, argv):
    # the package's records are named tuples: no command loads dataclasses
    # (which loads inspect) or builds a record's methods at import. Nor does
    # one load OpenSSL (_hashlib): the provenance digests are the
    # interpreter's own sha256, and the bootstrap draws from the standard
    # library's random.Random, not numpy.random (whose import loads secrets,
    # hmac and OpenSSL). argparse answers --version before it reads the
    # --config that follows.
    if argv[0] == "pipeline":
        argv = (*argv, "--out", str(tmp_path / "reports"))
    assert loaded_by_command(tmp_path, *argv, package=package) == set()


def test_version_builds_no_dataclass():
    version = "from paneleff.cli import cli_main\nassert cli_main(['--version']) == 0"
    assert loaded_after(version, package="dataclasses") == set()


def test_validate_runs_with_numpy_blocked(tmp_path):
    blocked = "import sys\nsys.modules['numpy'] = None\n"  # any import of numpy raises ImportError
    assert loaded_by_command(tmp_path, "validate", prelude=blocked) == CLI_BASE


def test_digests_fall_back_to_hashlib_without_a_builtin_sha256(tmp_path):
    # a Python built without its own sha256 modules hashes with hashlib's,
    # which gives the same digests
    blocked = "import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
    assert loaded_by_command(tmp_path, "validate", package="_hashlib", prelude=blocked) == {"_hashlib"}
    for name, prelude in (("fallback", blocked), ("builtin", "")):
        loaded_by_command(tmp_path, "pipeline", "--quiet", "--out", str(tmp_path / name), prelude=prelude)
    assert (tmp_path / "fallback" / "report.json").read_bytes() == (tmp_path / "builtin" / "report.json").read_bytes()


def test_dea_period_loads_only_the_dea_modules(tmp_path):
    assert loaded_by_command(tmp_path, "dea", "--period", "1998") == CLI_BASE | {"paneleff.dea", "paneleff.linprog"}


def test_pipeline_without_a_pls_stage_loads_no_pls_module(tmp_path):
    # pipeline once imported every stage module at its top
    loaded = loaded_by_command(tmp_path, "pipeline", "--quiet", without=("pls",))
    assert loaded == CLI_BASE | {"paneleff.pipeline", "paneleff.dea", "paneleff.linprog", "paneleff.cluster",
                                 "paneleff.distributions"}


@pytest.mark.parametrize("stage, modules", [
    ("dea", {"paneleff.dea", "paneleff.linprog"}),
    ("cluster", {"paneleff.cluster", "paneleff.distributions"}),
    ("pls", {"paneleff.pls", "paneleff.distributions"}),
])
def test_a_stage_command_loads_only_its_stage_modules(tmp_path, stage, modules):
    # a full run first, so that the stage reads a report of this run
    loaded_by_command(tmp_path, "pipeline", "--quiet")
    assert loaded_by_command(tmp_path, stage, "--quiet") == CLI_BASE | {"paneleff.pipeline"} | modules


def test_importing_the_package_loads_no_stage_module():
    assert loaded_after("import paneleff\nassert not hasattr(paneleff, 'no_such_name')") == {"paneleff"}
    assert loaded_after("from paneleff import pls\nassert pls.fit_path_model") >= {"paneleff", "paneleff.pls"}


def test_every_package_name_is_the_object_of_its_defining_module():
    for name in paneleff.__all__:
        if name == "__version__":
            continue
        value = getattr(paneleff, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert name in dir(paneleff)
    with pytest.raises(AttributeError):
        paneleff.no_such_name


def environment_after(code: str, **env) -> str | None:
    """OPENBLAS_NUM_THREADS after a fresh interpreter, started with it set as
    env says (unset without it), runs code."""
    report = "\nimport json, os\nprint(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))\n"
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + report], env={**base, **env}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_runs_one_blas_thread_unless_the_user_sets_a_count():
    # a threaded OpenBLAS splits the bootstrap's moment product by core count,
    # which moves the last bits of its standard errors
    assert environment_after("import paneleff.cli") == "1"
    assert environment_after("import paneleff.cli", OPENBLAS_NUM_THREADS="3") == "3"


def test_library_imports_leave_the_blas_thread_count_alone():
    assert environment_after("import paneleff") is None
    assert environment_after("from paneleff import pls") is None
    assert environment_after("from paneleff import pls", OPENBLAS_NUM_THREADS="2") == "2"
