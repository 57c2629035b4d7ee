"""The configuration reader: whatever is wrong with a document is a
ConfigError (exit 1) that names where it is, and a key the reader does not
declare is wrong."""

import copy
import json

import pytest

from paneleff.cli import cli_main
from paneleff.config import MAX_BOOTSTRAP_SAMPLES, parse_config
from paneleff.errors import ConfigError
from paneleff.panel_data import write_panel_csv
from paneleff.synthetic import make_demo_config, make_demo_panel

DELETED = object()
REPLACEMENTS = (None, True, 0, -1, 1.5, "", "x", [], [1], {}, {"a": 1}, ["x"], [["x"]], 10**30)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "dataset.csv"
    write_panel_csv(make_demo_panel(), path)
    return path


def run_cli(tmp_path, dataset, document, command="validate"):
    document["dataset"]["path"] = str(dataset)
    (tmp_path / "config.json").write_text(json.dumps(document))
    return cli_main([command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out"),
                     "--quiet"])


def value_paths(node, at=()):
    """The path of every value under node, containers and their items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from value_paths(value, at + (key,))


def test_every_mutation_of_the_demo_config_parses_or_is_a_config_error():
    # 45 of these once raised a spec check's UsageError (exit 2), among them
    # an empty latent name or indicator list
    demo = make_demo_config()
    outcomes = {"parsed": 0, "rejected": 0}
    for path in value_paths(demo):
        for replacement in (DELETED, *REPLACEMENTS):
            document = copy.deepcopy(demo)
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            if replacement is DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(replacement)
            try:
                parse_config(document)
                outcomes["parsed"] += 1
            except ConfigError:
                outcomes["rejected"] += 1
    assert sum(outcomes.values()) == 198 * 15
    assert outcomes["parsed"] and outcomes["rejected"]


@pytest.mark.parametrize("command", ["validate", "pipeline"])
@pytest.mark.parametrize("block", [{"latent": "", "indicators": ["iu"]}, {"latent": "IU", "indicators": []}],
                         ids=["empty-name", "no-indicator"])
def test_an_empty_latent_is_a_config_error(tmp_path, dataset, capsys, command, block):
    # both once escaped the parser as a spec error and exited 2
    document = make_demo_config()
    document["pls"]["models"][1]["blocks"][0] = block
    assert run_cli(tmp_path, dataset, document, command) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: pls.models[1].blocks[0]: latent ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, key, meant", [
    ((), "outptu", "output"),
    (("dataset",), "pth", "path"),
    (("dataset", "schema", 2), "rol", "role"),
    (("dataset", "transforms", 0), "methd", "method"),
    (("dea", 1), "orientaton", "orientation"),
    (("cluster",), "signficance", "significance"),
    (("pls",), "modles", "models"),
    (("pls", "bootstrap"), "sample", "samples"),
    (("pls", "models", 1), "inner_schema", "inner_scheme"),
    (("pls", "models", 1, "blocks", 0), "indicator", "indicators"),
    (("pls", "cobb_douglas", 0), "health_var", "health_vars"),
    (("output",), "format", "formats"),
], ids=["top", "dataset", "schema", "transform", "dea", "cluster", "pls", "bootstrap", "model", "block",
        "cobb-douglas", "output"])
def test_a_misspelled_key_is_a_config_error_naming_its_path(tmp_path, dataset, capsys, where, key, meant):
    # each was once ignored, and the run went on with the meant key's default
    document = make_demo_config()
    document["dataset"]["transforms"] = [{"variable": "imr", "method": "max_minus"}]
    target = document
    for step in where:
        target = target[step]
    target[key] = target.get(meant, 1)
    assert run_cli(tmp_path, dataset, document) == 1
    err = capsys.readouterr().err
    path = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in where).lstrip(".")
    assert err.startswith("configuration error: " + (f"{path}: " if path else "") + f"unknown key {key!r}")
    assert f"(did you mean {meant!r}?)" in err


def test_an_unknown_key_with_no_close_key_is_named_alone():
    document = make_demo_config()
    document["dea"][0]["zzz"] = 1
    with pytest.raises(ConfigError) as exc:
        parse_config(document)
    assert str(exc.value) == "dea[0]: unknown key 'zzz'"



@pytest.mark.parametrize("where", [("dataset",), ("cluster", "restarts")], ids=["dataset", "ignored-key"])
def test_a_document_json_cannot_hash_is_a_config_error(where):
    # without a config_hash the document is hashed as JSON, and keys of
    # mixed types once raised a bare TypeError from json.dumps
    document = make_demo_config()
    target = document
    for step in where[:-1]:
        target = target[step]
    target[where[-1]] = {1: 2, "a": 3}
    with pytest.raises(ConfigError, match="not a JSON document"):
        parse_config(document)


@pytest.mark.parametrize("samples", [MAX_BOOTSTRAP_SAMPLES + 1, 10 ** 12])
def test_bootstrap_samples_above_the_bound_are_a_config_error(tmp_path, dataset, capsys, samples):
    # 10**12 once passed validate, and pipeline then grew until memory ran out
    document = make_demo_config()
    document["pls"]["bootstrap"]["samples"] = samples
    assert run_cli(tmp_path, dataset, document) == 1
    assert capsys.readouterr().err == f"configuration error: pls.bootstrap.samples must be <= {MAX_BOOTSTRAP_SAMPLES}\n"
    document["pls"]["bootstrap"]["samples"] = MAX_BOOTSTRAP_SAMPLES
    assert parse_config(document).pls.bootstrap_samples == MAX_BOOTSTRAP_SAMPLES
