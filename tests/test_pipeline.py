import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

from paneleff.cli import cli_main
from paneleff.config import CobbDouglasConfig, config_from_file, parse_config
from paneleff.errors import ConfigError, CsvParseError, DomainError, StageError
from paneleff.pipeline import (
    emit_report,
    load_dataset,
    render_text,
    report_json,
    run_cluster_stage,
    run_pipeline,
    run_pls_stage,
    significance_marker,
    unrun_report,
    _cobb_douglas_table,
    _fmt7,
    _max_assignment,
)
from paneleff.synthetic import make_demo_config, make_demo_panel
from paneleff.panel_data import write_panel_csv


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    """Demo dataset + config on disk, with a small bootstrap so the module
    stays fast."""
    root = tmp_path_factory.mktemp("demo")
    panel = make_demo_panel()
    write_panel_csv(panel, root / "dataset.csv")
    document = make_demo_config("dataset.csv", "reports", bootstrap_samples=100)
    (root / "config.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return root


@pytest.fixture(scope="module")
def demo_bundle(demo_dir):
    config = config_from_file(demo_dir / "config.json")
    return run_pipeline(config), config


def test_pipeline_produces_all_sections(demo_bundle):
    bundle, _ = demo_bundle
    assert set(bundle["dea"]) == {"ict", "health"}
    assert "analyses" in bundle["cluster"]
    assert "clusters" in bundle["correspondence"]
    assert "models" in bundle["pls"]
    assert "incomplete" not in bundle


def test_pipeline_score_matrix_shape(demo_bundle):
    bundle, _ = demo_bundle
    for table in bundle["dea"].values():
        assert len(table["scores"]) == 27
        assert all(len(row) == 10 for row in table["scores"])
        assert len(table["means"]) == 27


def test_pipeline_selects_three_clusters(demo_bundle):
    bundle, _ = demo_bundle
    for name in ("ict", "health"):
        table = bundle["cluster"]["analyses"][name]
        assert table["selected_k"] == 3
        assert table["anova"]["df_between"] == 2


def test_pipeline_correspondence_agreement(demo_bundle):
    bundle, _ = demo_bundle
    pair = bundle["correspondence"]["pairs"][0]
    assert pair["agreement_rate"] >= 0.8


def test_pls_grid_shape_matches_three_by_four(demo_bundle):
    bundle, _ = demo_bundle
    models = bundle["pls"]["models"]
    assert set(models) == {"mcs", "iu", "mtl"}
    for model in models.values():
        assert len(model["paths"]) == 4
        targets = {p["target"] for p in model["paths"]}
        assert targets == {"LEB", "HEC", "HGDP", "IMR"}
        for p in model["paths"]:
            marker = significance_marker(p["p_value"])
            assert marker in ("", "*", "**")


def test_provenance_carries_hash_and_seeds(demo_bundle):
    bundle, config = demo_bundle
    assert bundle["provenance"]["config_hash"] == config.config_hash
    assert bundle["provenance"]["seeds"] == {"bootstrap": 271999}


def test_provenance_digests_are_the_sha256_of_the_file_bytes(demo_dir, demo_bundle):
    # config.sha256 is the interpreter's builtin sha256, not hashlib's
    bundle, config = demo_bundle
    assert config.config_hash == hashlib.sha256((demo_dir / "config.json").read_bytes()).hexdigest()
    assert bundle["provenance"]["dataset_sha256"] == \
        hashlib.sha256((demo_dir / "dataset.csv").read_bytes()).hexdigest()
    document = json.loads((demo_dir / "config.json").read_text())
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    assert parse_config(document).config_hash == hashlib.sha256(canonical).hexdigest()


def test_json_round_trip_is_structurally_identical(demo_bundle):
    # report.json is the report itself: parsing it gives back the dict,
    # and formatting that gives back the same text
    bundle, _ = demo_bundle
    text = report_json(bundle)
    assert text == json.dumps(bundle, sort_keys=True, indent=2) + "\n"
    again = json.loads(text)
    assert again == bundle
    assert report_json(again) == text


def test_emitted_files(demo_bundle, tmp_path):
    bundle, _ = demo_bundle
    written = emit_report(bundle, str(tmp_path), ("json", "csv", "text"))
    names = {os.path.basename(p) for p in written}
    assert "report.json" in names
    assert "report.txt" in names
    assert "dea_ict_scores.csv" in names
    assert "cluster_ict_membership.csv" in names
    assert "correspondence.csv" in names
    assert "pls_paths.csv" in names
    for path in written:
        assert os.path.exists(path)


# sha256 of every file emitted for the demo_dir fixture, in emission order
DEMO_REPORT_SHA256 = [
    ("report.json", "4d7cac31754adaf46ffd1f2531aef6e5d47931725746dbf29568643cf3728be8"),
    ("dea_ict_scores.csv", "894be26e07f8d285023dbc1a4b9aff491b86c41ef9a1f97ddb9d026e0a7f747b"),
    ("dea_health_scores.csv", "479e78ae1c18d85b3946175df02e264146cd94b02ee1c949306a0e1712fd0ff4"),
    ("cluster_ict_sweep.csv", "0736d7c2f5cb713e203f512efc83677166d5e0493a9bf0b4b0c96eba84f34b01"),
    ("cluster_ict_membership.csv", "db61e6f958d3e15002b4ea60d0c95fbfc6713d0b0c6b57fe0c700b452d87c512"),
    ("cluster_health_sweep.csv", "0736d7c2f5cb713e203f512efc83677166d5e0493a9bf0b4b0c96eba84f34b01"),
    ("cluster_health_membership.csv", "7ba4e44e0ea046923b05cd90fb0754e8e16768c22bdd4206ac5a5e7d3756934a"),
    ("correspondence.csv", "7b85187f27a2715821b8afaaa1d2588fe07f0896d911bdef1355a406c3ab285d"),
    ("contingency_ict_vs_health.csv", "5413e49d4705f561048fbdf0111473d3f544641c59ac3e416222c1070884cacb"),
    ("pls_paths.csv", "6f1cca4385fa541a6875846561e753391a11230334f24e2e933fd4561392857b"),
    ("pls_grid.csv", "7870698463164e7bc2f613cbed9d997e9efe86f0ca411699a3690cdccb7c03ec"),
    ("cobb_douglas_ln_leb.csv", "31f40d7f1c4c4ef553e646bfa853258b071ac7af939b225953a8ba3c98182ed4"),
    ("report.txt", "c89abe3252913ff2d4ee443d3de48f1a436ba3639843f38d2ef3aaab8c2c753f"),
]


def emitted_digests(report, out_dir) -> list:
    """(name, sha256) of every file emit_report writes for the report in
    all three formats, in emission order."""
    written = emit_report(report, str(out_dir), ("json", "csv", "text"))
    return [(os.path.basename(path), hashlib.sha256(open(path, "rb").read()).hexdigest()) for path in written]


def test_emitted_files_match_golden_hashes(demo_bundle, tmp_path):
    bundle, _ = demo_bundle
    assert emitted_digests(bundle, tmp_path) == DEMO_REPORT_SHA256


def config_on_disk(root, panel, document):
    """The parsed configuration of document, written to root with panel as
    its dataset.csv."""
    write_panel_csv(panel, root / "dataset.csv")
    (root / "config.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return config_from_file(root / "config.json")


# the dea_wide benchmark workload at generator seed 0: CRS-input and
# VRS-output headings, a k = 9 sweep, a skipped pls stage
DEA_WIDE_REPORT_SHA256 = [
    ("report.json", "42dd6e386881dfbb93e74027871d35c8fc64639b11f87a64157a172da21d9b09"),
    ("dea_crs_in_scores.csv", "20c290362fd903ad685eed2e221ac51bbf16ca5a4b914953470e7834fdd80c12"),
    ("dea_vrs_out_scores.csv", "072c0eb7120017c802f144324499ae869af78e156e779c94be78a229f2d74f97"),
    ("cluster_crs_in_sweep.csv", "5f150a50cfec3226e5caf50e32f5dcbe1cc7fd85757de7501c1b3f4391dda12f"),
    ("cluster_crs_in_membership.csv", "1ca69e600236d24cf4599758f40893486096a566dbcaa3422266917d4d6d972a"),
    ("cluster_vrs_out_sweep.csv", "c9ad1267072b3f5d0afa500b6ff22c98acfd0e35075029607fe79b0a4b8394e8"),
    ("cluster_vrs_out_membership.csv", "08ba5d1d4df8e09b8779ec2409e1a6369947fa38989bab59eee10cac9b1e130e"),
    ("correspondence.csv", "33b7a37eea5418418c744204b924cef4f54df2b55ae9d70988f131b4bcddec50"),
    ("contingency_crs_in_vs_vrs_out.csv", "e7e63b72fac1f8ddae6fa2a78132bc2846e31cfa53c5df49c1a15256ab979595"),
    ("report.txt", "4af1ecebd1afc3bc29a9a2844f999f84a1aa1b4265e8aa1570cb714e0ce95c4d"),
]


def test_dea_wide_emitted_files_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.workloads import WORKLOADS

    config = config_on_disk(tmp_path, *WORKLOADS["dea_wide"].build(0))
    assert emitted_digests(run_pipeline(config), tmp_path / "out") == DEA_WIDE_REPORT_SHA256


def test_cli_pipeline_report_does_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    # 720 pooled rows: a threaded OpenBLAS splits the bootstrap's moment
    # product by core count, and the last bits of its standard errors with
    # it, so the CLI runs one thread unless the user sets a count
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(root)
    from perfbench.workloads import WORKLOADS

    config_on_disk(tmp_path, *WORKLOADS["pls_heavy"].build(0))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    reports = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"out{len(reports)}"
        argv = ["pipeline", "--config", str(tmp_path / "config.json"), "--out", str(out), "--format", "json"]
        done = subprocess.run([sys.executable, "-m", "paneleff.cli", *argv], env={**env, **threads},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


# the demo_dir run whose pls stage fails on a zero hec cell: the
# INCOMPLETE line and a pending pls section, which report.txt heads
# "== Path models: pending =="
PARTIAL_REPORT_SHA256 = [
    ("report.json", "2108907af0da08bc7846a2c2279ad4edde8c3d53c89544c70211fdfd377b0585"),
    *DEMO_REPORT_SHA256[1:9],
    ("report.txt", "121e60f925e7bdb2cacc32d39989c5c5290131ea426d8eecd8722d73e3233dc6"),
]


def test_partial_report_emitted_files_match_golden_hashes(demo_dir, tmp_path):
    config = config_on_disk(tmp_path, make_demo_panel(), json.loads((demo_dir / "config.json").read_text()))
    lines = (tmp_path / "dataset.csv").read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("C04,2000,hec,"))
    (tmp_path / "dataset.csv").write_text(kept + "C04,2000,hec,0\n")
    with pytest.raises(StageError) as exc:
        run_pipeline(config)
    assert exc.value.stage == "pls"
    assert emitted_digests(exc.value.partial_report, tmp_path / "out") == PARTIAL_REPORT_SHA256


# the demo configuration without its cluster and pls stages: both skipped
DEA_ONLY_REPORT_SHA256 = [
    ("report.json", "0a38239eed3a9ddab26900d0bcaeb727c053bbcf8b6298adb9c243696b9d091a"),
    *DEMO_REPORT_SHA256[1:3],
    ("report.txt", "b3fa532b383b3a8bf5737e632daf2c4181fa2fc8b840b1cd117b1e08a38e3925"),
]


def test_dea_only_report_emitted_files_match_golden_hashes(demo_dir, tmp_path):
    document = json.loads((demo_dir / "config.json").read_text())
    del document["cluster"], document["pls"]
    config = config_on_disk(tmp_path, make_demo_panel(), document)
    assert emitted_digests(run_pipeline(config), tmp_path / "out") == DEA_ONLY_REPORT_SHA256


def test_cobb_douglas_baselines_sharing_a_target_get_distinct_files(demo_bundle, tmp_path):
    bundle, config = demo_bundle
    panel = load_dataset(config)
    baselines = [
        CobbDouglasConfig("mcs", ("imr", "hec", "hgdp"), "leb"),
        CobbDouglasConfig("iu", ("imr", "hec", "hgdp"), "leb"),
        CobbDouglasConfig("mtl", ("leb", "hec"), "imr"),
    ]
    pls = {**bundle["pls"], "cobb_douglas": [_cobb_douglas_table(panel, c) for c in baselines]}
    written = emit_report({**bundle, "pls": pls}, str(tmp_path), ("csv", "text"))
    names = [os.path.basename(path) for path in written]
    assert len(names) == len(set(names))
    assert names[-4:] == ["cobb_douglas_mcs_ln_leb.csv", "cobb_douglas_iu_ln_leb.csv",
                          "cobb_douglas_ln_imr.csv", "report.txt"]
    assert "ln_mcs" in (tmp_path / "cobb_douglas_mcs_ln_leb.csv").read_text()
    assert "ln_iu" in (tmp_path / "cobb_douglas_iu_ln_leb.csv").read_text()
    text = (tmp_path / "report.txt").read_text()
    assert "-- log-log baseline for mcs_ln_leb" in text
    assert "-- log-log baseline for iu_ln_leb" in text


def test_emit_report_builds_the_tables_once(demo_bundle, tmp_path, monkeypatch):
    # csv and text write the same tables; the report is laid out once per emission
    import paneleff.pipeline as pipeline

    bundle, _ = demo_bundle
    calls = []
    report_layout = pipeline.report_layout

    def counting_layout(b):
        calls.append(b)
        return report_layout(b)

    monkeypatch.setattr(pipeline, "report_layout", counting_layout)
    emit_report(bundle, str(tmp_path), ("json", "csv", "text"))
    assert len(calls) == 1


def test_cli_collinear_cobb_douglas_baseline_names_its_columns(demo_dir, tmp_path, capsys):
    config = write_config(demo_dir, tmp_path, lambda d: d["pls"]["cobb_douglas"][0].update(
        ict_var="mcs", health_vars=["hec", "hec"]))
    assert cli_main(["pipeline", "--config", config, "--quiet"]) == 2
    assert "dependent columns: ln_hec, ln_mcs*ln_hec" in capsys.readouterr().err


def test_repeated_cobb_douglas_baseline_rejected():
    document = make_demo_config()
    document["pls"]["cobb_douglas"].append(dict(document["pls"]["cobb_douglas"][0], health_vars=["imr"]))
    with pytest.raises(ConfigError) as exc:
        parse_config(document)
    assert "'mcs'" in str(exc.value) and "'leb'" in str(exc.value)


def test_rendered_table_contains_exact_unit_mean(demo_bundle, tmp_path):
    bundle, _ = demo_bundle
    emit_report(bundle, str(tmp_path), ("csv", "text"))
    csv_text = (tmp_path / "dea_ict_scores.csv").read_text()
    assert "1.0000000" in csv_text
    assert "1.0000000" in (tmp_path / "report.txt").read_text()


def test_csv_numbers_use_seven_decimals(demo_bundle, tmp_path):
    bundle, _ = demo_bundle
    emit_report(bundle, str(tmp_path), ("csv",))
    with open(tmp_path / "dea_ict_scores.csv") as fh:
        header = fh.readline()
        first = fh.readline().strip().split(",")
    assert len(first) == 12  # dmu + 10 periods + mean
    for cell in first[1:]:
        whole, frac = cell.split(".")
        assert len(frac) == 7


def brute_force_assignment(table):
    ka, kb = len(table), len(table[0])
    if ka <= kb:
        return max(sum(table[i][p[i]] for i in range(ka)) for p in permutations(range(kb), ka))
    return max(sum(table[p[j]][j] for j in range(kb)) for p in permutations(range(ka), kb))


def test_max_assignment_matches_permutation_brute_force():
    rng = np.random.default_rng(61)
    for ka in range(1, 8):
        for kb in range(1, 8):
            for density in (0.3, 1.0):
                table = (rng.integers(0, 6, (ka, kb)) * (rng.random((ka, kb)) < density)).tolist()
                assert _max_assignment(table) == brute_force_assignment(table)
    # far past any k the enumeration could reach: a hidden permutation
    perm = rng.permutation(40)
    table = [[3 if perm[i] == j else 1 for j in range(40)] for i in range(40)]
    assert _max_assignment(table) == 120


def test_fmt7_renders_unit_exactly():
    assert _fmt7(1.0) == "1.0000000"
    assert _fmt7(None) == ""


def test_significance_markers():
    assert significance_marker(0.0004) == "*"
    assert significance_marker(0.002) == "**"
    assert significance_marker(0.02) == ""
    assert _fmt7(-0.813) + significance_marker(0.0004) == "-0.8130000*"


def test_text_report_carries_caveat_and_markers(demo_bundle):
    bundle, _ = demo_bundle
    text = render_text(bundle)
    assert "rank candidate cluster counts" in text
    assert "* p < 0.001" in text


def test_config_hash_changes_with_any_byte(demo_dir, tmp_path):
    original = (demo_dir / "config.json").read_bytes()
    mutated = original.replace(b'"k_max": 6', b'"k_max": 5')
    assert mutated != original
    other = tmp_path / "config.json"
    other.write_bytes(mutated)
    (tmp_path / "dataset.csv").write_bytes((demo_dir / "dataset.csv").read_bytes())
    a = config_from_file(demo_dir / "config.json")
    b = config_from_file(other)
    assert a.config_hash != b.config_hash


def test_unknown_variable_in_config_names_it():
    document = make_demo_config()
    document["dea"][0]["inputs"] = ["no_such_var"]
    with pytest.raises(ConfigError) as exc:
        parse_config(document)
    assert "no_such_var" in str(exc.value)


def test_missing_seed_rejected():
    document = make_demo_config()
    del document["pls"]["bootstrap"]["seed"]
    with pytest.raises(ConfigError) as exc:
        parse_config(document)
    assert "pls.bootstrap.seed" in str(exc.value)


def test_every_benchmark_workload_config_parses(monkeypatch):
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.workloads import WORKLOADS

    for workload in WORKLOADS.values():
        _, document = workload.build(0)
        parse_config(document)


def test_retired_cluster_keys_are_ignored(demo_dir, demo_bundle):
    # cluster.restarts and cluster.seed once drove a multivariate k-means
    # path; configs that still carry them parse as if they did not
    bundle, config = demo_bundle
    document = json.loads((demo_dir / "config.json").read_text())
    document["cluster"].update(restarts=32, seed=271998)
    retired = parse_config(document, config_hash=config.config_hash, base_dir=str(demo_dir))
    assert retired == config
    cluster, correspondence = run_cluster_stage(retired, bundle["dea"])
    assert json.dumps(cluster, sort_keys=True) == json.dumps(bundle["cluster"], sort_keys=True)
    assert json.dumps(correspondence, sort_keys=True) == json.dumps(bundle["correspondence"], sort_keys=True)


@pytest.mark.parametrize("where, value, named", [
    (("cluster", "significance"), "abc", "'significance'"),
    (("cluster", "significance"), None, "'significance'"),
    (("pls", "bootstrap", "samples"), "x", "'samples'"),
    (("pls", "bootstrap", "samples"), 250.7, "'samples'"),
    (("pls", "models", 0, "paths", 0), ["MCS"], "['MCS']"),
    (("output", "formats"), "json", "'formats'"),
    (("dataset", "transforms"), 5, "'transforms'"),
    (("pls", "cobb_douglas"), 3, "'cobb_douglas'"),
], ids=["significance-str", "significance-null", "samples-str", "samples-float", "path-of-one-name", "formats-str",
        "transforms-int", "cobb_douglas-int"])
def test_config_values_of_the_wrong_type_are_config_errors(demo_dir, tmp_path, capsys, where, value, named):
    # each once leaked a Python exception (exit 2) or was silently truncated
    document = json.loads((demo_dir / "config.json").read_text())
    document["dataset"]["path"] = str(demo_dir / "dataset.csv")
    target = document
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config(document)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    assert cli_main(["validate", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("transforms, named", [
    ([{"variable": "imr"}, {"variable": "imr", "method": "reciprocal"}], "'imr' is transformed twice"),
    ([{"variable": "leb"}], "'leb' is not marked undesirable"),
    ([{"variable": "imr", "method": "log"}], "unknown method 'log'"),
], ids=["twice", "desirable", "method"])
def test_transforms_the_schema_rules_out_are_config_errors(demo_dir, tmp_path, capsys, transforms, named):
    # the first two once passed parse_config and failed at load as a dea stage error (exit 2)
    config = write_config(demo_dir, tmp_path, lambda d: d["dataset"].update(transforms=transforms))
    with pytest.raises(ConfigError, match=re.escape(named)):
        config_from_file(config)
    assert cli_main(["pipeline", "--config", config, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("edit", [
    lambda d: d["dea"][0].update(inputs=[["ict_spend"]]),
    lambda d: d["dataset"]["schema"][0].update(name=["ict_spend"]),
    lambda d: d["dataset"]["schema"][0].update(name=7),
    lambda d: d["pls"]["models"][0]["blocks"][0].update(indicators=[{"name": "mcs"}]),
    lambda d: d["pls"]["cobb_douglas"][0].update(health_vars=["leb", ["imr"]]),
], ids=["dea-input-list", "schema-name-list", "schema-name-int", "pls-indicator-object", "cobb-douglas-list"])
def test_variable_names_that_are_not_strings_are_config_errors(demo_dir, tmp_path, capsys, edit):
    # all but the int once raised an unhashable-type TypeError (exit 2); the
    # int was accepted, then reported as an unknown variable
    config = write_config(demo_dir, tmp_path, edit)
    with pytest.raises(ConfigError, match="must be a string"):
        config_from_file(config)
    assert cli_main(["pipeline", "--config", config, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("edit", [
    lambda d: d["dea"][0].update(name="a/b"),
    lambda d: d["dea"][1].update(name="health\0"),
    lambda d: d["pls"]["cobb_douglas"][0].update(ict_var="m/cs"),
    lambda d: d["pls"]["cobb_douglas"][0].update(target=os.sep + "leb"),
], ids=["dea-slash", "dea-nul", "cobb-douglas-ict-var", "cobb-douglas-target"])
def test_names_of_report_files_with_a_path_separator_are_config_errors(demo_dir, tmp_path, capsys, edit):
    # a dea name "a/b" once ran every stage, then failed to write dea_a/b_scores.csv (exit 2)
    def edit_with_csv(document):
        edit(document)
        document["output"]["formats"] = ["json", "csv"]

    config = write_config(demo_dir, tmp_path, edit_with_csv)
    with pytest.raises(ConfigError, match="must not hold a path separator or NUL"):
        config_from_file(config)
    assert cli_main(["pipeline", "--config", config, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "reports").exists()


def test_repeated_output_formats_are_written_once(demo_dir, tmp_path, capsys):
    config = write_config(demo_dir, tmp_path, lambda d: d["output"].update(formats=["json", "text", "json"]))
    assert config_from_file(config).formats == ("json", "text")
    assert cli_main(["dea", "--config", config]) == 0
    wrote = [line for line in capsys.readouterr().err.splitlines() if line.startswith("wrote ")]
    assert [os.path.basename(line) for line in wrote] == ["report.json", "report.txt"]


def test_pls_stage_prepares_each_model_once(monkeypatch):
    # a model's bootstrap resamples the sample its full-sample fit built
    import paneleff.pls as pls_module

    config = parse_config(make_demo_config())
    panel = make_demo_panel()
    prepared = []

    class CountingSample(pls_module._Sample):
        def __init__(self, X_raw):
            prepared.append(X_raw.shape)
            super().__init__(X_raw)

    monkeypatch.setattr(pls_module, "_Sample", CountingSample)
    run_pls_stage(config, panel)
    n = len(panel.dmus) * len(panel.periods)
    assert prepared == [(n, len(model.spec.indicator_names)) for model in config.pls.models]


def test_pls_stage_draws_each_replicate_once_for_all_models(monkeypatch):
    # the demo's three path models pool the same rows with the same seed,
    # so one stream draws all 500 replicates for them all (none redraws)
    import paneleff.pls as pls_module

    config = parse_config(make_demo_config())
    assert len(config.pls.models) == 3 and config.pls.bootstrap_samples == 500
    panel = make_demo_panel()
    made = []

    class CountingRandom(pls_module.random.Random):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(pls_module, "random", SimpleNamespace(Random=CountingRandom))
    run_pls_stage(config, panel)
    assert made == [config.pls.bootstrap_seed]


def test_stage_gating_skips_unconfigured_sections(demo_dir):
    document = json.loads((demo_dir / "config.json").read_text())
    del document["cluster"]
    del document["pls"]
    config = parse_config(document, base_dir=str(demo_dir))
    bundle = run_pipeline(config)
    assert bundle["cluster"] == {"skipped": True}
    assert bundle["pls"] == {"skipped": True}
    assert set(bundle["dea"]) == {"ict", "health"}


# --- command-line interface ---------------------------------------------------


def test_cli_pipeline_runs_and_writes(demo_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["pipeline", "--config", str(demo_dir / "config.json"),
                     "--out", str(out), "--quiet"])
    assert code == 0
    assert (out / "report.json").exists()


def test_cli_determinism_byte_identical(demo_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    config = str(demo_dir / "config.json")
    assert cli_main(["pipeline", "--config", config, "--out", str(out1), "--quiet"]) == 0
    assert cli_main(["pipeline", "--config", config, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_cli_stage_chaining_matches_pipeline(demo_dir, tmp_path):
    config = str(demo_dir / "config.json")
    whole = tmp_path / "whole"
    chained = tmp_path / "chained"
    assert cli_main(["pipeline", "--config", config, "--out", str(whole), "--quiet"]) == 0
    assert cli_main(["dea", "--config", config, "--out", str(chained), "--quiet"]) == 0
    assert cli_main(["cluster", "--config", config, "--out", str(chained), "--quiet"]) == 0
    assert cli_main(["pls", "--config", config, "--out", str(chained), "--quiet"]) == 0
    assert_same_files(whole, chained)


@pytest.mark.parametrize("stage", ["cluster", "pls"])
def test_cli_stage_builds_the_provenance_once(demo_dir, tmp_path, monkeypatch, stage):
    # a staged command once read and hashed the dataset a second time to
    # compare the report on disk with
    import paneleff.pipeline as pipeline

    config = str(demo_dir / "config.json")
    assert cli_main(["pipeline", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
    calls = []
    build = pipeline.build_provenance
    monkeypatch.setattr(pipeline, "build_provenance", lambda config: calls.append(config) or build(config))
    assert cli_main([stage, "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == 1


def assert_same_files(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cli_pls_stage_before_dea_stage(demo_dir, tmp_path):
    config = str(demo_dir / "config.json")
    whole = tmp_path / "whole"
    chained = tmp_path / "chained"
    assert cli_main(["pipeline", "--config", config, "--out", str(whole), "--quiet"]) == 0
    assert cli_main(["pls", "--config", config, "--out", str(chained), "--quiet"]) == 0
    report = json.loads((chained / "report.json").read_text())
    assert report["dea"] == {"pending": True}
    assert "dea_ict_scores.csv" not in os.listdir(chained)
    assert "DEA efficiency" not in (chained / "report.txt").read_text()
    assert cli_main(["dea", "--config", config, "--out", str(chained), "--quiet"]) == 0
    assert cli_main(["cluster", "--config", config, "--out", str(chained), "--quiet"]) == 0
    assert_same_files(whole, chained)


def test_cli_stage_ignores_report_of_another_run(demo_dir, tmp_path):
    out = tmp_path / "out"
    assert cli_main(["pipeline", "--config", str(demo_dir / "config.json"), "--out", str(out),
                     "--quiet"]) == 0
    document = json.loads((demo_dir / "config.json").read_text())
    document["cluster"]["k_max"] = 4
    other = tmp_path / "config.json"
    other.write_text(json.dumps(document))
    (tmp_path / "dataset.csv").write_bytes((demo_dir / "dataset.csv").read_bytes())
    assert cli_main(["dea", "--config", str(other), "--out", str(out), "--seed", "9",
                     "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["provenance"]["seeds"] == {"bootstrap": 9}
    assert report["cluster"] == {"pending": True}
    assert report["correspondence"] == {"pending": True}
    assert report["pls"] == {"pending": True}
    # a stage of the chain without the same --seed finds no DEA results of its run
    assert cli_main(["cluster", "--config", str(other), "--out", str(out), "--quiet"]) == 2
    assert cli_main(["cluster", "--config", str(other), "--out", str(out), "--seed", "9",
                     "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["cluster"]["k_max"] == 4
    assert report["provenance"]["seeds"] == {"bootstrap": 9}


def test_cli_stage_ignores_the_report_of_another_dataset(tmp_path):
    # a stage once reused the sections of a report made from other data
    out = tmp_path / "demo"
    assert cli_main(["demo", "--out", str(out), "--samples", "100", "--quiet"]) == 0
    before = json.loads((out / "reports" / "report.json").read_text())
    assert "models" in before["pls"]
    lines = (out / "dataset.csv").read_text().splitlines(keepends=True)
    (out / "dataset.csv").write_text("".join(re.sub(r"^(C04,\w+,hec),.*", r"\1,5.5", l) for l in lines))
    assert cli_main(["dea", "--config", str(out / "config.json"), "--quiet"]) == 0
    report = json.loads((out / "reports" / "report.json").read_text())
    assert report["pls"] == {"pending": True}
    assert report["provenance"]["dataset_sha256"] != before["provenance"]["dataset_sha256"]


@pytest.mark.parametrize("text", ['{"provenance": {"config_hash": "', '{"provenance": {}}', "[]", ""],
                         ids=["truncated", "keyless", "list", "empty"])
def test_cli_stage_treats_a_malformed_report_as_absent(demo_dir, tmp_path, capsys, text):
    # each once failed the stage with an internal error (exit 2)
    config = str(demo_dir / "config.json")
    for stage, fresh in (("cluster", None), ("dea", "dea"), ("pls", "pls")):
        out = tmp_path / stage
        out.mkdir()
        (out / "report.json").write_text(text)
        code = cli_main([stage, "--config", config, "--out", str(out), "--quiet"])
        if fresh is None:
            assert code == 2
            assert "no DEA results" in capsys.readouterr().err
            continue
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report[fresh] != {"pending": True}
        assert all(report[s] == {"pending": True} for s in ("dea", "cluster", "pls") if s != fresh)


@pytest.mark.parametrize("damage", [
    {"dea": []},
    {"dea": {"ict": {"scores": 5}, "health": {}}},
    {"dea": "ict"},
    {"cluster": {"analyses": []}},
    {"pls": {"models": {"m": {"paths": 7}}}},
], ids=["dea-list", "dea-tables-without-keys", "dea-string", "cluster-analyses-list", "pls-paths-number"])
def test_cli_stage_treats_a_report_with_a_malformed_section_as_absent(demo_dir, tmp_path, capsys, damage):
    # a report of this run whose sections have the wrong shape once failed
    # the next stage with an internal error (exit 2)
    config = str(demo_dir / "config.json")
    out = tmp_path / "out"
    assert cli_main(["dea", "--config", config, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    for stage in ("cluster", "pls"):
        (out / "report.json").write_text(json.dumps({**report, **damage}))
        code = cli_main([stage, "--config", config, "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert "internal error" not in err
        if stage == "cluster":
            assert code == 2
            assert "no DEA results" in err
            continue
        assert code == 0
        fresh = json.loads((out / "report.json").read_text())
        assert "models" in fresh["pls"]
        assert all(fresh[s] == {"pending": True} for s in ("dea", "cluster"))


def test_cli_stage_drops_a_top_level_key_of_a_reused_report(demo_dir, tmp_path):
    # a reused report keeps its five sections and nothing else
    config = str(demo_dir / "config.json")
    out = tmp_path / "out"
    assert cli_main(["dea", "--config", config, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    extra = {"extra": [1, 2], "incomplete": {"stage": "pls", "message": "boom"}}
    (out / "report.json").write_text(json.dumps({**report, **extra}))
    assert cli_main(["cluster", "--config", config, "--out", str(out), "--quiet"]) == 0
    fresh = json.loads((out / "report.json").read_text())
    assert set(fresh) == {"provenance", "dea", "cluster", "correspondence", "pls"}
    assert fresh["dea"] == report["dea"]
    assert "analyses" in fresh["cluster"]


def write_config(demo_dir, tmp_path, edit) -> str:
    """The demo config edited by edit(document), with its dataset, in
    tmp_path; returns the config path."""
    document = json.loads((demo_dir / "config.json").read_text())
    edit(document)
    (tmp_path / "config.json").write_text(json.dumps(document))
    (tmp_path / "dataset.csv").write_bytes((demo_dir / "dataset.csv").read_bytes())
    return str(tmp_path / "config.json")


@pytest.mark.parametrize("stage, sections", [("pls", ["pls"]), ("cluster", ["cluster", "correspondence"])])
def test_cli_stage_treats_a_report_with_a_foreign_section_as_absent(demo_dir, demo_bundle, tmp_path, capsys,
                                                                     stage, sections):
    # a report of a configuration without a stage, holding that stage's
    # results, once crashed the next stage command with an internal error
    config = write_config(demo_dir, tmp_path, lambda d: d.pop(stage))
    out = tmp_path / "reports"
    assert cli_main(["dea", "--config", config, "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    full = demo_bundle[0]
    (out / "report.json").write_text(json.dumps({**report, **{s: full[s] for s in sections}}))
    assert cli_main(["dea", "--config", config, "--quiet"]) == 0
    assert "internal error" not in capsys.readouterr().err
    fresh = json.loads((out / "report.json").read_text())
    assert all(fresh[s] == {"skipped": True} for s in sections)
    assert fresh["dea"] == report["dea"]


def test_cli_validate_ok(demo_dir, capsys):
    assert cli_main(["validate", "--config", str(demo_dir / "config.json")]) == 0
    out = capsys.readouterr().out
    assert "analysis ict" in out


def test_cli_validate_unknown_variable_exits_one(demo_dir, tmp_path, capsys):
    document = json.loads((demo_dir / "config.json").read_text())
    document["dea"][0]["inputs"] = ["mystery"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    code = cli_main(["validate", "--config", str(bad)])
    assert code == 1
    assert "mystery" in capsys.readouterr().err


def test_cli_dea_unknown_period_exits_two(demo_dir, capsys):
    code = cli_main(["dea", "--config", str(demo_dir / "config.json"), "--period", "2008"])
    assert code == 2
    err = capsys.readouterr().err
    assert "2008" in err


def test_cli_dea_single_period_prints_scores(demo_dir, capsys):
    code = cli_main(["dea", "--config", str(demo_dir / "config.json"), "--period", "1998",
                     "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "C01" in out and "1.0000000" in out


@pytest.mark.parametrize("cell, code", [("-5", "NONPOSITIVE"), (None, "MISSING")], ids=["nonpositive", "missing"])
def test_cli_dea_period_validates_the_panel_before_printing(demo_dir, tmp_path, capsys, cell, code):
    # dea --period once printed 0.0000000 for every DMU beside a nonpositive
    # cell, and failed in the solver (exit 2) on a missing one
    (tmp_path / "config.json").write_text((demo_dir / "config.json").read_text())
    lines = [l for l in (demo_dir / "dataset.csv").read_text().splitlines(keepends=True)
             if not l.startswith("C02,1998,ict_spend,")]
    if cell is not None:
        lines.append(f"C02,1998,ict_spend,{cell}\n")
    (tmp_path / "dataset.csv").write_text("".join(lines))
    assert cli_main(["dea", "--config", str(tmp_path / "config.json"), "--period", "1998", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation failed:")
    assert f"ERROR {code} at dmu=C02 period=1998 variable=ict_spend" in captured.err


@pytest.mark.parametrize("command", ["pipeline", "dea"])
def test_cli_dataset_failing_dea_validation_exits_one_and_writes_nothing(demo_dir, tmp_path, capsys, command):
    # pipeline once exited 2 with a stage error and wrote a partial report
    (tmp_path / "config.json").write_text((demo_dir / "config.json").read_text())
    lines = [l for l in (demo_dir / "dataset.csv").read_text().splitlines(keepends=True)
             if not l.startswith("C02,1998,ict_spend,")]
    (tmp_path / "dataset.csv").write_text("".join(lines) + "C02,1998,ict_spend,-5\n")
    assert cli_main([command, "--config", str(tmp_path / "config.json"), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("validation failed:")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("stage, error, started", [
    ("pls", DomainError("variable 'hec' is not strictly positive at dmu=C04 period=2000"), {"pls": {"pending": True}}),
    ("dea", CsvParseError("value 'abc' is not a decimal literal", 7),
     {"dea": {}, "cluster": {"pending": True}, "correspondence": {"pending": True}}),
], ids=["pls-zero-hec", "dea-unparsable-cell"])
def test_cli_staged_stage_failure_writes_a_partial_report(demo_dir, tmp_path, capsys, monkeypatch, stage, error,
                                                          started):
    # a stage run on its own once exited with a bare error and wrote
    # nothing, where the same failure in pipeline wrote a partial report;
    # the stage fails on the dataset of the pipeline run, so that its
    # report stays this run's
    import paneleff.pipeline as pipeline

    config = str(tmp_path / "config.json")
    (tmp_path / "config.json").write_text((demo_dir / "config.json").read_text())
    (tmp_path / "dataset.csv").write_bytes((demo_dir / "dataset.csv").read_bytes())
    assert cli_main(["pipeline", "--config", config, "--quiet"]) == 0
    before = json.loads((tmp_path / "reports" / "report.json").read_text())

    def failing(config, *inputs):
        raise error

    monkeypatch.setattr(pipeline, f"run_{stage}_stage", failing)
    assert cli_main([stage, "--config", config, "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"stage error in {stage}: {error}"
    report = json.loads((tmp_path / "reports" / "report.json").read_text())
    assert report.pop("incomplete") == {"stage": stage, "message": str(error)}
    assert report == {**before, **started}


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 135. KiB for an array"), "out of memory: Unable to allocate 135. KiB for an array"),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
def test_cli_stage_out_of_memory_is_a_stage_error_with_a_partial_report(demo_dir, tmp_path, capsys, monkeypatch,
                                                                       error, message):
    # a MemoryError in a stage once reached the CLI as "internal error:
    # MemoryError" and wrote no partial report
    import paneleff.pipeline as pipeline

    def failing(config, panel):
        raise error

    monkeypatch.setattr(pipeline, "run_pls_stage", failing)
    out = tmp_path / "out"
    assert cli_main(["pipeline", "--config", str(demo_dir / "config.json"), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"stage error in pls: {message}"
    report = json.loads((out / "report.json").read_text())
    assert report["incomplete"] == {"stage": "pls", "message": message}
    assert report["pls"] == {"pending": True} and "ict" in report["dea"] and "analyses" in report["cluster"]


def test_cli_dea_stage_sets_the_cluster_sections_pending(demo_dir, tmp_path):
    # the cluster sections are computed from the DEA results; a dea run
    # once kept those of an earlier run beside its own results
    config = str(demo_dir / "config.json")
    out = tmp_path / "out"
    assert cli_main(["pipeline", "--config", config, "--out", str(out), "--quiet"]) == 0
    before = json.loads((out / "report.json").read_text())
    assert cli_main(["dea", "--config", config, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report == {**before, "cluster": {"pending": True}, "correspondence": {"pending": True}}
    assert "== Cluster analysis: pending ==" in (out / "report.txt").read_text()


def test_cli_cluster_without_dea_results_exits_two(demo_dir, tmp_path, capsys):
    code = cli_main(["cluster", "--config", str(demo_dir / "config.json"),
                     "--out", str(tmp_path / "empty"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.count("stage error in cluster:") == 1


def test_cli_dea_period_names_a_failing_program_once(demo_dir, monkeypatch, capsys):
    # dea --period once named the DMU of a failing program but not its period
    from paneleff import dea
    from paneleff.errors import LpSolverError

    solve_stack = dea.solve_stack

    def breaking(*stack):
        outcomes = solve_stack(*stack)
        outcomes[2] = LpSolverError("injected breakdown")
        return outcomes

    monkeypatch.setattr(dea, "solve_stack", breaking)
    assert cli_main(["dea", "--config", str(demo_dir / "config.json"), "--period", "1999", "--quiet"]) == 2
    assert capsys.readouterr().err == "error: period=1999: envelopment program for dmu 'C03': injected breakdown\n"


def test_cli_nonpositive_dataset_fails_validation(tmp_path, capsys):
    panel = make_demo_panel()
    values = panel.values.copy()
    values[0, 0, 0] = -5.0
    from paneleff.panel_data import PanelDataset

    broken = PanelDataset(panel.dmus, panel.periods, panel.variables, values)
    write_panel_csv(broken, tmp_path / "dataset.csv")
    document = make_demo_config("dataset.csv", "reports", bootstrap_samples=100)
    (tmp_path / "config.json").write_text(json.dumps(document))
    code = cli_main(["validate", "--config", str(tmp_path / "config.json")])
    assert code == 1
    assert "NONPOSITIVE" in capsys.readouterr().out


@pytest.mark.parametrize("cell", ["inf", "-inf"])
def test_cli_validate_reports_an_infinite_dea_cell_as_nonfinite(demo_dir, tmp_path, capsys, cell):
    # an infinite DEA cell was once reported as nonpositive
    (tmp_path / "config.json").write_text((demo_dir / "config.json").read_text())
    lines = [l for l in (demo_dir / "dataset.csv").read_text().splitlines(keepends=True)
             if not l.startswith("C02,1998,ict_spend,")]
    (tmp_path / "dataset.csv").write_text("".join(lines) + f"C02,1998,ict_spend,{cell}\n")
    assert cli_main(["validate", "--config", str(tmp_path / "config.json")]) == 1
    errors = [l.strip() for l in capsys.readouterr().out.splitlines() if l.strip().startswith("ERROR")]
    assert errors == [f"ERROR NONFINITE at dmu=C02 period=1998 variable=ict_spend: cell value {cell} is not finite"]


def test_cli_validate_reports_the_missing_pls_cell_that_the_pls_stage_names(demo_dir, tmp_path, capsys):
    # leb is a PLS indicator and the Cobb-Douglas target, not a DEA
    # variable: validate once passed this dataset, and the stage failed it
    config = str(demo_dir / "config.json")
    assert cli_main(["validate", "--config", config]) == 0
    clean = capsys.readouterr().out.splitlines()
    (tmp_path / "config.json").write_text((demo_dir / "config.json").read_text())
    lines = (demo_dir / "dataset.csv").read_text().splitlines(keepends=True)
    (tmp_path / "dataset.csv").write_text("".join(l for l in lines if not l.startswith("C05,2001,leb,")))
    assert cli_main(["validate", "--config", str(tmp_path / "config.json")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [l for l in out if l.startswith("analysis ")] == [l for l in clean if l.startswith("analysis ")]
    assert out[-3:] == ["pls stage: 1 error(s), 0 warning(s)",
                        "  ERROR MISSING at dmu=C05 period=2001 variable=leb: cell is missing",
                        "cluster stage: 0 error(s), 0 warning(s)"]
    assert cli_main(["pipeline", "--config", str(tmp_path / "config.json"), "--quiet"]) == 2
    assert "cell is missing at dmu=C05 period=2001 variable=leb" in capsys.readouterr().err


def test_cli_validate_reports_the_nonpositive_cobb_douglas_cell_that_the_pls_stage_names(demo_dir, tmp_path,
                                                                                          capsys):
    # hec is a PLS indicator, which may be any finite value, and a
    # Cobb-Douglas variable, which the stage logs: validate once passed a
    # zero hec cell, and the stage failed it
    (tmp_path / "config.json").write_text((demo_dir / "config.json").read_text())
    lines = (demo_dir / "dataset.csv").read_text().splitlines(keepends=True)
    for variable, code in (("iu", 0), ("hec", 1)):
        kept = "".join(l for l in lines if not l.startswith(f"C04,2000,{variable},"))
        (tmp_path / "dataset.csv").write_text(kept + f"C04,2000,{variable},0\n")
        assert cli_main(["validate", "--config", str(tmp_path / "config.json")]) == code
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == ["pls stage: 1 error(s), 0 warning(s)",
                        "  ERROR NONPOSITIVE at dmu=C04 period=2000 variable=hec: cell value 0.0 must be strictly positive",
                        "cluster stage: 0 error(s), 0 warning(s)"]
    assert cli_main(["pipeline", "--config", str(tmp_path / "config.json"), "--quiet"]) == 2
    assert "cell value 0.0 must be strictly positive at dmu=C04 period=2000 variable=hec" in capsys.readouterr().err


@pytest.mark.parametrize("k_max", [27, 100])
def test_cli_validate_reports_a_k_max_the_dmus_cannot_reach(demo_dir, tmp_path, capsys, k_max):
    # ANOVA of k clusters needs more than k of the 27 DMU means: validate
    # once passed these, and the cluster stage failed them
    config = write_config(demo_dir, tmp_path, lambda d: d["cluster"].update(k_max=k_max))
    assert cli_main(["validate", "--config", config]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["cluster stage: 1 error(s), 0 warning(s)",
                        f"  ERROR K_MAX at dmus=27: k_max={k_max} is not below the 27 DMUs: "
                        "ANOVA needs more points than clusters"]
    assert [l for l in out if l.endswith(": 0 error(s), 0 warning(s)")] == [
        "analysis ict: 0 error(s), 0 warning(s)", "analysis health: 0 error(s), 0 warning(s)",
        "pls stage: 0 error(s), 0 warning(s)"]
    assert cli_main(["pipeline", "--config", config, "--quiet"]) == 2
    assert "stage error in cluster" in capsys.readouterr().err


def test_cli_pipeline_emits_partial_bundle_on_stage_failure(tmp_path, capsys):
    panel = make_demo_panel()
    write_panel_csv(panel, tmp_path / "dataset.csv")
    document = make_demo_config("dataset.csv", "reports", bootstrap_samples=100)
    # guarantee a cluster-stage failure: k range exceeds the distinct means
    document["cluster"]["k_max"] = 6
    document["cluster"]["k_min"] = 6
    (tmp_path / "config.json").write_text(json.dumps(document))
    # shrink the dataset to 4 DMUs so that only <= 4 distinct means exist
    keep = {"C01", "C02", "C18", "C19"}
    lines = (tmp_path / "dataset.csv").read_text().splitlines()
    filtered = [lines[0]] + [l for l in lines[1:] if l.split(",")[0] in keep]
    (tmp_path / "dataset.csv").write_text("\n".join(filtered) + "\n")
    code = cli_main(["pipeline", "--config", str(tmp_path / "config.json"), "--quiet"])
    assert code == 2
    report = json.loads((tmp_path / "reports" / "report.json").read_text())
    assert report["incomplete"]["stage"] == "cluster"
    assert set(report["dea"]) == {"ict", "health"}
    assert report["pls"] == {"pending": True}


@pytest.mark.parametrize("stage", ["pipeline", "dea"])
def test_cli_seed_without_a_pls_stage_is_a_config_error(demo_dir, tmp_path, capsys, stage):
    # --seed sets the bootstrap seed; without a pls stage it once changed nothing
    config = write_config(demo_dir, tmp_path, lambda d: d.pop("pls"))
    assert cli_main([stage, "--config", config, "--seed", "42", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--seed" in err and "pls stage" in err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_negative_seed_is_a_config_error(demo_dir, tmp_path, capsys, where):
    # the flag once reached numpy and exited 2 with an internal error
    if where == "flag":
        config, seed = str(demo_dir / "config.json"), ["--seed", "-1"]
    else:
        config, seed = write_config(demo_dir, tmp_path, lambda d: d["pls"]["bootstrap"].update(seed=-1)), []
    out = tmp_path / "out"
    assert cli_main(["pipeline", "--config", config, "--out", str(out), "--quiet", *seed]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "must be a non-negative integer" in err
    assert not out.exists()


def test_cli_seed_override_changes_provenance(demo_dir, tmp_path):
    config = str(demo_dir / "config.json")
    out = tmp_path / "s"
    assert cli_main(["pipeline", "--config", config, "--out", str(out), "--seed", "42",
                     "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["provenance"]["seeds"] == {"bootstrap": 42}


def test_cli_format_override(demo_dir, tmp_path):
    config = str(demo_dir / "config.json")
    out = tmp_path / "fmt"
    assert cli_main(["pipeline", "--config", config, "--out", str(out),
                     "--format", "json", "--quiet"]) == 0
    assert (out / "report.json").exists()
    assert not (out / "report.txt").exists()


def test_cli_demo_smoke(tmp_path, capsys):
    out = tmp_path / "demo"
    code = cli_main(["demo", "--out", str(out), "--samples", "100", "--quiet"])
    assert code == 0
    assert (out / "dataset.csv").exists()
    assert (out / "config.json").exists()
    assert (out / "reports" / "report.json").exists()


def test_cli_demo_prints_the_report_txt_it_wrote(tmp_path, monkeypatch, capsys):
    # demo once laid the whole report out a second time to print it
    import paneleff.pipeline as pipeline

    calls = []
    report_layout = pipeline.report_layout

    def counting_layout(report):
        calls.append(report)
        return report_layout(report)

    monkeypatch.setattr(pipeline, "report_layout", counting_layout)
    out = tmp_path / "demo"
    assert cli_main(["demo", "--out", str(out), "--samples", "100"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (out / "reports" / "report.txt").read_text() + "\n"


def test_cli_demo_stage_failure_writes_partial_report_and_exits_two(tmp_path, monkeypatch, capsys):
    import paneleff.cli as cli_module

    def failing_pipeline(config, stage=None):
        partial = {**unrun_report(config), "incomplete": {"stage": "pls", "message": "boom"}}
        raise StageError("pls", "boom", partial_report=partial)

    monkeypatch.setattr(cli_module, "run_pipeline", failing_pipeline)
    out = tmp_path / "demo"
    code = cli_main(["demo", "--out", str(out), "--samples", "100", "--quiet"])
    assert code == 2
    assert "stage error in pls" in capsys.readouterr().err
    report = json.loads((out / "reports" / "report.json").read_text())
    assert report["incomplete"] == {"stage": "pls", "message": "boom"}


def test_cli_stage_failure_reports_a_failed_partial_write(demo_dir, tmp_path, monkeypatch, capsys):
    # a partial report that could not be written was once passed over in silence
    import paneleff.cli as cli_module

    def failing_pipeline(config, stage=None):
        partial = {**unrun_report(config), "incomplete": {"stage": "pls", "message": "boom"}}
        raise StageError("pls", "boom", partial_report=partial)

    monkeypatch.setattr(cli_module, "run_pipeline", failing_pipeline)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where a directory must go")
    code = cli_main(["pipeline", "--config", str(demo_dir / "config.json"), "--out", str(blocker), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "stage error in pls: boom"
    assert err[1].startswith("partial report not written: ") and str(blocker) in err[1]


def test_cli_unwritable_output_is_filesystem_error(demo_dir, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where a directory must go")
    code = cli_main(["pipeline", "--config", str(demo_dir / "config.json"),
                     "--out", str(blocker), "--quiet"])
    assert code == 2
    assert "filesystem error" in capsys.readouterr().err


def test_emit_report_unknown_format_rejected(demo_bundle, tmp_path):
    from paneleff.errors import UsageError

    bundle, _ = demo_bundle
    with pytest.raises(UsageError):
        emit_report(bundle, str(tmp_path), ("yaml",))
