"""paneleff benchmark: the wait of an analyst who runs the CLI on a panel.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload demo --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 240 --record out.json

Workloads: demo, dea_wide and pls_heavy (workloads.py). BENCHMARK.json gates
demo and dea_wide only: a full set of repetitions of 60-second runs fits
the allotted time for two workloads. pls_heavy still runs by name and in
--workload all.

The program is run from ``src/`` of the checkout, as ``python -m
paneleff.cli``; it is never edited or installed. Each workload's dataset and
configuration are generated from --seed (see workloads.py).

--trace 0 runs a closed loop with one client: one paneleff process at a
time, each round a ``pipeline`` run (wall_s, peak_rss_mb), one
``validate`` run (setup_s) and one ``dea --period <first period>`` run
(query_s). After each of them the launcher runs reference.py, a fixed
piece of work that does not use paneleff. Every output is checked
(checks.py); a run fails when it exits non-zero or fails a check. With
--workload all the workloads take turns, in an order that rotates every
round, so bursts of machine noise spread over all of them.

--trace 1 runs ``cli_main(["pipeline", ...])`` in this process, alternating
untraced runs with runs traced by tracing.py, and reports the per-layer
metrics named in BENCHMARK.json. End-to-end metrics never come from it.

Each timing is reported as its median, the highest percentile with at least
ten samples beyond it, and the sample count. The host of a small virtual
machine can run the same code up to twice as fast or as slow from one
minute to the next, so every end-to-end time is speed-adjusted: multiplied
by REFERENCE_S over the median of the four reference.py runs nearest to it
in time. It then reads as the wall time on a machine where reference.py
takes REFERENCE_S seconds; the unadjusted median is printed beside it. The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.py")
REFERENCE_S = 0.3  # reference.py's wall time on the machine of perfbench/baseline.json

SETUP_RUNS_PER_ROUND = 1
QUERY_RUNS_PER_ROUND = 1
CHILD_TIMEOUT_S = 120.0
MIN_ROUNDS = 2
STARTUP_RUNS_PER_ROUND = 3
END_TO_END_EXTRA = {"fail_rate": "ratio"}  # printed, not a BENCHMARK.json metric: it is 0 when all is well


def _metric_specs() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def summarize(values: list) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    the sample count and the samples in the order taken."""
    xs = sorted(values)
    n = len(xs)
    exact = all(isinstance(x, int) for x in xs)
    median = statistics.median_low(xs) if exact else statistics.median(xs)
    out = {"median": median, "n": n, "tail": None, "samples": list(values)}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            out["tail"] = {"percentile": q, "value": xs[rank - 1]}
            break
    return out


def _describe(name: str, unit: str, summary: dict) -> str:
    tail = summary["tail"]
    tail_text = (f"p{tail['percentile']:g} {tail['value']:.6g}" if tail
                 else "no percentile has 10 samples beyond it")
    line = f"  {name:28s} {summary['median']:.6g} {unit}  (median of {summary['n']}; {tail_text})"
    if "raw_median" in summary:
        line += f"\n    speed-adjusted; unadjusted median {summary['raw_median']:.6g} {unit}"
    if isinstance(summary["median"], float) and len(set(summary["samples"])) > 1:
        line += "\n    samples: " + " ".join(f"{x:.4g}" for x in summary["samples"])
    return line


def provenance() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", f"default ({os.cpu_count()})"),
        "git_commit": commit,
        "loadavg_before": os.getloadavg(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """The small process that starts every ``paneleff`` child, one at a
    time (see launcher.py for why it is a process of its own).

    With ``reference`` set it also runs reference.py after every paneleff
    child and keeps its wall times in ``refs``, in the order taken."""

    def __init__(self, reference: bool):
        self.env = _child_env()
        self.reference = reference
        self.refs: list = []
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _spawn(self, argv: list, cwd: str) -> tuple[float, float, int, str, str]:
        out_path = os.path.join(cwd, "child.out")
        err_path = os.path.join(cwd, "child.err")
        request = {"argv": argv, "cwd": cwd, "env": self.env,
                   "stdout": out_path, "stderr": err_path, "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return reply["wall"], reply["maxrss_kb"] / 1024.0, reply["code"], stdout, stderr

    def run(self, argv: list, cwd: str) -> tuple[float, int, float, int, str, str]:
        """Run ``paneleff argv`` to completion: wall seconds from spawn to
        exit, the index in ``refs`` of the reference run that follows it,
        peak RSS in MB, exit code, stdout and stderr."""
        wall, rss_mb, code, stdout, stderr = self._spawn([sys.executable, "-m", "paneleff.cli", *argv], cwd)
        ref_index = len(self.refs)
        if self.reference:
            ref_wall, _, ref_code, _, ref_err = self._spawn([sys.executable, REFERENCE], cwd)
            if ref_code != 0:
                raise RuntimeError(f"reference.py exited with code {ref_code}: {ref_err.strip()[-300:]}")
            self.refs.append(ref_wall)
        return wall, ref_index, rss_mb, code, stdout, stderr

    def speed_adjusted(self, wall: float, ref_index: int) -> float:
        """``wall`` in seconds at the speed where reference.py takes
        REFERENCE_S: scaled by the median of the reference runs nearest in
        time (two before the paneleff run, two after)."""
        local = statistics.median(self.refs[max(0, ref_index - 2):ref_index + 2])
        return wall * REFERENCE_S / local

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Bench:
    """One workload: its generated files, oracle, samples and failures."""

    def __init__(self, name: str, seed: int, directory: str, launcher: Launcher):
        self.name = name
        self.launcher = launcher
        self.built = workloads.build(name, seed, directory)
        self.directory = self.built.directory
        self.oracle = checks.oracle_scores(self.built)
        self.period = self.built.panel.periods[0]
        self.samples: dict = defaultdict(list)
        self.ref_index: dict = defaultdict(list)
        self.layers: list = []
        self.attempted = 0
        self.failures: list = []
        self.report = None
        self.doc = None

    def attempt(self, what: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except checks.CheckFailed as exc:
            self.failures.append(f"{what}: {exc}")

    def _cli(self, metric, *argv) -> str:
        wall, ref_index, rss_mb, code, stdout, stderr = self.launcher.run(list(argv), self.directory)
        if metric is not None:
            self.samples[metric].append(wall)
            self.ref_index[metric].append(ref_index)
        if metric == "wall_s":
            self.samples["peak_rss_mb"].append(rss_mb)
        if code != 0:
            raise checks.CheckFailed(f"exit code {code}: {stderr.strip()[-300:]}")
        return stdout

    def _check_report(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        if self.report is None:
            self.doc = checks.check_report(data.decode("utf-8"), self.built, self.oracle)
            self.report = data
        elif data != self.report:
            raise checks.CheckFailed(f"{path} differs from the first report.json of this run")

    def pipeline(self) -> None:
        self._cli("wall_s", "pipeline", "--config", "config.json", "--quiet")
        self._check_report(os.path.join(self.directory, "reports", "report.json"))

    def validate(self, metric="setup_s") -> None:
        checks.check_validate_output(self._cli(metric, "validate", "--config", "config.json"), self.built)

    def query(self) -> None:
        out = self._cli("query_s", "dea", "--period", self.period, "--config", "config.json")
        checks.check_period_output(out, self.built, self.oracle, self.period)

    def startup(self) -> None:
        out = self._cli("cli.startup_s", "--version")
        if not out.startswith("paneleff "):
            raise checks.CheckFailed(f"--version printed {out!r}")

    def warm_up(self) -> None:
        """One untimed run, so that bytecode caches exist before timing."""
        self.attempt("validate", lambda: self.validate(metric=None))

    def round(self) -> None:
        self.attempt("pipeline", self.pipeline)
        for _ in range(SETUP_RUNS_PER_ROUND):
            self.attempt("validate", self.validate)
        for _ in range(QUERY_RUNS_PER_ROUND):
            self.attempt("query", self.query)

    def traced_round(self, index: int, tracer) -> None:
        """An untraced and a traced in-process pipeline run, in alternating
        order, plus CLI start-up runs."""
        from paneleff.cli import cli_main

        out_dir = os.path.join(self.directory, "inproc")
        argv = ["pipeline", "--config", self.built.config_path, "--out", out_dir, "--quiet"]
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            def one():
                start = time.perf_counter()
                if traced:
                    code, spans, counts = tracer.run("cli.pipeline", lambda: cli_main(argv))
                else:
                    code = cli_main(argv)
                wall = time.perf_counter() - start
                self.samples["traced_wall_s" if traced else "plain_wall_s"].append(wall)
                if code != 0:
                    raise checks.CheckFailed(f"in-process pipeline returned {code}")
                self._check_report(os.path.join(out_dir, "report.json"))
                if traced:
                    layers = tracing.layer_metrics(spans, counts)
                    changed = [k for k, v in layers.items()
                               if isinstance(v, int) and self.layers and v != self.layers[0][k]]
                    if changed:
                        raise checks.CheckFailed(f"counts {changed} differ from the first traced run")
                    self.layers.append(layers)
            self.attempt("traced pipeline" if traced else "in-process pipeline", one)
        for _ in range(STARTUP_RUNS_PER_ROUND):
            self.attempt("startup", self.startup)

    def end_to_end(self, units: dict) -> dict:
        out = {}
        for name, unit in units.items():
            raw = self.samples[name]
            if not raw:
                continue
            if unit == "s":
                adjusted = [self.launcher.speed_adjusted(wall, k) for wall, k in zip(raw, self.ref_index[name])]
                out[name] = summarize(adjusted)
                out[name]["raw_median"] = statistics.median(raw)
            else:
                out[name] = summarize(raw)
        out["fail_rate"] = {"median": len(self.failures) / max(self.attempted, 1),
                            "n": self.attempted, "tail": None, "samples": []}
        return out

    def per_layer(self, names) -> dict:
        out = {}
        for name in names:
            if self.layers and name in self.layers[0]:
                out[name] = summarize([m[name] for m in self.layers])
        if self.samples["cli.startup_s"]:
            out["cli.startup_s"] = summarize(self.samples["cli.startup_s"])
        plain = statistics.median(self.samples["plain_wall_s"])
        traced = statistics.median(self.samples["traced_wall_s"])
        out["trace.overhead"] = {"median": traced / plain - 1.0, "n": len(self.layers), "tail": None,
                                 "samples": []}
        return out

    def properties(self) -> dict:
        panel = self.built.panel
        document = self.built.document
        props = {"why": workloads.WORKLOADS[self.name].why,
                 "dmus": len(panel.dmus), "periods": len(panel.periods), "dea": {}}
        cluster = (self.doc or {}).get("cluster", {}).get("analyses", {})
        for entry in document["dea"]:
            props["dea"][entry["name"]] = {
                "m_x_s": f"{len(entry['inputs'])}x{len(entry['outputs'])}",
                "model": f"{entry['returns_to_scale']}-{entry['orientation']}",
                "efficient_share": round(checks.efficient_share(self.oracle[entry["name"]]), 4),
                "selected_k": cluster.get(entry["name"], {}).get("selected_k"),
            }
        if "cluster" in document:
            props["k_range"] = [document["cluster"]["k_max"], document["cluster"]["k_min"]]
        if "pls" in document:
            props["pooled_rows"] = len(panel.dmus) * len(panel.periods)
            props["pls_models"] = {
                m["name"]: {"scheme": m["inner_scheme"], "paths": len(m["paths"]),
                            "indicators_per_block": [len(b["indicators"]) for b in m["blocks"]]}
                for m in document["pls"]["models"]}
            props["bootstrap_samples"] = document["pls"]["bootstrap"]["samples"]
        if self.report is not None:
            props["report_sha256"] = hashlib.sha256(self.report).hexdigest()
        return props


def measure(benches: list, seconds: float, trace: bool, tracer) -> None:
    for bench in benches:
        if not trace:
            bench.warm_up()
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    # start a round only if a round of average length still ends in time
    while rounds < MIN_ROUNDS or time.perf_counter() + (time.perf_counter() - start) / rounds <= deadline:
        shift = rounds % len(benches)
        for bench in benches[shift:] + benches[:shift]:
            if trace:
                bench.traced_round(rounds, tracer)
            else:
                bench.round()
        rounds += 1


def _record(path: str, section: str, prov: dict, seed: int, seconds: float, results: dict) -> None:
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("runs", {})[section] = {"provenance": prov, "seed": seed, "seconds": seconds}
    for name, result in results.items():
        entry = doc.setdefault("workloads", {}).setdefault(name, {})
        entry["properties"] = result["properties"]
        entry[section] = result["metrics"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="merge the results into this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "paneleff", "__init__.py")):
        print(f"perfbench: no paneleff source tree at {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher(reference=not args.trace)  # before the imports below make this process large
    try:
        return _run(args, launcher)
    finally:
        launcher.close()


def _run(args, launcher: Launcher) -> int:
    sys.path.insert(0, SRC)
    # imported only now: they import paneleff from SRC
    global workloads, checks, tracing
    import checks
    import tracing
    import workloads

    e2e_units, layer_units = _metric_specs()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    prov = provenance()
    os.makedirs(WORK, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-seed{args.seed}-") as tmp:
        benches = [Bench(n, args.seed, os.path.join(tmp, n), launcher) for n in names]
        measure(benches, args.seconds, bool(args.trace), tracer)
        prov["loadavg_after"] = os.getloadavg()
        if tracer is not None:
            tracer.dump(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json"))
            if tracer.missing:
                print(f"not traced (attribute missing): {', '.join(tracer.missing)}")
        results = {}
        for b in benches:
            metrics = b.per_layer(layer_units) if args.trace else b.end_to_end(e2e_units)
            results[b.name] = {"metrics": metrics,
                               "properties": b.properties()}

    units = layer_units if args.trace else dict(e2e_units, **END_TO_END_EXTRA)
    print(f"paneleff benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(prov))
    if launcher.refs:
        print(_describe("reference.py", "s", summarize(launcher.refs)))
    metrics = {}
    for b in benches:
        result = results[b.name]
        print(f"workload {b.name}: " + json.dumps(result["properties"]))
        for name, unit in units.items():
            summary = result["metrics"][name]
            print(_describe(name, unit, summary))
            if name in END_TO_END_EXTRA:
                continue
            key = name if len(benches) == 1 else f"{b.name}.{name}"
            metrics[key] = {"value": summary["median"], "unit": unit}
        print(f"  {len(b.failures)} of {b.attempted} runs failed")
        for failure in b.failures[:10]:
            print(f"  FAILED {failure}")
    if args.record:
        _record(args.record, "per_layer" if args.trace else "end_to_end", prov, args.seed,
                args.seconds, results)

    attempted = sum(b.attempted for b in benches)
    failed = sum(len(b.failures) for b in benches)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
