"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""
import configparser
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = 6  # not the default seed: outputs are checked against the run's first CLI run
TINY = {
    # more than one 256-row block, so threads = 2 splits the bank
    "rates_phi": {"replicates": "300", "horizon": "50"},
    "couple_demo": {"replicates": "300", "horizon": "0.05"},
    # long enough for the gamma = 4 bank to raise and fall back to solo runs
    "rates_lsq_diverge": {"replicates": "64", "horizon": "150"},
}


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Workload entries whose configs are shrunk copies of the real ones."""
    tmp = tmp_path_factory.mktemp("configs")
    workloads = run.load_workloads()
    for name, sizes in TINY.items():
        cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cfg.read(BENCH / "workloads" / workloads[name]["config"])
        for key, value in sizes.items():
            cfg["experiment"][key] = value
        path = tmp / f"{name}.ini"
        with open(path, "w") as fh:
            cfg.write(fh)
        workloads[name]["config"] = str(path)
    return workloads


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize(
    "workload,trace",
    [("rates_phi", 0), ("rates_phi", 1), ("couple_demo", 1), ("rates_lsq_diverge", 1)],
)
def test_every_listed_metric_is_printed_with_its_unit(tiny, monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "load_workloads", lambda: tiny)
    rc = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    assert rc == 0
    lines, result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_threads_do_not_change_output_bytes(tiny, tmp_path, workload):
    wl = tiny[workload]
    sums = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        argv = run.cli_args(wl, Path(wl["config"]), SEED, out) + ["--threads", str(threads)]
        res = run.launch([sys.executable, "-m", "sgdlab.cli"] + argv)
        assert res["rc"] == 0
        sums.append(run.checksums(out))
    assert None not in sums[0].values()
    assert sums[0] == sums[1]


def test_trace_spans_nest_under_run_experiment_and_cover_it(tiny, tmp_path):
    wl = tiny["rates_lsq_diverge"]
    checker = run.Checker(wl, SEED)
    res, trace = run.traced_cli_run(wl, Path(wl["config"]), SEED, tmp_path, checker)
    assert res["rc"] == 0 and checker.failed == 0
    spans = {s["id"]: s for s in trace["spans"]}
    assert len({s["run"] for s in spans.values()}) == 1
    (root,) = [s for s in spans.values() if s["name"] == "run_experiment"]

    def ancestors(s):
        while s["parent"] is not None:
            s = spans[s["parent"]]
            yield s

    inside = [s for s in spans.values() if root["start"] < s["start"] < root["end"]]
    assert {s["name"] for s in inside} >= {"run_sgd_replicates", "run_sgd", "fit_rate"}
    for s in inside:
        assert root in ancestors(s)
    for s in spans.values():
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    selfs = run.self_times(trace["spans"])
    subtree = [root] + inside
    assert sum(selfs[s["id"]] for s in subtree) == pytest.approx(root["end"] - root["start"], abs=1e-9)
    assert all(selfs[s["id"]] >= -1e-9 for s in subtree)
    # layer self times plus interpreter start and exit make up the traced wall time
    m = run.span_metrics(trace, res["wall_s"], 256)
    layers = sum(m[f"{layer}.self_s"][0] for layer in run.LAYERS)
    assert layers + m["trace.interpreter_s"][0] == pytest.approx(res["wall_s"], abs=1e-9)
    assert m["sgd.solo_calls"][0] == 64 and m["cli.solo_fallbacks"][0] == 1


def test_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rates_phi", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
