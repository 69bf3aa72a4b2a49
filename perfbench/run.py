"""Benchmark of the sgdlab command-line experiments.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: every run starts `python3 -m
sgdlab.cli` from ./src in a fresh interpreter.  Workloads, their configs,
the layers they load and the pinned output checksums are in
perfbench/workloads.json; the configs are in perfbench/workloads/.  The
seed becomes the CLI's master seed (it also draws the least-squares data),
so one seed always gives the same inputs and the same output bytes.

--trace 0 (timed run): for S seconds, alternately time the CLI's set-up
in a probe interpreter (setup_probe.py) and one whole CLI run, then
report the end-to-end metrics as medians over the runs.

--trace 1 (traced run): one CLI run under traced_cli.py, which records a
span around every sgdlab function sgdlab.cli calls, then untraced CLI
runs for the rest of the S seconds (the difference is the tracing
overhead), then micro-timings of the inner-loop callables at the
workload's array shape.  Reports the per-layer metrics.

Every CLI run's raw.csv, summary.csv and report.txt are hashed.  At the
default seed they must match the checksums pinned in workloads.json; at
any other seed they must match the run's first CLI run.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = BENCH / "workloads.json"
SCRATCH = ROOT / ".perfbench"
DEFAULT_SEED = 20240817
OUTPUTS = ("raw.csv", "summary.csv", "report.txt")
LAUNCH_TIMEOUT_S = 150.0
SETUP_PROBES = 3
MICRO_CALLS = 1000
LAYERS = ("cli", "core", "objectives", "noise", "sgd", "sde", "coupling", "analysis")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "rep_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "outputs_match": "share",
    "completed_share": "share",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def load_workloads(path: Path = WORKLOADS) -> dict:
    spec = json.loads(path.read_text())
    return {w["name"]: w for w in spec["workloads"]}


def read_config(path: Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not cfg.read(path):
        raise BenchError(f"config {path} not readable")
    return cfg


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def run_shape(cfg: configparser.ConfigParser) -> tuple[int, int]:
    """(replicates attempted, replicate-steps per completed replicate).

    A coupled replicate counts its diffusion substeps plus its discrete steps.
    """
    exp = cfg["experiment"]
    kind = exp["kind"]
    replicates = int(exp["replicates"])
    horizon = float(exp["horizon"])
    gammas = _floats(cfg["schedule"].get("gamma", "0.1"))
    alphas = _floats(cfg["schedule"].get("alpha", "0.5"))
    if kind == "rates":
        return replicates * len(gammas) * len(alphas), int(horizon)
    if kind == "couple-demo":
        ga = gammas[0] ** (1.0 / (1.0 - alphas[0]))
        blocks = int(math.ceil(horizon / ga - 1e-9))
        return replicates, blocks * (int(exp.get("substeps", "16")) + 1)
    raise BenchError(f"no step count for experiment kind {kind!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(argv: list[str], stdout=subprocess.DEVNULL, stderr=None) -> dict:
    """Run one child to its exit; wall time from spawn to exit, and its peak RSS."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=stdout, stderr=stderr)
    killer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read() if stdout == subprocess.PIPE else b""
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout:
        proc.stdout.close()
    return {
        "t0": t0,
        "wall_s": wall,
        "rc": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out,
    }


def setup_probe(config: Path, seed: int) -> float:
    res = launch(
        [sys.executable, str(BENCH / "setup_probe.py"), str(config), str(seed)],
        stdout=subprocess.PIPE,
    )
    if res["rc"] != 0:
        raise BenchError(f"set-up probe exited with {res['rc']}")
    return float(res["stdout"].decode().strip().splitlines()[-1]) - res["t0"]


def cli_args(wl: dict, config: Path, seed: int, out_dir: Path) -> list[str]:
    return [wl["experiment"], "--config", str(config), "--seed", str(seed), "--out-dir", str(out_dir)]


def checksums(out_dir: Path) -> dict:
    sums = {}
    for name in OUTPUTS:
        path = out_dir / name
        sums[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return sums


def clear_outputs(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)


def aborted_count(report: Path) -> int:
    m = re.search(r"^aborted replicates \((\d+)\):$", report.read_text(), re.M)
    return int(m.group(1)) if m else 0


class Checker:
    """Output checksums of every CLI run against the seed's reference."""

    def __init__(self, wl: dict, seed: int):
        self.reference = wl["sha256"] if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0

    def check(self, res: dict, out_dir: Path) -> float:
        self.attempted += 1
        sums = checksums(out_dir)
        if self.reference is None and res["rc"] == 0:
            self.reference = sums
        ref = self.reference or {}
        share = sum(sums[n] is not None and sums[n] == ref.get(n) for n in OUTPUTS) / len(OUTPUTS)
        if res["rc"] != 0 or share < 1.0:
            self.failed += 1
            print(f"FAILED: exit code {res['rc']}, outputs match {share:.3f}", file=sys.stderr)
        return share


def timed_cli_run(wl, config, seed, work: Path, checker: Checker, shape) -> dict:
    out_dir = work / "out"
    clear_outputs(out_dir)
    with open(work / "stderr.txt", "wb") as err:
        res = launch([sys.executable, "-m", "sgdlab.cli"] + cli_args(wl, config, seed, out_dir), stderr=err)
    res["outputs_match"] = checker.check(res, out_dir)
    attempted, steps = shape
    aborted = aborted_count(out_dir / "report.txt") if res["rc"] == 0 else attempted
    res["aborted"] = aborted
    res["rep_steps"] = (attempted - aborted) * steps
    return res


def _next_would_overrun(began: float, deadline: float) -> bool:
    """Stop when another iteration as long as the last one would end past the deadline."""
    now = time.monotonic()
    return now + (now - began) > deadline


def describe_tail(walls: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(walls)
    line = f"wall_s median {statistics.median(walls):.4f} s over n={n} runs"
    if n >= 11:
        q = math.floor(100 * (n - 10) / n)
        cut = statistics.quantiles(walls, n=100, method="inclusive")[q - 1] if q >= 1 else min(walls)
        line += f"; p{q} {cut:.4f} s (ten or more runs beyond it)"
    else:
        line += f"; max {max(walls):.4f} s (fewer than 11 runs: no percentile has ten beyond it)"
    return line + "\nwall_s per run: " + " ".join(f"{w:.3f}" for w in walls)


def run_timed(wl, config, seed, seconds, work) -> tuple[Checker, dict]:
    shape = run_shape(read_config(config))
    checker = Checker(wl, seed)
    setup_probe(config, seed)  # warm-up: byte-compiles sources, fills the file cache
    setups, runs = [], []
    deadline = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(config, seed))
        runs.append(timed_cli_run(wl, config, seed, work, checker, shape))
        if _next_would_overrun(began, deadline):
            break
    attempted = shape[0]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "rep_steps_per_s": statistics.median(r["rep_steps"] / r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "outputs_match": statistics.mean(r["outputs_match"] for r in runs),
        "completed_share": statistics.median(1.0 - r["aborted"] / attempted for r in runs),
    }
    print(describe_tail([r["wall_s"] for r in runs]))
    print(f"setup_s over n={len(setups)} probes; aborted_share {runs[0]['aborted']}/{attempted}")
    return checker, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


# ---- traced run ---------------------------------------------------------------


def traced_cli_run(wl, config, seed, work: Path, checker: Checker) -> tuple[dict, dict]:
    out_dir = work / "out"
    clear_outputs(out_dir)
    spans_path = work / "spans.json"
    argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), f"{wl['name']}-{seed}", "--"]
    with open(work / "stderr.txt", "wb") as err:
        res = launch(argv + cli_args(wl, config, seed, out_dir), stderr=err)
    res["outputs_match"] = checker.check(res, out_dir)
    res["raw_rows"] = max(0, len((out_dir / "raw.csv").read_text().splitlines()) - 1) if res["rc"] == 0 else 0
    res["output_bytes"] = sum((out_dir / n).stat().st_size for n in OUTPUTS if (out_dir / n).is_file())
    res["aborted"] = aborted_count(out_dir / "report.txt") if res["rc"] == 0 else 0
    return res, json.loads(spans_path.read_text())


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def span_metrics(trace: dict, traced_wall: float, block: int) -> dict:
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    # sgd: replicate-steps run, and the share of them that reach the outputs.
    # A bank that raises is charged its block's rows up to the raising step
    # (computed from the exception, not counted in the loop).
    bank_run = bank_kept = solo_run = solo_kept = raises = 0
    for s in by_name["run_sgd_replicates"]:
        a = s["attrs"]
        if s["error"]:
            raises += 1
            bank_run += min(a["n_replicates"], block) * a.get("error_step", 0)
        else:
            bank_run += a["n_replicates"] * a["n_steps"]
            bank_kept += a["n_replicates"] * a["n_steps"]
    for s in by_name["run_sgd"]:
        a = s["attrs"]
        solo_run += a.get("error_step", 0) if s["error"] else a["n_steps"]
        solo_kept += 0 if s["error"] else a["n_steps"]
    bank_s, solo_s = total("run_sgd_replicates"), total("run_sgd")

    coupled_substeps = 0
    for s in by_name["run_coupled_replicates"] + by_name["run_coupled"]:
        a = s["attrs"]
        rows = a.get("n_replicates", 1)
        blocks = math.ceil(a["horizon"] / a["sched.gamma_alpha"] - 1e-9)
        if s["error"]:
            rows, blocks = min(rows, block), a.get("error_step", 0)
        coupled_substeps += rows * blocks * a["substeps_per_block"]
    coupling_s = total("run_coupled_replicates", "run_coupled")
    probe_substeps = sum(3 * s["attrs"]["path.count"] for s in by_name["em_bias_probe"])
    probe_s = total("em_bias_probe")
    fallbacks = sum(
        1 for n in ("run_sgd_replicates", "run_coupled_replicates") for s in by_name[n] if s["error"]
    )

    run_exp = by_name["run_experiment"]
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s["layer"]] += selfs[s["id"]]
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    rate = lambda work, secs: work / secs if secs > 0 else 0.0
    m = {
        "sgd.bank_s": (bank_s, "s"),
        "sgd.bank_rep_steps_per_s": (rate(bank_run, bank_s), "1/s"),
        "sgd.solo_s": (solo_s, "s"),
        "sgd.solo_calls": (len(by_name["run_sgd"]), "count"),
        "sgd.solo_rep_steps_per_s": (rate(solo_run, solo_s), "1/s"),
        "sgd.bank_raises": (raises, "count"),
        "sgd.useful_step_ratio": (rate(bank_kept + solo_kept, bank_run + solo_run), "share"),
        "coupling.bank_s": (coupling_s, "s"),
        "coupling.substeps_per_s": (rate(coupled_substeps, coupling_s), "1/s"),
        "coupling.error_s": (total("strong_error", "weak_error"), "s"),
        "sde.bias_probe_s": (probe_s, "s"),
        "sde.substeps_per_s": (rate(probe_substeps, probe_s), "1/s"),
        "cli.import_s": (total("import sgdlab.cli"), "s"),
        "cli.validate_s": (total("validate_config"), "s"),
        "cli.emit_s": (sum(selfs[s["id"]] for s in run_exp), "s"),
        "cli.solo_fallbacks": (fallbacks, "count"),
        "analysis.fit_s": (total("fit_rate"), "s"),
        "analysis.fits": (len(by_name["fit_rate"]), "count"),
        "core.streams_opened": (trace["streams_opened"], "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.interpreter_s"] = (traced_wall - top, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    return m


def micro_metrics(wl: dict, config: Path, seed: int) -> dict:
    """Median of MICRO_CALLS warm calls of each inner-loop callable at the workload's shape."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np

    import sgdlab.cli as cli
    from sgdlab.core import derive_stream

    cfg = cli.validate_config(str(config), overrides={"seed": seed})
    obj = cli.build_objective(cfg)
    oracle = cli.build_oracle(cfg, obj)
    rows = wl["micro_rows"]
    x = np.full((rows, obj.dim), float(cfg.objective["x0"]))
    gens = [derive_stream(seed, r, "noise").generator() for r in range(rows)]
    raw = np.stack([oracle.draw_raw((1024,), g) for g in gens])[:, 0]
    db = np.sqrt(1e-3) * gens[0].standard_normal((rows, obj.dim))
    ids = iter(range(10**9))

    def median_us(fn) -> float:
        for _ in range(20):
            fn()
        times = []
        for _ in range(MICRO_CALLS):
            t = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t)
        return statistics.median(times) / 1000.0

    return {
        "objectives.gradient_us": (median_us(lambda: obj.gradient(x)), "us"),
        "objectives.value_us": (median_us(lambda: obj.value(x)), "us"),
        "noise.draw_us": (median_us(lambda: oracle.draw_raw((1024,), gens[0])), "us"),
        "noise.apply_us": (median_us(lambda: oracle.apply(x, raw)), "us"),
        "noise.apply_sqrt_us": (median_us(lambda: oracle.apply_sqrt(x, db)), "us"),
        "core.stream_open_us": (
            median_us(lambda: derive_stream(seed, next(ids), "noise").generator()),
            "us",
        ),
    }


def run_traced(wl, config, seed, seconds, work) -> tuple[Checker, dict]:
    checker = Checker(wl, seed)
    shape = run_shape(read_config(config))
    setup_probe(config, seed)  # warm-up, as in the timed run
    traced, trace = traced_cli_run(wl, config, seed, work, checker)
    deadline = time.monotonic() + seconds
    untraced = []
    while True:
        began = time.monotonic()
        untraced.append(timed_cli_run(wl, config, seed, work, checker, shape)["wall_s"])
        if _next_would_overrun(began, deadline):
            break
    metrics = micro_metrics(wl, config, seed)
    from sgdlab.sgd import REPLICATE_BLOCK  # src/ is on sys.path after micro_metrics

    metrics.update(span_metrics(trace, traced["wall_s"], REPLICATE_BLOCK))
    metrics["trace.overhead_s"] = (traced["wall_s"] - statistics.median(untraced), "s")
    metrics["cli.raw_rows"] = (traced["raw_rows"], "count")
    metrics["cli.output_bytes"] = (traced["output_bytes"], "bytes")
    metrics["cli.aborted_share"] = (traced["aborted"] / shape[0], "share")
    accounted = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    print(
        f"traced wall {traced['wall_s']:.4f} s = layer self times {accounted:.4f} s"
        f" + interpreter start/exit {metrics['trace.interpreter_s'][0]:.4f} s;"
        f" untraced median {statistics.median(untraced):.4f} s over n={len(untraced)}"
    )
    return checker, metrics


def host_facts() -> str:
    from importlib.metadata import PackageNotFoundError, version

    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return "missing"

    return (
        f"host: nproc {os.cpu_count()}, python {platform.python_version()},"
        f" numpy {ver('numpy')}, scipy {ver('scipy')}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "sgdlab" / "cli.py").is_file():
            raise BenchError(f"no sgdlab sources at {SRC}; run from the root of a checkout")
        workloads = load_workloads()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
        if args.seed < 0:
            raise BenchError("--seed must be nonnegative")
        wl = workloads[args.workload]
        config = BENCH / "workloads" / wl["config"]
        work = SCRATCH / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            run = run_traced if args.trace else run_timed
            checker, metrics = run(wl, config, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(host_facts())
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, so launch() stops the running child first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
