"""Experiment harness: config-driven replicated runs with CSV and report output.

The config grammar (INI sections [experiment], [objective], [oracle],
[schedule] and [grid], with the keys each section allows) is documented in
the README's "Config format" section.  _KEYS is the one table of keys and
value types; _OBJECTIVES, _ORACLES and _EXPERIMENTS hold one row per kind.
validate_config parses each value once, fills each default from its row,
reads every per-experiment rule from the experiment's row, and builds the
objective, oracles and x0, so it lists every problem in one pass before
out_dir is made and any replicate runs.

Every run is a deterministic function of (config, replicate_id).  Raw CSV
columns: run_id, replicate, n_or_t, f_gap, dist2, grad_sq, suffix_avg.
Summary CSV holds the per-checkpoint replicate mean and 95% CI halfwidth
of each observable; the report's rate fits and z-scores read those means
against theoretical exponents and exact moments.  Exit codes: 0 run
completed, 1 invalid config, 2 every replicate aborted.
"""
from __future__ import annotations

import argparse
import configparser
import math
import shutil
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .analysis import (
    RATE_CLASSES,
    expected_rate,
    fit_rate,
    probe_exact_second_moment,
    probe_strong_error_floor,
)
from .core import StepSchedule, derive_stream
from .coupling import INDEPENDENT, CoupledBank, epsilon_hat, run_coupled_replicates, strong_error, weak_error
from .noise import (
    GradientOracle,
    gaussian_oracle,
    heavy_oracle,
    least_squares_batch_oracle,
    probe_batch_oracle,
)
from .objectives import (
    Convex,
    GridSpec,
    Lojasiewicz,
    Objective,
    StronglyConvex,
    certify_condition,
    make_least_squares,
    make_linear_probe,
    make_phi_p,
    make_pl_sine,
    make_quadratic,
    ratio_points,
)
from .sde import em_bias_probe, path_length
from . import sgd
from .sgd import DivergenceError, ReplicateRuns, run_sgd_sweep

# the observables of a bank, by their raw.csv column names
OBSERVABLES = ("f_gap", "dist2", "grad_sq", "suffix_avg")
RAW_HEADER = "run_id,replicate,n_or_t," + ",".join(OBSERVABLES)
SUMMARY_HEADER = "run_id,n_or_t," + ",".join(f"{name}_{stat}" for name in OBSERVABLES for stat in ("mean", "ci"))
# The most steps (rates, probe-exact) or diffusion substeps (the coupled
# experiments) one replicate may take; a config asking for more is an error.
MAX_STEPS = 10**8
# The most raw.csv rows one run may write (at most 64 checkpoints per
# replicate and run id).  The rows' text goes from the workers to temp files
# on disk, and the bank blocks write their arrays in place, so the CLI's
# memory scales with the bank arrays the rows are formatted from (3 floats
# per raw row, and a fourth for suffix_avg): while a sweep steps, with the
# CLI's own rows of every schedule; while it reports, with one whole bank,
# its suffix_avg and a checkpoint-major copy of one of its columns (the
# summary's), which go before the next schedule is reported.  A rates sweep
# of 8192 replicates x 5 alphas x 300 steps (1.97e6 raw rows, 45 MiB of
# bank arrays) peaks at 73 MB, 32 MB of it held before the first bank: some
# 20 bytes per raw row.  One bank of as many rows (40960 replicates, one
# alpha) peaks at 116 MB, some 43 bytes per raw row, so about 430 MB more
# at this bound.
MAX_ROWS = 10**7
# The largest objective dim (the least-squares direct solve's bound, for
# every kind).
MAX_DIM = 32
# The most numbers one array of a run may hold, about 80 MB of floats.  Four
# config values size such an array:
# - n_samples: a batch-eps estimate draws n_samples * max(m_values) * dim;
# - batch_m: a batch oracle's draws for one chunk of a block hold
#   rows * sgd.CHUNK * batch_m data points (a probe point has dim numbers, a
#   least-squares point is one row index; the bound counts dim + 1 each), and
#   one step of a stacked block makes stack * rows * batch_m * dim
#   per-sample gradients;
# - n_data: a least-squares oracle's covariance (in coupled and SDE runs)
#   makes rows * n_data * dim per-sample gradients, bounded here as
#   stack * rows * n_data * dim; the objective itself evaluates in row
#   blocks of at most objectives.RESIDUAL_BLOCK residuals;
# - num: the certify grid holds num * dim coordinates.
# rows is a block's replicates, min(replicates, sgd.REPLICATE_BLOCK), or the
# grid's num points for certify; stack is the schedules a block steps at once
# where the experiment's row stacks them (rates: run_sgd_sweep), else 1.
MAX_DRAWS = 10**7
# Every key each section allows, with the type of its value; a type in a
# list marks a comma-separated list of that type.  [experiment] threads is
# accepted and ignored: the worker count is the number of usable cores
# (sgd.WORKERS), never a setting.
_KEYS = {
    "experiment": {"kind": str, "seed": int, "replicates": int, "horizon": float,
                   "substeps": int, "threads": int, "out_dir": str},
    "objective": {"kind": str, "x0": [float], "dim": int, "lam": float, "p": int,
                  "n_data": int},
    "oracle": {"kind": str, "sigma": float, "scale": float, "law": str, "df": float,
               "batch_m": int, "m_values": [int], "n_samples": int,
               "rate_tolerance": float, "slope_lo": float, "slope_hi": float},
    "schedule": {"gamma": [float], "alpha": [float]},
    "grid": {"lo": float, "hi": float, "num": int, "exclude_radius": float},
}


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# A key without a default.
_REQUIRED = object()
# Each objective kind: its keys with their defaults, and its constructor,
# which takes the master seed and those keys by name.  Every kind also takes
# kind and x0.
_OBJECTIVES = {
    "quadratic": ({"dim": 1, "lam": 1.0}, lambda seed, dim, lam: make_quadratic(dim, lam)),
    "phi_p": ({"p": _REQUIRED}, lambda seed, p: make_phi_p(p)),
    "pl_sine": ({}, lambda seed: make_pl_sine()),
    "least_squares": ({"dim": 4, "n_data": 256}, lambda seed, dim, n_data: make_least_squares(
        dim, n_data, derive_stream(seed, 0, "data"))),
    "linear_probe": ({"dim": 1}, lambda seed, dim: make_linear_probe(dim)),
}
# Each oracle kind: its keys with their defaults, and its constructor, which
# takes the objective and those keys by name.  Every kind also takes kind.
_ORACLES = {
    "gaussian": ({"sigma": 1.0}, lambda obj, sigma: gaussian_oracle(obj, sigma)),
    "none": ({}, lambda obj: gaussian_oracle(obj, 0.0)),
    "heavy": ({"scale": 1.0, "law": "laplace", "df": None},
              lambda obj, scale, law, df: heavy_oracle(obj, scale, law, df=df)),
    "batch_probe": ({"batch_m": 1, "law": "normal", "df": None},
                    lambda obj, batch_m, law, df: probe_batch_oracle(obj, batch_m, law=law, df=df)),
    "least_squares_batch": ({"batch_m": 1}, lambda obj, batch_m: least_squares_batch_oracle(obj, batch_m)),
}


@dataclass
class ExperimentConfig:
    # objective holds its section's raw text (perfbench/run.py reads x0
    # from it), *_args the values of the keys the kinds take, defaults
    # filled; obj, oracles (one per batch size for batch-eps, none for
    # certify) and x0 are built from them
    experiment: str
    seed: int
    replicates: int
    horizon: float
    substeps: int
    out_dir: str
    objective: dict
    schedules: list
    grid: GridSpec | None = None
    objective_args: dict | None = None
    oracle_args: dict | None = None
    obj: Objective | None = None
    oracles: list = field(default_factory=list)
    x0: np.ndarray | None = None


@dataclass
class Outcome:
    """What a run writes.  raw is raw.csv itself, open for writing after its
    header: each _emit_banks appends its rows, each ending in a newline."""

    out_dir: Path
    raw: BinaryIO
    summary_rows: list = field(default_factory=list)
    report: list = field(default_factory=list)
    aborts: list = field(default_factory=list)
    attempted: int = 0
    completed: int = 0


def _fmt_index(v) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) else repr(f)


def _emit_banks(out: Outcome, banks) -> list:
    """Raw rows and summary rows for each (run_id, runs) of banks, in order,
    and the statistics the summary rows are written from: for each bank, a
    dict from each observable's raw.csv column name to its per-checkpoint
    replicate mean and standard deviation (ddof=1; zeros for a bank of one
    replicate).  Each column is reduced once, from a checkpoint-major copy:
    a row of it reduces to the bits of its checkpoint's column alone.

    The workers format the raw rows and write them to disk: fork_map hands
    each a slice of a bank's replicates and its part, an unnamed temp file
    in out.out_dir opened here before the fork, and the worker writes the
    slice's rows there a replicate at a time and returns nothing.  The parts
    are then appended to out.raw in order and closed, so no raw-row text
    crosses a pipe or stays in this process, and a run holds one call's
    parts open at a time.

    suffix_avg at a checkpoint is the mean of that replicate's recorded
    values from the checkpoint to the end of the run (so the last entry is
    the final value itself); it averages recorded checkpoints, not every
    iterate.
    """
    suffixes = []
    for _, runs in banks:
        # one bank-sized buffer: the tail sums, divided in place
        suffix = np.cumsum(runs.values[:, ::-1], axis=1)[:, ::-1]
        suffix /= np.arange(runs.values.shape[1], 0, -1, dtype=float)
        suffixes.append(suffix)

    def write(task) -> None:
        k, rows, part = task
        (run_id, runs), suffix = banks[k], suffixes[k]
        # the text of a cell is the repr of its Python float; .tolist() makes
        # those floats a replicate at a time instead of one numpy scalar per cell
        labels = [_fmt_index(n) for n in runs.sample_indices]
        columns = (runs.values, runs.dist2_to_min, runs.grad_sq, suffix)
        for i in range(rows.start, rows.stop):
            rid = int(runs.replicate_ids[i])
            part.write("".join(
                f"{run_id},{rid},{n},{v!r},{d!r},{g!r},{s!r}\n"
                for n, v, d, g, s in zip(labels, *(col[i].tolist() for col in columns))
            ).encode())
        part.flush()  # a forked worker leaves through os._exit, which flushes nothing

    # a raw row depends on its replicate only, so the workers format slices
    # of every bank in one fork_map
    with ExitStack() as stack:
        tasks = [(k, rows, stack.enter_context(tempfile.TemporaryFile(dir=out.out_dir)))
                 for k, s in enumerate(suffixes) for rows in sgd.worker_slices(len(s))]
        sgd.fork_map(write, tasks)
        for _, _, part in tasks:
            part.seek(0)
            shutil.copyfileobj(part, out.raw)
    stats = []
    for (run_id, runs), suffix in zip(banks, suffixes):
        r, moments = len(suffix), {}
        for name, col in zip(OBSERVABLES, (runs.values, runs.dist2_to_min, runs.grad_sq, suffix)):
            # numpy's std(ddof=1), in place on the checkpoint-major copy, so
            # that one copy of a column is all the reduction adds to the bank
            # (a bank of one replicate deviates by 0)
            rows = np.array(col.T, order="C")
            mean = rows.mean(axis=1)
            rows -= mean[:, None]
            moments[name] = mean, np.sqrt(np.square(rows, out=rows).sum(axis=1) / max(r - 1, 1))
            del rows  # before the next column's copy is made
        stats.append(moments)
        cells = [c.tolist() for m, sd in moments.values() for c in (m, 1.96 * sd / np.sqrt(r))]
        out.summary_rows += [f"{run_id},{_fmt_index(n)}," + ",".join(map(repr, row))
                             for n, *row in zip(runs.sample_indices, *cells)]
    return stats


def _loglog_slope(xs, ys) -> float:
    """OLS slope in log-log space without fit_rate's window machinery.

    Sweeps are short (a handful of gammas or batch sizes), so this skips
    the minimum-point rule that trajectory fits enforce.
    """
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def _read(section: str, key: str, text: str):
    """[section] key parsed by its type in _KEYS, entry by entry for a list
    type; an unknown key, a malformed value or a number that is not finite
    is a ConfigError."""
    declared = _KEYS.get(section, {}).get(key)
    if declared is None:
        raise ConfigError([f"[{section}] {key}: unknown key"])
    many = isinstance(declared, list)
    cast = declared[0] if many else declared
    values = []
    for entry in text.split(",") if many else [text]:
        try:
            values.append(cast(entry))
        except ValueError:
            what = "an integer" if cast is int else "a number"
            raise ConfigError([f"[{section}] {key}: {entry.strip()!r} is not {what}"]) from None
        if cast is float and not math.isfinite(values[-1]):
            raise ConfigError([f"[{section}] {key}: {entry.strip()!r} is not finite"])
    return values if many else values[0]


@contextmanager
def _config_errors(where: str):
    """Turn a constructor's ValueError or TypeError into a ConfigError at where."""
    try:
        yield
    except (TypeError, ValueError) as err:
        raise ConfigError([f"{where}: {err}"]) from None


def build_objective(cfg: ExperimentConfig) -> Objective:
    keys, make = _OBJECTIVES[cfg.objective_args["kind"]]
    with _config_errors(f"[objective] {cfg.objective_args['kind']}"):
        return make(cfg.seed, **{key: cfg.objective_args[key] for key in keys})


def build_oracle(cfg: ExperimentConfig, obj: Objective, **fixed) -> GradientOracle:
    """The config's oracle on obj; fixed gives keys the experiment sets itself."""
    keys, make = _ORACLES[cfg.oracle_args["kind"]]
    with _config_errors(f"[oracle] {cfg.oracle_args['kind']}"):
        return make(obj, **{key: fixed.get(key, cfg.oracle_args[key]) for key in keys})


def _run_label(obj: Objective, oracle: GradientOracle, sched: StepSchedule) -> str:
    return f"{obj.name}_{oracle.name}_{sched.label()}"


def _tally(out: Outcome, cfg: ExperimentConfig, run_id: str, aborts: list) -> bool:
    """Count a bank's replicates and abort lines; False, with a report line,
    when fewer survived than the experiment needs."""
    fewest = _EXPERIMENTS[cfg.experiment].fewest
    out.attempted += cfg.replicates
    survived = cfg.replicates - len(aborts)
    out.completed += survived
    out.aborts += [f"{run_id} {err}" for err in aborts]
    if survived >= fewest:
        return True
    what = "all replicates aborted" if survived == 0 else f"fewer than {fewest} replicates survived"
    out.report.append(f"{run_id}: {what}")
    return False


def _experiment_rates(cfg: ExperimentConfig, out: Outcome) -> None:
    obj, (oracle,) = cfg.obj, cfg.oracles
    tol = cfg.oracle_args["rate_tolerance"]
    banks = run_sgd_sweep(
        obj, oracle, cfg.schedules, cfg.x0, int(cfg.horizon), cfg.replicates, cfg.seed
    )
    for sched in cfg.schedules:
        # taken off the list, so a bank and its shared arrays go once its
        # schedule is reported
        bank = banks.pop(0)
        run_id = _run_label(obj, oracle, sched)
        if not _tally(out, cfg, run_id, bank.aborts):
            continue
        (stats,) = _emit_banks(out, [(run_id, bank)])
        if sched.alpha == 0.0:
            out.report.append(f"{run_id}: constant step; power-law rate fit not applicable")
            continue
        if oracle.eta == 0.0:
            out.report.append(
                f"{run_id}: noiseless run decays super-polynomially;"
                " power-law rate fit not applicable"
            )
            continue
        for kind, name, observable, sharp in RATE_CLASSES:
            tag = obj.tag(kind)
            # at alpha = 1 only the strongly convex rate has a guarantee
            if tag is None or (sched.alpha >= 1.0 and kind is not StronglyConvex):
                continue
            expected = expected_rate(tag, sched.alpha)
            label = f"{run_id} {name}/{observable}:"
            if expected is None:
                out.report.append(f"{label} no polynomial guarantee at this alpha")
                continue
            try:
                est = fit_rate(list(zip(bank.sample_indices.tolist(), stats[observable][0].tolist())))
            except ValueError as err:
                out.report.append(f"{label} rate fit not applicable ({err})")
                continue
            decay = -est.slope
            # the Lojasiewicz exponent is sharp at r = 2 only; below, a guarantee
            sharp = sharp and not (kind is Lojasiewicz and tag.r < 2.0)
            ok = abs(decay - expected) <= tol if sharp else decay >= expected - tol
            note = "" if sharp or decay <= expected + tol else " (exceeds guarantee)"
            out.report.append(
                f"{label} fitted decay {decay:.4f} vs expected {expected:.4f}"
                f" (tol {tol:g}, r2 {est.r_squared:.3f},"
                f" window {est.window[0]:g}..{est.window[1]:g})"
                f" {'PASS' if ok else 'FAIL'}{note}"
            )


def _emit_coupled(out: Outcome, run_id: str, bank: CoupledBank) -> None:
    _emit_banks(out, [(f"{run_id}:discrete", bank.discrete), (f"{run_id}:continuous", bank.continuous)])


def _experiment_approx(cfg: ExperimentConfig, out: Outcome, weak: bool) -> None:
    obj, (oracle,) = cfg.obj, cfg.oracles
    lo, hi = cfg.oracle_args["slope_lo"], cfg.oracle_args["slope_hi"]
    by_alpha: dict = {}
    for sched in cfg.schedules:
        run_id = _run_label(obj, oracle, sched)
        bank = None  # the last schedule's bank goes before this one runs
        bank = run_coupled_replicates(
            obj, oracle, sched, cfg.x0, cfg.horizon, cfg.substeps, cfg.replicates, cfg.seed
        )
        if not _tally(out, cfg, run_id, bank.aborts):
            continue
        _emit_coupled(out, run_id, bank)
        kind = bank.coupling_kind
        if weak:
            est = weak_error(bank, lambda x: np.sum(np.square(x), axis=-1))
            label = "weak error |E g| (g = squared norm)"
        else:
            # The theoretical order is uniform over the trajectory, so the
            # sweep tracks the worst checkpoint, not just the endpoint.
            per_ckpt = [strong_error(bank, checkpoint=int(c)) for c in bank.discrete.sample_indices]
            est = max(per_ckpt, key=lambda e: e.value)
            label = "strong error (sup over checkpoints)"
        detail = f"{est.value:.6g} +- {est.ci_halfwidth:.2g} over {est.n} replicates"
        out.report.append(f"{run_id} [{kind}]: {label} = {detail}")
        by_alpha.setdefault(sched.alpha, []).append((sched.gamma, est.value))
    for alpha, pts in sorted(by_alpha.items()):
        if len(pts) < 2:
            continue
        gammas, errs = zip(*sorted(pts))
        if min(errs) <= 0:
            out.report.append(f"alpha={alpha:g}: zero error, slope n/a")
            continue
        slope = _loglog_slope(gammas, errs)
        ok = lo <= slope <= hi
        out.report.append(
            f"alpha={alpha:g}: error-vs-gamma slope {slope:.4f}"
            f" (window [{lo:g}, {hi:g}]) {'PASS' if ok else 'FAIL'}"
        )


def _experiment_batch_eps(cfg: ExperimentConfig, out: Outcome) -> None:
    args = cfg.oracle_args
    law, m_values, lo, hi = args["law"], args["m_values"], args["slope_lo"], args["slope_hi"]
    means = []
    for m, oracle in zip(m_values, cfg.oracles):
        run_id = f"eps_{law}_M{m}"
        values = np.array([
            [epsilon_hat(oracle, cfg.x0, args["n_samples"], derive_stream(cfg.seed, rep, "noise"))]
            for rep in range(cfg.replicates)
        ])
        _tally(out, cfg, run_id, [])
        ids = np.arange(cfg.replicates)
        runs = ReplicateRuns(np.array([m]), values, values**2, np.zeros_like(values), ids)
        (stats,) = _emit_banks(out, [(run_id, runs)])
        means.append(float(stats["f_gap"][0][0]))
    if len(m_values) >= 2:
        slope = _loglog_slope(m_values, means)
        ok = lo <= slope <= hi
        out.report.append(
            f"eps_{law}: slope of eps vs batch size {slope:.4f}"
            f" (window [{lo:g}, {hi:g}]) {'PASS' if ok else 'FAIL'}"
        )
    for m, v in zip(m_values, means):
        out.report.append(f"eps_{law} M={m}: mean eps {v:.6g}")


def _probe_steps(horizon: float, substeps: int, sched: StepSchedule) -> int:
    """Iterations of a probe-exact run: whole gamma_alpha blocks in the horizon."""
    return int(horizon / sched.gamma_alpha + 1e-9)


def _experiment_probe_exact(cfg: ExperimentConfig, out: Outcome) -> None:
    obj, (oracle,) = cfg.obj, cfg.oracles
    m = cfg.oracle_args["batch_m"]
    for sched in cfg.schedules:
        run_id = _run_label(obj, oracle, sched)
        bank = None  # the last schedule's bank goes before this one runs
        (bank,) = run_sgd_sweep(
            obj, oracle, [sched], cfg.x0, _probe_steps(cfg.horizon, cfg.substeps, sched), cfg.replicates, cfg.seed
        )
        if not _tally(out, cfg, run_id, bank.aborts):
            continue
        (stats,) = _emit_banks(out, [(run_id, bank)])
        mean, sd = stats["dist2"]
        exact = np.array([probe_exact_second_moment(m, sched.gamma, sched.alpha, int(k)) for k in bank.sample_indices])
        se = sd / np.sqrt(len(bank.replicate_ids))
        # a checkpoint whose replicates all agree deviates by 0 standard errors
        z = np.abs(mean - exact) / np.where(se > 0, se, np.inf)
        out.report.append(
            f"{run_id} n={int(bank.sample_indices[-1])}: mean dist2 {mean[-1]:.6g} vs exact {exact[-1]:.6g}"
            f" ({z[-1]:.2f} standard errors) {'PASS' if z[-1] <= 3 else 'FAIL'}"
        )
        out.report.append(
            f"{run_id}: worst checkpoint deviation {z.max():.2f} standard errors"
            f" {'PASS' if z.max() <= 3 else 'FAIL'}"
        )
        # validate_config holds probe-exact to alpha < 1/2, where the floor holds
        floor = probe_strong_error_floor(m, sched.gamma, sched.alpha, cfg.horizon)
        final = float(np.sqrt(mean[-1]))
        out.report.append(
            f"{run_id}: final RMS deviation {final:.6g} vs lower bound {floor:.6g}"
            f" {'PASS' if final >= floor else 'FAIL'}"
        )


def _experiment_couple_demo(cfg: ExperimentConfig, out: Outcome) -> None:
    obj, (oracle,) = cfg.obj, cfg.oracles
    (sched,) = cfg.schedules
    run_id = _run_label(obj, oracle, sched)

    def bias_probe():
        """The integrator bias probe, or the DivergenceError it aborted with
        (as a value, so that a diverging probe is a report line)."""
        try:
            return em_bias_probe(obj, oracle, sched, cfg.x0, cfg.horizon, cfg.substeps, cfg.seed)
        except DivergenceError as err:
            return err

    # the probe runs beside the bank's blocks, on a core they leave free
    bank = run_coupled_replicates(
        obj, oracle, sched, cfg.x0, cfg.horizon, cfg.substeps, cfg.replicates, cfg.seed,
        beside=(bias_probe,),
    )
    if not _tally(out, cfg, run_id, bank.aborts):
        return
    _emit_coupled(out, run_id, bank)
    kind = bank.coupling_kind
    s_est = strong_error(bank)
    w_est = weak_error(bank, lambda x: np.sum(np.square(x), axis=-1))
    out.report.append(f"{run_id}: coupling kind {kind}")
    if kind == INDEPENDENT:
        out.report.append(
            f"{run_id}: independent coupling is not W2-optimal;"
            " distances are diagnostic only"
        )
    out.report.append(
        f"{run_id}: strong error {s_est.value:.6g} +- {s_est.ci_halfwidth:.2g}"
    )
    out.report.append(
        f"{run_id}: weak error (squared norm) {w_est.value:.6g} +- {w_est.ci_halfwidth:.2g}"
    )
    (bias,) = bank.beside
    if isinstance(bias, DivergenceError):
        out.report.append(f"{run_id}: integrator bias probe aborted ({bias})")
        return
    out.report.append(
        f"{run_id}: integrator bias probe (K vs 2K) {bias:.6g}"
        + ("" if s_est.value == 0 or bias <= 0.1 * s_est.value else " WARNING: above 10% of strong error")
    )


def _experiment_certify(cfg: ExperimentConfig, out: Outcome) -> None:
    obj = cfg.obj
    out.attempted = out.completed = 1
    out.report += [certify_condition(obj, tag, cfg.grid).line() for tag in obj.class_tags]
    if not obj.class_tags:
        out.report.append(f"{obj.name}: no class tags to certify")


@dataclass(frozen=True)
class _Experiment:
    run: object  # its runner: fills the Outcome it is given from an ExperimentConfig
    fewest: int = 1  # replicates a bank needs (2 for a standard error)
    legs: int = 1  # raw.csv run ids per bank
    # how it reads the horizon (None: not at all): a rule (horizon, substeps,
    # schedule) -> the steps a replicate takes, which must be 1 to MAX_STEPS,
    # and what its problems call many of them and one
    steps: tuple | None = None
    # runs the diffusion, so its horizon is a time, cut into steps by each
    # schedule's gamma_alpha, and alpha < 1
    continuous: bool = False
    alpha_below: tuple | None = None  # a tighter bound on alpha, and its reason
    one_schedule: bool = False  # a gamma x alpha grid of more is a problem
    stacks: bool = False  # steps its schedules at once (the stack of MAX_DRAWS)
    # the oracle key it sets to each [oracle] m_values entry: one oracle, and
    # one raw.csv row per replicate, for each
    sweep: str | None = None
    keys: dict = field(default_factory=dict)  # its own [oracle] keys, with defaults
    # the objective and oracle kinds it always uses (None: the config's
    # kind), and the keys of that oracle it sets
    objective: str | None = None
    oracle: str | None = None
    fixed: tuple = ()
    # the sections it reads besides [experiment] and [objective]; a key in
    # any other section is a problem
    sections: tuple = ("oracle", "schedule")


# a horizon in steps; a horizon in time, cut into [experiment] substeps
# diffusion substeps per gamma_alpha block
_STEPS = (lambda horizon, substeps, sched: int(horizon), "steps", "step")
_SUBSTEPS = (lambda horizon, substeps, sched: path_length(horizon, sched.gamma_alpha / substeps),
             "substeps", "substep")
_EXPERIMENTS = {
    "rates": _Experiment(_experiment_rates, steps=_STEPS, stacks=True, keys={"rate_tolerance": 0.1}),
    "strong-approx": _Experiment(partial(_experiment_approx, weak=False), fewest=2, legs=2, steps=_SUBSTEPS,
                                 continuous=True, keys={"slope_lo": 0.85, "slope_hi": 1.15}),
    "weak-approx": _Experiment(partial(_experiment_approx, weak=True), fewest=2, legs=2, steps=_SUBSTEPS,
                               continuous=True, keys={"slope_lo": 0.8, "slope_hi": 1.3}),
    "batch-eps": _Experiment(
        _experiment_batch_eps, sweep="batch_m", objective="linear_probe", oracle="batch_probe", fixed=("batch_m",),
        sections=("oracle",), keys={"law": "laplace", "m_values": [1, 4, 16, 64],
                                    "n_samples": 100_000, "slope_lo": -1.25, "slope_hi": -0.75}),
    "probe-exact": _Experiment(
        _experiment_probe_exact, fewest=2, steps=(_probe_steps, "steps", "gamma_alpha block"), continuous=True,
        alpha_below=(0.5, "the growing-noise regime needs alpha < 1/2"), objective="linear_probe",
        oracle="batch_probe", fixed=("law", "df")),
    "couple-demo": _Experiment(_experiment_couple_demo, fewest=2, legs=2, steps=_SUBSTEPS, continuous=True,
                               one_schedule=True),
    "certify": _Experiment(_experiment_certify, legs=0, sections=("grid",)),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> Outcome:
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError([f"[experiment] out_dir: {err}"]) from None
    raw_path = out_dir / "raw.csv"
    try:
        with open(raw_path, "wb") as raw:
            raw.write(f"{RAW_HEADER}\n".encode())
            out = Outcome(out_dir, raw)
            _EXPERIMENTS[cfg.experiment].run(cfg, out)
    except BaseException:
        raw_path.unlink(missing_ok=True)  # a run that fails leaves no partial raw.csv
        raise
    (out_dir / "summary.csv").write_bytes("".join(f"{row}\n" for row in [SUMMARY_HEADER, *out.summary_rows]).encode())
    lines = [f"experiment: {cfg.experiment}", f"seed: {cfg.seed}"]
    lines += out.report
    if out.aborts:
        lines.append(f"aborted replicates ({len(out.aborts)}):")
        lines += [f"  {a}" for a in out.aborts]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    return out


def _step_problems(exp: _Experiment, horizon: float, substeps: int, sched: StepSchedule | None) -> list:
    """What is wrong with the steps a replicate of exp takes over horizon on
    sched (None for a horizon in steps, whatever the schedule)."""
    rule, many, one = exp.steps
    try:
        n = rule(horizon, substeps, sched)
    except ValueError as err:  # sched has no gamma_alpha
        return [f"[schedule] {err}"]
    except OverflowError:  # more steps than a float holds
        n = math.inf
    if n > MAX_STEPS:
        at = f" at gamma {sched.gamma:g}, alpha {sched.alpha:g}" if sched else ""
        return [f"[experiment] horizon: more than {MAX_STEPS} {many} per replicate{at}"]
    return [f"[experiment] horizon: shorter than one {one}"] if n < 1 else []


def validate_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError listing every problem."""
    overrides = overrides or {}
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise ConfigError([f"config file {path!r}: {err}"]) from None
    if not read:
        raise ConfigError([f"config file {path!r} not readable"])
    problems = [] if parser.has_section("experiment") else ["[experiment]: section missing"]
    if overrides.get("seed") is not None:
        parser.read_dict({"experiment": {"seed": str(overrides["seed"])}})
    if not parser.has_option("experiment", "seed"):
        problems.append("[experiment] seed: required")
    values = {}
    for name in parser.sections():
        for key, text in parser[name].items():
            try:
                values[name, key] = _read(name, key, text)
            except ConfigError as err:
                problems += err.problems
    get = lambda name, key, default: values.get((name, key), default)

    kind = get("experiment", "kind", "")
    exp = _EXPERIMENTS.get(kind)
    if exp is None:
        problems.append(f"[experiment] kind: {kind!r} not one of {EXPERIMENTS}")
        exp = _Experiment(None, steps=(lambda *_: 1, "", ""))  # only a horizon <= 0 is a problem
    seed = get("experiment", "seed", 0)
    if seed < 0:
        problems.append("[experiment] seed: must be >= 0")
    replicates = get("experiment", "replicates", 100)
    if replicates < exp.fewest:
        problems.append(f"[experiment] replicates: must be >= {exp.fewest}")
    substeps = get("experiment", "substeps", 16)
    horizon = get("experiment", "horizon", 0.0)
    # the [experiment] keys the kind's row never reads (an unknown kind reads all)
    unread = [key for key, read in (("horizon", exp.steps is not None), ("substeps", exp.steps is _SUBSTEPS))
              if not read and kind in _EXPERIMENTS]
    problems += [f"[experiment] {key}: {kind} takes no {key}" for key in unread if ("experiment", key) in values]
    if substeps < 1 and "substeps" not in unread:
        problems.append("[experiment] substeps: must be >= 1")
    if exp.steps and horizon <= 0:
        problems.append("[experiment] horizon: must be positive")
    elif exp.steps and not exp.continuous:  # steps, whatever the schedule
        problems += _step_problems(exp, horizon, substeps, None)

    reads = ("experiment", "objective", *exp.sections)
    problems += [f"[{name}] {key}: {kind} takes no {name}" for name, key in values if name not in reads]

    # [objective] and [oracle]: the kind each runs, and the values of the
    # keys that kind takes in this experiment over the defaults of its rows
    args = {}
    for section, table, always, default, extra, fixed in (
        ("objective", _OBJECTIVES, exp.objective, "quadratic", {"x0": [0.0]}, ()),
        ("oracle", _ORACLES, exp.oracle, "gaussian", exp.keys, exp.fixed),
    ):
        if section not in reads:
            continue  # its keys are listed above
        given = {key: v for (name, key), v in values.items() if name == section}
        chosen = given.get("kind", always or default)
        if always and chosen != always:
            problems.append(f"[{section}] kind: {kind} always uses {always!r}")
        elif chosen not in table:
            problems.append(f"[{section}] kind: unknown {section} {chosen!r}")
        else:
            args[section] = {"kind": chosen, **table[chosen][0], **extra}
            takes = set(args[section]) - set(fixed)
            args[section].update((key, v) for key, v in given.items() if key in takes)
            problems += [f"[{section}] {key}: not a key of {section} {chosen!r} in {kind}"
                         for key in given if key not in takes]
            # a key given but unreadable is listed above, not as missing
            problems += [f"[{section}] {key}: required for kind {chosen!r}"
                         for key, value in args[section].items()
                         if value is _REQUIRED and not parser.has_option(section, key)]
    obj_args, oracle_args = args.get("objective", {}), args.get("oracle", {})

    dim = obj_args.get("dim", 1)
    if dim > MAX_DIM:
        problems.append(f"[objective] dim: {dim} is more than {MAX_DIM}")
    grid = None
    if "grid" in reads:
        given = {key: value for (name, key), value in values.items() if name == "grid"}
        try:
            grid = GridSpec(**{"lo": -3.0, "hi": 3.0, **given})
        except ValueError as err:
            problems.append(f"[grid]: {err}")
    if oracle_args.get("n_samples", 1) < 1:
        problems.append("[oracle] n_samples: must be >= 1")

    gammas = alphas = []
    if "schedule" in reads and not parser.has_section("schedule"):
        problems.append("[schedule]: section required for this experiment")
    elif "schedule" in reads:
        gammas, alphas = get("schedule", "gamma", [0.1]), get("schedule", "alpha", [0.5])
    problems += [f"[schedule] gamma: {g} must be > 0" for g in gammas if g <= 0]
    fine = []
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            problems.append(f"[schedule] alpha: {a} must lie in [0, 1]")
        elif a >= 1.0 and exp.continuous:
            problems.append(f"[schedule] alpha: {a} invalid for {kind}; the continuous-time process needs alpha < 1")
        elif exp.alpha_below and a >= exp.alpha_below[0]:
            problems.append(f"[schedule] alpha: {a} invalid for {kind}; {exp.alpha_below[1]}")
        else:
            fine.append(a)
    schedules = [StepSchedule(g, a) for a in fine for g in gammas if g > 0]
    if exp.one_schedule and len(gammas) * len(alphas) > 1:
        problems.append(f"[schedule]: {kind} runs one schedule, not {len(gammas) * len(alphas)} (gamma x alpha)")
    for name, key in (("schedule", "gamma"), ("schedule", "alpha"), ("oracle", "m_values")):
        # an entry names its run ids (a float to six significant digits)
        labels = [v if key == "m_values" else f"{v:g}" for v in get(name, key, [])] if name in reads else []
        problems += [f"[{name}] {key}: {v} repeated" for v in dict.fromkeys(labels) if labels.count(v) > 1]

    # the arrays MAX_DRAWS bounds (see there)
    block = grid.num if grid else max(1, min(replicates, sgd.REPLICATE_BLOCK))
    stack = len(schedules) if exp.stacks else 1
    arg = lambda key: {**obj_args, **oracle_args}.get(key, 0)
    sizes = {
        "[objective] n_data": (stack * block * arg("n_data") * dim, "per-sample gradients per block"),
        "[oracle] batch_m": (max(sgd.CHUNK, stack) * block * arg("batch_m") * (dim + 1),
                             "numbers per block chunk or step"),
        "[oracle] n_samples": (arg("n_samples") * max(arg("m_values") or [1]) * dim, "draws per estimate"),
        "[grid] num": (grid.num * dim if grid else 0, "grid coordinates"),
    }
    problems += [f"{where}: {n} {what}, more than {MAX_DRAWS}" for where, (n, what) in sizes.items() if n > MAX_DRAWS]
    runs = len(oracle_args.get("m_values", [])) if exp.sweep else len(schedules) * 64
    rows = replicates * runs * exp.legs
    if rows > MAX_ROWS:
        problems.append(f"[experiment] replicates: {rows} raw.csv rows, more than {MAX_ROWS}")
    if exp.continuous and horizon > 0 and (substeps >= 1 or exp.steps is not _SUBSTEPS):  # a time, per schedule
        for s in schedules:
            problems += _step_problems(exp, horizon, substeps, s)

    cfg = ExperimentConfig(
        experiment=kind, seed=seed, replicates=replicates, horizon=horizon, substeps=substeps,
        out_dir=overrides.get("out_dir") or get("experiment", "out_dir", "results"),
        objective=dict(parser["objective"]) if parser.has_section("objective") else {},
        schedules=schedules, grid=grid, objective_args=obj_args, oracle_args=oracle_args,
    )
    # build what a section's values describe once no problem names it (nor
    # the seed the least-squares data is drawn from)
    clean = lambda name: not any(p.startswith(f"[{name}]") for p in problems)
    if obj_args and clean("objective") and seed >= 0:
        try:
            cfg.obj = build_objective(cfg)
        except ConfigError as err:
            problems += err.problems
    if cfg.obj is not None:
        x0 = obj_args["x0"]
        if len(x0) == 1:
            cfg.x0 = np.full(cfg.obj.dim, x0[0])
        elif len(x0) == cfg.obj.dim:
            cfg.x0 = np.asarray(x0)
        else:
            problems.append(f"[objective] x0: expected 1 or {cfg.obj.dim} entries")
    if cfg.obj is not None and grid is not None and clean("grid") and any(
            not isinstance(tag, (StronglyConvex, Convex)) for tag in cfg.obj.class_tags):
        try:
            ratio_points(cfg.obj, grid)
        except ValueError as err:
            problems.append(f"[grid]: {err}")
    if cfg.obj is not None and oracle_args and clean("oracle"):
        sweep = [{exp.sweep: m} for m in oracle_args["m_values"]] if exp.sweep else [{}]
        try:
            cfg.oracles = [build_oracle(cfg, cfg.obj, **fixed) for fixed in sweep]
        except ConfigError as err:
            problems += err.problems
    if problems:
        raise ConfigError(problems)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgdlab",
        description="Decaying-step SGD experiments: rates, couplings, diagnostics.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
        p.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = validate_config(args.config, overrides={"seed": args.seed, "out_dir": args.out_dir})
        if cfg.experiment != args.experiment:
            raise ConfigError(
                [
                    f"[experiment] kind: config says {cfg.experiment!r} but the"
                    f" {args.experiment!r} subcommand was invoked"
                ]
            )
        out = run_experiment(cfg)
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    for line in out.report:
        print(line)
    if out.aborts:
        print(f"{len(out.aborts)} replicate(s) aborted", file=sys.stderr)
    if out.attempted > 0 and out.completed == 0:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
