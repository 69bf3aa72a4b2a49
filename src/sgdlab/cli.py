"""Experiment harness: config-driven replicated runs with CSV and report output.

The config grammar (INI sections [experiment], [objective], [oracle],
[schedule] and [grid], with the keys each section allows) is documented in
the README's "Config format" section.  _KEYS is the one table of keys and
value types.  validate_config lists every problem it and the range checks
can see before any replicate runs; the objective and oracle constructors
judge the rest, one at a time, when the experiment builds them.

Every run is a deterministic function of (config, replicate_id).  Raw CSV
columns: run_id, replicate, n_or_t, f_gap, dist2, grad_sq, suffix_avg.
Summary CSV holds the per-checkpoint replicate mean and
95% CI halfwidth of each observable.  The report text compares fitted
slopes against theoretical exponents.  Exit codes: 0 run completed,
1 invalid config, 2 every replicate aborted.
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    RateSetting,
    expected_rate,
    fit_rate,
    probe_exact_second_moment,
    probe_strong_error_floor,
)
from .core import StepSchedule, derive_stream, log_spaced_indices
from .coupling import CoupledBank, epsilon_hat, run_coupled_replicates, strong_error, weak_error
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
    MixedDominance,
    Objective,
    QuasarConvex,
    StronglyConvex,
    certify_condition,
    make_least_squares,
    make_linear_probe,
    make_phi_p,
    make_pl_sine,
    make_quadratic,
)
from .sde import em_bias_probe, path_length, sample_brownian_path
from . import sgd
from .sgd import DivergenceError, ReplicateRuns, run_sgd_replicates

EXPERIMENTS = (
    "rates",
    "strong-approx",
    "weak-approx",
    "batch-eps",
    "probe-exact",
    "couple-demo",
    "certify",
)
RAW_HEADER = "run_id,replicate,n_or_t,f_gap,dist2,grad_sq,suffix_avg"
SUMMARY_HEADER = (
    "run_id,n_or_t,f_gap_mean,f_gap_ci,dist2_mean,dist2_ci,"
    "grad_sq_mean,grad_sq_ci,suffix_avg_mean,suffix_avg_ci"
)
# The most steps (rates, probe-exact) or diffusion substeps (the coupled
# experiments) one replicate may take; a config asking for more is an error.
MAX_STEPS = 10**8
# The most raw.csv rows one run may write (at most 64 checkpoints per
# replicate and run id): the CLI holds them all in memory, about 1.5 GB at
# this bound.
MAX_ROWS = 10**7
# The largest objective dim (the least-squares direct solve's bound, for
# every kind), and the most noise draws (n_samples * batch size * dim) one
# batch-eps estimate may hold at once: about 80 MB of floats per array.
MAX_DIM = 32
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


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    replicates: int
    horizon: float
    substeps: int
    out_dir: str
    objective: dict
    oracle: dict
    schedules: list
    grid: GridSpec | None = None


@dataclass
class Outcome:
    raw_rows: list = field(default_factory=list)
    summary_rows: list = field(default_factory=list)
    report: list = field(default_factory=list)
    aborts: list = field(default_factory=list)
    attempted: int = 0
    completed: int = 0


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_index(v) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) else repr(f)


def _emit_bank(out: Outcome, run_id: str, runs: ReplicateRuns):
    """Raw rows, summary rows, and the suffix-average column for one run.

    suffix_avg at a checkpoint is the mean of that replicate's recorded
    values from the checkpoint to the end of the run (so the last entry is
    the final value itself); it averages recorded checkpoints, not every
    iterate.
    """
    indices, values = runs.sample_indices, runs.values
    dist2, grad_sq = runs.dist2_to_min, runs.grad_sq
    r, c = values.shape
    tail_counts = np.arange(c, 0, -1, dtype=float)
    suffix = np.cumsum(values[:, ::-1], axis=1)[:, ::-1] / tail_counts
    # repr of a Python float is _fmt's text; .tolist() makes those floats
    # a row at a time instead of one numpy scalar per cell
    labels = [_fmt_index(n) for n in indices]

    def text(rows: slice) -> str:
        columns = (col[rows].tolist() for col in (values, dist2, grad_sq, suffix))
        return "\n".join(
            f"{run_id},{int(rid)},{n},{v!r},{d!r},{g!r},{s!r}"
            for rid, *cells in zip(runs.replicate_ids[rows].tolist(), *columns)
            for n, v, d, g, s in zip(labels, *cells)
        )

    # a raw row depends on its replicate only, so each worker formats a slice
    for block in sgd.fork_map(text, sgd.worker_slices(r)):
        out.raw_rows += block.split("\n")
    for j in range(c):
        cells = [_fmt_index(indices[j])]
        for col in (values, dist2, grad_sq, suffix):
            mean = float(col[:, j].mean())
            ci = (
                1.96 * float(col[:, j].std(ddof=1)) / np.sqrt(r) if r > 1 else 0.0
            )
            cells += [_fmt(mean), _fmt(ci)]
        out.summary_rows.append(f"{run_id}," + ",".join(cells))
    return suffix


def _loglog_slope(xs, ys) -> float:
    """OLS slope in log-log space without fit_rate's window machinery.

    Sweeps are short (a handful of gammas or batch sizes), so this skips
    the minimum-point rule that trajectory fits enforce.
    """
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


_REQUIRED = object()


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


def _num(cfg: ExperimentConfig, section: str, key: str, default=_REQUIRED):
    """[section] key parsed by _read, or default when absent; a missing
    required key is a ConfigError."""
    spec = getattr(cfg, section)
    if key in spec:
        return _read(section, key, spec[key])
    if default is _REQUIRED:
        raise ConfigError([f"[{section}] {key}: required for kind {spec.get('kind')!r}"])
    return default


@contextmanager
def _config_errors(where: str):
    """Turn a constructor's ValueError or TypeError into a ConfigError at where."""
    try:
        yield
    except (TypeError, ValueError) as err:
        raise ConfigError([f"{where}: {err}"]) from None


def build_objective(cfg: ExperimentConfig) -> Objective:
    kind = cfg.objective.get("kind", "quadratic")
    num = lambda key, default=_REQUIRED: _num(cfg, "objective", key, default)
    with _config_errors(f"[objective] {kind}"):
        if kind == "quadratic":
            return make_quadratic(dim=num("dim", 1), lam=num("lam", 1.0))
        if kind == "phi_p":
            return make_phi_p(num("p"))
        if kind == "pl_sine":
            return make_pl_sine()
        if kind == "least_squares":
            return make_least_squares(
                dim=num("dim", 4),
                n_data=num("n_data", 256),
                stream=derive_stream(cfg.seed, 0, "data"),
            )
        if kind == "linear_probe":
            return make_linear_probe(dim=num("dim", 1))
    raise ConfigError([f"[objective] kind: unknown objective {kind!r}"])


def build_oracle(cfg: ExperimentConfig, obj: Objective) -> GradientOracle:
    spec = cfg.oracle
    kind = spec.get("kind", "gaussian")
    num = lambda key, default: _num(cfg, "oracle", key, default)
    with _config_errors(f"[oracle] {kind}"):
        if kind in ("gaussian", "none"):
            return gaussian_oracle(obj, 0.0 if kind == "none" else num("sigma", 1.0))
        if kind == "heavy":
            return heavy_oracle(
                obj, num("scale", 1.0), spec.get("law", "laplace"), df=num("df", None)
            )
        if kind == "batch_probe":
            return probe_batch_oracle(
                obj, num("batch_m", 1), law=spec.get("law", "normal"), df=num("df", None)
            )
        if kind == "least_squares_batch":
            return least_squares_batch_oracle(obj, num("batch_m", 1))
    raise ConfigError([f"[oracle] kind: unknown oracle {kind!r}"])


def _x0_of(cfg: ExperimentConfig, obj: Objective) -> np.ndarray:
    vals = _num(cfg, "objective", "x0", [0.0])
    if len(vals) == 1:
        return np.full(obj.dim, vals[0])
    if len(vals) != obj.dim:
        raise ConfigError([f"[objective] x0: expected 1 or {obj.dim} entries"])
    return np.asarray(vals)


def _run_label(obj: Objective, oracle: GradientOracle, sched: StepSchedule) -> str:
    return f"{obj.name}_{oracle.name}_{sched.label()}"


def _tally(out: Outcome, run_id: str, attempted: int, aborts: list, fewest: int = 1) -> bool:
    """Count a bank's replicates and abort lines; False, with a report line,
    when fewer than fewest survived."""
    out.attempted += attempted
    survived = attempted - len(aborts)
    out.completed += survived
    out.aborts += [f"{run_id} {err}" for err in aborts]
    if survived >= fewest:
        return True
    what = "all replicates aborted" if survived == 0 else f"fewer than {fewest} replicates survived"
    out.report.append(f"{run_id}: {what}")
    return False


def _rate_settings(obj: Objective, alpha: float):
    """RateSettings implied by the objective's class tags at this alpha."""
    settings = []
    if obj.tag(StronglyConvex) is not None:
        settings.append(RateSetting("strongly_convex", alpha, "dist2"))
    if alpha < 1.0:
        if obj.tag(Convex) is not None:
            settings.append(RateSetting("convex", alpha, "f_gap"))
        loj = obj.tag(Lojasiewicz)
        if loj is not None:
            settings.append(RateSetting("lojasiewicz", alpha, "f_gap", r=loj.r))
        mix = obj.tag(MixedDominance)
        if mix is not None:
            settings.append(
                RateSetting("mixed_dominance", alpha, "f_gap", r1=mix.r1, r2=mix.r2)
            )
        if obj.tag(QuasarConvex) is not None:
            settings.append(RateSetting("quasar_convex", alpha, "f_gap"))
    return settings


def _experiment_rates(cfg: ExperimentConfig) -> Outcome:
    out = Outcome()
    obj = build_objective(cfg)
    oracle = build_oracle(cfg, obj)
    tol = _num(cfg, "oracle", "rate_tolerance", 0.1)
    n_steps = int(cfg.horizon)
    plan = log_spaced_indices(n_steps)
    observables = {"f_gap": "values", "dist2": "dist2_to_min", "grad_sq": "grad_sq"}
    x0 = _x0_of(cfg, obj)
    for sched in cfg.schedules:
        run_id = _run_label(obj, oracle, sched)
        bank = run_sgd_replicates(
            obj, oracle, sched, x0, n_steps, cfg.replicates, cfg.seed, plan=plan
        )
        if not _tally(out, run_id, cfg.replicates, bank.aborts):
            continue
        _emit_bank(out, run_id, bank)
        if sched.alpha == 0.0:
            out.report.append(f"{run_id}: constant step; power-law rate fit not applicable")
            continue
        if oracle.eta == 0.0:
            out.report.append(
                f"{run_id}: noiseless run decays super-polynomially;"
                " power-law rate fit not applicable"
            )
            continue
        for setting in _rate_settings(obj, sched.alpha):
            expected = expected_rate(setting)
            if expected is None:
                out.report.append(
                    f"{run_id} {setting.function_class}/{setting.observable}:"
                    " no polynomial guarantee at this alpha"
                )
                continue
            curve = getattr(bank, observables[setting.observable]).mean(axis=0)
            try:
                est = fit_rate(list(zip(plan.tolist(), curve.tolist())))
            except ValueError as err:
                out.report.append(
                    f"{run_id} {setting.function_class}/{setting.observable}:"
                    f" rate fit not applicable ({err})"
                )
                continue
            decay = -est.slope
            # Sharp classes should match the exponent; for the others the
            # exponent is only a guarantee, so decaying faster is fine.
            sharp = setting.function_class in ("strongly_convex", "lojasiewicz")
            if sharp:
                ok = abs(decay - expected) <= tol
            else:
                ok = decay >= expected - tol
            note = "" if sharp or decay <= expected + tol else " (exceeds guarantee)"
            out.report.append(
                f"{run_id} {setting.function_class}/{setting.observable}:"
                f" fitted decay {decay:.4f} vs expected {expected:.4f}"
                f" (tol {tol:g}, r2 {est.r_squared:.3f},"
                f" window {est.window[0]:g}..{est.window[1]:g})"
                f" {'PASS' if ok else 'FAIL'}{note}"
            )
    return out


def _emit_coupled(out: Outcome, run_id: str, bank: CoupledBank) -> None:
    _emit_bank(out, run_id + ":discrete", bank.discrete)
    _emit_bank(out, run_id + ":continuous", bank.continuous)


def _experiment_approx(cfg: ExperimentConfig, weak: bool) -> Outcome:
    out = Outcome()
    obj = build_objective(cfg)
    oracle = build_oracle(cfg, obj)
    lo = _num(cfg, "oracle", "slope_lo", 0.8 if weak else 0.85)
    hi = _num(cfg, "oracle", "slope_hi", 1.3 if weak else 1.15)
    x0 = _x0_of(cfg, obj)
    by_alpha: dict = {}
    for sched in cfg.schedules:
        run_id = _run_label(obj, oracle, sched)
        bank = run_coupled_replicates(
            obj, oracle, sched, x0, cfg.horizon, cfg.substeps, cfg.replicates, cfg.seed
        )
        if not _tally(out, run_id, cfg.replicates, bank.aborts, fewest=2):
            continue
        _emit_coupled(out, run_id, bank)
        kind = bank.coupling_kind
        if weak:
            est = weak_error(bank, lambda x: np.sum(np.square(x), axis=-1))
            value = abs(est.value)
            label = "weak error |E g| (g = squared norm)"
            detail = f"{est.value:.6g} +- {est.ci_halfwidth:.2g} over {est.n} replicates"
        else:
            # The theoretical order is uniform over the trajectory, so the
            # sweep tracks the worst checkpoint, not just the endpoint.
            per_ckpt = [strong_error(bank, checkpoint=int(c)) for c in bank.block_indices]
            est = max(per_ckpt, key=lambda e: e.value)
            value = est.value
            label = "strong error (sup over checkpoints)"
            detail = f"{est.value:.6g} +- {est.ci_halfwidth:.2g} over {est.n} replicates"
        out.report.append(f"{run_id} [{kind}]: {label} = {detail}")
        by_alpha.setdefault(sched.alpha, []).append((sched.gamma, value))
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
    return out


def _experiment_batch_eps(cfg: ExperimentConfig) -> Outcome:
    out = Outcome()
    law = cfg.oracle.get("law", "laplace")
    df = _num(cfg, "oracle", "df", None)
    m_values = _num(cfg, "oracle", "m_values", [1, 4, 16, 64])
    n_samples = _num(cfg, "oracle", "n_samples", 100_000)
    lo = _num(cfg, "oracle", "slope_lo", -1.25)
    hi = _num(cfg, "oracle", "slope_hi", -0.75)
    with _config_errors("[objective] linear_probe"):
        obj = make_linear_probe(_num(cfg, "objective", "dim", 1))
    x = _x0_of(cfg, obj)
    with _config_errors("[oracle] batch_probe"):
        oracles = [probe_batch_oracle(obj, m, law=law, df=df) for m in m_values]
    means = []
    for m, oracle in zip(m_values, oracles):
        run_id = f"eps_{law}_M{m}"
        values = []
        out.attempted += cfg.replicates
        for rep in range(cfg.replicates):
            eps = epsilon_hat(
                oracle, x, n_samples, derive_stream(cfg.seed, rep, "noise")
            )
            values.append(eps)
            out.completed += 1
        values = np.asarray(values)[:, None]
        _emit_bank(
            out, run_id,
            ReplicateRuns(
                np.array([m]), values, values**2, np.zeros_like(values), np.arange(cfg.replicates)
            ),
        )
        means.append(float(values.mean()))
    if len(m_values) >= 2:
        slope = _loglog_slope(m_values, means)
        ok = lo <= slope <= hi
        out.report.append(
            f"eps_{law}: slope of eps vs batch size {slope:.4f}"
            f" (window [{lo:g}, {hi:g}]) {'PASS' if ok else 'FAIL'}"
        )
    for m, v in zip(m_values, means):
        out.report.append(f"eps_{law} M={m}: mean eps {v:.6g}")
    return out


def _probe_steps(horizon: float, sched: StepSchedule) -> int:
    """Iterations of a probe-exact run: whole gamma_alpha blocks in the horizon."""
    return int(horizon / sched.gamma_alpha + 1e-9)


def _experiment_probe_exact(cfg: ExperimentConfig) -> Outcome:
    out = Outcome()
    with _config_errors("[objective] linear_probe"):
        obj = make_linear_probe(_num(cfg, "objective", "dim", 1))
    m = _num(cfg, "oracle", "batch_m", 1)
    with _config_errors("[oracle] batch_probe"):
        oracle = probe_batch_oracle(obj, m, law="normal")
    x0 = _x0_of(cfg, obj)
    for sched in cfg.schedules:
        n_steps = _probe_steps(cfg.horizon, sched)
        plan = log_spaced_indices(n_steps)
        run_id = _run_label(obj, oracle, sched)
        bank = run_sgd_replicates(
            obj, oracle, sched, x0, n_steps, cfg.replicates, cfg.seed, plan=plan
        )
        if not _tally(out, run_id, cfg.replicates, bank.aborts, fewest=2):
            continue
        _emit_bank(out, run_id, bank)
        dist2 = bank.dist2_to_min
        r = dist2.shape[0]
        worst = 0.0
        for j, n in enumerate(plan):
            exact = probe_exact_second_moment(m, sched.gamma, sched.alpha, int(n))
            mean = float(dist2[:, j].mean())
            se = float(dist2[:, j].std(ddof=1)) / np.sqrt(r)
            z = abs(mean - exact) / se if se > 0 else 0.0
            worst = max(worst, z)
            if j == len(plan) - 1:
                out.report.append(
                    f"{run_id} n={int(n)}: mean dist2 {mean:.6g} vs exact {exact:.6g}"
                    f" ({z:.2f} standard errors) {'PASS' if z <= 3 else 'FAIL'}"
                )
        out.report.append(
            f"{run_id}: worst checkpoint deviation {worst:.2f} standard errors"
            f" {'PASS' if worst <= 3 else 'FAIL'}"
        )
        if sched.alpha < 0.5:
            floor = probe_strong_error_floor(m, sched.gamma, sched.alpha, cfg.horizon)
            final = float(np.sqrt(dist2[:, -1].mean()))
            out.report.append(
                f"{run_id}: final RMS deviation {final:.6g} vs lower bound {floor:.6g}"
                f" {'PASS' if final >= floor else 'FAIL'}"
            )
    return out


def _experiment_couple_demo(cfg: ExperimentConfig) -> Outcome:
    out = Outcome()
    obj = build_objective(cfg)
    oracle = build_oracle(cfg, obj)
    sched = cfg.schedules[0]
    run_id = _run_label(obj, oracle, sched)
    bank = run_coupled_replicates(
        obj, oracle, sched, _x0_of(cfg, obj), cfg.horizon, cfg.substeps,
        cfg.replicates, cfg.seed,
    )
    if not _tally(out, run_id, cfg.replicates, bank.aborts, fewest=2):
        return out
    _emit_coupled(out, run_id, bank)
    kind = bank.coupling_kind
    s_est = strong_error(bank)
    w_est = weak_error(bank, lambda x: np.sum(np.square(x), axis=-1))
    out.report.append(f"{run_id}: coupling kind {kind}")
    if kind == "independent":
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
    path = sample_brownian_path(
        cfg.horizon, sched.gamma_alpha / cfg.substeps, obj.dim,
        derive_stream(cfg.seed, 0, "brownian"),
    )
    try:
        bias = em_bias_probe(
            obj, oracle, sched, _x0_of(cfg, obj), cfg.horizon, cfg.substeps, path,
            derive_stream(cfg.seed, 1, "brownian"),
        )
    except DivergenceError as err:
        out.report.append(f"{run_id}: integrator bias probe aborted ({err})")
        return out
    out.report.append(
        f"{run_id}: integrator bias probe (K vs 2K) {bias:.6g}"
        + ("" if s_est.value == 0 or bias <= 0.1 * s_est.value else " WARNING: above 10% of strong error")
    )
    return out


def _experiment_certify(cfg: ExperimentConfig) -> Outcome:
    out = Outcome()
    obj = build_objective(cfg)
    out.attempted = 1
    out.completed = 1
    with _config_errors("[grid]"):
        out.report += [certify_condition(obj, tag, cfg.grid).line() for tag in obj.class_tags]
    if not obj.class_tags:
        out.report.append(f"{obj.name}: no class tags to certify")
    return out


def _write_csv(path: Path, header: str, rows: list) -> None:
    """The header and the rows, one a line, written a slice of rows at a
    time so that no copy of the whole file is held in memory."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(rows), 4096):
            fh.write("\n".join(rows[i : i + 4096]) + "\n")


def run_experiment(cfg: ExperimentConfig) -> Outcome:
    runners = {
        "rates": _experiment_rates,
        "strong-approx": lambda c: _experiment_approx(c, weak=False),
        "weak-approx": lambda c: _experiment_approx(c, weak=True),
        "batch-eps": _experiment_batch_eps,
        "probe-exact": _experiment_probe_exact,
        "couple-demo": _experiment_couple_demo,
        "certify": _experiment_certify,
    }
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError([f"[experiment] out_dir: {err}"]) from None
    out = runners[cfg.experiment](cfg)
    _write_csv(out_dir / "raw.csv", RAW_HEADER, out.raw_rows)
    _write_csv(out_dir / "summary.csv", SUMMARY_HEADER, out.summary_rows)
    lines = [f"experiment: {cfg.experiment}", f"seed: {cfg.seed}"]
    lines += out.report
    if out.aborts:
        lines.append(f"aborted replicates ({len(out.aborts)}):")
        lines += [f"  {a}" for a in out.aborts]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    return out


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
    if kind not in EXPERIMENTS:
        problems.append(f"[experiment] kind: {kind!r} not one of {EXPERIMENTS}")
    seed = get("experiment", "seed", 0)
    if seed < 0:
        problems.append("[experiment] seed: must be >= 0")
    replicates = get("experiment", "replicates", 100)
    fewest = 2 if kind in ("strong-approx", "weak-approx", "couple-demo", "probe-exact") else 1
    if replicates < fewest:
        problems.append(f"[experiment] replicates: must be >= {fewest}")
    substeps = get("experiment", "substeps", 16)
    if substeps < 1:
        problems.append("[experiment] substeps: must be >= 1")
    horizon = get("experiment", "horizon", 0.0)
    if kind != "certify" and horizon <= 0:
        problems.append("[experiment] horizon: must be positive")
    elif kind == "rates" and horizon < 1:
        problems.append("[experiment] horizon: shorter than one step")
    elif kind == "rates" and int(horizon) > MAX_STEPS:
        problems.append(f"[experiment] horizon: more than {MAX_STEPS} steps per replicate")
    dim = get("objective", "dim", 1)
    if dim > MAX_DIM:
        problems.append(f"[objective] dim: {dim} is more than {MAX_DIM}")
    if kind == "batch-eps":
        n_samples = get("oracle", "n_samples", 100_000)
        draws = n_samples * max(get("oracle", "m_values", [1, 4, 16, 64]), default=1) * dim
        if n_samples < 1:
            problems.append("[oracle] n_samples: must be >= 1")
        elif draws > MAX_DRAWS:
            problems.append(f"[oracle] n_samples: {draws} draws per estimate, more than {MAX_DRAWS}")
    grid = None
    if kind == "certify":
        given = {key: value for (name, key), value in values.items() if name == "grid"}
        try:
            grid = GridSpec(**{"lo": -3.0, "hi": 3.0, **given})
        except ValueError as err:
            problems.append(f"[grid]: {err}")

    continuous = kind in ("strong-approx", "weak-approx", "couple-demo", "probe-exact")
    gammas, alphas = get("schedule", "gamma", [0.1]), get("schedule", "alpha", [0.5])
    if not parser.has_section("schedule"):
        gammas = alphas = []
        if kind not in ("batch-eps", "certify"):
            problems.append("[schedule]: section required for this experiment")
    problems += [f"[schedule] gamma: {g} must be > 0" for g in gammas if g <= 0]
    fine = []
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            problems.append(f"[schedule] alpha: {a} must lie in [0, 1]")
        elif a >= 1.0 and continuous:
            problems.append(
                f"[schedule] alpha: {a} invalid for {kind}; the continuous-time"
                " process needs alpha < 1"
            )
        elif a >= 0.5 and kind == "probe-exact":
            problems.append(
                f"[schedule] alpha: {a} invalid for probe-exact; the growing-noise"
                " regime needs alpha < 1/2"
            )
        else:
            fine.append(a)
    schedules = [StepSchedule(g, a) for a in fine for g in gammas if g > 0]
    for name, key in (("schedule", "gamma"), ("schedule", "alpha"), ("oracle", "m_values")):
        # an entry names its run ids (a float to six significant digits)
        labels = [v if key == "m_values" else f"{v:g}" for v in get(name, key, [])]
        problems += [f"[{name}] {key}: {v} repeated" for v in dict.fromkeys(labels) if labels.count(v) > 1]
    if kind == "batch-eps":
        rows = replicates * len(get("oracle", "m_values", [1, 4, 16, 64]))
    else:
        runs = {"certify": 0, "couple-demo": 1}.get(kind, len(schedules))
        rows = replicates * runs * 64 * (2 if continuous and kind != "probe-exact" else 1)
    if rows > MAX_ROWS:
        problems.append(f"[experiment] replicates: {rows} raw.csv rows, more than {MAX_ROWS}")
    if continuous and horizon > 0 and substeps >= 1:
        probe = kind == "probe-exact"
        per_block, unit = (1, "steps") if probe else (substeps, "substeps")
        for s in schedules:
            try:
                ga = s.gamma_alpha
            except ValueError as err:
                problems.append(f"[schedule] {err}")
                continue
            if horizon / ga * per_block > MAX_STEPS:
                problems.append(
                    f"[experiment] horizon: more than {MAX_STEPS} {unit} per replicate"
                    f" at gamma {s.gamma:g}, alpha {s.alpha:g}"
                )
            elif probe and _probe_steps(horizon, s) < 1:
                problems.append("[experiment] horizon: shorter than one gamma_alpha block")
            elif path_length(horizon, ga / substeps) < 1:
                problems.append("[experiment] horizon: shorter than one substep")
    if problems:
        raise ConfigError(problems)
    section = lambda name: dict(parser[name]) if parser.has_section(name) else {}
    return ExperimentConfig(
        experiment=kind,
        seed=seed,
        replicates=replicates,
        horizon=horizon,
        substeps=substeps,
        out_dir=overrides.get("out_dir") or get("experiment", "out_dir", "results"),
        objective=section("objective"),
        oracle=section("oracle"),
        schedules=schedules,
        grid=grid,
    )


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
