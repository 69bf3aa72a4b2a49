"""Experiment harness: config-driven replicated runs with CSV and report output.

Config grammar (INI-style, parsed by configparser; keys are lowercase):

    [experiment]
    kind = rates            ; rates | strong-approx | weak-approx | batch-eps
                            ; | probe-exact | couple-demo | certify
    seed = 20240817         ; required master seed
    replicates = 200
    horizon = 100000        ; iteration count N (discrete) or time T (continuous)
    substeps = 16           ; diffusion substeps per gamma_alpha block
    threads = 1
    out_dir = results

    [objective]
    kind = quadratic        ; quadratic | phi_p | pl_sine | least_squares | linear_probe
    x0 = 1.0                ; scalar or comma-separated vector
    ... kind-specific keys (lam, p, dim, n_data)

    [oracle]
    kind = gaussian         ; gaussian | heavy | batch_probe | least_squares_batch | none
    ... kind-specific keys (sigma, law, scale, df, batch_m, m_values, n_samples)

    [schedule]
    gamma = 0.1             ; comma lists sweep; schedules are the cross product
    alpha = 0.3, 0.5, 0.7

    [grid]                  ; certify only
    lo = -3
    hi = 3
    num = 2001

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
import sys
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
from .sde import em_bias_probe, sample_brownian_path
from .sgd import ReplicateRuns, run_sgd_replicates

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
    threads: int
    out_dir: str
    objective: dict
    oracle: dict
    schedules: list
    grid: dict = field(default_factory=dict)
    source: str = ""


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
    for i in range(r):
        for j in range(c):
            n = indices[j]
            out.raw_rows.append(
                f"{run_id},{int(runs.replicate_ids[i])},{_fmt_index(n)},{_fmt(values[i, j])},"
                f"{_fmt(dist2[i, j])},{_fmt(grad_sq[i, j])},{_fmt(suffix[i, j])}"
            )
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


def _num(cfg: ExperimentConfig, section: str, key: str, default=_REQUIRED, cast=float):
    """[section] key converted by cast, or default when absent; a missing
    required key or a malformed value is a ConfigError."""
    spec = getattr(cfg, section)
    if key not in spec:
        if default is _REQUIRED:
            raise ConfigError([f"[{section}] {key}: required for kind {spec.get('kind')!r}"])
        return default
    try:
        return cast(spec[key])
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise ConfigError([f"[{section}] {key}: {spec[key]!r} is not {what}"]) from None


def build_objective(cfg: ExperimentConfig) -> Objective:
    kind = cfg.objective.get("kind", "quadratic")
    num = lambda key, default=_REQUIRED, cast=float: _num(cfg, "objective", key, default, cast)
    try:
        if kind == "quadratic":
            return make_quadratic(dim=num("dim", 1, int), lam=num("lam", 1.0))
        if kind == "phi_p":
            return make_phi_p(num("p", cast=int))
        if kind == "pl_sine":
            return make_pl_sine()
        if kind == "least_squares":
            return make_least_squares(
                dim=num("dim", 4, int),
                n_data=num("n_data", 256, int),
                stream=derive_stream(cfg.seed, 0, "data"),
            )
        if kind == "linear_probe":
            return make_linear_probe(dim=num("dim", 1, int))
    except ValueError as err:
        raise ConfigError([f"[objective] {kind}: {err}"]) from None
    raise ConfigError([f"[objective] kind: unknown objective {kind!r}"])


def build_oracle(cfg: ExperimentConfig, obj: Objective) -> GradientOracle:
    spec = cfg.oracle
    kind = spec.get("kind", "gaussian")
    num = lambda key, default, cast=float: _num(cfg, "oracle", key, default, cast)
    try:
        if kind in ("gaussian", "none"):
            return gaussian_oracle(obj, 0.0 if kind == "none" else num("sigma", 1.0))
        if kind == "heavy":
            return heavy_oracle(
                obj, num("scale", 1.0), spec.get("law", "laplace"), df=num("df", None)
            )
        if kind == "batch_probe":
            return probe_batch_oracle(
                obj, num("batch_m", 1, int), law=spec.get("law", "normal"), df=num("df", None)
            )
        if kind == "least_squares_batch":
            return least_squares_batch_oracle(obj, num("batch_m", 1, int))
    except (TypeError, ValueError) as err:
        raise ConfigError([f"[oracle] {kind}: {err}"]) from None
    raise ConfigError([f"[oracle] kind: unknown oracle {kind!r}"])


def _x0_of(cfg: ExperimentConfig, obj: Objective) -> np.ndarray:
    raw = cfg.objective.get("x0", "0")
    try:
        vals = [float(v) for v in str(raw).split(",")]
    except ValueError:
        raise ConfigError(
            [f"[objective] x0: {raw!r} is not a number or a comma-separated vector"]
        ) from None
    if len(vals) == 1:
        return np.full(obj.dim, vals[0])
    if len(vals) != obj.dim:
        raise ConfigError([f"[objective] x0: expected 1 or {obj.dim} entries"])
    return np.asarray(vals)


def _run_label(obj: Objective, oracle: GradientOracle, sched: StepSchedule) -> str:
    return f"{obj.name}_{oracle.name}_{sched.label()}"


def _tally(out: Outcome, run_id: str, attempted: int, aborts: list) -> bool:
    """Count a bank's replicates and abort lines; False when none survived."""
    out.attempted += attempted
    out.completed += attempted - len(aborts)
    out.aborts += [f"{run_id} {err}" for err in aborts]
    if len(aborts) < attempted:
        return True
    out.report.append(f"{run_id}: all replicates aborted")
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
            obj, oracle, sched, x0, n_steps, cfg.replicates, cfg.seed,
            plan=plan, threads=cfg.threads,
        )
        if not _tally(out, run_id, cfg.replicates, bank.aborts):
            continue
        _emit_bank(out, run_id, bank)
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
            obj, oracle, sched, x0, cfg.horizon, cfg.substeps, cfg.replicates,
            cfg.seed, threads=cfg.threads, record_states=weak,
        )
        if not _tally(out, run_id, cfg.replicates, bank.aborts):
            continue
        _emit_coupled(out, run_id, bank)
        kind = bank.coupling_kind
        if weak:
            est = weak_error(bank, bank, lambda x: np.sum(np.square(x), axis=-1))
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
    m_values = [int(v) for v in str(cfg.oracle.get("m_values", "1, 4, 16, 64")).split(",")]
    n_samples = int(_num(cfg, "oracle", "n_samples", 100_000))
    lo = _num(cfg, "oracle", "slope_lo", -1.25)
    hi = _num(cfg, "oracle", "slope_hi", -0.75)
    obj = make_linear_probe(_num(cfg, "objective", "dim", 1, int))
    x = _x0_of(cfg, obj)
    means = []
    for m in m_values:
        oracle = probe_batch_oracle(obj, m, law=law, df=df)
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


def _experiment_probe_exact(cfg: ExperimentConfig) -> Outcome:
    out = Outcome()
    obj = make_linear_probe(_num(cfg, "objective", "dim", 1, int))
    m = _num(cfg, "oracle", "batch_m", 1, int)
    oracle = probe_batch_oracle(obj, m, law="normal")
    x0 = _x0_of(cfg, obj)
    for sched in cfg.schedules:
        ga = sched.gamma_alpha
        n_steps = int(cfg.horizon / ga + 1e-9)
        if n_steps < 1:
            raise ConfigError(["[experiment] horizon: shorter than one gamma_alpha block"])
        plan = log_spaced_indices(n_steps)
        run_id = _run_label(obj, oracle, sched)
        bank = run_sgd_replicates(
            obj, oracle, sched, x0, n_steps, cfg.replicates, cfg.seed,
            plan=plan, threads=cfg.threads,
        )
        if not _tally(out, run_id, cfg.replicates, bank.aborts):
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
        cfg.replicates, cfg.seed, threads=cfg.threads, record_states=True,
    )
    if not _tally(out, run_id, cfg.replicates, bank.aborts):
        return out
    _emit_coupled(out, run_id, bank)
    kind = bank.coupling_kind
    s_est = strong_error(bank)
    w_est = weak_error(bank, bank, lambda x: np.sum(np.square(x), axis=-1))
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
    bias = em_bias_probe(
        obj, oracle, sched, _x0_of(cfg, obj), cfg.horizon, cfg.substeps, path,
        derive_stream(cfg.seed, 1, "brownian"),
    )
    out.report.append(
        f"{run_id}: integrator bias probe (K vs 2K) {bias:.6g}"
        + ("" if s_est.value == 0 or bias <= 0.1 * s_est.value else " WARNING: above 10% of strong error")
    )
    return out


def _experiment_certify(cfg: ExperimentConfig) -> Outcome:
    out = Outcome()
    obj = build_objective(cfg)
    grid = GridSpec(
        lo=_num(cfg, "grid", "lo", -3.0),
        hi=_num(cfg, "grid", "hi", 3.0),
        num=_num(cfg, "grid", "num", 2001, int),
        exclude_radius=_num(cfg, "grid", "exclude_radius", 1e-6),
    )
    out.attempted = 1
    out.completed = 1
    for tag in obj.class_tags:
        report = certify_condition(obj, tag, grid)
        out.report.append(report.line())
    if not obj.class_tags:
        out.report.append(f"{obj.name}: no class tags to certify")
    return out


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
    out = runners[cfg.experiment](cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "raw.csv").write_text("\n".join([RAW_HEADER] + out.raw_rows) + "\n")
    (out_dir / "summary.csv").write_text(
        "\n".join([SUMMARY_HEADER] + out.summary_rows) + "\n"
    )
    lines = [f"experiment: {cfg.experiment}", f"seed: {cfg.seed}"]
    lines += out.report
    if out.aborts:
        lines.append(f"aborted replicates ({len(out.aborts)}):")
        lines += [f"  {a}" for a in out.aborts]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    return out


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in str(text).split(",") if str(v).strip()]


def validate_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError listing every problem."""
    problems = []
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise ConfigError([f"config file {path!r}: {err}"]) from None
    if not read:
        raise ConfigError([f"config file {path!r} not readable"])
    exp = dict(parser["experiment"]) if parser.has_section("experiment") else {}
    if not parser.has_section("experiment"):
        problems.append("[experiment]: section missing")
    kind = exp.get("kind", "")
    if kind not in EXPERIMENTS:
        problems.append(f"[experiment] kind: {kind!r} not one of {EXPERIMENTS}")
    overrides = overrides or {}

    if "seed" in overrides and overrides["seed"] is not None:
        exp["seed"] = str(overrides["seed"])
    if "seed" not in exp:
        problems.append("[experiment] seed: required")
        seed = 0
    else:
        try:
            seed = int(exp["seed"])
        except ValueError:
            problems.append(f"[experiment] seed: {exp['seed']!r} is not an integer")
            seed = 0

    def _int_field(key, default, minimum):
        try:
            v = int(float(exp.get(key, default)))
        except ValueError:
            problems.append(f"[experiment] {key}: {exp[key]!r} is not a number")
            return default
        if v < minimum:
            problems.append(f"[experiment] {key}: must be >= {minimum}")
            return default
        return v

    replicates = _int_field("replicates", 100, 1)
    substeps = _int_field("substeps", 16, 1)
    threads = _int_field("threads", 1, 1)
    if "threads" in overrides and overrides["threads"] is not None:
        threads = max(1, int(overrides["threads"]))
    try:
        horizon = float(exp.get("horizon", 0))
    except ValueError:
        problems.append(f"[experiment] horizon: {exp['horizon']!r} is not a number")
        horizon = 0.0
    if kind != "certify" and horizon <= 0:
        problems.append("[experiment] horizon: must be positive")
    out_dir = overrides.get("out_dir") or exp.get("out_dir", "results")

    schedules = []
    if parser.has_section("schedule"):
        sect = parser["schedule"]
        try:
            gammas = _parse_floats(sect.get("gamma", "0.1"))
            alphas = _parse_floats(sect.get("alpha", "0.5"))
        except ValueError:
            problems.append("[schedule]: gamma/alpha must be comma-separated numbers")
            gammas, alphas = [], []
        for g in gammas:
            if g <= 0:
                problems.append(f"[schedule] gamma: {g} must be > 0")
        for a in alphas:
            if not 0.0 <= a <= 1.0:
                problems.append(f"[schedule] alpha: {a} must lie in [0, 1]")
            if a >= 1.0 and kind in ("strong-approx", "weak-approx", "couple-demo", "probe-exact"):
                problems.append(
                    f"[schedule] alpha: {a} invalid for {kind}; the continuous-time"
                    " process needs alpha < 1"
                )
            if a >= 0.5 and kind == "probe-exact":
                problems.append(
                    f"[schedule] alpha: {a} invalid for probe-exact; the growing-noise"
                    " regime needs alpha < 1/2"
                )
        if not problems:
            schedules = [StepSchedule(g, a) for a in alphas for g in gammas]
    elif kind not in ("batch-eps", "certify"):
        problems.append("[schedule]: section required for this experiment")

    objective = dict(parser["objective"]) if parser.has_section("objective") else {}
    oracle = dict(parser["oracle"]) if parser.has_section("oracle") else {}
    grid = dict(parser["grid"]) if parser.has_section("grid") else {}
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        experiment=kind,
        seed=seed,
        replicates=replicates,
        horizon=horizon,
        substeps=substeps,
        threads=threads,
        out_dir=str(out_dir),
        objective=objective,
        oracle=oracle,
        schedules=schedules,
        grid=grid,
        source=str(path),
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
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = validate_config(
            args.config,
            overrides={
                "seed": args.seed,
                "threads": args.threads,
                "out_dir": args.out_dir,
            },
        )
        if cfg.experiment != args.experiment:
            raise ConfigError(
                [
                    f"[experiment] kind: config says {cfg.experiment!r} but the"
                    f" {args.experiment!r} subcommand was invoked"
                ]
            )
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    try:
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
