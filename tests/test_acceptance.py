"""End-to-end acceptance gate.

Each test prints one pass/fail line for the guarantee it checks.  Every
run is a deterministic function of MASTER_SEED, so reruns reproduce the
same numbers bit for bit (worker count included; that invariance is
itself property-tested in the unit suites).  Every test here carries the
acceptance marker, so `pytest -m "not acceptance"` runs the unit suites
alone.

The long sweeps are shared: criteria 2 and 3 read the same banks, and
criteria 4 and 7 read the same coupled sweep.  Stated runtime budgets
assume a multi-core laptop; the elapsed time printed per line is wall
time on this host.
"""
import sys
import time

import numpy as np
import pytest

from sgdlab import (
    RateSetting,
    StepSchedule,
    derive_stream,
    em_bias_probe,
    epsilon_hat,
    expected_rate,
    fit_rate,
    gaussian_oracle,
    heavy_oracle,
    least_squares_batch_oracle,
    drift_sup_verify,
    log_spaced_indices,
    make_least_squares,
    make_linear_probe,
    make_phi_p,
    make_pl_sine,
    make_quadratic,
    probe_batch_oracle,
    probe_exact_second_moment,
    probe_strong_error_floor,
    run_coupled_replicates,
    run_sgd_replicates,
    run_sgd_sweep,
    sample_brownian_path,
    strong_error,
    w2_1d,
    weak_error,
)
from sgdlab.cli import main as cli_main

pytestmark = pytest.mark.acceptance

MASTER_SEED = 20240817
N_LONG = 100_000
R_LONG = 2000

_timings = {}
_reporter = None


@pytest.fixture(scope="module", autouse=True)
def _grab_reporter(request):
    global _reporter
    _reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def emit(line):
    # pytest captures fd 1 even through sys.__stdout__, so route the
    # verdict lines through its own terminal writer; plain print keeps
    # them in the captured-output block of a failure report too
    if _reporter is not None:
        _reporter.ensure_newline()
        _reporter.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    print(line)


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _loglog_slope(xs, ys):
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


# ---------------------------------------------------------------- shared sweeps

@pytest.fixture(scope="module")
def phi_sweep():
    """Mean trajectories for phi_p, p in {2, 5}, alpha grid 0.3..0.7: one
    stacked sweep per p, whose banks are those of each alpha alone."""
    t0 = time.perf_counter()
    plan = log_spaced_indices(N_LONG)
    curves = {}
    alphas = (0.3, 0.4, 0.5, 0.6, 0.7)
    for p in (2, 5):
        obj = make_phi_p(p)
        oracle = gaussian_oracle(obj, 1.0)
        banks = run_sgd_sweep(
            obj, oracle, [StepSchedule(0.5, a) for a in alphas], np.array([1.0]),
            N_LONG, R_LONG, MASTER_SEED, plan=plan,
        )
        for alpha, bank in zip(alphas, banks):
            curves[(p, alpha)] = (
                bank.values.mean(axis=0),
                bank.grad_sq.mean(axis=0),
            )
    _timings["phi_sweep"] = time.perf_counter() - t0
    return plan, curves


@pytest.fixture(scope="module")
def coupled_sweep():
    """Coupled banks for the quadratic at alpha = 0.5, T = 4, K = 32."""
    t0 = time.perf_counter()
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    banks = {}
    for gamma in (0.2, 0.1, 0.05, 0.025):
        banks[gamma] = run_coupled_replicates(
            obj, oracle, StepSchedule(gamma, 0.5), np.array([1.0]), 4.0, 32,
            500, MASTER_SEED,
        )
    _timings["coupled_sweep"] = time.perf_counter() - t0
    return banks


# ---------------------------------------------------------------- criteria

def test_criterion_1_strongly_convex_rate():
    """E dist2 decays like n^-alpha on the quadratic; alpha = 1 stays on
    rate when gamma exceeds the critical step."""
    t0 = time.perf_counter()
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    plan = log_spaced_indices(N_LONG)
    cases = [(0.3, 0.5, 0.07), (0.5, 0.5, 0.07), (0.7, 0.5, 0.07), (1.0, 1.0, 0.1)]
    # one stacked sweep, whose banks are those of each schedule alone
    banks = run_sgd_sweep(
        obj, oracle, [StepSchedule(gamma, alpha) for alpha, gamma, _ in cases],
        np.array([1.0]), N_LONG, R_LONG, MASTER_SEED, plan=plan,
    )
    decays, oks = [], []
    for (alpha, gamma, tol), bank in zip(cases, banks):
        est = fit_rate(zip(plan.tolist(), bank.dist2_to_min.mean(axis=0).tolist()))
        decays.append(-est.slope)
        oks.append(abs(-est.slope - alpha) <= tol)
    ok = all(oks)
    detail = " ".join(
        f"a{a:g}:{d:.4f}" for (a, _, _), d in zip(cases, decays)
    )
    emit(
        f"criterion 1 (strongly convex dist2 rate): {detail}"
        f" (tol 0.07; 0.1 at a=1) [{time.perf_counter() - t0:.0f}s,"
        f" budget 180s] {_verdict(ok)}"
    )
    assert ok, f"fitted decays {decays} off target"


def test_criterion_2_convex_rate_and_alpha_star(phi_sweep):
    """E f decays at least at the guaranteed min(a, 1-a) order, and the
    empirically best alpha moves toward 1/2 as p grows."""
    t0 = time.perf_counter()
    plan, curves = phi_sweep
    decays = {}
    for (p, alpha), (mean_f, _) in curves.items():
        est = fit_rate(zip(plan.tolist(), mean_f.tolist()))
        decays[(p, alpha)] = -est.slope
    lower_ok = all(
        decays[(p, a)] >= min(a, 1.0 - a) - 0.12
        for p in (2, 5)
        for a in (0.3, 0.5, 0.7)
    )
    star = {
        p: max((a for pp, a in decays if pp == p), key=lambda a: decays[(p, a)])
        for p in (2, 5)
    }
    trend_ok = star[5] <= star[2]
    ok = lower_ok and trend_ok
    emit(
        "criterion 2 (convex f rate, alpha* trend):"
        f" p=2 decays {' '.join(f'{a:g}:{decays[(2, a)]:.4f}' for a in (0.3, 0.4, 0.5, 0.6, 0.7))}"
        f" -> alpha*={star[2]:g};"
        f" p=5 decays {' '.join(f'{a:g}:{decays[(5, a)]:.4f}' for a in (0.3, 0.4, 0.5, 0.6, 0.7))}"
        f" -> alpha*={star[5]:g}"
        f" [{_timings['phi_sweep'] + time.perf_counter() - t0:.0f}s, budget 240s] {_verdict(ok)}"
    )
    assert lower_ok, f"one-sided rate bound violated: {decays}"
    assert trend_ok, f"alpha* trend violated: {star}"


def test_criterion_3_gradient_norm_stays_bounded(phi_sweep):
    """Along every phi_p run, the gradient second moment never exceeds 3x
    its level at the first checkpoint past n = 100."""
    t0 = time.perf_counter()
    plan, curves = phi_sweep
    i0 = int(np.argmax(plan > 100))
    worst = 0.0
    ok = True
    for (p, alpha), (_, mean_gsq) in curves.items():
        ratio = float(mean_gsq[i0:].max() / mean_gsq[i0])
        worst = max(worst, ratio)
        ok = ok and ratio <= 3.0
    emit(
        "criterion 3 (gradient norm boundedness):"
        f" worst tail max / value at n={int(plan[i0])} = {worst:.3f} (limit 3)"
        f" [{time.perf_counter() - t0:.0f}s, shares criterion 2's sweep] {_verdict(ok)}"
    )
    assert ok, f"gradient moment grew by {worst:.3f}x"


def test_criterion_4_strong_error_order(coupled_sweep):
    """Sup-over-checkpoints strong error scales like gamma (delta = 1 at
    alpha = 1/2), after checking the integrator bias is negligible."""
    t0 = time.perf_counter()
    banks = coupled_sweep
    gammas = sorted(banks, reverse=True)
    sups = []
    for gamma in gammas:
        bank = banks[gamma]
        sups.append(
            max(
                strong_error(bank, checkpoint=int(c)).value
                for c in bank.block_indices
            )
        )
    slope = _loglog_slope(gammas, sups)
    sched = StepSchedule(0.025, 0.5)
    path = sample_brownian_path(
        4.0, sched.gamma_alpha / 32, 1, derive_stream(MASTER_SEED, 0, "brownian")
    )
    bias = em_bias_probe(
        make_quadratic(lam=1.0), gaussian_oracle(make_quadratic(lam=1.0), 1.0),
        sched, np.array([1.0]), 4.0, 32, path,
        derive_stream(MASTER_SEED, 1, "brownian"),
    )
    bias_ok = bias <= 0.1 * min(sups)
    slope_ok = 0.85 <= slope <= 1.15
    ok = bias_ok and slope_ok
    emit(
        "criterion 4 (strong approximation order):"
        f" sup errors {' '.join(f'{e:.6f}' for e in sups)} for gamma {gammas},"
        f" slope {slope:.4f} in [0.85, 1.15];"
        f" integrator bias {bias:.2e} <= 10% of {min(sups):.4f}"
        f" [{_timings['coupled_sweep'] + time.perf_counter() - t0:.0f}s, budget 300s] {_verdict(ok)}"
    )
    assert bias_ok, f"integrator bias {bias} too large to attribute error to the coupling"
    assert slope_ok, f"strong error slope {slope} outside [0.85, 1.15]"


def test_criterion_5_probe_exact_law_and_floor():
    """The flat-objective probe matches its closed-form second moment at
    n = floor(T / gamma_alpha) and sits above the ODE-comparison floor."""
    t0 = time.perf_counter()
    obj = make_linear_probe()
    sched = StepSchedule(0.1, 0.25)
    n = int(2.0 / sched.gamma_alpha + 1e-9)
    parts, ok = [], True
    for m in (1, 4):
        oracle = probe_batch_oracle(obj, m, law="normal")
        bank = run_sgd_replicates(
            obj, oracle, sched, np.zeros(1), n, R_LONG, MASTER_SEED,
            plan=np.array([n]),
        )
        d2 = bank.dist2_to_min[:, 0]
        mean = float(d2.mean())
        se = float(d2.std(ddof=1)) / np.sqrt(R_LONG)
        exact = probe_exact_second_moment(m, 0.1, 0.25, n)
        floor = probe_strong_error_floor(m, 0.1, 0.25, 2.0)
        z = abs(mean - exact) / se
        above = np.sqrt(mean) >= floor
        ok = ok and z <= 3.0 and above
        parts.append(f"M={m}: z={z:.2f} rms={np.sqrt(mean):.4f}>=floor {floor:.4f}")
    emit(
        f"criterion 5 (exact probe law at n={n}): {'; '.join(parts)}"
        f" [{time.perf_counter() - t0:.0f}s, budget 60s] {_verdict(ok)}"
    )
    assert ok, parts


def test_criterion_6_batch_noise_gap_scaling():
    """The gaussianization gap of the batch oracle shrinks roughly like
    1/M in the batch size."""
    t0 = time.perf_counter()
    probe = make_linear_probe()
    ms = [1, 4, 16, 64]
    eps = []
    for m in ms:
        oracle = probe_batch_oracle(probe, m, law="laplace")
        eps.append(
            epsilon_hat(oracle, np.zeros(1), N_LONG, derive_stream(MASTER_SEED, 0, "noise"))
        )
    slope = _loglog_slope(ms, eps)
    ok = -1.25 <= slope <= -0.75
    emit(
        "criterion 6 (batch gaussianization gap):"
        f" eps {' '.join(f'{e:.6f}' for e in eps)} for M {ms},"
        f" slope {slope:.4f} in [-1.25, -0.75]"
        f" [{time.perf_counter() - t0:.0f}s, budget 60s] {_verdict(ok)}"
    )
    assert ok, f"eps-vs-M slope {slope} outside window"


def test_criterion_7_weak_error_order(coupled_sweep):
    """Paired weak error for g = squared norm scales like gamma up to the
    logarithmic factor absorbed in the window."""
    t0 = time.perf_counter()
    banks = coupled_sweep
    gammas = sorted(banks, reverse=True)
    g = lambda x: np.sum(np.square(x), axis=-1)
    weaks = [weak_error(banks[gm], g).value for gm in gammas]
    slope = _loglog_slope(gammas, weaks)
    ok = 0.8 <= slope <= 1.3
    emit(
        "criterion 7 (weak error order):"
        f" |E g| {' '.join(f'{w:.8f}' for w in weaks)} for gamma {gammas},"
        f" slope {slope:.4f} in [0.8, 1.3]"
        f" [{time.perf_counter() - t0:.0f}s, shares criterion 4's sweep] {_verdict(ok)}"
    )
    assert ok, f"weak error slope {slope} outside window"


def test_criterion_8_gradient_dominance_rate():
    """The non-convex sine benchmark still decays at the dominance rate."""
    t0 = time.perf_counter()
    obj = make_pl_sine()
    oracle = gaussian_oracle(obj, 0.5)
    plan = log_spaced_indices(N_LONG)
    decays, oks = [], []
    for alpha in (0.4, 0.7):
        bank = run_sgd_replicates(
            obj, oracle, StepSchedule(0.2, alpha), np.array([1.0]), N_LONG,
            R_LONG, MASTER_SEED, plan=plan,
        )
        est = fit_rate(zip(plan.tolist(), bank.values.mean(axis=0).tolist()))
        decays.append(-est.slope)
        oks.append(abs(-est.slope - alpha) <= 0.1)
    ok = all(oks)
    emit(
        "criterion 8 (gradient dominance f rate):"
        f" a0.4:{decays[0]:.4f} a0.7:{decays[1]:.4f} (tol 0.1)"
        f" [{time.perf_counter() - t0:.0f}s, budget 120s] {_verdict(ok)}"
    )
    assert ok, f"pl_sine decays {decays}"


def test_criterion_9_property_suites(tmp_path):
    """Always-on consistency bundle: finite differences, sigma^1/2
    consistency, the 1-D W2 gaussian closed form, the bounded-recursion
    verifier on random instances, the step/rate identity, CSV
    determinism, and the exponent table."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    parts = {}

    # gradients match central finite differences
    objectives = [
        make_quadratic(dim=3, lam=1.3),
        make_phi_p(2),
        make_phi_p(5),
        make_pl_sine(),
        make_least_squares(dim=3, n_data=64, stream=derive_stream(1, 0, "data")),
        make_linear_probe(dim=2),
    ]
    fd_ok = True
    for obj in objectives:
        for _ in range(3):
            x = rng.uniform(-2.0, 2.0, size=obj.dim)
            grad = obj.gradient(x)
            num = np.empty_like(grad)
            h = 1e-6
            for i in range(obj.dim):
                e = np.zeros(obj.dim)
                e[i] = h
                num[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
            fd_ok = fd_ok and np.allclose(num, grad, rtol=1e-4, atol=1e-5)
    parts["fd"] = fd_ok

    # sigma_sqrt squares back to sigma and drives apply_sqrt
    quad3 = make_quadratic(dim=3)
    ls = make_least_squares(dim=3, n_data=64, stream=derive_stream(1, 0, "data"))
    oracles = [
        gaussian_oracle(quad3, 1.3),
        heavy_oracle(quad3, 0.7, "laplace"),
        probe_batch_oracle(make_linear_probe(dim=2), 4),
        least_squares_batch_oracle(ls, 2),
    ]
    sq_ok = True
    for oracle in oracles:
        d = oracle.objective.dim
        x = rng.uniform(-1.0, 1.0, size=d)
        root = np.asarray(oracle.sigma_sqrt(x), dtype=float)
        full = np.asarray(oracle.sigma(x), dtype=float)
        sq_ok = sq_ok and np.abs(root @ root.T - full).max() <= 1e-10
        v = rng.standard_normal(d)
        sq_ok = sq_ok and np.abs(oracle.apply_sqrt(x, v) - root @ v).max() <= 1e-10
    parts["sigma_sqrt"] = sq_ok

    # W2 between gaussian samples matches sqrt(dmu^2 + dsigma^2)
    a = rng.normal(0.0, 1.0, size=100_000)
    b = rng.normal(0.5, 1.5, size=100_000)
    parts["w2"] = abs(w2_1d(a, b) - np.hypot(0.5, 0.5)) <= 0.02

    # randomized bounded recursions never exceed their bound
    drift_ok = True
    for _ in range(1000):
        a1 = rng.uniform(0.5, 3.0)
        a2 = rng.uniform(0.05, 1.0)
        pull = rng.uniform(0.05, 1.0)
        margin = rng.uniform(0.001, 0.1)

        def f(n, x, a1=a1, a2=a2, pull=pull, margin=margin):
            if x < a1:
                return a2
            return -pull * (x - a1) * (1.0 + 0.5 * np.sin(n) ** 2) - margin

        u0 = rng.uniform(0.0, 5.0, size=2)
        bound, peak = drift_sup_verify(f, u0, 0, a1, a2, 400)
        drift_ok = drift_ok and peak <= bound + 1e-12
    parts["drift_bound"] = drift_ok

    # discrete step and continuous rate agree through the time change
    ident_ok = True
    for _ in range(1000):
        sched = StepSchedule(rng.uniform(0.01, 2.0), rng.uniform(0.0, 0.99))
        n = int(rng.integers(0, 10**6))
        lhs = sched.gamma_alpha * sched.continuous_rate(n * sched.gamma_alpha)
        rhs = sched.step_size(n)
        ident_ok = ident_ok and abs(lhs - rhs) <= 1e-12 * abs(rhs)
    parts["identity"] = ident_ok

    # CSV output is deterministic across reruns, and --threads is accepted
    # without changing it (block-size invariance is checked by
    # test_block_size_does_not_change_output)
    cfg = tmp_path / "mini.ini"
    cfg.write_text(
        "[experiment]\nkind = rates\nseed = 11\nreplicates = 300\nhorizon = 200\n\n"
        "[objective]\nkind = quadratic\nx0 = 1.0\n\n"
        "[oracle]\nkind = gaussian\n\n"
        "[schedule]\ngamma = 0.5\nalpha = 0.5\n"
    )
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4"), ("d", "8")):
        rc = cli_main([
            "rates", "--config", str(cfg),
            "--out-dir", str(tmp_path / name), "--threads", threads,
        ])
        assert rc == 0
        outs.append((tmp_path / name / "raw.csv").read_bytes())
    parts["csv"] = outs[0] == outs[1] == outs[2] == outs[3]

    # exponent table spot values, exact
    spots = [
        (RateSetting("strongly_convex", 0.3, "dist2"), 0.3),
        (RateSetting("strongly_convex", 1.0, "dist2"), 1.0),
        (RateSetting("convex", 0.3), 0.3),
        (RateSetting("convex", 0.7), 1.0 - 0.7),
        (RateSetting("lojasiewicz", 0.6, r=2.0), 0.6),
        (RateSetting("lojasiewicz", 0.6, r=1.0), 0.3),
        (RateSetting("quasar_convex", 0.5), 0.25),
        (RateSetting("mixed_dominance", 0.5, r1=1.0), 0.25),
        (RateSetting("quasar_convex_linear_growth", 0.4), 0.2),
    ]
    table_ok = all(expected_rate(s) == v for s, v in spots)
    table_ok = table_ok and expected_rate(RateSetting("convex", 0.5, "dist2")) is None
    table_ok = table_ok and expected_rate(RateSetting("quasar_convex", 1.0 / 3.0)) is None
    parts["rate_table"] = table_ok

    ok = all(parts.values())
    detail = " ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in parts.items())
    emit(
        f"criterion 9 (property suites): {detail}"
        f" [{time.perf_counter() - t0:.0f}s, budget 60s] {_verdict(ok)}"
    )
    assert ok, parts
