"""End-to-end acceptance gate.

Criteria 1-8 run the command line on the committed configs under configs/:
each calls sgdlab.cli.main as `sgdlab <kind> --config configs/<file>`
would, reads the decays, slopes, errors, z-scores and floors from the
run's report.txt (and from summary.csv where the report rounds), and
applies its own tolerance.  So the gate verifies what users run.  The
decays, slopes, z-scores and the bias probe are checked at the precision
the report prints them (4 decimals for a decay or slope, 2 for a z-score,
6 significant digits for an error, RMS, floor or the bias); the exact
grad_sq_mean and f_gap_mean come from summary.csv.
Criterion 9 is a property suite over the library.  Criterion 10 checks
criterion 1's summary.csv against the exact second moment of SGD on the
quadratic, and criterion 11 criteria 4 and 7's runs against the exact
second moments of the coupled bank.

Each test prints one pass/fail line for the guarantee it checks.  Every
run is a deterministic function of its config, so reruns reproduce the
same numbers bit for bit (worker count included; that invariance is
itself property-tested in the unit suites).  Every test here carries the
acceptance marker, so `pytest -m "not acceptance"` runs the unit suites
alone.

A config's run is shared by the criteria that read it: criteria 2 and 3
read the same phi_p sweeps.  Stated runtime budgets assume a multi-core
laptop; the elapsed time printed per line is wall time on this host.
"""
import csv
import os
import re
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from sgdlab import (
    Convex,
    Lojasiewicz,
    QuasarConvex,
    StepSchedule,
    StronglyConvex,
    derive_stream,
    expected_rate,
    gaussian_oracle,
    heavy_oracle,
    least_squares_batch_oracle,
    drift_sup_verify,
    make_least_squares,
    make_linear_probe,
    make_phi_p,
    make_pl_sine,
    make_quadratic,
    probe_batch_oracle,
    w2_1d,
)
from sgdlab.cli import main as cli_main, validate_config
from sgdlab.sde import path_length
from helpers import coupled_second_moments, sgd_second_moment

pytestmark = pytest.mark.acceptance

MASTER_SEED = 20240817
CONFIGS = Path(__file__).parents[1] / "configs"
# The configs of CONFIGS the criteria run, by criterion
GATE = (
    "quadratic_rates.ini", "quadratic_rates_alpha1.ini",  # 1
    "phi2_rates.ini", "phi5_rates.ini",  # 2 and 3
    "quadratic_strong_approx.ini", "quadratic_couple_demo.ini",  # 4
    "probe_exact_m1.ini", "probe_exact_m4.ini",  # 5
    "batch_eps_laplace.ini",  # 6
    "quadratic_weak_approx.ini",  # 7
    "pl_sine_rates.ini",  # 8
)  # criterion 10 reads criterion 1's runs, criterion 11 those of 4 and 7

_plugins = None


@pytest.fixture(scope="module", autouse=True)
def _grab_plugins(request):
    global _plugins
    _plugins = request.config.pluginmanager
    yield


def emit(line):
    # pytest captures fd 1 even through sys.__stdout__, so each verdict line
    # is written once, with capture suspended, through pytest's terminal
    # writer: it shows on a pass as on a failure, with or without -s.  It
    # starts a line of its own, also after the progress dots of pytest -q,
    # which leave the writer's line open without a file path
    capman = _plugins.get_plugin("capturemanager")
    reporter = _plugins.get_plugin("terminalreporter")
    with capman.global_and_fixture_disabled() if capman else nullcontext():
        if reporter is None:
            print(line, flush=True)
        else:
            reporter.ensure_newline()
            if reporter._tw.width_of_current_line:
                reporter._tw.line()
            reporter.write_line(line)


def _verdict(ok):
    return "PASS" if ok else "FAIL"


@pytest.fixture(scope="module")
def run_config(tmp_path_factory):
    """run(config): the report.txt text and summary.csv rows of
    `sgdlab <kind> --config configs/<config>`, with kind the config's own
    [experiment] kind, run once per module."""
    runs = {}

    def run(config):
        if config not in runs:
            path, out = str(CONFIGS / config), tmp_path_factory.mktemp(Path(config).stem)
            kind = validate_config(path).experiment
            assert cli_main([kind, "--config", path, "--out-dir", str(out)]) == 0
            with open(out / "summary.csv") as fh:
                runs[config] = (out / "report.txt").read_text(), list(csv.DictReader(fh))
        return runs[config]

    return run


def _found(pattern, text):
    """Each match of pattern in text as a float, or as a tuple of floats
    when the pattern has several groups."""
    return [tuple(map(float, m)) if isinstance(m, tuple) else float(m)
            for m in re.findall(pattern, text)]


def _decays(report, verdict):
    """{alpha: fitted decay} from a rates report's `<run_id> <verdict>:` lines."""
    return dict(_found(rf"_a([^_\s]+) {verdict}: fitted decay (\S+)", report))


def _errors(report, label):
    """The gammas and errors of a gamma sweep's `<run_id> [kind]: <label> =`
    lines, in config order, and the sweep's error-vs-gamma slope."""
    gammas, errors = zip(*_found(rf"_g([^_\s]+)_a\S+ \[\w+\]: {re.escape(label)} = (\S+)", report))
    (slope,) = _found(r"error-vs-gamma slope (\S+)", report)
    return list(gammas), list(errors), slope


def _columns(summary, column):
    """{run_id: (n_or_t, column)} of summary.csv rows, as float arrays."""
    runs = {}
    for row in summary:
        runs.setdefault(row["run_id"], []).append((float(row["n_or_t"]), float(row[column])))
    return {run_id: np.array(rows).T for run_id, rows in runs.items()}


@pytest.mark.parametrize("flags", [[], ["-s"]], ids=["captured", "no-capture"])
def test_emit_writes_each_line_once(tmp_path, flags):
    """A verdict line reaches the terminal exactly once, on a line of its
    own, whether pytest captures output or runs with -s, on a pass as on a
    failure."""
    (tmp_path / "test_lines.py").write_text(
        "from test_acceptance import _grab_plugins, emit\n"
        "def test_pass():\n    emit('criterion A: PASS')\n"
        "def test_fail():\n    emit('criterion B: FAIL')\n    assert False\n"
    )
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, "test_lines.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    ).stdout
    assert "1 failed, 1 passed" in out, out
    # a failure's traceback quotes the emit call, which ends in a quote
    assert len(re.findall(r"^criterion A: PASS$", out, re.M)) == 1, out
    assert len(re.findall(r"^criterion B: FAIL$", out, re.M)) == 1, out


# ---------------------------------------------------------------- criteria

def test_criterion_1_strongly_convex_rate(run_config):
    """E dist2 decays like n^-alpha on the quadratic; alpha = 1 stays on
    rate when gamma exceeds the critical step."""
    t0 = time.perf_counter()
    decays = {}
    for config in ("quadratic_rates.ini", "quadratic_rates_alpha1.ini"):
        decays.update(_decays(run_config(config)[0], "strongly_convex/dist2"))
    tols = {0.3: 0.07, 0.5: 0.07, 0.7: 0.07, 1.0: 0.1}
    ok = all(abs(decays[a] - a) <= tol for a, tol in tols.items())
    detail = " ".join(f"a{a:g}:{d:.4f}" for a, d in decays.items())
    emit(
        f"criterion 1 (strongly convex dist2 rate): {detail}"
        f" (tol 0.07; 0.1 at a=1) [{time.perf_counter() - t0:.0f}s,"
        f" budget 180s] {_verdict(ok)}"
    )
    assert ok, f"fitted decays {decays} off target"


def test_criterion_2_convex_rate_and_alpha_star(run_config):
    """E f decays at least at the guaranteed min(a, 1-a) order, and the
    empirically best alpha moves toward 1/2 as p grows."""
    t0 = time.perf_counter()
    decays = {p: _decays(run_config(f"phi{p}_rates.ini")[0], "convex/f_gap") for p in (2, 5)}
    lower_ok = all(
        decays[p][a] >= min(a, 1.0 - a) - 0.12 for p in (2, 5) for a in (0.3, 0.5, 0.7)
    )
    star = {p: max(d, key=d.get) for p, d in decays.items()}
    trend_ok = star[5] <= star[2]
    ok = lower_ok and trend_ok
    detail = ";".join(
        f" p={p} decays {' '.join(f'{a:g}:{d:.4f}' for a, d in decays[p].items())}"
        f" -> alpha*={star[p]:g}" for p in (2, 5)
    )
    emit(
        f"criterion 2 (convex f rate, alpha* trend):{detail}"
        f" [{time.perf_counter() - t0:.0f}s, budget 240s] {_verdict(ok)}"
    )
    assert lower_ok, f"one-sided rate bound violated: {decays}"
    assert trend_ok, f"alpha* trend violated: {star}"


def test_criterion_3_gradient_norm_stays_bounded(run_config):
    """Along every phi_p run, the gradient second moment never exceeds 3x
    its level at the first checkpoint past n = 100."""
    t0 = time.perf_counter()
    worst = 0.0
    for p in (2, 5):
        for n, mean_gsq in _columns(run_config(f"phi{p}_rates.ini")[1], "grad_sq_mean").values():
            i0 = int(np.argmax(n > 100))
            worst = max(worst, float(mean_gsq[i0:].max() / mean_gsq[i0]))
    ok = worst <= 3.0
    emit(
        "criterion 3 (gradient norm boundedness):"
        f" worst tail max / value at n={int(n[i0])} = {worst:.3f} (limit 3)"
        f" [{time.perf_counter() - t0:.0f}s, shares criterion 2's sweep] {_verdict(ok)}"
    )
    assert ok, f"gradient moment grew by {worst:.3f}x"


def test_criterion_4_strong_error_order(run_config):
    """Sup-over-checkpoints strong error scales like gamma (delta = 1 at
    alpha = 1/2), after checking the integrator bias is negligible."""
    t0 = time.perf_counter()
    gammas, sups, slope = _errors(
        run_config("quadratic_strong_approx.ini")[0], "strong error (sup over checkpoints)"
    )
    report, _ = run_config("quadratic_couple_demo.ini")
    (bias,) = _found(r"integrator bias probe \(K vs 2K\) (\S+)", report)
    bias_ok = bias <= 0.1 * min(sups)
    slope_ok = 0.85 <= slope <= 1.15
    ok = bias_ok and slope_ok
    emit(
        "criterion 4 (strong approximation order):"
        f" sup errors {' '.join(f'{e:g}' for e in sups)} for gamma {gammas},"
        f" slope {slope:.4f} in [0.85, 1.15];"
        f" integrator bias {bias:g} <= 10% of {min(sups):g}"
        f" [{time.perf_counter() - t0:.0f}s, budget 300s] {_verdict(ok)}"
    )
    assert bias_ok, f"integrator bias {bias} too large to attribute error to the coupling"
    assert slope_ok, f"strong error slope {slope} outside [0.85, 1.15]"


def test_criterion_5_probe_exact_law_and_floor(run_config):
    """The flat-objective probe matches its closed-form second moment at
    n = floor(T / gamma_alpha) and sits above the ODE-comparison floor."""
    t0 = time.perf_counter()
    parts, ok = [], True
    for m in (1, 4):
        report, _ = run_config(f"probe_exact_m{m}.ini")
        ((n, z),) = _found(r" n=(\d+): mean dist2 \S+ vs exact \S+ \((\S+) standard errors\)", report)
        ((rms, floor),) = _found(r"final RMS deviation (\S+) vs lower bound (\S+)", report)
        ok = ok and z <= 3.0 and rms >= floor
        parts.append(f"M={m}: z={z:.2f} rms={rms:g}>=floor {floor:g}")
    emit(
        f"criterion 5 (exact probe law at n={n:.0f}): {'; '.join(parts)}"
        f" [{time.perf_counter() - t0:.0f}s, budget 60s] {_verdict(ok)}"
    )
    assert ok, parts


def test_criterion_6_batch_noise_gap_scaling(run_config):
    """The gaussianization gap of the batch oracle shrinks roughly like
    1/M in the batch size."""
    t0 = time.perf_counter()
    report, summary = run_config("batch_eps_laplace.ini")
    # one replicate per batch size M, whose n_or_t is M and f_gap its eps
    ms, eps = zip(*(cols[:, 0] for cols in _columns(summary, "f_gap_mean").values()))
    (slope,) = _found(r"slope of eps vs batch size (\S+)", report)
    ok = -1.25 <= slope <= -0.75
    emit(
        "criterion 6 (batch gaussianization gap):"
        f" eps {' '.join(f'{e:.6f}' for e in eps)} for M {[int(m) for m in ms]},"
        f" slope {slope:.4f} in [-1.25, -0.75]"
        f" [{time.perf_counter() - t0:.0f}s, budget 60s] {_verdict(ok)}"
    )
    assert ok, f"eps-vs-M slope {slope} outside window"


def test_criterion_7_weak_error_order(run_config):
    """Paired weak error for g = squared norm scales like gamma up to the
    logarithmic factor absorbed in the window."""
    t0 = time.perf_counter()
    gammas, weaks, slope = _errors(
        run_config("quadratic_weak_approx.ini")[0], "weak error |E g| (g = squared norm)"
    )
    ok = 0.8 <= slope <= 1.3
    emit(
        "criterion 7 (weak error order):"
        f" |E g| {' '.join(f'{w:g}' for w in weaks)} for gamma {gammas},"
        f" slope {slope:.4f} in [0.8, 1.3]"
        f" [{time.perf_counter() - t0:.0f}s, budget 300s] {_verdict(ok)}"
    )
    assert ok, f"weak error slope {slope} outside window"


def test_criterion_8_gradient_dominance_rate(run_config):
    """The non-convex sine benchmark still decays at the dominance rate, and
    at least at its quasar-convex guarantee less the config's
    rate_tolerance."""
    t0 = time.perf_counter()
    report = run_config("pl_sine_rates.ini")[0]
    decays = _decays(report, "lojasiewicz/f_gap")
    quasar = _decays(report, "quasar_convex/f_gap")
    tol = validate_config(str(CONFIGS / "pl_sine_rates.ini")).oracle_args["rate_tolerance"]
    floors = {a: expected_rate(make_pl_sine().tag(QuasarConvex), a) for a in (0.4, 0.7)}
    dominance_ok = all(abs(decays[a] - a) <= 0.1 for a in (0.4, 0.7))
    quasar_ok = all(quasar[a] >= floor - tol for a, floor in floors.items())
    ok = dominance_ok and quasar_ok
    emit(
        "criterion 8 (gradient dominance f rate):"
        f" lojasiewicz a0.4:{decays[0.4]:.4f} a0.7:{decays[0.7]:.4f} (tol 0.1);"
        f" quasar_convex {' '.join(f'a{a:g}:{quasar[a]:.4f} (guarantee {f:.4f})' for a, f in floors.items())}"
        f" (one-sided, tol {tol:g}) [{time.perf_counter() - t0:.0f}s, budget 120s] {_verdict(ok)}"
    )
    assert ok, f"pl_sine decays {decays}, quasar decays {quasar} against {floors}"


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
        (StronglyConvex(1.0), 0.3, 0.3),
        (StronglyConvex(1.0), 1.0, 1.0),
        (Convex(), 0.3, 0.3),
        (Convex(), 0.7, 1.0 - 0.7),
        (Lojasiewicz(2.0, 1.0), 0.6, 0.6),
        (Lojasiewicz(1.0, 1.0), 0.6, 0.3),
        (QuasarConvex(1.0), 0.5, 0.25),
    ]
    table_ok = all(expected_rate(tag, a) == v for tag, a, v in spots)
    table_ok = table_ok and expected_rate(QuasarConvex(1.0), 1.0 / 3.0) is None
    parts["rate_table"] = table_ok

    ok = all(parts.values())
    detail = " ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in parts.items())
    emit(
        f"criterion 9 (property suites): {detail}"
        f" [{time.perf_counter() - t0:.0f}s, budget 60s] {_verdict(ok)}"
    )
    assert ok, parts


def test_criterion_10_sgd_second_moment_is_exact(run_config):
    """On the quadratic with additive gaussian noise, every checkpoint's
    dist2_mean lies within 4 standard errors (dist2_ci / 1.96) of the exact
    second moment of SGD, e_{n+1} = (1 - gamma_n lam)^2 e_n + gamma_n^2 sigma^2
    from e_0 = x0^2: a bound for the 4 x 59 checkpoints of criterion 1's
    runs, read from their summary.csv."""
    t0 = time.perf_counter()
    worst, checkpoints = {}, 0
    for config in ("quadratic_rates.ini", "quadratic_rates_alpha1.ini"):
        cfg = validate_config(str(CONFIGS / config))
        lam, sigma, x0 = cfg.objective_args["lam"], cfg.oracle_args["sigma"], float(cfg.x0[0])
        summary = run_config(config)[1]
        means, cis = _columns(summary, "dist2_mean"), _columns(summary, "dist2_ci")
        for sched in cfg.schedules:
            (run_id,) = [run_id for run_id in means if run_id.endswith(f"_{sched.label()}")]
            (n, mean), (_, ci) = means[run_id], cis[run_id]
            exact = sgd_second_moment(sched, lam, sigma, x0, n)
            worst[run_id] = float(np.max(np.abs(mean - exact) / (ci / 1.96)))
            checkpoints += len(n)
    ok = all(z <= 4.0 for z in worst.values())
    detail = " ".join(f"{run_id}:{z:.2f}" for run_id, z in worst.items())
    emit(
        f"criterion 10 (exact SGD second moment): worst z over {checkpoints} checkpoints"
        f" {detail} (limit 4) [{time.perf_counter() - t0:.0f}s, shares criterion 1's runs]"
        f" {_verdict(ok)}"
    )
    assert ok, f"dist2_mean off the exact second moment: worst z {worst}"


def test_criterion_11_coupled_second_moments_are_exact(run_config):
    """On the quadratic with additive gaussian noise, the coupled bank's
    (E X^2, E XY, E Y^2) follow exact recursions block by block
    (tests/helpers.coupled_second_moments), and so do criterion 4's strong
    errors, sup over the checkpoints of (E X^2 - 2 E XY + E Y^2)^(1/2), and
    criterion 7's weak errors, |E Y_T^2 - E X_T^2|.  In both sweeps each
    leg's dist2_mean lies within 4 standard errors (dist2_ci / 1.96) of its
    exact value at every checkpoint, and each reported error within 3
    standard errors (its ci / 1.96) of its exact value."""
    sweeps = {"strong error (sup over checkpoints)": "quadratic_strong_approx.ini",
              "weak error |E g| (g = squared norm)": "quadratic_weak_approx.ini"}
    runs = {label: run_config(config) for label, config in sweeps.items()}
    t0 = time.perf_counter()
    worst, checkpoints, errors_ok, lines = {}, 0, True, []
    for label, (report, summary) in runs.items():
        cfg = validate_config(str(CONFIGS / sweeps[label]))
        lam, sigma, x0 = cfg.objective_args["lam"], cfg.oracle_args["sigma"], float(cfg.x0[0])
        means, cis = _columns(summary, "dist2_mean"), _columns(summary, "dist2_ci")
        found = _found(rf"_g([^_\s]+)_a\S+ \[\w+\]: {re.escape(label)} = (\S+) \+- (\S+) over", report)
        (slope,) = _found(r"error-vs-gamma slope (\S+)", report)
        exact_errors = []
        for sched, (gamma, error, ci) in zip(cfg.schedules, found):
            assert gamma == sched.gamma
            xx, xy, yy = coupled_second_moments(
                sched, lam, sigma, x0, cfg.substeps, path_length(cfg.horizon, sched.gamma_alpha)
            )
            legs = {leg: next(run_id for run_id in means if run_id.endswith(f"_{sched.label()}:{leg}"))
                    for leg in ("discrete", "continuous")}
            n = means[legs["discrete"]][0].astype(int)  # both legs' checkpoints, as block indices
            for leg, exact in (("discrete", xx), ("continuous", yy)):
                z = float(np.max(np.abs(means[legs[leg]][1] - exact[n]) / (cis[legs[leg]][1] / 1.96)))
                worst[f"g{gamma:g}"] = max(worst.get(f"g{gamma:g}", 0.0), z)
                checkpoints += len(n)
            exact_error = (float(np.sqrt(np.max((xx - 2.0 * xy + yy)[n]))) if label.startswith("strong")
                           else abs(float(yy[-1] - xx[-1])))
            errors_ok = errors_ok and abs(error - exact_error) <= 3.0 * ci / 1.96
            exact_errors.append(exact_error)
        exact_slope = np.polyfit(np.log([s.gamma for s in cfg.schedules]), np.log(exact_errors), 1)[0]
        lines.append(f"{label.split()[0]} {' '.join(f'{e:.6g}' for e in exact_errors)},"
                     f" slope {exact_slope:.4f} (reported {slope:.4f})")
    dist2_ok = all(z <= 4.0 for z in worst.values())
    ok = dist2_ok and errors_ok
    emit(
        f"criterion 11 (exact coupled second moments): worst dist2 z over {checkpoints} checkpoints"
        f" {' '.join(f'{g}:{z:.2f}' for g, z in worst.items())} (limit 4); exact errors"
        f" {'; '.join(lines)}, each reported one within 3 standard errors"
        f" [{time.perf_counter() - t0:.1f}s, shares criteria 4 and 7's runs] {_verdict(ok)}"
    )
    assert dist2_ok, f"a leg's dist2_mean is off its exact second moment: worst z {worst}"
    assert errors_ok, "a reported strong or weak error is off its exact value"
