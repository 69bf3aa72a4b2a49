import csv
import textwrap
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sgdlab import sgd
from sgdlab.cli import (
    _KEYS,
    EXPERIMENTS,
    ConfigError,
    RAW_HEADER,
    SUMMARY_HEADER,
    Outcome,
    _emit_bank,
    _fmt,
    _fmt_index,
    _write_csv,
    build_objective,
    build_oracle,
    main,
    run_experiment,
    validate_config,
)
from sgdlab.core import StepSchedule, derive_stream, log_spaced_indices
from sgdlab.sgd import DivergenceError, ReplicateRuns, run_sgd


def write_cfg(directory, text, name="exp.ini"):
    path = directory / name
    path.write_text(textwrap.dedent(text))
    return str(path)


RATES_CFG = """
    [experiment]
    kind = rates
    seed = 7
    replicates = 8
    horizon = 400

    [objective]
    kind = quadratic
    lam = 1.0
    x0 = 1.0

    [oracle]
    kind = gaussian
    sigma = 1.0

    [schedule]
    gamma = 0.5
    alpha = 0.5
"""

# At gamma = 4 some, but not all, least-squares replicates leave the
# finite regime within 100 steps.
LSQ_DIVERGE_CFG = """
    [experiment]
    kind = rates
    seed = 1
    replicates = 24
    horizon = 100

    [objective]
    kind = least_squares
    dim = 4
    n_data = 64
    x0 = 1.0

    [oracle]
    kind = least_squares_batch
    batch_m = 1

    [schedule]
    gamma = 1, 4
    alpha = 0.5
"""

COUPLE_CFG = """
    [experiment]
    kind = couple-demo
    seed = 4
    replicates = 20
    horizon = 1.0
    substeps = 4

    [objective]
    kind = quadratic
    x0 = 1.0

    [oracle]
    kind = gaussian
    sigma = 1.0

    [schedule]
    gamma = 0.5
    alpha = 0.5
"""

PROBE_CFG = """
    [experiment]
    kind = probe-exact
    seed = 5
    replicates = 50
    horizon = 2

    [oracle]
    kind = batch_probe
    batch_m = 1

    [schedule]
    gamma = 0.1
    alpha = 0.25
"""

BATCH_EPS_CFG = """
    [experiment]
    kind = batch-eps
    seed = 2
    replicates = 2
    horizon = 1

    [oracle]
    kind = batch_probe
    law = laplace
    m_values = 1, 4
    n_samples = 2000
"""

CERTIFY_CFG = """
    [experiment]
    kind = certify
    seed = 1

    [objective]
    kind = quadratic
    lam = 2.0

    [grid]
    lo = -2
    hi = 2
    num = 401
"""

OUTPUTS = ("raw.csv", "summary.csv", "report.txt")


# ---------------------------------------------------------------- validation

def test_validate_minimal_config(tmp_path):
    cfg = validate_config(write_cfg(tmp_path, RATES_CFG))
    assert cfg.experiment == "rates"
    assert cfg.seed == 7
    assert cfg.replicates == 8
    assert cfg.horizon == 400.0
    assert cfg.schedules == [StepSchedule(0.5, 0.5)]
    assert cfg.objective["kind"] == "quadratic"


def test_validate_schedule_cross_product(tmp_path):
    path = write_cfg(tmp_path, """
        [experiment]
        kind = rates
        seed = 1
        horizon = 100

        [schedule]
        gamma = 0.5, 1.0
        alpha = 0.3, 0.7
    """)
    cfg = validate_config(path)
    assert len(cfg.schedules) == 4
    assert {(s.gamma, s.alpha) for s in cfg.schedules} == {
        (0.5, 0.3), (1.0, 0.3), (0.5, 0.7), (1.0, 0.7)
    }


def test_validate_collects_every_problem(tmp_path):
    path = write_cfg(tmp_path, """
        [experiment]
        kind = warp
        horizon = -1

        [schedule]
        gamma = -0.5
        alpha = 2.0
    """)
    with pytest.raises(ConfigError) as info:
        validate_config(path)
    text = "\n".join(info.value.problems)
    assert "kind: 'warp'" in text
    assert "seed: required" in text
    assert "horizon: must be positive" in text
    assert "gamma: -0.5" in text
    assert "alpha: 2.0" in text
    assert len(info.value.problems) >= 5
    bad_values = RATES_CFG.replace("x0 = 1.0", "x0 = abc").replace(
        "sigma = 1.0", "sigma = x\n    rate_tolerance = y")
    with pytest.raises(ConfigError) as info:
        validate_config(write_cfg(tmp_path, bad_values))
    assert info.value.problems == [
        "[objective] x0: 'abc' is not a number",
        "[oracle] sigma: 'x' is not a number",
        "[oracle] rate_tolerance: 'y' is not a number",
    ]


def test_validate_lists_repeated_sweep_entries_in_one_pass(tmp_path):
    """gamma, alpha and m_values entries name run ids, so a repeat is an
    error, listed with the other problems; x0 entries may repeat."""
    text = RATES_CFG.replace("seed = 7", "seed = -1").replace(
        "gamma = 0.5", "gamma = 0.5, 0.5").replace("alpha = 0.5", "alpha = 0.25, 0.25")
    with pytest.raises(ConfigError) as info:
        validate_config(write_cfg(tmp_path, text.replace("sigma = 1.0", "m_values = 2, 2")))
    assert info.value.problems == [
        "[experiment] seed: must be >= 0",
        "[schedule] gamma: 0.5 repeated",
        "[schedule] alpha: 0.25 repeated",
        "[oracle] m_values: 2 repeated",
    ]
    cfg = validate_config(write_cfg(tmp_path, RATES_CFG.replace(
        "lam = 1.0", "lam = 1.0\n    dim = 2").replace("x0 = 1.0", "x0 = 1.0, 1.0")))
    assert cfg.schedules == [StepSchedule(0.5, 0.5)]


def test_validate_row_bound_counts_the_banks_a_run_makes(tmp_path):
    """MAX_ROWS = 10^7 raw rows fits 78125 coupled replicates (64
    checkpoints, two legs); couple-demo runs its first schedule only."""
    text = COUPLE_CFG.replace("replicates = 20", "replicates = 78125")
    assert validate_config(write_cfg(tmp_path, text)).replicates == 78125
    cfg = validate_config(write_cfg(tmp_path, text.replace("gamma = 0.5", "gamma = 0.5, 0.25")))
    assert len(cfg.schedules) == 2
    with pytest.raises(ConfigError, match="10000128 raw.csv rows"):
        validate_config(write_cfg(tmp_path, text.replace("78125", "78126")))


def test_validate_alpha_one_continuous_experiments(tmp_path):
    body = """
        [experiment]
        kind = {kind}
        seed = 1
        horizon = 10

        [schedule]
        gamma = 0.5
        alpha = 1.0
    """
    for kind in ("strong-approx", "weak-approx", "couple-demo"):
        with pytest.raises(ConfigError, match="continuous-time"):
            validate_config(write_cfg(tmp_path, body.format(kind=kind)))
    # the boundary is fine for the discrete-only experiment
    cfg = validate_config(write_cfg(tmp_path, body.format(kind="rates")))
    assert cfg.schedules == [StepSchedule(0.5, 1.0)]


def test_validate_probe_exact_needs_growing_noise(tmp_path):
    path = write_cfg(tmp_path, """
        [experiment]
        kind = probe-exact
        seed = 1
        horizon = 2

        [schedule]
        gamma = 0.1
        alpha = 0.5
    """)
    with pytest.raises(ConfigError, match="alpha < 1/2"):
        validate_config(path)


def test_validate_missing_file():
    with pytest.raises(ConfigError, match="not readable"):
        validate_config("/nonexistent/exp.ini")


def test_validate_overrides(tmp_path):
    path = write_cfg(tmp_path, RATES_CFG)
    cfg = validate_config(path, overrides={"seed": 99, "out_dir": "elsewhere"})
    assert cfg.seed == 99
    assert cfg.out_dir == "elsewhere"


def test_validate_inline_comments(tmp_path):
    path = write_cfg(tmp_path, """
        [experiment]
        kind = rates
        seed = 7    ; master seed
        horizon = 100  # one hundred

        [schedule]
        gamma = 0.5
        alpha = 0.5
    """)
    cfg = validate_config(path)
    assert cfg.seed == 7
    assert cfg.horizon == 100.0


def test_validate_seed_must_be_integer(tmp_path):
    path = write_cfg(tmp_path, """
        [experiment]
        kind = rates
        seed = pi
        horizon = 100

        [schedule]
        gamma = 0.5
        alpha = 0.5
    """)
    with pytest.raises(ConfigError, match="not an integer"):
        validate_config(path)


# ---------------------------------------------------------------- rates end to end

@pytest.fixture(scope="module")
def rates_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("rates")
    cfg = write_cfg(base, RATES_CFG)
    out = base / "out"
    rc = main(["rates", "--config", cfg, "--out-dir", str(out)])
    return rc, cfg, out, base


def test_rates_exit_code_and_files(rates_run):
    rc, _, out, _ = rates_run
    assert rc == 0
    for name in ("raw.csv", "summary.csv", "report.txt"):
        assert (out / name).exists()


def test_rates_csv_headers_and_shape(rates_run):
    _, _, out, _ = rates_run
    raw_lines = (out / "raw.csv").read_text().strip().split("\n")
    assert raw_lines[0] == RAW_HEADER == "run_id,replicate,n_or_t,f_gap,dist2,grad_sq,suffix_avg"
    assert all(len(line.split(",")) == 7 for line in raw_lines[1:])
    summary_lines = (out / "summary.csv").read_text().strip().split("\n")
    assert summary_lines[0] == SUMMARY_HEADER
    assert all(len(line.split(",")) == 10 for line in summary_lines[1:])
    # 8 replicates per checkpoint
    n_ckpt = len(summary_lines) - 1
    assert len(raw_lines) - 1 == 8 * n_ckpt


def test_rates_report_verdicts(rates_run):
    _, _, out, _ = rates_run
    report = (out / "report.txt").read_text()
    assert "experiment: rates" in report
    assert "seed: 7" in report
    assert "strongly_convex/dist2" in report
    assert "convex/f_gap" in report
    assert "lojasiewicz/f_gap" in report
    assert "FAIL" not in report


def test_rates_rerun_is_byte_identical(rates_run):
    _, cfg, out, base = rates_run
    again = base / "again"
    assert main(["rates", "--config", cfg, "--out-dir", str(again)]) == 0
    assert (again / "raw.csv").read_bytes() == (out / "raw.csv").read_bytes()
    assert (again / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()


def test_rates_thread_count_does_not_change_output(rates_run):
    _, cfg, out, base = rates_run
    threaded = base / "threaded"
    assert main(["rates", "--config", cfg, "--out-dir", str(threaded), "--threads", "4"]) == 0
    assert (threaded / "raw.csv").read_bytes() == (out / "raw.csv").read_bytes()


def test_summary_means_match_raw_rows(rates_run):
    _, _, out, _ = rates_run
    by_ckpt = defaultdict(list)
    with open(out / "raw.csv") as fh:
        for row in csv.DictReader(fh):
            by_ckpt[(row["run_id"], row["n_or_t"])].append(float(row["f_gap"]))
    with open(out / "summary.csv") as fh:
        for row in csv.DictReader(fh):
            vals = by_ckpt[(row["run_id"], row["n_or_t"])]
            assert len(vals) == 8
            assert float(row["f_gap_mean"]) == pytest.approx(np.mean(vals), rel=1e-13)


def test_seed_override_changes_output(rates_run, tmp_path):
    _, cfg, out, _ = rates_run
    other = tmp_path / "seeded"
    assert main(["rates", "--config", cfg, "--out-dir", str(other), "--seed", "8"]) == 0
    assert (other / "raw.csv").read_bytes() != (out / "raw.csv").read_bytes()


# ---------------------------------------------------------------- other experiments

def test_noiseless_run_skips_rate_fit(tmp_path, capsys):
    path = write_cfg(tmp_path, """
        [experiment]
        kind = rates
        seed = 3
        replicates = 2
        horizon = 200

        [objective]
        kind = quadratic
        x0 = 1.0

        [oracle]
        kind = none

        [schedule]
        gamma = 0.5
        alpha = 0.5
    """)
    assert main(["rates", "--config", path, "--out-dir", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "super-polynomially" in stdout
    assert "not applicable" in stdout
    assert "PASS" not in stdout


def test_probe_exact_reports_z_scores(tmp_path, capsys):
    path = write_cfg(tmp_path, PROBE_CFG)
    assert main(["probe-exact", "--config", path, "--out-dir", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "n=43:" in stdout  # floor(T / gamma_alpha) at gamma 0.1, alpha 1/4
    assert "standard errors" in stdout
    assert "worst checkpoint deviation" in stdout
    assert "lower bound" in stdout


def test_batch_eps_sweep(tmp_path, capsys):
    path = write_cfg(tmp_path, BATCH_EPS_CFG)
    out = tmp_path / "o"
    assert main(["batch-eps", "--config", path, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "slope of eps vs batch size" in stdout
    assert "M=1: mean eps" in stdout
    with open(out / "raw.csv") as fh:
        ms = {row["n_or_t"] for row in csv.DictReader(fh)}
    assert ms == {"1", "4"}


def test_certify_quadratic(tmp_path, capsys):
    path = write_cfg(tmp_path, CERTIFY_CFG)
    assert main(["certify", "--config", path, "--out-dir", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "StronglyConvex(mu=2.0)" in stdout
    assert "Lojasiewicz" in stdout
    assert "PASS" in stdout
    assert "FAIL" not in stdout


def test_couple_demo_report(tmp_path, capsys):
    path = write_cfg(tmp_path, COUPLE_CFG.replace("replicates = 20", "replicates = 4"))
    assert main(["couple-demo", "--config", path, "--out-dir", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "coupling kind gaussian_shared" in stdout
    assert "strong error" in stdout
    assert "weak error (squared norm)" in stdout
    assert "integrator bias probe" in stdout


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_couple_demo_reports_a_diverging_bias_probe(tmp_path, capsys, monkeypatch):
    """One substep per unit block on lam = 4 overshoots the minimizer more
    every step (the step factor 4 (1 + t)^-0.1 stays above 2), so by the
    horizon 30 of 32 coupled replicates and the bias probe's coarse leg
    have left the finite regime.
    The probe's abort is a report line, not a traceback: the run exits 0
    and writes all three outputs, the same bytes for one worker and two."""
    path = write_cfg(tmp_path, """
        [experiment]
        kind = couple-demo
        seed = 5
        replicates = 32
        horizon = 45
        substeps = 1

        [objective]
        kind = quadratic
        lam = 4
        x0 = 0

        [oracle]
        kind = gaussian
        sigma = 1

        [schedule]
        gamma = 1
        alpha = 0.1
    """)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(sgd, "WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert main(["couple-demo", "--config", path, "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert ("quadratic_gaussian_g1_a0.1: integrator bias probe aborted (replicate 0"
                " aborted at step 42: |Y| = 1.666e+12 exceeds 1e+12)") in stdout.splitlines()
        outputs.append({name: (out / name).read_bytes() for name in OUTPUTS})
    assert outputs[0] == outputs[1]
    assert b"aborted replicates (30):" in outputs[0]["report.txt"]
    assert outputs[0]["raw.csv"].count(b"\n") > 1


def test_strong_approx_slope_line(tmp_path, capsys):
    path = write_cfg(tmp_path, """
        [experiment]
        kind = strong-approx
        seed = 6
        replicates = 8
        horizon = 1.0
        substeps = 4

        [objective]
        kind = quadratic
        x0 = 1.0

        [oracle]
        kind = gaussian
        sigma = 1.0

        [schedule]
        gamma = 0.2, 0.1
        alpha = 0.5
    """)
    assert main(["strong-approx", "--config", path, "--out-dir", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "strong error (sup over checkpoints)" in stdout
    assert "alpha=0.5: error-vs-gamma slope" in stdout


def test_weak_approx_single_gamma_has_no_slope(tmp_path, capsys):
    path = write_cfg(tmp_path, """
        [experiment]
        kind = weak-approx
        seed = 6
        replicates = 4
        horizon = 1.0
        substeps = 4

        [objective]
        kind = quadratic
        x0 = 1.0

        [oracle]
        kind = gaussian
        sigma = 1.0

        [schedule]
        gamma = 0.2
        alpha = 0.5
    """)
    assert main(["weak-approx", "--config", path, "--out-dir", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "weak error |E g|" in stdout
    assert "error-vs-gamma slope" not in stdout


# ---------------------------------------------------------------- exit codes

def test_config_errors_exit_1(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, """
        [experiment]
        kind = rates
        horizon = 100

        [schedule]
        gamma = 0.5
        alpha = 0.5
    """)
    assert main(["rates", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "seed: required" in err
    # problems only seen when the objective and oracle are built, and keys
    # no experiment reads
    for experiment, text, old, new, problem in (
        ("rates", RATES_CFG, "kind = quadratic", "kind = phi_p", "[objective] p: required"),
        ("rates", RATES_CFG, "x0 = 1.0", "x0 = abc", "[objective] x0: 'abc' is not a number"),
        ("rates", RATES_CFG, "sigma = 1.0", "sigma = x", "[oracle] sigma: 'x' is not a number"),
        ("rates", RATES_CFG, "sigma = 1.0", "sigma = 1.0\n    sigam = 2",
         "[oracle] sigam: unknown key"),
        ("batch-eps", BATCH_EPS_CFG, "m_values = 1, 4", "m_values = 1, x",
         "[oracle] m_values: 'x' is not an integer"),
        ("batch-eps", BATCH_EPS_CFG, "m_values = 1, 4", "m_values = 0, 4",
         "[oracle] batch_probe: batch size must be >= 1"),
        ("batch-eps", BATCH_EPS_CFG, "law = laplace", "law = foo",
         "[oracle] batch_probe: law must be one of"),
        ("probe-exact", PROBE_CFG, "batch_m = 1", "batch_m = 0",
         "[oracle] batch_probe: batch size must be >= 1"),
        # range problems a run would otherwise meet only after it started
        ("rates", RATES_CFG, "horizon = 400", "horizon = 0.5",
         "[experiment] horizon: shorter than one step"),
        ("rates", RATES_CFG, "horizon = 400", "horizon = nan",
         "[experiment] horizon: 'nan' is not finite"),
        ("rates", RATES_CFG, "horizon = 400", "horizon = inf",
         "[experiment] horizon: 'inf' is not finite"),
        ("rates", RATES_CFG, "gamma = 0.5", "gamma = nan",
         "[schedule] gamma: 'nan' is not finite"),
        ("rates", RATES_CFG, "x0 = 1.0", "x0 = 1.0, nan",
         "[objective] x0: 'nan' is not finite"),
        ("probe-exact", PROBE_CFG, "gamma = 0.1", "gamma = 0.0001, 5",
         "[experiment] horizon: shorter than one gamma_alpha block"),
        ("strong-approx", COUPLE_CFG.replace("couple-demo", "strong-approx"),
         "replicates = 20", "replicates = 1", "[experiment] replicates: must be >= 2"),
        ("weak-approx", COUPLE_CFG.replace("couple-demo", "weak-approx"),
         "replicates = 20", "replicates = 1", "[experiment] replicates: must be >= 2"),
        ("couple-demo", COUPLE_CFG, "replicates = 20", "replicates = 1",
         "[experiment] replicates: must be >= 2"),
        ("probe-exact", PROBE_CFG, "replicates = 50", "replicates = 1",
         "[experiment] replicates: must be >= 2"),
        ("certify", CERTIFY_CFG, "num = 401", "num = 1",
         "[grid]: grid needs at least 2 points"),
        # finite configs asking for more steps than a run can plan
        ("rates", RATES_CFG, "horizon = 400", "horizon = 1e300",
         "[experiment] horizon: more than 100000000 steps per replicate"),
        ("couple-demo", COUPLE_CFG, "gamma = 0.5\n    alpha = 0.5",
         "gamma = 1e-300\n    alpha = 0",
         "[experiment] horizon: more than 100000000 substeps per replicate"),
        ("probe-exact", PROBE_CFG, "gamma = 0.1", "gamma = 1e-200",
         "[experiment] horizon: more than 100000000 steps per replicate"),
        # more raw rows than the CLI may hold: 64 per replicate and run id,
        # two run ids per coupled bank, one row per replicate and batch size
        ("rates", RATES_CFG, "replicates = 8", "replicates = 100000000",
         "[experiment] replicates: 6400000000 raw.csv rows, more than 10000000"),
        ("strong-approx", COUPLE_CFG.replace("couple-demo", "strong-approx"),
         "replicates = 20", "replicates = 78126",
         "[experiment] replicates: 10000128 raw.csv rows, more than 10000000"),
        ("couple-demo", COUPLE_CFG, "replicates = 20", "replicates = 78126",
         "[experiment] replicates: 10000128 raw.csv rows, more than 10000000"),
        ("batch-eps", BATCH_EPS_CFG, "replicates = 2", "replicates = 5000001",
         "[experiment] replicates: 10000002 raw.csv rows, more than 10000000"),
        # a repeated sweep entry would repeat its run ids
        ("strong-approx", COUPLE_CFG.replace("couple-demo", "strong-approx"),
         "gamma = 0.5", "gamma = 0.5, 0.5", "[schedule] gamma: 0.5 repeated"),
        ("rates", RATES_CFG, "gamma = 0.5", "gamma = 0.1, 0.5, 0.1000001",
         "[schedule] gamma: 0.1 repeated"),
        ("rates", RATES_CFG, "alpha = 0.5", "alpha = 0.5, 0.25, 0.50",
         "[schedule] alpha: 0.5 repeated"),
        ("batch-eps", BATCH_EPS_CFG, "m_values = 1, 4", "m_values = 4, 1, 4",
         "[oracle] m_values: 4 repeated"),
        # arrays a run could not allocate: a dim past the bound of every
        # kind, and more draws than one batch-eps estimate may hold
        ("rates", RATES_CFG, "lam = 1.0", "lam = 1.0\n    dim = 1000000000",
         "[objective] dim: 1000000000 is more than 32"),
        ("probe-exact", PROBE_CFG, "batch_m = 1", "batch_m = 1\n\n    [objective]\n    dim = 33",
         "[objective] dim: 33 is more than 32"),
        ("batch-eps", BATCH_EPS_CFG, "n_samples = 2000", "n_samples = 1000000000",
         "[oracle] n_samples: 4000000000 draws per estimate, more than 10000000"),
        ("batch-eps", BATCH_EPS_CFG, "m_values = 1, 4\n    n_samples = 2000",
         "m_values = 2501, 1\n    n_samples = 2000\n\n    [objective]\n    dim = 2",
         "[oracle] n_samples: 10004000 draws per estimate, more than 10000000"),
    ):
        path = write_cfg(tmp_path, text.replace(old, new))
        assert main([experiment, "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
        assert f"config error: {problem}" in capsys.readouterr().err
    # an out_dir the run cannot create is an error before the first bank
    import sgdlab.cli as cli

    def no_bank(*args, **kwargs):
        raise AssertionError("a bank ran")

    monkeypatch.setattr(cli, "run_sgd_replicates", no_bank)
    afile = tmp_path / "afile"
    afile.write_text("")
    for out_dir in (afile / "sub", afile):
        path = write_cfg(tmp_path, RATES_CFG.replace("seed = 7", f"seed = 7\n    out_dir = {out_dir}"))
        assert main(["rates", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [experiment] out_dir: ") and "Traceback" not in err


def test_emit_bank_rows_are_the_per_cell_text():
    """Raw rows formatted from .tolist() columns read exactly as formatting
    every cell with _fmt and _fmt_index."""
    values = np.array([[1e-300, 1e16, 0.1 + 0.2], [-0.0, 3.0, 2.5e-7], [5e-324, 1.0, 1e100]])
    runs = ReplicateRuns(np.array([1, 10, 100]), values, values[::-1].copy(),
                         np.abs(values) * 7.0, np.array([0, 4, 9]))
    for indices in (np.array([1, 10, 100]), np.array([0.25, 2.0, 1e17])):
        runs.sample_indices = indices
        out = Outcome()
        suffix = _emit_bank(out, "run", runs)
        expected = [
            f"run,{int(runs.replicate_ids[i])},{_fmt_index(indices[j])},{_fmt(values[i, j])},"
            f"{_fmt(runs.dist2_to_min[i, j])},{_fmt(runs.grad_sq[i, j])},{_fmt(suffix[i, j])}"
            for i in range(3) for j in range(3)
        ]
        assert out.raw_rows == expected
    assert out.raw_rows[1].startswith("run,0,2,1e+16,")
    assert out.raw_rows[3].startswith("run,4,0.25,-0.0,")


def test_csv_is_written_a_slice_of_rows_at_a_time(tmp_path):
    """Any row count, slice boundaries included, gives the bytes of the
    whole file joined at once."""
    for n in (0, 1, 4095, 4096, 4097, 9000):
        rows = [f"run,{i},{i % 7},{1.0 / (i + 1)!r}" for i in range(n)]
        _write_csv(tmp_path / "out.csv", RAW_HEADER, rows)
        assert (tmp_path / "out.csv").read_bytes() == ("\n".join([RAW_HEADER] + rows) + "\n").encode()


def test_suffix_avg_is_the_mean_from_each_checkpoint_to_the_end():
    values = np.array([[4.0, 2.0, 1.0, 3.0]])
    runs = ReplicateRuns(np.array([1, 2, 3, 4]), values, values, values, np.array([0]))
    out = Outcome()
    np.testing.assert_array_equal(_emit_bank(out, "run", runs), [[2.5, 2.0, 2.0, 3.0]])
    assert [row.rsplit(",", 1)[1] for row in out.raw_rows] == ["2.5", "2.0", "2.0", "3.0"]


def test_subcommand_kind_mismatch_exits_1(tmp_path, capsys):
    path = write_cfg(tmp_path, RATES_CFG)
    assert main(["certify", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
    assert "subcommand was invoked" in capsys.readouterr().err


def test_all_replicates_aborting_exits_2(tmp_path, capsys):
    """A constant step of 3 on the unit quadratic alternates sign and
    doubles every iterate, so every replicate diverges."""
    path = write_cfg(tmp_path, """
        [experiment]
        kind = rates
        seed = 1
        replicates = 2
        horizon = 200

        [objective]
        kind = quadratic
        x0 = 1.0

        [oracle]
        kind = none

        [schedule]
        gamma = 3.0
        alpha = 0.0
    """)
    out = tmp_path / "o"
    assert main(["rates", "--config", path, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "aborted" in captured.err
    assert "all replicates aborted" in (out / "report.txt").read_text()


# At gamma = 4 on this least-squares problem, one of the two replicates
# diverges at seed 9.
ONE_SURVIVOR_CFG = """
    [experiment]
    kind = {kind}
    seed = 9
    replicates = 2
    horizon = 3200
    substeps = 1

    [objective]
    kind = least_squares
    dim = 4
    n_data = 1024
    x0 = 1.0

    [oracle]
    kind = least_squares_batch
    batch_m = 1

    [schedule]
    gamma = 4
    alpha = 0.5
"""

# Started on the divergence norm, a replicate of the flat probe aborts when
# its first step points outward; one of the two does at seed 2.
ONE_SURVIVOR_PROBE_CFG = """
    [experiment]
    kind = probe-exact
    seed = 2
    replicates = 2
    horizon = 2

    [objective]
    x0 = 1e12

    [oracle]
    kind = batch_probe
    batch_m = 1

    [schedule]
    gamma = 1
    alpha = 0.25
"""


@pytest.mark.parametrize("kind", ["strong-approx", "weak-approx", "couple-demo", "probe-exact"])
def test_bank_with_one_survivor_is_reported(tmp_path, capsys, kind):
    """The standard errors of these experiments need two replicates: a bank
    left with one is reported like an all-aborted one, and the run exits 0."""
    if kind == "probe-exact":
        text, run_id = ONE_SURVIVOR_PROBE_CFG, "linear_probe_batch1[iid-normal]_g1_a0.25"
    else:
        text, run_id = ONE_SURVIVOR_CFG.format(kind=kind), "least_squares_batch1[rows]_g4_a0.5"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main([kind, "--config", path, "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{run_id}: fewer than 2 replicates survived\n"
    assert "1 replicate(s) aborted" in captured.err
    assert (out / "report.txt").read_text().splitlines()[2:4] == [
        f"{run_id}: fewer than 2 replicates survived", "aborted replicates (1):"
    ]
    assert (out / "raw.csv").read_text() == RAW_HEADER + "\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_partial_divergence_aborts_only_the_diverging_replicates(tmp_path):
    """The report's abort lines are the errors solo runs raise for the
    diverging replicates, and the raw rows of every other replicate are
    its solo trajectory."""
    path = write_cfg(tmp_path, LSQ_DIVERGE_CFG)
    out = tmp_path / "o"
    assert main(["rates", "--config", path, "--out-dir", str(out)]) == 0
    cfg = validate_config(path)
    obj = build_objective(cfg)
    oracle = build_oracle(cfg, obj)
    plan = log_spaced_indices(100)
    raw = defaultdict(list)
    with open(out / "raw.csv") as fh:
        for row in csv.DictReader(fh):
            raw[row["run_id"], int(row["replicate"])].append(row)
    aborts = []
    for sched in cfg.schedules:
        run_id = f"{obj.name}_{oracle.name}_{sched.label()}"
        for rep in range(cfg.replicates):
            try:
                solo = run_sgd(obj, oracle, sched, np.ones(4), 100, plan=plan,
                               stream=derive_stream(cfg.seed, rep, "noise"))
            except DivergenceError as err:
                aborts.append(f"  {run_id} {err}")
                assert (run_id, rep) not in raw
                continue
            rows = raw[run_id, rep]
            assert [int(r["n_or_t"]) for r in rows] == plan.tolist()
            assert [float(r["f_gap"]) for r in rows] == solo.values[0].tolist()
            assert [float(r["dist2"]) for r in rows] == solo.dist2_to_min[0].tolist()
            assert [float(r["grad_sq"]) for r in rows] == solo.grad_sq[0].tolist()
    assert 0 < len(aborts) < cfg.replicates
    report = (out / "report.txt").read_text().splitlines()
    start = report.index(f"aborted replicates ({len(aborts)}):")
    assert report[start + 1 :] == aborts


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "experiment,text", [("rates", LSQ_DIVERGE_CFG), ("couple-demo", COUPLE_CFG)]
)
def test_block_size_does_not_change_output(tmp_path, monkeypatch, experiment, text):
    path = write_cfg(tmp_path, text)
    outputs = []
    for block, threads in ((sgd.REPLICATE_BLOCK, "1"), (7, "2")):
        monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
        out = tmp_path / f"block{block}"
        argv = [experiment, "--config", path, "--out-dir", str(out), "--threads", threads]
        assert main(argv) == 0
        outputs.append({name: (out / name).read_bytes() for name in OUTPUTS})
    assert outputs[0] == outputs[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "experiment,text", [("rates", LSQ_DIVERGE_CFG), ("couple-demo", COUPLE_CFG)]
)
def test_worker_count_does_not_change_output(tmp_path, monkeypatch, experiment, text):
    """1, 2 or 3 workers, each at the default block and at 7-row blocks,
    write the same bytes and list the same aborts (the rates config has
    some)."""
    path = write_cfg(tmp_path, text)
    runs = []
    for workers in (1, 2, 3):
        for block in (sgd.REPLICATE_BLOCK, 7):
            monkeypatch.setattr(sgd, "WORKERS", workers)
            monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
            out = tmp_path / f"w{workers}b{block}"
            outcome = run_experiment(validate_config(path, {"out_dir": str(out)}))
            runs.append(({name: (out / name).read_bytes() for name in OUTPUTS}, outcome.aborts))
    assert all(run == runs[0] for run in runs[1:])
    assert (len(runs[0][1]) > 0) == (experiment == "rates")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------- fuzzing

# Values every key must survive; "" and "0.5," test the blank-entry rule.
HOSTILE = ["0", "-1", "nan", "inf", "abc", "", "5%", "1, 2", "0.5,"]
# Well-formed values per table key, small enough that any run that goes
# ahead is tiny: at most 3 replicates, a horizon of at most 20 and a
# gamma_alpha no smaller than 0.09, so a few thousand steps at most.  None
# leaves the key out; keys whose defaults run long (replicates 100,
# n_samples 100000, m_values up to 64, num 2001) are never left out.
VALID = {
    ("experiment", "kind"): [None],  # the subcommand's kind
    ("experiment", "seed"): ["0", "3"],
    ("experiment", "replicates"): ["2", "3"],
    ("experiment", "horizon"): ["0.5", "2", "1.005", "20"],
    ("experiment", "substeps"): [None, "1", "4"],
    ("experiment", "threads"): [None, "2"],
    ("experiment", "out_dir"): [None, "elsewhere"],
    ("objective", "kind"): [None, "quadratic", "phi_p", "pl_sine", "least_squares",
                            "linear_probe", "bogus"],
    ("objective", "x0"): [None, "1.0", "1, 2", "0.5, 0.5, 0.5, 0.5"],
    ("objective", "dim"): [None, "1", "2", "4", "40"],
    ("objective", "lam"): [None, "2"],
    ("objective", "p"): [None, "2"],
    ("objective", "n_data"): [None, "3", "16"],
    ("oracle", "kind"): [None, "gaussian", "heavy", "batch_probe", "least_squares_batch",
                         "none", "bogus"],
    ("oracle", "sigma"): [None, "1"],
    ("oracle", "scale"): [None, "1"],
    ("oracle", "law"): [None, "normal", "laplace", "student", "rademacher", "bogus"],
    ("oracle", "df"): [None, "6"],
    ("oracle", "batch_m"): [None, "2"],
    ("oracle", "m_values"): ["1", "1, 4"],
    ("oracle", "n_samples"): ["2", "50"],
    ("oracle", "rate_tolerance"): [None, "0.1"],
    ("oracle", "slope_lo"): [None, "0.5"],
    ("oracle", "slope_hi"): [None, "1.5"],
    ("schedule", "gamma"): [None, "0.3", "0.5", "1", "0.3, 0.5"],
    ("schedule", "alpha"): [None, "0", "0.25", "0.5", "1", "0.25, 0.5"],
    ("grid", "lo"): [None, "-1", "1"],
    ("grid", "hi"): [None, "1", "2"],
    ("grid", "num"): ["2", "11"],
    ("grid", "exclude_radius"): [None, "0.1", "5"],
}
UNKNOWN = [("oracle", "sigam"), ("schedule", "beta"), ("extra", "kind")]


@st.composite
def configs(draw):
    """A subcommand and its config: every table key from its pool, up to
    two keys hostile, and now and then a section dropped or an unknown key
    added."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    hostile = draw(st.dictionaries(st.sampled_from(list(VALID)), st.sampled_from(HOSTILE),
                                   max_size=2))
    sections = {"experiment": {"kind": experiment}}
    for (section, key), pool in VALID.items():
        value = hostile[section, key] if (section, key) in hostile else draw(st.sampled_from(pool))
        if value is not None:
            sections.setdefault(section, {})[key] = value
    sections.pop(draw(st.sampled_from([None] * 6 + sorted(sections))), None)
    unknown = draw(st.sampled_from([None] * 6 + UNKNOWN))
    if unknown:
        sections.setdefault(unknown[0], {})[unknown[1]] = "1"
    return experiment, sections


def _ini(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def test_fuzz_table_covers_every_key():
    assert set(VALID) == {(s, k) for s, keys in _KEYS.items() for k in keys}


def _case(experiment, **changes):
    """A tiny valid config for experiment with some [section] key values replaced."""
    sections = {
        "experiment": {"kind": experiment, "seed": "1", "replicates": "2", "horizon": "2"},
        "objective": {"kind": "quadratic", "x0": "1.0"},
        "oracle": {"kind": "gaussian", "sigma": "1"},
        "schedule": {"gamma": "0.5", "alpha": "0.25"},
    }
    for name, value in changes.items():
        section, key = name.split("__")
        sections.setdefault(section, {})[key] = value
    return experiment, sections


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=configs())
@example(case=_case("rates", experiment__horizon="0.5"))
@example(case=_case("rates", experiment__horizon="nan"))
@example(case=_case("rates", experiment__horizon="inf"))
@example(case=_case("rates", schedule__gamma="nan"))
@example(case=_case("strong-approx", experiment__replicates="1"))
@example(case=_case("weak-approx", experiment__replicates="1"))
@example(case=_case("couple-demo", experiment__replicates="1"))
@example(case=_case("certify", grid__num="1"))
@example(case=_case("couple-demo", experiment__horizon="1.005", experiment__substeps="16",
                    schedule__alpha="0.5"))
@example(case=_case("rates", experiment__horizon="1e300"))
@example(case=_case("rates", experiment__replicates="100000000"))
@example(case=_case("strong-approx", schedule__gamma="0.5, 0.5"))
@example(case=_case("couple-demo", experiment__substeps="2", schedule__gamma="1e-300",
                    schedule__alpha="0"))
def test_fuzzed_configs_exit_cleanly(tmp_path, capsys, case):
    """Any config runs (exit 0, or 2 when every replicate aborts) or exits
    1 with at least one config error line; nothing raises."""
    experiment, sections = case
    path = write_cfg(tmp_path, _ini(sections))
    rc = main([experiment, "--config", path, "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    if rc == 1:
        assert "config error: " in err
