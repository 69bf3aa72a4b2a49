import ast
import csv
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
import weakref
from collections import defaultdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sgdlab import cli, sgd
from sgdlab.cli import (
    _EXPERIMENTS,
    _SUBSTEPS,
    _KEYS,
    _OBJECTIVES,
    _ORACLES,
    EXPERIMENTS,
    ConfigError,
    OBSERVABLES,
    RAW_HEADER,
    SUMMARY_HEADER,
    Outcome,
    _emit_banks,
    _fmt_index,
    build_objective,
    build_oracle,
    main,
    run_experiment,
    validate_config,
)
from sgdlab.core import StepSchedule, log_spaced_indices
from sgdlab.objectives import Lojasiewicz, make_phi_p
from sgdlab.sgd import ReplicateRuns, run_sgd_sweep
from test_acceptance import CONFIGS, GATE


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
    assert cfg.objective_args["kind"] == "quadratic"


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
        "[oracle] m_values: not a key of oracle 'gaussian' in rates",
        "[schedule] gamma: 0.5 repeated",
        "[schedule] alpha: 0.25 repeated",
        "[oracle] m_values: 2 repeated",
    ]
    cfg = validate_config(write_cfg(tmp_path, RATES_CFG.replace(
        "lam = 1.0", "lam = 1.0\n    dim = 2").replace("x0 = 1.0", "x0 = 1.0, 1.0")))
    assert cfg.schedules == [StepSchedule(0.5, 0.5)]


def test_validate_row_bound_counts_the_banks_a_run_makes(tmp_path):
    """MAX_ROWS = 10^7 raw rows fits 78125 coupled replicates (64
    checkpoints, two legs); couple-demo runs one schedule, and a grid of
    more is a config error."""
    text = COUPLE_CFG.replace("replicates = 20", "replicates = 78125")
    assert validate_config(write_cfg(tmp_path, text)).replicates == 78125
    with pytest.raises(ConfigError, match=r"couple-demo runs one schedule, not 2 \(gamma x alpha\)"):
        validate_config(write_cfg(tmp_path, text.replace("gamma = 0.5", "gamma = 0.5, 0.25")))
    with pytest.raises(ConfigError, match="10000128 raw.csv rows"):
        validate_config(write_cfg(tmp_path, text.replace("78125", "78126")))


def test_validate_bias_probe_path_is_not_bounded(tmp_path):
    """couple-demo's bias probe streams its Brownian path and holds no array
    of its increments, so no draw bound applies to it: a path of
    400 / (0.05^2 / 32) = 5 120 000 substeps of dim 32 validates (and is not
    run here)."""
    text = (COUPLE_CFG.replace("replicates = 20\n    horizon = 1.0\n    substeps = 4",
                               "replicates = 2\n    horizon = 400\n    substeps = 32")
            .replace("gamma = 0.5", "gamma = 0.05").replace("x0 = 1.0", "x0 = 1.0\n    dim = 32"))
    cfg = validate_config(write_cfg(tmp_path, text))
    assert (cfg.horizon, cfg.substeps, cfg.obj.dim) == (400.0, 32, 32)


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


def test_validate_probe_exact_lists_substeps_and_horizon_in_one_pass(tmp_path):
    """probe-exact's steps read no substeps, so substeps = 0 is a key it
    takes no value of and does not hide its horizon problem: both are
    listed in one pass."""
    text = (CONFIGS / "probe_exact_m1.ini").read_text().replace("gamma = 0.1", "gamma = 1e-200")
    with pytest.raises(ConfigError) as info:
        validate_config(write_cfg(tmp_path, text.replace("horizon = 2", "horizon = 2\nsubsteps = 0")))
    assert info.value.problems == [
        "[experiment] substeps: probe-exact takes no substeps",
        "[experiment] horizon: more than 100000000 steps per replicate at gamma 1e-200, alpha 0.25",
    ]


def test_committed_configs_are_the_gates_and_validate():
    """configs/ holds exactly the configs the acceptance gate runs, and
    each one validates."""
    assert sorted(GATE) == sorted(path.name for path in CONFIGS.glob("*.ini"))
    for name in GATE:
        validate_config(str(CONFIGS / name))


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


def _phi2_rates_tagged(tmp_path, capsys, monkeypatch, tags) -> list[str]:
    """The report lines of a rates run on phi_2 re-tagged with tags (64
    replicates, 2000 steps, alpha 0.5)."""
    keys, _ = _OBJECTIVES["phi_p"]
    monkeypatch.setitem(_OBJECTIVES, "phi_p", (
        keys, lambda seed, p: dataclasses.replace(make_phi_p(p), class_tags=tags)))
    path = write_cfg(tmp_path, """
        [experiment]
        kind = rates
        seed = 3
        replicates = 64
        horizon = 2000

        [objective]
        kind = phi_p
        p = 2
        x0 = 1.0

        [schedule]
        gamma = 0.5
        alpha = 0.5
    """)
    assert main(["rates", "--config", path, "--out-dir", str(tmp_path / "o")]) == 0
    return capsys.readouterr().out.splitlines()


def test_rates_judges_a_lojasiewicz_tag_below_r2_as_a_guarantee(tmp_path, capsys, monkeypatch):
    """Only r = 2 makes the Lojasiewicz exponent sharp.  Tagged with r = 4/3,
    phi_2 decays at about 0.55 against the exponent 1/3; that passes as a
    guarantee the run exceeds."""
    (line,) = _phi2_rates_tagged(tmp_path, capsys, monkeypatch, (Lojasiewicz(4.0 / 3.0, 1.0),))
    assert " lojasiewicz/f_gap: fitted decay 0.5490 vs expected 0.3333 " in line
    assert line.endswith(" PASS (exceeds guarantee)")


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


def test_batch_eps_needs_no_horizon(tmp_path, capsys):
    """batch-eps reads no horizon: a config without one runs, and the same
    config with one is a problem, listed before out_dir is made."""
    assert "horizon" not in BATCH_EPS_CFG
    assert main(["batch-eps", "--config", write_cfg(tmp_path, BATCH_EPS_CFG),
                 "--out-dir", str(tmp_path / "without")]) == 0
    with_horizon = BATCH_EPS_CFG.replace("replicates = 2", "replicates = 2\n    horizon = 1")
    assert main(["batch-eps", "--config", write_cfg(tmp_path, with_horizon),
                 "--out-dir", str(tmp_path / "with")]) == 1
    assert capsys.readouterr().err == "config error: [experiment] horizon: batch-eps takes no horizon\n"
    assert not (tmp_path / "with").exists()


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
    The probe runs beside the bank and returns its abort, which is a report
    line, not a traceback: the run exits 0 and writes all three outputs,
    the same bytes for one worker and two, at the default block and at
    7-row blocks."""
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
    for workers, block in ((1, sgd.REPLICATE_BLOCK), (2, sgd.REPLICATE_BLOCK), (1, 7), (2, 7)):
        monkeypatch.setattr(sgd, "WORKERS", workers)
        monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
        out = tmp_path / f"w{workers}b{block}"
        assert main(["couple-demo", "--config", path, "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert ("quadratic_gaussian_g1_a0.1: integrator bias probe aborted (replicate 0"
                " aborted at step 42: |Y| = 1.666e+12 exceeds 1e+12)") in stdout.splitlines()
        outputs.append({name: (out / name).read_bytes() for name in OUTPUTS})
    assert all(output == outputs[0] for output in outputs[1:])
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
        # a finite lo and hi whose span hi - lo overflows, on a 2-D grid
        # (uniform points) and a 1-D one (linspace)
        ("certify", CERTIFY_CFG.replace("kind = quadratic\n    lam = 2.0", "kind = least_squares\n    dim = 2"),
         "lo = -2\n    hi = 2", "lo = -1e308\n    hi = 1e308",
         "[grid]: grid span hi - lo overflows, got lo=-1e+308, hi=1e+308"),
        ("certify", CERTIFY_CFG.replace("kind = quadratic\n    lam = 2.0", "kind = phi_p\n    p = 2"),
         "lo = -2\n    hi = 2", "lo = -1e308\n    hi = 1e308",
         "[grid]: grid span hi - lo overflows, got lo=-1e+308, hi=1e+308"),
        # an x0 of neither 1 nor dim entries
        ("couple-demo", COUPLE_CFG, "x0 = 1.0", "x0 = 1.0, 2.0", "[objective] x0: expected 1 entry\n"),
        ("rates", RATES_CFG, "x0 = 1.0", "x0 = 1.0, 2.0\n    dim = 3",
         "[objective] x0: expected 1 or 3 entries\n"),
        # the slope windows are the experiments' own, not keys
        ("strong-approx", COUPLE_CFG.replace("couple-demo", "strong-approx"), "sigma = 1.0",
         "sigma = 1.0\n    slope_lo = 0.5", "[oracle] slope_lo: unknown key"),
        ("batch-eps", BATCH_EPS_CFG, "n_samples = 2000", "n_samples = 2000\n    slope_hi = -0.5",
         "[oracle] slope_hi: unknown key"),
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
        # 2 stacked schedules * 24 replicates * 10^9 data rows * dim 4
        # per-sample gradients; 2 schedules * 1024 replicates * 2000 rows *
        # dim 4 (8.2 * 10^6 for one schedule alone); 24 replicates *
        # 256-step chunk * 10^8 batch * 5 numbers per row; the same at 50
        # replicates and 2 numbers per probe draw; 400 stacked schedules
        # (more than a chunk's 256 steps) * 2 replicates * batch 3000 * 5
        # numbers per row in one step; 10^9 grid points
        ("rates", LSQ_DIVERGE_CFG, "n_data = 64", "n_data = 1000000000",
         "[objective] n_data: 192000000000 per-sample gradients per block, more than 10000000"),
        ("rates", LSQ_DIVERGE_CFG.replace("replicates = 24", "replicates = 1024"), "n_data = 64",
         "n_data = 2000", "[objective] n_data: 16384000 per-sample gradients per block, more than 10000000"),
        ("rates", LSQ_DIVERGE_CFG, "batch_m = 1", "batch_m = 100000000",
         "[oracle] batch_m: 3072000000000 numbers per block chunk or step, more than 10000000"),
        ("probe-exact", PROBE_CFG, "batch_m = 1", "batch_m = 100000000",
         "[oracle] batch_m: 2560000000000 numbers per block chunk or step, more than 10000000"),
        ("rates", LSQ_DIVERGE_CFG.replace("replicates = 24", "replicates = 2"),
         "batch_m = 1\n\n    [schedule]\n    gamma = 1, 4",
         "batch_m = 3000\n\n    [schedule]\n    gamma = " + ", ".join(map(str, range(1, 401))),
         "[oracle] batch_m: 12000000 numbers per block chunk or step, more than 10000000"),
        ("certify", CERTIFY_CFG, "num = 401", "num = 1000000000",
         "[grid] num: 1000000000 grid coordinates, more than 10000000"),
        # a df with a law other than student
        ("rates", RATES_CFG, "kind = gaussian\n    sigma = 1.0",
         "kind = heavy\n    law = laplace\n    df = 6",
         "[oracle] heavy: df applies to student noise only"),
        ("batch-eps", BATCH_EPS_CFG, "law = laplace", "law = laplace\n    df = 6",
         "[oracle] batch_probe: df applies to student noise only"),
    ):
        path = write_cfg(tmp_path, text.replace(old, new))
        assert main([experiment, "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
        assert f"config error: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
    # an out_dir the run cannot create is an error before the first bank
    def no_bank(*args, **kwargs):
        raise AssertionError("a bank ran")

    monkeypatch.setattr(sgd, "_sgd_block", no_bank)  # every block of every SGD bank
    afile = tmp_path / "afile"
    afile.write_text("")
    for out_dir in (afile / "sub", afile):
        path = write_cfg(tmp_path, RATES_CFG.replace("seed = 7", f"seed = 7\n    out_dir = {out_dir}"))
        assert main(["rates", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [experiment] out_dir: ") and "Traceback" not in err


@pytest.mark.parametrize("experiment,text,old,new,problems", [
    # a key the kind does not take
    pytest.param("rates", RATES_CFG, "kind = quadratic\n    lam = 1.0", "kind = phi_p\n    p = 2\n    lam = 3",
                 ["[objective] lam: not a key of objective 'phi_p' in rates"], id="phi_p-lam"),
    pytest.param("rates", RATES_CFG, "kind = gaussian", "kind = heavy",
                 ["[oracle] sigma: not a key of oracle 'heavy' in rates"], id="heavy-sigma"),
    # a key or a kind the experiment sets itself
    pytest.param("probe-exact", PROBE_CFG, "batch_m = 1", "batch_m = 1\n    law = laplace",
                 ["[oracle] law: not a key of oracle 'batch_probe' in probe-exact"], id="probe-exact-law"),
    pytest.param("batch-eps", BATCH_EPS_CFG, "n_samples = 2000",
                 "n_samples = 2000\n\n    [objective]\n    kind = quadratic",
                 ["[objective] kind: batch-eps always uses 'linear_probe'"], id="batch-eps-objective-kind"),
    # a required key left out, and constructor problems, with the others
    pytest.param("rates", RATES_CFG, "kind = quadratic\n    lam = 1.0", "kind = phi_p",
                 ["[objective] p: required for kind 'phi_p'"], id="phi_p-no-p"),
    # a required key given but unreadable is listed once, as unreadable
    pytest.param("rates", RATES_CFG, "kind = quadratic\n    lam = 1.0", "kind = phi_p\n    p = 2.5",
                 ["[objective] p: '2.5' is not an integer"], id="phi_p-p-not-integer"),
    pytest.param("rates", RATES_CFG.replace("horizon = 400", "horizon = 0.5"), "kind = quadratic\n    lam = 1.0",
                 "kind = phi_p", ["[experiment] horizon: shorter than one step",
                                  "[objective] p: required for kind 'phi_p'"], id="short-horizon-and-no-p"),
    pytest.param("probe-exact", PROBE_CFG.replace("replicates = 50", "replicates = 1"), "batch_m = 1",
                 "batch_m = 0", ["[experiment] replicates: must be >= 2",
                                 "[oracle] batch_probe: batch size must be >= 1"], id="probe-exact-replicates-and-m"),
    pytest.param("batch-eps", BATCH_EPS_CFG.replace("replicates = 2", "replicates = 0"), "law = laplace",
                 "law = foo", ["[experiment] replicates: must be >= 1",
                               "[oracle] batch_probe: law must be one of ('normal', 'rademacher', 'laplace',"
                               " 'student'), got 'foo'"], id="batch-eps-replicates-and-law"),
    pytest.param("batch-eps", BATCH_EPS_CFG, "law = laplace", "law = foo",
                 ["[oracle] batch_probe: law must be one of ('normal', 'rademacher', 'laplace', 'student'),"
                  " got 'foo'"], id="batch-eps-law"),
    # a certify grid with no point for the ratio conditions
    pytest.param("certify", CERTIFY_CFG, "lo = -2\n    hi = 2", "lo = -1\n    hi = 1\n    exclude_radius = 5",
                 ["[grid]: no grid point lies beyond exclude_radius with a positive gap"], id="certify-empty-grid"),
    # an [experiment] key the experiment does not read
    pytest.param("rates", RATES_CFG, "horizon = 400", "horizon = 400\n    substeps = 4",
                 ["[experiment] substeps: rates takes no substeps"], id="rates-substeps"),
    pytest.param("batch-eps", BATCH_EPS_CFG, "replicates = 2", "replicates = 2\n    horizon = 1",
                 ["[experiment] horizon: batch-eps takes no horizon"], id="batch-eps-horizon"),
    # a section the experiment does not read
    pytest.param("rates", RATES_CFG, "alpha = 0.5", "alpha = 0.5\n\n    [grid]\n    num = 5",
                 ["[grid] num: rates takes no grid"], id="rates-grid"),
    pytest.param("batch-eps", BATCH_EPS_CFG, "n_samples = 2000",
                 "n_samples = 2000\n\n    [schedule]\n    gamma = 0.5", ["[schedule] gamma: batch-eps takes no schedule"], id="batch-eps-schedule"),
    pytest.param("certify", CERTIFY_CFG, "num = 401",
                 "num = 401\n\n    [schedule]\n    alpha = 0.5\n\n    [oracle]\n    sigma = 1",
                 ["[schedule] alpha: certify takes no schedule", "[oracle] sigma: certify takes no oracle"],
                 id="certify-schedule-and-oracle"),
])
def test_kind_keys_and_constructor_problems_are_listed_before_out_dir(
        tmp_path, capsys, experiment, text, old, new, problems):
    """Each kind takes its own keys, and the objective and oracle are built
    while the config is validated: every problem is listed in one pass and
    no out_dir is made."""
    path = write_cfg(tmp_path, text.replace(old, new))
    out = tmp_path / "o"
    assert main([experiment, "--config", path, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "".join(f"config error: {p}\n" for p in problems)
    assert not out.exists()


def test_kind_rows_take_table_keys():
    """Every key an objective, oracle or experiment row names is a key of
    _KEYS in its section."""
    rows = [("objective", keys) for keys, _ in _OBJECTIVES.values()]
    rows += [("oracle", keys) for keys, _ in _ORACLES.values()]
    rows += [("oracle", {**row.keys, **dict.fromkeys(row.fixed)}) for row in _EXPERIMENTS.values()]
    assert all(set(keys) <= set(_KEYS[section]) for section, keys in rows)


def test_cli_compares_no_experiment_name():
    """Every per-experiment rule is a field of the experiment's _EXPERIMENTS
    row: nowhere does cli.py compare a value with an experiment name, or
    with a tuple, list or set of them (kind == "rates", kind in ("certify",
    "batch-eps"))."""
    def names(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(names(entry) for entry in node.elts)
        return isinstance(node, ast.Constant) and node.value in EXPERIMENTS

    tree = ast.parse(Path(cli.__file__).read_text())
    compares = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)]
    assert compares  # the walk sees the module's comparisons
    assert [(node.lineno, ast.unparse(node)) for node in compares
            if any(names(side) for side in [node.left, *node.comparators])] == []


def _row_problems(tmp_path, experiment, **changes) -> list:
    """The problems validate_config lists for a small config of experiment,
    with its row's objective and oracle kinds and only the sections it
    reads (and a horizon where it reads one), and with some [section] key
    values replaced (as in _case)."""
    row = _EXPERIMENTS[experiment]
    sections = {
        "experiment": {"kind": experiment, "seed": "1", "replicates": "2"},
        "objective": {"kind": row.objective or "quadratic", "x0": "1.0"},
        "oracle": {"kind": row.oracle or "gaussian"},
        "schedule": {"gamma": "0.5", "alpha": "0.25"},
        "grid": {"num": "11"},
    }
    if row.steps:
        sections["experiment"]["horizon"] = "2"
    sections = {name: keys for name, keys in sections.items()
                if name in ("experiment", "objective", *row.sections)}
    for name, value in changes.items():
        section, key = name.split("__")
        sections.setdefault(section, {})[key] = value
    try:
        validate_config(write_cfg(tmp_path, _ini(sections)))
    except ConfigError as err:
        return err.problems
    return []


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_row_rule_binds_exactly_the_rows_that_carry_it(tmp_path, experiment):
    """validate_config reads each rule from the experiment's row, so one
    config per rule shows it on every row: two schedules are a problem
    exactly where the row runs one, alpha 0.6 exactly where the row bounds
    alpha at or below it, horizon 0 exactly where the row reads a horizon,
    and substeps 0 exactly where the row reads substeps.  A row without
    [schedule] lists its key as one it does not take, and so does a row
    that reads no horizon or no substeps."""
    row = _EXPERIMENTS[experiment]
    assert _row_problems(tmp_path, experiment) == []
    takes_no = lambda key: [] if "schedule" in row.sections else [f"[schedule] {key}: {experiment} takes no schedule"]

    expected = [f"[schedule]: {experiment} runs one schedule, not 2 (gamma x alpha)"] if row.one_schedule else []
    assert _row_problems(tmp_path, experiment, schedule__gamma="0.5, 0.25") == (
        expected + takes_no("gamma"))

    bounds = [(1.0, "the continuous-time process needs alpha < 1")] * row.continuous
    bounds += [row.alpha_below] if row.alpha_below else []
    expected = [f"[schedule] alpha: 0.6 invalid for {experiment}; {why}" for bound, why in bounds if bound <= 0.6]
    assert _row_problems(tmp_path, experiment, schedule__alpha="0.6") == (
        expected[:1] + takes_no("alpha"))

    expected = "must be positive" if row.steps else f"{experiment} takes no horizon"
    assert _row_problems(tmp_path, experiment, experiment__horizon="0") == [f"[experiment] horizon: {expected}"]

    expected = "must be >= 1" if row.steps is _SUBSTEPS else f"{experiment} takes no substeps"
    assert _row_problems(tmp_path, experiment, experiment__substeps="0") == [f"[experiment] substeps: {expected}"]


def _fmt(x) -> str:
    return repr(float(x))


def _suffix(values) -> np.ndarray:
    """The mean of each replicate's recorded values from each checkpoint to
    the end: the tail sums over the tail counts."""
    return np.cumsum(values[:, ::-1], axis=1)[:, ::-1] / np.arange(values.shape[1], 0, -1)


def _per_cell_text(run_id, runs) -> list:
    """The raw rows of a bank with every cell formatted by _fmt and _fmt_index."""
    suffix = _suffix(runs.values)
    return [
        f"{run_id},{int(runs.replicate_ids[i])},{_fmt_index(n)},{_fmt(runs.values[i, j])},"
        f"{_fmt(runs.dist2_to_min[i, j])},{_fmt(runs.grad_sq[i, j])},{_fmt(suffix[i, j])}"
        for i in range(len(runs.replicate_ids)) for j, n in enumerate(runs.sample_indices)
    ]


def _emitted(out: Outcome) -> bytes:
    """The raw rows the emissions into out have written; closes out.raw."""
    with out.raw as fh:
        fh.seek(0)
        return fh.read()


def test_emit_bank_rows_are_the_per_cell_text(tmp_path, monkeypatch):
    """Raw rows formatted from .tolist() columns read exactly as formatting
    every cell with _fmt and _fmt_index (two workers: slices of 2 and 1)."""
    monkeypatch.setattr(sgd, "WORKERS", 2)
    values = np.array([[1e-300, 1e16, 0.1 + 0.2], [-0.0, 3.0, 2.5e-7], [5e-324, 1.0, 1e100]])
    runs = ReplicateRuns(np.array([1, 10, 100]), values, values[::-1].copy(),
                         np.abs(values) * 7.0, np.array([0, 4, 9]))
    for indices in (np.array([1, 10, 100]), np.array([0.25, 2.0, 1e17])):
        runs.sample_indices = indices
        out = Outcome(tmp_path, tempfile.TemporaryFile(dir=tmp_path))
        _emit_banks(out, [("run", runs)])
        lines = _per_cell_text("run", runs)
        assert _emitted(out) == "".join(f"{line}\n" for line in lines).encode()
    assert lines[1].startswith("run,0,2,1e+16,")
    assert lines[3].startswith("run,4,0.25,-0.0,")
    assert list(tmp_path.iterdir()) == []


def _bank(n_rows: int, n_ckpt: int, seed: int) -> ReplicateRuns:
    rng = np.random.default_rng(seed)
    cols = [rng.standard_normal((n_rows, n_ckpt)) ** 3 for _ in range(3)]
    return ReplicateRuns(np.arange(1, n_ckpt + 1), *cols, np.arange(n_rows) * 3 + seed)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_emitted_bytes_are_the_per_cell_text_at_every_part_boundary(tmp_path, monkeypatch, workers):
    """Banks of 3 replicates (slices of 2 and 1 at two workers), of one
    replicate and of 5, emitted two in one call and one in the next, append
    exactly the per-cell text of each bank in order."""
    monkeypatch.setattr(sgd, "WORKERS", workers)
    banks = [("a", _bank(3, 4, 0)), ("b", _bank(1, 2, 1)), ("c", _bank(5, 3, 2))]
    out = Outcome(tmp_path, tempfile.TemporaryFile(dir=tmp_path))
    _emit_banks(out, banks[:2])
    _emit_banks(out, banks[2:])
    expected = [line for run_id, runs in banks for line in _per_cell_text(run_id, runs)]
    assert _emitted(out) == "".join(f"{line}\n" for line in expected).encode()
    assert list(tmp_path.iterdir()) == []


def test_suffix_avg_is_the_mean_from_each_checkpoint_to_the_end(tmp_path):
    values = np.array([[4.0, 2.0, 1.0, 3.0]])
    runs = ReplicateRuns(np.array([1, 2, 3, 4]), values, values, values, np.array([0]))
    out = Outcome(tmp_path, tempfile.TemporaryFile(dir=tmp_path))
    (stats,) = _emit_banks(out, [("run", runs)])
    np.testing.assert_array_equal(stats["suffix_avg"][0], [2.5, 2.0, 2.0, 3.0])
    lines = _emitted(out).decode().splitlines()
    assert [row.rsplit(",", 1)[1] for row in lines] == ["2.5", "2.0", "2.0", "3.0"]
    # a bank of non-dyadic values: its raw rows and its summary cells are,
    # bit for bit, those of the tail sums over the tail counts
    runs = _bank(37, 29, 3)
    reference = _suffix(runs.values)
    out = Outcome(tmp_path, tempfile.TemporaryFile(dir=tmp_path))
    _emit_banks(out, [("run", runs)])
    expected = "".join(f"{line}\n" for line in _per_cell_text("run", runs))
    assert _emitted(out) == expected.encode()
    assert [row.split(",")[-2:] for row in out.summary_rows] == [
        [_fmt(c.mean()), _fmt(1.96 * c.std(ddof=1) / np.sqrt(len(c)))] for c in reference.T
    ]


def _summary_by_checkpoint(run_id, runs):
    """The summary rows of a bank, and each observable's per-checkpoint mean
    and standard deviation, reduced one checkpoint's column at a time."""
    columns = dict(zip(OBSERVABLES, (runs.values, runs.dist2_to_min, runs.grad_sq, _suffix(runs.values))))
    r = len(runs.replicate_ids)
    rows, stats = [], {name: ([], []) for name in OBSERVABLES}
    for j, index in enumerate(runs.sample_indices):
        cells = [_fmt_index(index)]
        for name, col in columns.items():
            mean = float(col[:, j].mean())
            ci = (
                1.96 * float(col[:, j].std(ddof=1)) / np.sqrt(r) if r > 1 else 0.0
            )
            cells += [_fmt(mean), _fmt(ci)]
            stats[name][0].append(mean)
            stats[name][1].append(float(col[:, j].std(ddof=1)) if r > 1 else 0.0)
        rows.append(f"{run_id}," + ",".join(cells))
    return rows, {name: (np.array(means), np.array(sds)) for name, (means, sds) in stats.items()}


@pytest.mark.parametrize("n_ckpt", [1, 57])
@pytest.mark.parametrize("n_rows", [1, 2, 1024])
def test_summary_and_statistics_are_each_checkpoints_reductions_bit_for_bit(tmp_path, n_rows, n_ckpt):
    """_emit_banks reduces each column once, checkpoint-major: its summary
    rows, and the means and standard deviations it returns, are bit for bit
    those of reducing each checkpoint's column alone.  A bank of one
    replicate has deviations of zero and a CI of 0.0, and raises no
    warning."""
    runs = _bank(n_rows, n_ckpt, n_ckpt)
    out = Outcome(tmp_path, tempfile.TemporaryFile(dir=tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (stats,) = _emit_banks(out, [("run", runs)])
    out.raw.close()
    rows, reference = _summary_by_checkpoint("run", runs)
    assert out.summary_rows == rows
    assert list(stats) == list(OBSERVABLES)
    for name, (mean, sd) in reference.items():
        assert (stats[name][0].tobytes(), stats[name][1].tobytes()) == (mean.tobytes(), sd.tobytes())
    cis = {cell for row in rows for cell in row.split(",")[3::2]}
    assert (cis == {"0.0"}) == (n_rows == 1)


def test_subcommand_kind_mismatch_exits_1(tmp_path, capsys):
    path = write_cfg(tmp_path, RATES_CFG)
    assert main(["certify", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
    assert "subcommand was invoked" in capsys.readouterr().err


def test_all_replicates_aborting_exits_2(tmp_path, capsys, monkeypatch):
    """A constant step of 3 on the unit quadratic alternates sign and
    doubles every iterate, so every replicate diverges; raw.csv is the
    header alone."""
    monkeypatch.setattr(sgd, "WORKERS", 2)
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
    assert (out / "raw.csv").read_bytes() == f"{RAW_HEADER}\n".encode()
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUTS)


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
def test_partial_divergence_aborts_only_the_diverging_replicates(tmp_path, monkeypatch):
    """The report's abort lines are the errors the diverging replicates
    abort with when every replicate steps alone (a block size of 1), and
    the raw rows of every other replicate are its trajectory then."""
    path = write_cfg(tmp_path, LSQ_DIVERGE_CFG)
    out = tmp_path / "o"
    assert main(["rates", "--config", path, "--out-dir", str(out)]) == 0
    cfg = validate_config(path)
    obj = build_objective(cfg)
    oracle = build_oracle(cfg, obj)
    checkpoints = log_spaced_indices(100)
    raw = defaultdict(list)
    with open(out / "raw.csv") as fh:
        for row in csv.DictReader(fh):
            raw[row["run_id"], int(row["replicate"])].append(row)
    monkeypatch.setattr(sgd, "REPLICATE_BLOCK", 1)
    aborts = []
    for sched in cfg.schedules:
        run_id = f"{obj.name}_{oracle.name}_{sched.label()}"
        (alone,) = run_sgd_sweep(obj, oracle, [sched], np.ones(4), 100, cfg.replicates, cfg.seed)
        for err in alone.aborts:
            aborts.append(f"  {run_id} {err}")
            assert (run_id, err.replicate_id) not in raw
        kept = alone.replicate_ids.tolist()
        assert sorted(kept + [err.replicate_id for err in alone.aborts]) == list(range(cfg.replicates))
        for row, rep in enumerate(kept):
            rows = raw[run_id, rep]
            assert [int(r["n_or_t"]) for r in rows] == checkpoints.tolist()
            assert [float(r["f_gap"]) for r in rows] == alone.values[row].tolist()
            assert [float(r["dist2"]) for r in rows] == alone.dist2_to_min[row].tolist()
            assert [float(r["grad_sq"]) for r in rows] == alone.grad_sq[row].tolist()
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
@pytest.mark.parametrize("experiment,text", [
    ("rates", LSQ_DIVERGE_CFG),
    ("couple-demo", COUPLE_CFG),
    pytest.param("strong-approx", COUPLE_CFG.replace("couple-demo", "strong-approx")
                 .replace("gamma = 0.5", "gamma = 0.5, 0.25"), id="strong-approx"),
    pytest.param("weak-approx", COUPLE_CFG.replace("couple-demo", "weak-approx")
                 .replace("gamma = 0.5", "gamma = 0.5, 0.25"), id="weak-approx"),
    pytest.param("probe-exact", PROBE_CFG, id="probe-exact"),
    pytest.param("batch-eps", BATCH_EPS_CFG, id="batch-eps"),
    # one-dimensional laplace noise: the comonotone coupling
    pytest.param("couple-demo", COUPLE_CFG.replace("kind = gaussian\n    sigma = 1.0",
                                                   "kind = heavy\n    law = laplace"),
                 id="couple-demo-laplace"),
])
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


def _arrays_in(obj):
    """Every ndarray reachable from obj through lists, tuples, dicts and
    instance attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays_in(item)
    elif isinstance(obj, dict):
        yield from _arrays_in(list(obj.values()))
    elif hasattr(obj, "__dict__"):
        yield from _arrays_in(vars(obj))


def test_no_raw_row_text_crosses_a_pipe_and_only_the_outputs_stay(tmp_path, monkeypatch):
    """At two workers no fork_map task of a rates run or a couple-demo run
    returns text (an emission task returns None: its rows went to a temp
    file), and out_dir then holds the three outputs alone.  No bank block
    returns a checkpoint array: no array in its result has more entries
    than the block has rows.  The banks, which no replicate aborts, are
    emitted from views of the shared buffers the blocks wrote."""
    monkeypatch.setattr(sgd, "WORKERS", 2)
    fork_map, emissions, blocks = sgd.fork_map, [], []

    def watched(fn, items):
        items = list(items)
        results = fork_map(fn, items)
        assert not any(isinstance(r, (str, bytes)) for r in results)
        if fn.__qualname__.startswith("_emit_banks."):
            emissions.append(results)
        for task, result in zip(items, results):
            if isinstance(task, partial) and isinstance(task.args[0], slice):
                rows = task.args[0].stop - task.args[0].start
                assert all(a.size <= rows for a in _arrays_in(result))
                blocks.append(rows)
        return results

    shared, buffers = sgd._shared, []

    def recorded(n):
        buffers.append(shared(n))
        return buffers[-1]

    emit_banks, emitted = cli._emit_banks, []

    def emit(out, banks):
        emitted.extend(runs for _, runs in banks)
        return emit_banks(out, banks)

    monkeypatch.setattr(sgd, "fork_map", watched)
    monkeypatch.setattr(sgd, "_shared", recorded)
    monkeypatch.setattr(cli, "_emit_banks", emit)
    for experiment, text in (("rates", RATES_CFG), ("couple-demo", COUPLE_CFG)):
        out = tmp_path / experiment
        assert main([experiment, "--config", write_cfg(tmp_path, text), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUTS)
    # one slice per worker of the rates bank, and of each couple-demo leg
    assert emissions == [[None] * 2, [None] * 4]
    # the rates bank's 8 rows, a block per worker, and couple-demo's 20 in
    # one block beside the bias probe
    assert blocks == [4, 4, 20]
    assert len(emitted) == 3 and not any(runs.aborts for runs in emitted)
    for runs in emitted:
        for a in (runs.values, runs.dist2_to_min, runs.grad_sq, runs.final_states):
            assert any(np.shares_memory(a, buf) for buf in buffers)


def _owner(a: np.ndarray):
    """What holds the memory a views: the memoryview of a shared buffer, or
    the array that owns its data."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a if a.base is None else a.base


@pytest.mark.parametrize("experiment,text,schedules,aborts", [
    pytest.param("rates", RATES_CFG.replace("alpha = 0.5", "alpha = 0.3, 0.5, 0.7"), 3, False,
                 id="rates"),
    pytest.param("rates", LSQ_DIVERGE_CFG, 2, True, id="rates-survivors"),
    pytest.param("probe-exact", PROBE_CFG.replace("gamma = 0.1", "gamma = 0.1, 0.05"), 2, False,
                 id="probe-exact"),
    pytest.param("strong-approx", COUPLE_CFG.replace("couple-demo", "strong-approx")
                 .replace("gamma = 0.5", "gamma = 0.5, 0.25"), 2, False, id="strong-approx"),
])
def test_each_bank_is_dropped_once_its_schedule_is_reported(
        tmp_path, monkeypatch, experiment, text, schedules, aborts):
    """A run lets go of each schedule's bank once it is reported: when the
    next bank is emitted (rates, whose sweep steps every schedule at once)
    or the next schedule starts to run (probe-exact, strong-approx), no
    bank emitted before, none of its arrays and none of the memory they
    view (the shared buffers its blocks wrote, or its copy of the
    survivors after aborts) is alive.  The garbage collector is off, so
    only reference counts free them."""
    monkeypatch.setattr(sgd, "WORKERS", 2)
    reported, entries, aborted = [], [], []

    def checked(fn):
        def entered(*args, **kwargs):
            entries.append(fn.__name__)
            alive = sum(ref() is not None for ref in reported)
            assert alive == 0, f"{alive} of {len(reported)} reported objects alive at {fn.__name__}"
            return fn(*args, **kwargs)
        return entered

    emit_banks = checked(cli._emit_banks)

    def emit(out, banks):
        suffixes = emit_banks(out, banks)
        for _, runs in banks:
            arrays = (runs.values, runs.dist2_to_min, runs.grad_sq, runs.final_states)
            reported.extend(weakref.ref(x) for x in (runs, *arrays, *map(_owner, arrays)))
            aborted.append(bool(runs.aborts))
        return suffixes

    monkeypatch.setattr(cli, "_emit_banks", emit)
    monkeypatch.setattr(cli, "run_sgd_sweep", checked(cli.run_sgd_sweep))
    monkeypatch.setattr(cli, "run_coupled_replicates", checked(cli.run_coupled_replicates))
    path = write_cfg(tmp_path, text)
    gc.disable()
    try:
        assert main([experiment, "--config", path, "--out-dir", str(tmp_path / "o")]) == 0
    finally:
        gc.enable()
    assert entries.count("_emit_banks") == schedules
    assert len(entries) == schedules + (1 if experiment == "rates" else schedules)
    assert any(aborted) == aborts


def _open_fds() -> int | None:
    fds = Path("/proc/self/fd")
    return len(list(fds.iterdir())) if fds.is_dir() else None


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_formatter_raises_to_the_caller_and_leaves_no_part_or_child(
        tmp_path, monkeypatch, where):
    """A cell formatter that raises in the forked worker's slice, or in the
    parent's own: the error reaches the caller, out_dir holds no file, no
    temp file stays open and every child has been reaped."""
    monkeypatch.setattr(sgd, "WORKERS", 2)
    parent, fmt_index = os.getpid(), cli._fmt_index

    def failing(v):
        if (os.getpid() == parent) == (where == "parent"):
            raise ValueError(f"formatter failed in the {where}")
        return fmt_index(v)

    monkeypatch.setattr(cli, "_fmt_index", failing)
    cfg = validate_config(write_cfg(tmp_path, RATES_CFG), {"out_dir": str(tmp_path / "o")})
    fds = _open_fds()
    with pytest.raises(ValueError, match=f"formatter failed in the {where}"):
        run_experiment(cfg)
    assert list((tmp_path / "o").iterdir()) == []
    assert _open_fds() == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _simd_targets() -> tuple:
    """numpy's _multiarray_umath module name and the SIMD dispatch targets
    above the baseline that it finds on this host (the "found" list of
    numpy.show_runtime())."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(name)
        except ImportError:
            continue
        return name, [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return None, []


# Run in a child process: print the dispatch targets it finds, then run
# each config of argv[4:] (by the subcommand its kind names) at each
# <workers>x<block> setting of argv[3], writing to argv[2]/<config>-<setting>.
_DISPATCH_CHILD = """
import importlib, sys
from pathlib import Path
from sgdlab import cli, sgd
umath = importlib.import_module(sys.argv[1])
print(*[t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)])
root, settings, configs = sys.argv[2], sys.argv[3].split(), sys.argv[4:]
for setting in settings:
    sgd.WORKERS, sgd.REPLICATE_BLOCK = map(int, setting.split("x"))
    for path in configs:
        out = f"{root}/{Path(path).stem}-{setting}"
        assert cli.main([cli.validate_config(path).experiment, "--config", path, "--out-dir", out]) == 0
"""


def _run_under_the_baseline_dispatch(root, settings, configs) -> None:
    """Run configs at settings through _DISPATCH_CHILD with every SIMD
    dispatch target above numpy's baseline disabled (an environment
    variable that acts on the child process only); skip the test when
    numpy finds no such target."""
    module, found = _simd_targets()
    if not found:
        pytest.skip("numpy finds no SIMD dispatch target above its baseline")
    src = str(Path(sgd.__file__).parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(found),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", _DISPATCH_CHILD, module, str(root), " ".join(settings), *map(str, configs)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert child.stdout.splitlines()[0] == ""  # no target above baseline is left


TINY_PHI_RATES_CFG = """
    [experiment]
    kind = rates
    seed = 3
    replicates = 16
    horizon = 300

    [objective]
    kind = phi_p
    p = 2
    x0 = 1.0

    [oracle]
    kind = gaussian
    sigma = 1.0

    [schedule]
    gamma = 0.5
    alpha = 0.3, 0.7
"""


def test_outputs_do_not_depend_on_workers_or_block_under_the_baseline_dispatch(tmp_path):
    """Under the baseline dispatch, a phi_p rates sweep and a couple-demo
    run write the same bytes at 1 and 2 workers and at 1024- and 3-row
    blocks."""
    configs = [write_cfg(tmp_path, TINY_PHI_RATES_CFG, "rates.ini"),
               write_cfg(tmp_path, COUPLE_CFG, "couple.ini")]
    settings = ["1x1024", "2x1024", "1x3", "2x3"]
    _run_under_the_baseline_dispatch(tmp_path, settings, configs)
    for name in ("rates", "couple"):
        outputs = [{n: (tmp_path / f"{name}-{s}" / n).read_bytes() for n in OUTPUTS} for s in settings]
        assert all(o == outputs[0] for o in outputs[1:]), name


def test_workload_reports_match_their_pins_under_the_baseline_dispatch(tmp_path):
    """report.txt does not depend on numpy's SIMD dispatch: under the
    baseline dispatch each benchmark workload, run from its config in
    perfbench/workloads, writes the report.txt whose SHA-256 is pinned in
    perfbench/workloads.json (its raw.csv and summary.csv hold float bits
    that the dispatch changes)."""
    bench = Path(__file__).parents[1] / "perfbench"
    workloads = json.loads((bench / "workloads.json").read_text())["workloads"]
    _run_under_the_baseline_dispatch(tmp_path, ["2x1024"], [bench / "workloads" / w["config"] for w in workloads])
    for w in workloads:
        report = (tmp_path / f"{Path(w['config']).stem}-2x1024" / "report.txt").read_bytes()
        assert hashlib.sha256(report).hexdigest() == w["sha256"]["report.txt"], w["name"]


@pytest.mark.parametrize("text", [RATES_CFG, LSQ_DIVERGE_CFG], ids=["quadratic", "least-squares"])
def test_a_rates_run_leaves_numpy_ma_out(tmp_path, text):
    """A rates run in a fresh interpreter never imports numpy.ma (numpy's
    unique does on its first call, some 1 MB of RSS in every run)."""
    path = write_cfg(tmp_path, text)
    code = ("import sys; from sgdlab.cli import main;"
            f" assert main(['rates', '--config', {path!r}, '--out-dir', {str(tmp_path / 'o')!r}]) == 0;"
            " print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.splitlines()[-1] == "False"


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
# Hypothesis draws the first value of a pool most often, so that one runs
# for every experiment that takes the key (about 1 in 6 examples reaches a
# run).  configs() draws each example's kinds from the cli's tables, so the
# kind pools serve only an [oracle] kind given to certify.
VALID = {
    ("experiment", "kind"): [None],  # the subcommand's kind
    ("experiment", "seed"): ["0", "3"],
    ("experiment", "replicates"): ["2", "3"],
    ("experiment", "horizon"): ["2", "0.5", "1.005", "20"],
    ("experiment", "substeps"): [None, "1", "4"],
    ("experiment", "threads"): [None, "2"],
    ("experiment", "out_dir"): [None, "elsewhere"],
    ("objective", "kind"): [None, "quadratic", "phi_p", "pl_sine", "least_squares",
                            "linear_probe", "bogus"],
    ("objective", "x0"): [None, "1.0", "1, 2", "0.5, 0.5, 0.5, 0.5"],
    ("objective", "dim"): [None, "1", "2", "4", "40"],
    ("objective", "lam"): [None, "2"],
    ("objective", "p"): ["2", "1", None],
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
    ("schedule", "gamma"): [None, "0.3", "0.5", "1", "0.3, 0.5"],
    ("schedule", "alpha"): ["0.25", None, "0", "0.5", "1", "0.25, 0.5"],
    ("grid", "lo"): [None, "-1", "1"],
    ("grid", "hi"): [None, "1", "2"],
    ("grid", "num"): ["2", "11"],
    ("grid", "exclude_radius"): [None, "0.1", "5"],
}
UNKNOWN = [("oracle", "sigam"), ("schedule", "beta"), ("extra", "kind")]


@st.composite
def configs(draw):
    """A subcommand and its config: the [experiment] keys, the keys of the
    objective and oracle kinds it runs and of the other sections it reads,
    each from its pool; in a third of the examples one key of
    another kind; up to two keys hostile, and now and then a section
    dropped or an unknown key added."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    row = _EXPERIMENTS[experiment]
    kinds = {"objective": row.objective or draw(st.sampled_from(sorted(_OBJECTIVES)))}
    keys = [("experiment", key) for key in _KEYS["experiment"]]
    keys += [("objective", key) for key in ["kind", "x0", *_OBJECTIVES[kinds["objective"]][0]]]
    if "oracle" in row.sections:
        kinds["oracle"] = row.oracle or draw(st.sampled_from(sorted(_ORACLES)))
        taken = {**_ORACLES[kinds["oracle"]][0], **row.keys}
        keys += [("oracle", key) for key in ["kind", *taken] if key not in row.fixed]
    keys += [(own, key) for own in ("schedule", "grid") if own in row.sections for key in _KEYS[own]]
    if draw(st.integers(0, 2)) == 0:
        keys.append(draw(st.sampled_from(sorted(set(VALID) - set(keys)))))
    hostile = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(HOSTILE), max_size=2))
    sections = {"experiment": {"kind": experiment}}
    for section, key in keys:
        if (section, key) in hostile:
            value = hostile[section, key]
        elif key == "kind" and section in kinds:
            # a kind the experiment always uses may be left out
            fixed = (row.objective, row.oracle)[section == "oracle"]
            value = draw(st.sampled_from([None, kinds[section]])) if fixed else kinds[section]
        else:
            value = draw(st.sampled_from(VALID[section, key]))
        if value is not None:
            sections.setdefault(section, {})[key] = value
    sections.pop(draw(st.sampled_from([None] * 12 + sorted(sections))), None)
    unknown = draw(st.sampled_from([None] * 12 + UNKNOWN))
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
