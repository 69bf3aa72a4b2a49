import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import sgd
from sgdlab.core import StepSchedule, derive_stream
from sgdlab.noise import gaussian_oracle
from sgdlab.objectives import make_quadratic
from sgdlab.sde import (
    BrownianPath,
    em_bias_probe,
    path_length,
    run_sde_em,
    run_sde_em_replicates,
    sample_brownian_path,
)
from sgdlab.sgd import DivergenceError


def _bm(horizon, h, dim, rep=0, seed=3):
    return sample_brownian_path(horizon, h, dim, derive_stream(seed, rep, "brownian"))


# ---------------------------------------------------------------- paths

def test_path_length_plain_and_near_integer():
    assert path_length(1.0, 0.1) == 10
    assert path_length(1.0, 1.0 / 3.0) == 3
    assert path_length(0.05, 0.1) == 1


@given(
    n=st.integers(min_value=1, max_value=10**6),
    h=st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_path_length_inverts_grid_size(n, h):
    """count * h spans the horizon it came from, for any grid the code
    can actually produce (the quotient sits within a few ulp of n)."""
    assert path_length(n * h, h) == n


def test_brownian_path_shape_and_count():
    p = _bm(1.0, 0.125, 2)
    assert p.count == 8
    assert p.increments.shape == (8, 2)
    assert p.dim == 2


def test_brownian_path_rejects_wrong_length():
    with pytest.raises(ValueError, match="needs 8 increments"):
        BrownianPath(1.0, 0.125, np.zeros((5, 2)), 2)


def test_sample_brownian_path_validates_inputs():
    s = derive_stream(1, 0, "brownian")
    with pytest.raises(ValueError):
        sample_brownian_path(0.0, 0.1, 1, s)
    with pytest.raises(ValueError):
        sample_brownian_path(1.0, -0.1, 1, s)


def test_sample_accepts_stream_or_generator():
    a = sample_brownian_path(1.0, 0.25, 3, derive_stream(5, 2, "brownian"))
    b = sample_brownian_path(1.0, 0.25, 3, derive_stream(5, 2, "brownian").generator())
    np.testing.assert_array_equal(a.increments, b.increments)


def test_increment_scale():
    p = _bm(64.0, 2.0**-8, 1)
    assert p.increments.var() == pytest.approx(p.h, rel=0.05)


def test_block_sums_match_manual_grouping():
    p = _bm(1.0, 0.0625, 2)
    got = p.block_sums(4)
    want = np.stack([p.increments[i : i + 4].sum(axis=0) for i in range(0, 16, 4)])
    np.testing.assert_array_equal(got, want)


def test_block_sums_requires_divisor():
    p = _bm(1.0, 0.125, 1)
    with pytest.raises(ValueError, match="blocks of 3"):
        p.block_sums(3)


# ---------------------------------------------------------------- refinement

def test_refine_pairs_sum_back_to_coarse():
    p = _bm(4.0, 2.0**-6, 3)
    f = p.refine(derive_stream(3, 1, "brownian"))
    assert f.count == 2 * p.count
    assert f.h == p.h / 2.0
    assert f.horizon == p.horizon
    pair = f.increments[0::2] + f.increments[1::2]
    scale = np.abs(p.increments).max()
    assert np.abs(pair - p.increments).max() <= 1e-14 * scale
    # same check through the public grouping API
    np.testing.assert_allclose(f.block_sums(2), p.increments, rtol=0, atol=1e-14 * scale)


def test_refine_statistics():
    """Fine increments are Normal(0, h/2) and the two halves of each coarse
    step are uncorrelated; both checked on a long single-dimension path."""
    p = _bm(8.0, 2.0**-11, 1, rep=4)
    f = p.refine(derive_stream(3, 5, "brownian"))
    assert f.increments.var() == pytest.approx(p.h / 2.0, rel=0.05)
    first = f.increments[0::2, 0]
    second = f.increments[1::2, 0]
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) < 0.05


# ---------------------------------------------------------------- single runs

def test_zero_noise_em_tracks_exact_solution():
    """Without diffusion, the scheme integrates dy/dt = -(c+t)^(-alpha)
    * lam * y, whose solution is y0 * exp(-lam * integral).  Euler error
    is first order, so it halves when the substep count doubles."""
    lam = 1.3
    obj = make_quadratic(dim=2, lam=lam)
    sched = StepSchedule(0.5, 0.5)
    ga = sched.gamma_alpha
    x0 = np.array([1.0, -2.0])
    horizon = 2.0
    integral = ((ga + horizon) ** 0.5 - ga**0.5) / 0.5
    exact = x0 * np.exp(-lam * integral)
    errs = {}
    for k in (256, 512):
        path = _bm(horizon, ga / k, 2)
        traj = run_sde_em(
            obj, gaussian_oracle(obj, 0.0), sched, x0, horizon, k, path, plan_times=[horizon]
        )
        errs[k] = np.linalg.norm(traj.final_states[0] - exact)
    assert errs[256] / np.linalg.norm(exact) < 5e-3
    assert errs[256] / errs[512] == pytest.approx(2.0, rel=0.1)


def test_plan_times_snap_to_substep_grid():
    obj = make_quadratic(dim=1)
    sched = StepSchedule(0.5, 0.5)  # gamma_alpha = 0.25
    k = 5  # h = 0.05
    path = _bm(1.0, 0.05, 1)
    traj = run_sde_em(obj, gaussian_oracle(obj, 0.0), sched, np.array([1.0]), 1.0, k, path,
                      plan_times=[0.5, 0.98, 1.0])
    # 0.98/0.05 = 19.6 rounds to the same substep as 1.0; duplicates collapse
    np.testing.assert_allclose(traj.sample_indices, [0.5, 1.0], rtol=1e-12)


def test_default_plan_ends_at_horizon():
    obj = make_quadratic(dim=1)
    sched = StepSchedule(0.5, 0.5)
    path = _bm(2.0, sched.gamma_alpha / 16, 1)
    traj = run_sde_em(obj, gaussian_oracle(obj, 0.0), sched, np.array([1.0]), 2.0, 16, path)
    assert traj.sample_indices[-1] == pytest.approx(2.0, rel=1e-9)
    assert np.all(np.diff(traj.sample_indices) > 0)


def test_run_sde_em_validation():
    obj = make_quadratic(dim=2)
    sched = StepSchedule(0.5, 0.5)
    k = 8
    good = _bm(1.0, sched.gamma_alpha / k, 2)
    x0 = np.ones(2)
    none = gaussian_oracle(obj, 0.0)
    with pytest.raises(ValueError, match="alpha < 1"):
        run_sde_em(obj, none, StepSchedule(1.0, 1.0), x0, 1.0, k, good)
    with pytest.raises(ValueError, match="does not match"):
        run_sde_em(obj, none, sched, x0, 1.0, 2 * k, good)
    with pytest.raises(ValueError, match="dim"):
        run_sde_em(obj, none, sched, x0, 1.0, k, _bm(1.0, sched.gamma_alpha / k, 3))
    with pytest.raises(ValueError, match="cover"):
        run_sde_em(obj, none, sched, x0, 2.0, k, good)
    with pytest.raises(ValueError, match="plan times"):
        run_sde_em(obj, none, sched, x0, 1.0, k, good, plan_times=[5.0])


def test_sde_divergence_reports_location():
    """A stiff drift with a coarse substep overshoots immediately."""
    obj = make_quadratic(dim=1, lam=1e6)
    sched = StepSchedule(0.5, 0.5)
    path = _bm(2.0, sched.gamma_alpha, 1)
    with pytest.raises(DivergenceError) as info:
        run_sde_em(obj, gaussian_oracle(obj, 0.0), sched, np.array([1.0]), 2.0, 1, path)
    assert info.value.step >= 1
    assert "|Y|" in str(info.value) or "non-finite" in str(info.value)


# ---------------------------------------------------------------- banks

def test_bank_matches_solo_runs():
    """Replicate r of the bank must reproduce a solo run driven by the path
    drawn from the same brownian stream.  Recorded objective values are
    bitwise identical; the distance and gradient columns go through a
    different (batched) reduction, so those get an ulp of slack."""
    obj = make_quadratic(dim=3, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    k = 8
    h = sched.gamma_alpha / k
    x0 = np.full(3, 2.0)
    seed = 99
    bank = run_sde_em_replicates(obj, oracle, sched, x0, 1.0, k,
                                 n_replicates=5, master_seed=seed)
    for rid in range(5):
        path = sample_brownian_path(1.0, h, 3, derive_stream(seed, rid, "brownian"))
        solo = run_sde_em(obj, oracle, sched, x0, 1.0, k, path, replicate_id=rid)
        assert solo.replicate_ids.tolist() == [rid]
        np.testing.assert_array_equal(solo.values[0], bank.values[rid])
        np.testing.assert_array_equal(solo.final_states[0], bank.final_states[rid])
        np.testing.assert_allclose(solo.dist2_to_min[0], bank.dist2_to_min[rid], rtol=1e-14)
        np.testing.assert_allclose(solo.grad_sq[0], bank.grad_sq[rid], rtol=1e-14)
        np.testing.assert_array_equal(solo.sample_indices, bank.sample_indices)


def test_bank_block_size_invariance(monkeypatch):
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 0.7)
    sched = StepSchedule(0.5, 0.5)
    kwargs = dict(x0=np.ones(2), horizon=0.5, substeps_per_block=4,
                  n_replicates=300, master_seed=11)
    banks = []
    for block in (sgd.REPLICATE_BLOCK, 7):
        monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
        banks.append(run_sde_em_replicates(obj, oracle, sched, **kwargs))
    np.testing.assert_array_equal(banks[0].values, banks[1].values)
    np.testing.assert_array_equal(banks[0].dist2_to_min, banks[1].dist2_to_min)
    np.testing.assert_array_equal(banks[0].grad_sq, banks[1].grad_sq)


def test_bank_worker_count_invariance(monkeypatch):
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 0.7)
    sched = StepSchedule(0.5, 0.5)
    kwargs = dict(x0=np.ones(2), horizon=0.5, substeps_per_block=4,
                  n_replicates=300, master_seed=11)
    banks = []
    for workers in (1, 2, 3):
        for block in (sgd.REPLICATE_BLOCK, 7):
            monkeypatch.setattr(sgd, "WORKERS", workers)
            monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
            banks.append(run_sde_em_replicates(obj, oracle, sched, **kwargs))
    for bank in banks[1:]:
        for name in ("values", "dist2_to_min", "grad_sq", "replicate_ids"):
            np.testing.assert_array_equal(getattr(bank, name), getattr(banks[0], name))
        assert bank.aborts == banks[0].aborts == []


def test_bank_validation():
    obj = make_quadratic(dim=1)
    none = gaussian_oracle(obj, 0.0)
    with pytest.raises(ValueError, match="alpha < 1"):
        run_sde_em_replicates(obj, none, StepSchedule(1.0, 1.0), np.ones(1),
                              1.0, 4, n_replicates=2, master_seed=0)
    with pytest.raises(ValueError, match="n_replicates"):
        run_sde_em_replicates(obj, none, StepSchedule(0.5, 0.5), np.ones(1),
                              1.0, 4, n_replicates=0, master_seed=0)


# ---------------------------------------------------------------- bias probe

def test_em_bias_probe_shrinks_with_substeps():
    """The probe is the strong self-difference between one step size and its
    half, so quadrupling the substep count should cut it by about four."""
    obj = make_quadratic(dim=3, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    x0 = np.full(3, 2.0)
    probes = {}
    for k in (32, 128):
        path = sample_brownian_path(1.0, sched.gamma_alpha / k, 3,
                                    derive_stream(7, 0, "brownian"))
        probes[k] = em_bias_probe(obj, oracle, sched, x0, 1.0, k, path,
                                  derive_stream(7, 0, "data"))
    assert probes[32] < 0.05
    assert probes[128] < probes[32] / 2.0


def test_em_bias_probe_horizon_off_the_substep_grid():
    """A horizon a third of a substep past the grid: the coarse path has 65
    increments, and both runs stop at 65 h, where a path sampled over
    exactly 65 h gives the same probe."""
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    h = sched.gamma_alpha / 16
    probes = []
    for horizon in (64.32 * h, 65 * h):
        path = sample_brownian_path(horizon, h, 1, derive_stream(4, 0, "brownian"))
        assert path.count == 65
        probes.append(em_bias_probe(obj, oracle, sched, np.ones(1), horizon, 16, path,
                                    derive_stream(4, 1, "brownian")))
    assert np.isfinite(probes[0])
    assert probes[0] == probes[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed,diverges", [(0, None), (1, "coarse"), (8, "fine"), (4, "both")])
def test_em_bias_probe_legs_do_not_depend_on_workers(monkeypatch, seed, diverges):
    """Noise that grows like Y^2 throws some paths past the divergence norm:
    at these seeds neither leg, the coarse leg (K = 1, run in this
    process), the fine leg (2K, run in a forked child) or both diverge.
    One worker and two give the probe of the two legs run one after the
    other, or the DivergenceError (replicate, step, detail) of the first
    leg that diverged, and leave no child behind."""
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, lambda x: 2.0 * x * x, eta=1.0)
    sched = StepSchedule(1.0, 0.5)
    horizon = 20.0
    path = _bm(horizon, sched.gamma_alpha, 1, seed=seed)
    legs = []
    for k, leg_path in ((1, path), (2, path.refine(derive_stream(seed, 1, "brownian")))):
        try:
            legs.append(run_sde_em(obj, oracle, sched, np.ones(1), horizon, k, leg_path,
                                   plan_times=[horizon]).final_states[0])
        except DivergenceError as err:
            legs.append((err.replicate_id, err.step, err.detail))
    failed = [not isinstance(leg, np.ndarray) for leg in legs]
    assert failed == {None: [False, False], "coarse": [True, False],
                      "fine": [False, True], "both": [True, True]}[diverges]
    if diverges is None:
        expected = float(np.linalg.norm(legs[0] - legs[1]))
    else:
        expected = legs[failed.index(True)]
    for workers in (1, 2):
        monkeypatch.setattr(sgd, "WORKERS", workers)
        try:
            got = em_bias_probe(obj, oracle, sched, np.ones(1), horizon, 1, path,
                                derive_stream(seed, 1, "brownian"))
        except DivergenceError as err:
            got = err.replicate_id, err.step, err.detail
        assert got == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
