import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import sde, sgd
from sgdlab.core import StepSchedule, derive_stream
from sgdlab.coupling import run_coupled_replicates
from sgdlab.noise import gaussian_oracle
from sgdlab.objectives import make_quadratic
from sgdlab.sde import _brownian_draw, em_bias_probe, path_length

from helpers import _euler


def _continuous(obj, oracle, sched, x0, horizon, k, n_replicates=1, seed=3):
    """The continuous leg of a coupled bank: the package's diffusion bank."""
    return run_coupled_replicates(obj, oracle, sched, x0, horizon, k, n_replicates, seed).continuous


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


# ---------------------------------------------------------------- the coupled bank's continuous leg

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
        traj = _continuous(obj, gaussian_oracle(obj, 0.0), sched, x0, horizon, k)
        errs[k] = np.linalg.norm(traj.final_states[0] - exact)
    assert errs[256] / np.linalg.norm(exact) < 5e-3
    assert errs[256] / errs[512] == pytest.approx(2.0, rel=0.1)


def test_default_plan_ends_at_horizon():
    obj = make_quadratic(dim=1)
    sched = StepSchedule(0.5, 0.5)
    traj = _continuous(obj, gaussian_oracle(obj, 0.0), sched, np.array([1.0]), 2.0, 16)
    assert traj.sample_indices[-1] == pytest.approx(2.0, rel=1e-9)
    assert np.all(np.diff(traj.sample_indices) > 0)


# ---------------------------------------------------------------- banks

@pytest.mark.parametrize("chunk", [256, 7, 1024])
@pytest.mark.parametrize("k", [1, 3, 32])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_buffered_draw_equals_the_stacked_draw(monkeypatch, chunk, k, d):
    """Each chunk's draw into the block's buffer, and the block sums of k
    increments taken from it with one reshape, equal bit for bit the
    stacked per-replicate draw and its per-block sums.  The buffer is
    sized from sgd.CHUNK at the call (1024 needs more than the default)."""
    monkeypatch.setattr(sgd, "CHUNK", chunk)
    gens = lambda: [derive_stream(3, i, "brownian").generator() for i in range(5)]
    scale = np.sqrt(0.01)
    draw, ref = _brownian_draw(gens(), d, k, scale), gens()
    steps = max(1, chunk // k)
    for start, m in ((0, steps), (steps, steps), (2 * steps, 1)):
        db = draw(start, m)
        stacked = scale * np.stack([g.standard_normal((m * k, d)) for g in ref])
        assert db.shape == stacked.shape and db.tobytes() == stacked.tobytes()
        sums = db.reshape(5, m, k, d).sum(axis=2)
        for b in range(m):
            assert sums[:, b].tobytes() == stacked[:, b * k : (b + 1) * k].sum(axis=1).tobytes()
        steps_major = db.transpose(1, 0, 2).copy()
        for j in range(m * k):
            assert steps_major[j].tobytes() == stacked[:, j].tobytes()



def test_increment_scale():
    """A draw of scale sqrt(h) gives increments of variance h."""
    h = 2.0**-8
    draw = _brownian_draw([derive_stream(3, 0, "brownian").generator()], 1, 1, np.sqrt(h))
    increments = np.concatenate([draw(start, sgd.CHUNK)[0, :, 0].copy()
                                 for start in range(0, 2**14, sgd.CHUNK)])
    assert increments.var() == pytest.approx(h, rel=0.05)


@pytest.mark.parametrize("x0,horizon,k,match", [
    (np.ones(2), 0.0, 4, "horizon must be > 0"),
    (np.ones(2), -1.0, 4, "horizon must be > 0"),
    (np.ones(2), 1.0, 0, "substeps_per_block must be >= 1"),
    (np.ones(2), 1.0, -2, "substeps_per_block must be >= 1"),
    (np.ones(3), 1.0, 4, "dim 2"),
    (np.ones((1, 2)), 1.0, 4, "dim 2"),
])
def test_bank_and_probe_reject_a_bad_grid(x0, horizon, k, match):
    """An empty or negative horizon, a substep count below one or an x0 of
    the wrong shape is named before any substep is drawn, by a coupled bank
    and by the bias probe alike."""
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    with pytest.raises(ValueError, match=match):
        run_coupled_replicates(obj, oracle, sched, x0, horizon, k, 2, 0)
    with pytest.raises(ValueError, match=match):
        em_bias_probe(obj, oracle, sched, x0, horizon, k, 0)


def test_bank_matches_solo_runs():
    """Replicate r of the continuous leg of a coupled bank equals, bit for
    bit, a plain one-row loop over the increments of replicate r's brownian
    stream drawn in one shot."""
    obj = make_quadratic(dim=3, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    k, seed = 8, 99
    h = sched.gamma_alpha / k
    n = path_length(1.0, h)
    x0 = np.full(3, 2.0)
    bank = _continuous(obj, oracle, sched, x0, 1.0, k, 5, seed)
    assert bank.replicate_ids.tolist() == list(range(5))
    for rid in range(5):
        gen = derive_stream(seed, rid, "brownian").generator()
        solo = _euler(obj, oracle, sched, x0, h, np.sqrt(h) * gen.standard_normal((n, 3)))
        np.testing.assert_array_equal(solo, bank.final_states[rid])



def test_bank_worker_count_invariance(monkeypatch):
    """The continuous leg of a coupled bank is the same bytes for one, two
    and three workers and for every block size: rows, ids and aborts."""
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 0.7)
    sched = StepSchedule(0.5, 0.5)
    banks = []
    for workers in (1, 2, 3):
        for block in (sgd.REPLICATE_BLOCK, 7):
            monkeypatch.setattr(sgd, "WORKERS", workers)
            monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
            banks.append(run_coupled_replicates(obj, oracle, sched, np.ones(2), 0.5, 4, 300, 11))
    for bank in banks[1:]:
        for name in ("values", "dist2_to_min", "grad_sq", "replicate_ids", "final_states"):
            np.testing.assert_array_equal(getattr(bank.continuous, name),
                                          getattr(banks[0].continuous, name))
        assert bank.aborts == banks[0].aborts == []


def test_bank_validation():
    """alpha >= 1 has no continuous process: the bank and the probe name it."""
    obj = make_quadratic(dim=1)
    none = gaussian_oracle(obj, 0.0)
    sched = StepSchedule(1.0, 1.0)
    with pytest.raises(ValueError, match="alpha < 1"):
        run_coupled_replicates(obj, none, sched, np.ones(1), 1.0, 4, 2, 0)
    with pytest.raises(ValueError, match="alpha < 1"):
        em_bias_probe(obj, none, sched, np.ones(1), 1.0, 4, 0)


# ---------------------------------------------------------------- bias probe

def _reference_legs(obj, oracle, sched, x0, horizon, k, seed):
    """The probe's two legs the plain way: the coarse increments of
    replicate 0's brownian stream and the bridge normals of replicate 1's,
    each drawn in one shot, the bridge built here, and each leg run by
    _euler."""
    h = sched.gamma_alpha / k
    n = path_length(horizon, h)
    normals = lambda rep: derive_stream(seed, rep, "brownian").generator().standard_normal((n, obj.dim))
    inc = np.sqrt(h) * normals(0)
    first = 0.5 * inc + np.sqrt(h) / 2.0 * normals(1)
    fine = np.empty((2 * n, obj.dim))
    fine[0::2], fine[1::2] = first, inc - first
    return [_euler(obj, oracle, sched, x0, h, inc),
            _euler(obj, oracle, sched, x0, sched.gamma_alpha / (2 * k), fine)]


@pytest.mark.parametrize("dim,lam,gamma,alpha,horizon,k,seed", [
    (1, 1.0, 0.5, 0.5, 40.0, 1, 3),
    (1, 1.0, 0.5, 0.5, 20.0, 3, 3),
    (3, 2.0, 0.3, 0.3, 13.7, 3, 7),  # 13.7 is off the substep grid
    (2, 1.0, 0.5, 0.7, 60.0, 1, 11),
])
def test_em_bias_probe_equals_the_one_shot_bridge(dim, lam, gamma, alpha, horizon, k, seed):
    """The probe streams both legs chunk by chunk (more than one chunk of
    substeps here); it equals, bit for bit, the probe of a path drawn in
    one shot, bridged in one shot and integrated by a plain loop."""
    obj = make_quadratic(dim=dim, lam=lam)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(gamma, alpha)
    assert 2 * path_length(horizon, sched.gamma_alpha / k) > sgd.CHUNK
    coarse, fine = _reference_legs(obj, oracle, sched, 1.0, horizon, k, seed)
    expected = float(np.linalg.norm(coarse - fine))
    assert em_bias_probe(obj, oracle, sched, 1.0, horizon, k, seed) == expected


@pytest.mark.parametrize("horizon,coarse_substeps,bank_substeps", [(1.0, 64, 64), (1.005, 65, 80)])
def test_coarse_leg_is_the_banks_replicate_0_on_the_block_grid(horizon, coarse_substeps, bank_substeps):
    """The coarse leg is replicate 0 of the coupled bank's continuous leg,
    bit for bit, when the horizon is a whole number of blocks (1.0 is four
    blocks of 16 substeps).  Off the block grid it is not: at 1.005 the
    coarse leg stops after 65 substeps and the bank after 5 blocks, 80.  A
    probe that reused the bank's replicate 0 would have to check this."""
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    assert path_length(horizon, sched.gamma_alpha / 16) == coarse_substeps
    assert 16 * path_length(horizon, sched.gamma_alpha) == bank_substeps
    coarse = _reference_legs(obj, oracle, sched, np.ones(2), horizon, 16, 3)[0]
    bank = _continuous(obj, oracle, sched, np.ones(2), horizon, 16, 2, 3)
    assert np.array_equal(coarse, bank.final_states[0]) == (coarse_substeps == bank_substeps)


def test_em_bias_probe_bridge_statistics(monkeypatch):
    """The increments each leg's substep is handed, keyed by its width:
    each fine pair sums back to the coarse leg's increment to machine
    precision, the coarse increments have variance h and the fine ones h/2,
    and the two halves of a coarse step are uncorrelated."""
    calls = {}
    em_substep = sde._em_substep

    def spy(obj, oracle, sched, h):
        rates, substep = em_substep(obj, oracle, sched, h)
        seen = calls.setdefault(h, [])

        def kept(y, rate, db):
            seen.append(float(db[0, 0]))
            return substep(y, rate, db)
        return rates, kept

    monkeypatch.setattr(sde, "_em_substep", spy)
    obj = make_quadratic(dim=1)
    sched = StepSchedule(0.5, 0.5)
    h = sched.gamma_alpha / 512
    em_bias_probe(obj, gaussian_oracle(obj, 1.0), sched, np.ones(1), 16.0, 512, 4)
    coarse, fine = (np.array(calls[width]) for width in (h, sched.gamma_alpha / 1024))
    assert len(coarse) == 2**15 and len(fine) == 2**16
    pair = fine[0::2] + fine[1::2]
    assert np.abs(pair - coarse).max() <= 1e-14 * np.abs(coarse).max()
    assert coarse.var() == pytest.approx(h, rel=0.05)
    assert fine.var() == pytest.approx(h / 2.0, rel=0.05)
    assert abs(np.corrcoef(fine[0::2], fine[1::2])[0, 1]) < 0.05


def test_em_bias_probe_holds_no_path():
    """The legs read their increments chunk by chunk: at dim 32 over 4096
    coarse substeps (a path of 1 MiB, refined into 2 MiB) the probe's
    allocations peak under 1 MiB.  The first call warms up imports and
    caches; the second is measured."""
    obj = make_quadratic(dim=32)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    assert path_length(64.0, sched.gamma_alpha / 16) == 4096
    probe = lambda: em_bias_probe(obj, oracle, sched, 1.0, 64.0, 16, 5)
    first = probe()
    tracemalloc.start()
    try:
        assert probe() == first
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_em_bias_probe_holds_no_rate_table():
    """Each chunk's rates are computed for that chunk: at dim 1 over 65 536
    coarse substeps (a rate table of 0.5 MiB, 1 MiB for the fine leg) the
    probe's allocations peak under 0.1 MiB.  A short probe warms up imports
    and caches first."""
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    assert path_length(1024.0, sched.gamma_alpha / 16) == 2**16
    probe = lambda horizon: em_bias_probe(obj, oracle, sched, 1.0, horizon, 16, 5)
    probe(1.0)
    tracemalloc.start()
    try:
        assert np.isfinite(probe(1024.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


def test_em_bias_probe_shrinks_with_substeps():
    """The probe is the strong self-difference between one step size and its
    half, so quadrupling the substep count should cut it by about four."""
    obj = make_quadratic(dim=3, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    x0 = np.full(3, 2.0)
    probes = {k: em_bias_probe(obj, oracle, sched, x0, 1.0, k, 7) for k in (32, 128)}
    assert probes[32] < 0.05
    assert probes[128] < probes[32] / 2.0


def test_em_bias_probe_horizon_off_the_substep_grid():
    """A horizon a third of a substep past the grid: the coarse leg takes 65
    substeps, and both legs stop at 65 h, where the probe over exactly 65 h
    gives the same value."""
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    h = sched.gamma_alpha / 16
    assert path_length(64.32 * h, h) == 65
    probes = [em_bias_probe(obj, oracle, sched, np.ones(1), horizon, 16, 4)
              for horizon in (64.32 * h, 65 * h)]
    assert np.isfinite(probes[0])
    assert probes[0] == probes[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed,diverges", [(0, None), (1, "coarse"), (8, "fine"), (4, "both")])
def test_em_bias_probe_legs_do_not_depend_on_workers(monkeypatch, seed, diverges):
    """Noise that grows like Y^2 throws some paths past the divergence norm:
    at these seeds neither leg, the coarse leg (K = 1), the fine leg (2K)
    or both diverge.  One worker and two give the probe of the two
    reference legs, or the DivergenceError (replicate, step, detail) of the
    first leg that diverged, and leave no child behind."""
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, lambda x: 2.0 * x * x, eta=1.0)
    sched = StepSchedule(1.0, 0.5)
    horizon = 20.0
    legs = _reference_legs(obj, oracle, sched, np.ones(1), horizon, 1, seed)
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
            got = em_bias_probe(obj, oracle, sched, np.ones(1), horizon, 1, seed)
        except sgd.DivergenceError as err:
            got = err.replicate_id, err.step, err.detail
        assert got == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_sde_divergence_reports_location():
    """A stiff drift with a coarse substep overshoots immediately."""
    obj = make_quadratic(dim=1, lam=1e6)
    sched = StepSchedule(0.5, 0.5)
    with pytest.raises(sgd.DivergenceError) as info:
        em_bias_probe(obj, gaussian_oracle(obj, 0.0), sched, np.array([1.0]), 2.0, 1, 0)
    assert info.value.step >= 1
    assert "|Y|" in str(info.value) or "non-finite" in str(info.value)
