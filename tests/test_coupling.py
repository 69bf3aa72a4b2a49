import numpy as np
import pytest
from scipy.special import ndtr

from sgdlab import coupling, sgd
from sgdlab.core import StepSchedule, derive_stream
from sgdlab.coupling import (
    COMONOTONE_1D,
    GAUSSIAN_SHARED,
    INDEPENDENT,
    U_FLOOR,
    CoupledRun,
    epsilon_hat,
    resolve_kind,
    run_coupled,
    run_coupled_replicates,
    strong_error,
    w2_1d,
    weak_error,
)
from sgdlab.noise import gaussian_oracle, heavy_oracle, probe_batch_oracle
from sgdlab.objectives import make_linear_probe, make_quadratic
from sgdlab.sde import run_sde_em, sample_brownian_path
from sgdlab.sgd import DivergenceError, run_sgd, run_sgd_replicates

SCHED = StepSchedule(0.5, 0.5)  # gamma_alpha = 0.25
GA = SCHED.gamma_alpha


def _horizon(n_blocks):
    return n_blocks * GA


# ---------------------------------------------------------------- kind resolution

def test_resolve_kind_defaults():
    quad2 = make_quadratic(dim=2)
    quad1 = make_quadratic(dim=1)
    assert resolve_kind(quad2, gaussian_oracle(quad2, 1.0), None) == GAUSSIAN_SHARED
    assert resolve_kind(quad1, heavy_oracle(quad1, 1.0, "laplace"), None) == COMONOTONE_1D
    assert resolve_kind(quad2, heavy_oracle(quad2, 1.0, "laplace"), None) == INDEPENDENT


def test_resolve_kind_validation():
    quad2 = make_quadratic(dim=2)
    quad1 = make_quadratic(dim=1)
    laplace2 = heavy_oracle(quad2, 1.0, "laplace")
    with pytest.raises(ValueError, match="must be one of"):
        resolve_kind(quad2, laplace2, "synchronized")
    with pytest.raises(ValueError, match="gaussian noise"):
        resolve_kind(quad2, laplace2, GAUSSIAN_SHARED)
    with pytest.raises(ValueError, match="one-dimensional"):
        resolve_kind(quad2, laplace2, COMONOTONE_1D)
    with pytest.raises(ValueError, match="quantile"):
        resolve_kind(quad1, probe_batch_oracle(quad1, 2), COMONOTONE_1D)
    # independent is always allowed
    assert resolve_kind(quad1, heavy_oracle(quad1, 1.0, "laplace"), INDEPENDENT) == INDEPENDENT


# ---------------------------------------------------------------- coupling mechanics

def test_shared_coupling_rescales_block_increments():
    """On the flat objective the discrete chain is exactly the running sum
    of -step_k * sigma * (block increment / sqrt(gamma_alpha)), which pins
    the normalization that makes the block sums standard normals."""
    n_blocks = 20
    obj = make_linear_probe(dim=2)
    oracle = gaussian_oracle(obj, 0.8)
    run = run_coupled(obj, oracle, SCHED, np.zeros(2), _horizon(n_blocks), 16,
                      stream=derive_stream(5, 3, "noise"),
                      plan=np.arange(1, n_blocks + 1), record_states=True)
    assert run.coupling_kind == GAUSSIAN_SHARED
    path = sample_brownian_path(_horizon(n_blocks), GA / 16, 2,
                                derive_stream(5, 3, "brownian"))
    g_blocks = path.block_sums(16) / np.sqrt(GA)
    steps = SCHED.step_size(np.arange(n_blocks))
    manual = -np.cumsum(steps[:, None] * (0.8 * g_blocks), axis=0)
    np.testing.assert_array_equal(run.discrete.states, manual)


def test_coupled_continuous_leg_matches_plain_integrator():
    """The diffusion inside the coupled runner must be the same process as
    run_sde_em driven by the path from the same brownian stream."""
    n_blocks = 20
    obj = make_quadratic(dim=2, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    run = run_coupled(obj, oracle, SCHED, np.ones(2), _horizon(n_blocks), 16,
                      stream=derive_stream(5, 0, "noise"), record_states=True)
    path = sample_brownian_path(_horizon(n_blocks), GA / 16, 2,
                                derive_stream(5, 0, "brownian"))
    solo = run_sde_em(obj, oracle, SCHED, np.ones(2), _horizon(n_blocks), 16, path,
                      plan_times=run.continuous.sample_indices, record_states=True)
    np.testing.assert_array_equal(run.continuous.states, solo.states)
    np.testing.assert_array_equal(run.continuous.values, solo.values)


def test_comonotone_gaussian_degenerates_to_shared():
    """For gaussian noise the quantile map is the identity coupling, so the
    comonotone runner must short-circuit to the shared path bitwise while
    keeping the requested label."""
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    kw = dict(x0=np.ones(1), horizon=_horizon(20), substeps_per_block=16,
              record_states=True)
    a = run_coupled(obj, oracle, SCHED, stream=derive_stream(9, 0, "noise"),
                    kind=COMONOTONE_1D, **kw)
    b = run_coupled(obj, oracle, SCHED, stream=derive_stream(9, 0, "noise"),
                    kind=GAUSSIAN_SHARED, **kw)
    np.testing.assert_array_equal(a.discrete.states, b.discrete.states)
    assert a.coupling_kind == COMONOTONE_1D


def test_comonotone_first_step_is_quantile_of_gaussian_cdf():
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = heavy_oracle(obj, 1.0, "laplace")
    run = run_coupled(obj, oracle, SCHED, np.full(1, 2.0), _horizon(20), 16,
                      stream=derive_stream(9, 1, "noise"), plan=[1],
                      record_states=True)
    path = sample_brownian_path(_horizon(20), GA / 16, 1, derive_stream(9, 1, "brownian"))
    g0 = path.block_sums(16)[0] / np.sqrt(GA)
    u = np.clip(ndtr(g0), U_FLOOR, 1.0 - 1e-16)
    step0 = SCHED.step_size(np.arange(1))[0]
    x1 = 2.0 - step0 * (obj.gradient(np.full((1, 1), 2.0)) + oracle.noise_ppf(u))
    np.testing.assert_array_equal(run.discrete.states[0], x1[0])


def test_student_quantile_at_the_floor_is_finite_and_negative():
    """scipy's Student quantile is +inf at u = 1e-300 for df 4.5 to 6; at
    U_FLOOR it is finite, negative and below the quantile one decade up,
    for df from just above 4 (the least heavy_oracle takes) to 1e6."""
    obj = make_quadratic(dim=1)
    for df in (4.000001, 4.5, 5.0, 6.0, 10.0, 30.0, 1e3, 1e6):
        ppf = heavy_oracle(obj, 1.0, "student", df=df).noise_ppf
        floor, above = ppf(np.array([U_FLOOR, 10.0 * U_FLOOR]))
        assert np.isfinite(floor) and floor < above < 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_comonotone_student_step_at_the_floor(monkeypatch):
    """A block increment so low that Phi(G) is below U_FLOOR (forced here by
    a zero CDF) gives the discrete chain a finite, negative noise value; at
    u = 1e-300 it was +inf.  The tiny scale keeps the step inside the
    divergence norm, so no replicate aborts."""
    monkeypatch.setattr(coupling, "ndtr", np.zeros_like)
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = heavy_oracle(obj, 1e-40, "student", df=4.5)
    bank = run_coupled_replicates(obj, oracle, SCHED, np.zeros(1), _horizon(1), 4, 3, 9,
                                  kind=COMONOTONE_1D, plan=[1], record_states=True)
    assert bank.aborts == []
    x1 = -SCHED.step_size(np.arange(1))[0] * oracle.noise_ppf(np.array([U_FLOOR]))
    np.testing.assert_array_equal(bank.discrete.states[:, 0, 0], np.full(3, x1[0]))
    assert 0.0 < x1[0] < np.inf


def test_independent_discrete_leg_is_plain_sgd():
    """With the independent kind the discrete chain draws from the same
    noise stream as run_sgd, so the two must agree bitwise."""
    n_blocks = 20
    obj = make_quadratic(dim=2, lam=1.0)
    oracle = heavy_oracle(obj, 0.5, "laplace")
    plan = np.arange(1, n_blocks + 1)
    run = run_coupled(obj, oracle, SCHED, np.ones(2), _horizon(n_blocks), 16,
                      stream=derive_stream(4, 2, "noise"), plan=plan,
                      record_states=True)
    assert run.coupling_kind == INDEPENDENT
    sgd = run_sgd(obj, oracle, SCHED, np.ones(2), n_blocks, plan=plan,
                  stream=derive_stream(4, 2, "noise"), record_states=True)
    np.testing.assert_array_equal(run.discrete.states, sgd.states)


def test_run_coupled_validation():
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    with pytest.raises(ValueError, match="alpha < 1"):
        run_coupled(obj, oracle, StepSchedule(1.0, 1.0), np.ones(1), 1.0,
                    stream=derive_stream(0, 0, "noise"))
    with pytest.raises(ValueError, match="RngStream"):
        run_coupled(obj, oracle, SCHED, np.ones(1), 1.0)
    with pytest.raises(ValueError, match="block indices"):
        run_coupled(obj, oracle, SCHED, np.ones(1), _horizon(4), 8,
                    stream=derive_stream(0, 0, "noise"), plan=[0, 2])


# ---------------------------------------------------------------- banks

def test_coupled_bank_matches_solo_runs():
    obj = make_quadratic(dim=2, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    bank = run_coupled_replicates(obj, oracle, SCHED, np.ones(2), _horizon(20), 16,
                                  3, 77, record_states=True)
    assert bank.coupling_kind == GAUSSIAN_SHARED
    for i in range(3):
        solo = run_coupled(obj, oracle, SCHED, np.ones(2), _horizon(20), 16,
                           stream=derive_stream(77, i, "noise"), record_states=True)
        np.testing.assert_array_equal(solo.dist2, bank.coupled_dist2[i])
        np.testing.assert_array_equal(solo.discrete.values, bank.discrete.values[i])
        np.testing.assert_array_equal(solo.continuous.values, bank.continuous.values[i])
        np.testing.assert_array_equal(solo.discrete.states[-1], bank.final_discrete_states[i])
        np.testing.assert_array_equal(solo.continuous.states[-1], bank.final_continuous_states[i])


def test_coupled_bank_block_size_invariance(monkeypatch):
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    kw = dict(x0=np.ones(1), horizon=_horizon(8), substeps_per_block=4,
              n_replicates=300, master_seed=13)
    banks = []
    for block in (sgd.REPLICATE_BLOCK, 7):
        monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
        banks.append(run_coupled_replicates(obj, oracle, SCHED, **kw))
    np.testing.assert_array_equal(banks[0].coupled_dist2, banks[1].coupled_dist2)
    np.testing.assert_array_equal(banks[0].discrete.values, banks[1].discrete.values)
    np.testing.assert_array_equal(banks[0].continuous.values, banks[1].continuous.values)


@pytest.mark.parametrize("gaussian", [True, False])
def test_coupled_bank_chunk_size_invariance(monkeypatch, gaussian):
    """Chunks of CHUNK // substeps blocks: 7 // 4 = 1 block per draw gives
    the same bank as the default, for the shared and the independent
    coupling."""
    obj = make_quadratic(dim=2, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0) if gaussian else heavy_oracle(obj, 1.0, "student", df=6.0)
    kw = dict(x0=np.ones(2), horizon=_horizon(30), substeps_per_block=4,
              n_replicates=5, master_seed=13, record_states=True)
    banks = []
    for chunk in (sgd.CHUNK, 7):
        monkeypatch.setattr(sgd, "CHUNK", chunk)
        banks.append(run_coupled_replicates(obj, oracle, SCHED, **kw))
    assert banks[1].coupling_kind == (GAUSSIAN_SHARED if gaussian else INDEPENDENT)
    np.testing.assert_array_equal(banks[0].coupled_dist2, banks[1].coupled_dist2)
    np.testing.assert_array_equal(banks[0].discrete.states, banks[1].discrete.states)
    np.testing.assert_array_equal(banks[0].continuous.states, banks[1].continuous.states)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coupled_bank_drops_only_diverging_replicates():
    """Noise proportional to the state makes some replicates blow up, in
    one leg or the other.  Each aborts alone with the error its solo run
    raises, and every other replicate matches its solo run bitwise."""
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = gaussian_oracle(obj, lambda x: 5.0 * np.abs(x), eta=1.0)
    sched = StepSchedule(1.0, 0.1)
    horizon = 40 * sched.gamma_alpha
    bank = run_coupled_replicates(obj, oracle, sched, np.ones(1), horizon, 4, 16, 5,
                                  record_states=True)
    solo_errors, survivors = [], []
    for i in range(16):
        try:
            solo = run_coupled(obj, oracle, sched, np.ones(1), horizon, 4,
                               stream=derive_stream(5, i, "noise"), record_states=True)
        except DivergenceError as err:
            solo_errors.append(str(err))
            continue
        row = len(survivors)
        survivors.append(i)
        np.testing.assert_array_equal(solo.dist2, bank.coupled_dist2[row])
        np.testing.assert_array_equal(solo.discrete.values, bank.discrete.values[row])
        np.testing.assert_array_equal(solo.continuous.grad_sq, bank.continuous.grad_sq[row])
        np.testing.assert_array_equal(solo.discrete.states[-1], bank.final_discrete_states[row])
        np.testing.assert_array_equal(solo.continuous.states[-1], bank.final_continuous_states[row])
    assert 0 < len(solo_errors) < 16
    assert [str(err) for err in bank.aborts] == solo_errors
    assert any("continuous state" in e for e in solo_errors)
    assert any("discrete state" in e for e in solo_errors)
    assert bank.discrete.replicate_ids.tolist() == survivors
    assert bank.continuous.replicate_ids.tolist() == survivors
    assert [run.replicate_id for run in bank.runs()] == survivors


def test_bank_run_roundtrip():
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    bank = run_coupled_replicates(obj, oracle, SCHED, np.ones(1), _horizon(8), 4, 3, 21)
    runs = bank.runs()
    assert len(runs) == 3
    assert all(isinstance(r, CoupledRun) for r in runs)
    assert runs[1].replicate_id == 1
    np.testing.assert_array_equal(runs[2].dist2, bank.coupled_dist2[2])
    np.testing.assert_array_equal(runs[0].discrete.sample_indices, bank.block_indices)
    np.testing.assert_array_equal(runs[0].continuous.sample_indices, bank.times)


def test_bank_validation():
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    with pytest.raises(ValueError, match="alpha < 1"):
        run_coupled_replicates(obj, oracle, StepSchedule(1.0, 1.0), np.ones(1),
                               1.0, 4, 2, 0)
    with pytest.raises(ValueError, match="n_replicates"):
        run_coupled_replicates(obj, oracle, SCHED, np.ones(1), 1.0, 4, 0, 0)


# ---------------------------------------------------------------- error estimators

@pytest.fixture(scope="module")
def small_bank():
    obj = make_quadratic(dim=2, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    return run_coupled_replicates(obj, oracle, SCHED, np.ones(2), _horizon(16), 8,
                                  20, 55, record_states=True)


def test_strong_error_is_root_mean_square(small_bank):
    est = strong_error(small_bank)
    d2 = small_bank.coupled_dist2[:, -1]
    assert est.value == pytest.approx(np.sqrt(d2.mean()), rel=1e-12)
    assert est.n == 20
    assert est.ci_halfwidth > 0


def test_strong_error_checkpoint_selection(small_bank):
    first = int(small_bank.block_indices[0])
    est = strong_error(small_bank, checkpoint=first)
    assert est.value == pytest.approx(
        np.sqrt(small_bank.coupled_dist2[:, 0].mean()), rel=1e-12)
    with pytest.raises(ValueError, match="not recorded"):
        strong_error(small_bank, checkpoint=10**9)


def test_strong_error_needs_replicates():
    obj = make_quadratic(dim=2, lam=1.0)
    one = run_coupled_replicates(obj, gaussian_oracle(obj, 1.0), SCHED, np.ones(2),
                                 _horizon(4), 8, 1, 55)
    with pytest.raises(ValueError, match="at least 2"):
        strong_error(one)


def test_weak_error_paired_matches_manual(small_bank):
    g = lambda s: np.sum(s * s, axis=-1)
    est = weak_error(None, small_bank, g)
    diffs = g(small_bank.final_continuous_states) - g(small_bank.final_discrete_states)
    assert est.value == pytest.approx(abs(diffs.mean()), rel=1e-12)
    assert est.n == 20


def test_weak_error_unpaired_differences_means():
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    n_blocks = 8
    disc = run_sgd_replicates(obj, oracle, SCHED, np.ones(1), n_blocks, 6, 2,
                              plan=[n_blocks], record_states=True)
    cont = run_coupled_replicates(obj, oracle, SCHED, np.ones(1), _horizon(n_blocks), 8,
                                  5, 3, record_states=True).continuous
    g = lambda s: np.sum(s * s, axis=-1)
    est = weak_error(disc, cont, g)
    gx = g(disc.states[:, -1])
    gy = g(cont.states[:, -1])
    assert est.value == pytest.approx(abs(gy.mean() - gx.mean()), rel=1e-12)
    assert est.n == 5


def test_weak_error_requires_states_and_replicates():
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    bare = run_sgd_replicates(obj, oracle, SCHED, np.ones(1), 8, 3, 2)
    g = lambda s: np.sum(s * s, axis=-1)
    with pytest.raises(ValueError, match="record_states"):
        weak_error(bare, bare, g)
    one = run_coupled_replicates(obj, oracle, SCHED, np.ones(1), _horizon(4), 8, 1, 2)
    with pytest.raises(ValueError, match="at least 2"):
        weak_error(None, one, g)


# ---------------------------------------------------------------- distribution gaps

def test_w2_identical_and_shifted():
    rng = np.random.default_rng(0)
    a = rng.normal(size=500)
    assert w2_1d(a, a) == 0.0
    assert w2_1d(a, a + 0.75) == pytest.approx(0.75, rel=1e-12)
    assert w2_1d(a, rng.permutation(a)) == 0.0


def test_w2_small_case_by_hand():
    # sorted gaps are 0.5 and 1.0
    assert w2_1d([1.0, 0.0], [2.0, 0.5]) == pytest.approx(np.sqrt(0.625), rel=1e-12)


def test_w2_validation():
    with pytest.raises(ValueError, match="differ"):
        w2_1d([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="at least one"):
        w2_1d([], [])


def test_epsilon_hat_separates_laws():
    """The gaussian oracle's surrogate is its own law, so the gap is pure
    sampling noise; a laplace oracle sits a visible distance away."""
    quad2 = make_quadratic(dim=2)
    quad1 = make_quadratic(dim=1)
    eps_g = epsilon_hat(gaussian_oracle(quad2, 1.0), np.zeros(2), 4096,
                        derive_stream(1, 0, "data"))
    eps_l = epsilon_hat(heavy_oracle(quad1, 1.0, "laplace"), np.zeros(1), 4096,
                        derive_stream(1, 1, "data"))
    assert eps_g < 0.1
    assert 0.1 < eps_l < 0.3


def test_epsilon_hat_deterministic():
    obj = make_quadratic(dim=1)
    oracle = heavy_oracle(obj, 1.0, "laplace")
    a = epsilon_hat(oracle, np.zeros(1), 2048, derive_stream(8, 0, "data"))
    b = epsilon_hat(oracle, np.zeros(1), 2048, derive_stream(8, 0, "data"))
    assert a == b
