import os

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
    epsilon_hat,
    resolve_kind,
    run_coupled_replicates,
    strong_error,
    w2_1d,
    weak_error,
)
from sgdlab.noise import gaussian_oracle, heavy_oracle, least_squares_batch_oracle, probe_batch_oracle
from sgdlab.objectives import make_least_squares, make_linear_probe, make_quadratic
from sgdlab.sgd import DivergenceError, run_sgd_sweep

from helpers import _euler, states_at

SCHED = StepSchedule(0.5, 0.5)  # gamma_alpha = 0.25
GA = SCHED.gamma_alpha


def _horizon(n_blocks):
    return n_blocks * GA


def _block_sums(seed, rep, n_blocks, dim):
    """Sums of each block of 16 increments of replicate rep's brownian
    stream: the shared block increments of a run at 16 substeps."""
    gen = derive_stream(seed, rep, "brownian").generator()
    inc = np.sqrt(GA / 16) * gen.standard_normal((16 * n_blocks, dim))
    return inc.reshape(n_blocks, 16, dim).sum(axis=1)


# ---------------------------------------------------------------- kind resolution

def test_resolve_kind_defaults():
    quad2 = make_quadratic(dim=2)
    quad1 = make_quadratic(dim=1)
    assert resolve_kind(quad2, gaussian_oracle(quad2, 1.0)) == GAUSSIAN_SHARED
    # one-dimensional gaussian noise shares too: its quantile map is the identity
    assert resolve_kind(quad1, gaussian_oracle(quad1, 1.0)) == GAUSSIAN_SHARED
    assert resolve_kind(quad1, heavy_oracle(quad1, 1.0, "laplace")) == COMONOTONE_1D
    assert resolve_kind(quad2, heavy_oracle(quad2, 1.0, "laplace")) == INDEPENDENT
    # a batch oracle has no quantile function, even in one dimension
    assert resolve_kind(quad1, probe_batch_oracle(quad1, 2)) == INDEPENDENT


# ---------------------------------------------------------------- coupling mechanics

@pytest.mark.parametrize("dim", [1, 2])
def test_shared_coupling_rescales_block_increments(monkeypatch, dim):
    """On the flat objective the discrete chain is exactly the running sum
    of -step_k * sigma * (block increment / sqrt(gamma_alpha)), which pins
    the normalization that makes the block sums standard normals.  The run
    stopped after k blocks ends there, for every k (shown for replicate
    3).  At dim 1 each block's 16 increments are contiguous and numpy sums
    them pairwise, so this also pins the order of the block sums."""
    n_blocks = 20
    obj = make_linear_probe(dim=dim)
    oracle = gaussian_oracle(obj, 0.8)
    run = lambda k: run_coupled_replicates(obj, oracle, SCHED, np.zeros(dim), _horizon(k), 16, 4, 5)
    monkeypatch.setattr(sgd, "WORKERS", 1)  # many small banks: fork none
    assert run(n_blocks).coupling_kind == GAUSSIAN_SHARED
    states = states_at(lambda k: run(k).discrete.final_states, range(1, n_blocks + 1))
    g_blocks = _block_sums(5, 3, n_blocks, dim) / np.sqrt(GA)
    steps = SCHED.step_size(np.arange(n_blocks))
    manual = -np.cumsum(steps[:, None] * (0.8 * g_blocks), axis=0)
    np.testing.assert_array_equal(states[3], manual)


@pytest.mark.parametrize("setting", ["gaussian", "callable-sigma", "least-squares-batch"])
def test_coupled_continuous_leg_matches_plain_integrator(monkeypatch, setting):
    """The diffusion inside the coupled runner must be the plain
    Euler-Maruyama loop over the same replicate's brownian increments, bit
    for bit, at the end of every block up to the horizon and in the values
    recorded at every checkpoint: for a constant diffusion coefficient, and
    for two that vary with the state (a diagonal scale growing with |y|, and
    the psd_sqrt of a least-squares batch covariance)."""
    n_blocks = 20
    if setting == "least-squares-batch":
        obj = make_least_squares(dim=2, n_data=20, stream=derive_stream(3, 0, "data"))
        oracle = least_squares_batch_oracle(obj, 2)
    else:
        obj = make_quadratic(dim=2, lam=1.0)
        oracle = (gaussian_oracle(obj, 1.0) if setting == "gaussian"
                  else gaussian_oracle(obj, lambda x: 0.5 + np.abs(x), eta=8.0))
    monkeypatch.setattr(sgd, "WORKERS", 1)  # many small banks: fork none
    coupled = lambda k: run_coupled_replicates(obj, oracle, SCHED, np.ones(2), _horizon(k), 16,
                                               3, 5).continuous
    h = GA / 16
    paths = [np.sqrt(h) * derive_stream(5, rep, "brownian").generator().standard_normal(
        (16 * n_blocks, 2)) for rep in range(3)]
    ends = range(1, n_blocks + 1)
    plain = np.stack([[_euler(obj, oracle, SCHED, np.ones(2), h, path[: 16 * k]) for k in ends]
                      for path in paths])
    np.testing.assert_array_equal(states_at(lambda k: coupled(k).final_states, ends), plain)
    run = coupled(n_blocks)
    assert run.replicate_ids.tolist() == [0, 1, 2]
    at = (run.sample_indices / GA).round().astype(int) - 1
    np.testing.assert_array_equal(run.values, obj.value_and_gradient(plain[:, at])[0])


def test_comonotone_first_step_is_quantile_of_gaussian_cdf():
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = heavy_oracle(obj, 1.0, "laplace")
    run = run_coupled_replicates(obj, oracle, SCHED, np.full(1, 2.0), _horizon(1), 16, 2, 9)
    assert run.coupling_kind == COMONOTONE_1D
    g0 = _block_sums(9, 1, 20, 1)[0] / np.sqrt(GA)
    u = np.clip(ndtr(g0), U_FLOOR, 1.0 - 1e-16)
    step0 = SCHED.step_size(np.arange(1))[0]
    x1 = 2.0 - step0 * (obj.gradient(np.full((1, 1), 2.0)) + oracle.noise_ppf(u))
    np.testing.assert_array_equal(run.discrete.final_states[1], x1[0])


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
    bank = run_coupled_replicates(obj, oracle, SCHED, np.zeros(1), _horizon(1), 4, 3, 9)
    assert bank.coupling_kind == COMONOTONE_1D and bank.aborts == []
    x1 = -SCHED.step_size(np.arange(1))[0] * oracle.noise_ppf(np.array([U_FLOOR]))
    np.testing.assert_array_equal(bank.discrete.final_states[:, 0], np.full(3, x1[0]))
    assert 0.0 < x1[0] < np.inf


def test_independent_discrete_leg_is_plain_sgd(monkeypatch):
    """With the independent kind the discrete chain draws from the same
    noise stream as an SGD bank of the same seed, so the two must agree
    bitwise, replicate by replicate, after every block."""
    n_blocks = 20
    obj = make_quadratic(dim=2, lam=1.0)
    oracle = heavy_oracle(obj, 0.5, "laplace")
    ends = range(1, n_blocks + 1)
    run = lambda k: run_coupled_replicates(obj, oracle, SCHED, np.ones(2), _horizon(k), 16, 3, 4)
    assert run(n_blocks).coupling_kind == INDEPENDENT
    monkeypatch.setattr(sgd, "WORKERS", 1)  # many small banks: fork none
    sgd_bank = lambda k: run_sgd_sweep(obj, oracle, [SCHED], np.ones(2), k, 3, 4)[0]
    # the log-spaced checkpoints of 20 blocks are every block
    np.testing.assert_array_equal(run(n_blocks).discrete.sample_indices, list(ends))
    np.testing.assert_array_equal(run(n_blocks).discrete.values, sgd_bank(n_blocks).values)
    np.testing.assert_array_equal(states_at(lambda k: run(k).discrete.final_states, ends),
                                  states_at(lambda k: sgd_bank(k).final_states, ends))


# ---------------------------------------------------------------- banks

def _coupled_bytes(bank):
    """Every field of a coupled bank but beside: arrays as bytes, aborts as
    their (replicate, step, detail)."""
    arrays = [bank.coupled_dist2]
    for leg in (bank.discrete, bank.continuous):
        arrays += [leg.sample_indices, leg.values, leg.dist2_to_min, leg.grad_sq,
                   leg.final_states, leg.replicate_ids]
    aborts = [(e.replicate_id, e.step, e.detail) for e in bank.aborts]
    return [a.tobytes() for a in arrays] + [aborts, bank.coupling_kind]


def test_coupled_bank_block_size_invariance(monkeypatch):
    """A coupled bank is the same bytes for every block size, 1 included,
    where each replicate steps alone.  Its discrete leg
    records at the block indices and its continuous leg at their times."""
    obj = make_quadratic(dim=2, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    kw = dict(x0=np.ones(2), horizon=_horizon(8), substeps_per_block=4,
              n_replicates=300, master_seed=13)
    banks = []
    for block in (sgd.REPLICATE_BLOCK, 7, 1):
        monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
        bank = run_coupled_replicates(obj, oracle, SCHED, **kw)
        banks.append(_coupled_bytes(bank))
    assert bank.coupling_kind == GAUSSIAN_SHARED and bank.aborts == []
    np.testing.assert_array_equal(bank.continuous.sample_indices, bank.discrete.sample_indices * GA)
    assert banks[1] == banks[0] and banks[2] == banks[0]


@pytest.mark.parametrize("gaussian", [True, False])
def test_coupled_bank_chunk_size_invariance(monkeypatch, gaussian):
    """Chunks of CHUNK // substeps blocks: 7 // 4 = 1 block per draw gives
    the same bank as the default, for the shared and the independent
    coupling, and so do the banks stopped at each checkpoint."""
    obj = make_quadratic(dim=2, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0) if gaussian else heavy_oracle(obj, 1.0, "student", df=6.0)
    bank = lambda k: run_coupled_replicates(obj, oracle, SCHED, np.ones(2), _horizon(k), 4, 5, 13)
    monkeypatch.setattr(sgd, "WORKERS", 1)  # many small banks: fork none
    banks, states = [], []
    for chunk in (sgd.CHUNK, 7):
        monkeypatch.setattr(sgd, "CHUNK", chunk)
        banks.append(bank(30))
        ends = banks[-1].discrete.sample_indices
        states.append([states_at(lambda k: getattr(bank(k), leg).final_states, ends)
                       for leg in ("discrete", "continuous")])
    assert banks[1].coupling_kind == (GAUSSIAN_SHARED if gaussian else INDEPENDENT)
    np.testing.assert_array_equal(banks[0].coupled_dist2, banks[1].coupled_dist2)
    np.testing.assert_array_equal(states[0], states[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coupled_bank_drops_only_diverging_replicates(monkeypatch):
    """Noise proportional to the state makes some replicates blow up, in
    one leg or the other.  Each aborts alone, with the error and the step
    it has when every replicate steps alone, and every other replicate's
    rows are bitwise those it has then."""
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = gaussian_oracle(obj, lambda x: 5.0 * np.abs(x), eta=1.0)
    sched = StepSchedule(1.0, 0.1)
    horizon = 40 * sched.gamma_alpha
    run = lambda: run_coupled_replicates(obj, oracle, sched, np.ones(1), horizon, 4, 16, 5)
    bank = run()
    errors = [str(err) for err in bank.aborts]
    assert 0 < len(errors) < 16
    assert any("continuous state" in e for e in errors)
    assert any("discrete state" in e for e in errors)
    survivors = sorted(set(range(16)) - {err.replicate_id for err in bank.aborts})
    assert bank.discrete.replicate_ids.tolist() == survivors
    assert bank.continuous.replicate_ids.tolist() == survivors
    monkeypatch.setattr(sgd, "REPLICATE_BLOCK", 1)  # every row steps alone
    assert _coupled_bytes(bank) == _coupled_bytes(run())


@pytest.mark.parametrize("case", ["gaussian", "diverging"])
def test_coupled_replicate_rows_do_not_depend_on_bank_size(case):
    """A coupled replicate's rows in both legs and its abort are a function
    of the master seed and its id alone: a bank of 16 holds, bit for bit,
    what a bank of 8 holds for replicates 0-7."""
    obj = make_quadratic(dim=1, lam=1.0)
    if case == "gaussian":
        oracle, sched = gaussian_oracle(obj, 1.0), SCHED
    else:
        oracle, sched = gaussian_oracle(obj, lambda x: 5.0 * np.abs(x), eta=1.0), StepSchedule(1.0, 0.1)
    run = lambda reps: run_coupled_replicates(obj, oracle, sched, np.ones(1),
                                              40 * sched.gamma_alpha, 4, reps, 5)
    small, big = run(8), run(16)
    if case == "diverging":
        assert 0 < len(small.aborts) < 8
    first = big.discrete.replicate_ids < 8
    np.testing.assert_array_equal(big.continuous.replicate_ids < 8, first)
    cut = [big.coupled_dist2[first].tobytes()]
    for leg in (big.discrete, big.continuous):
        cut += [leg.sample_indices.tobytes()]
        cut += [a[first].tobytes() for a in (leg.values, leg.dist2_to_min, leg.grad_sq,
                                             leg.final_states, leg.replicate_ids)]
    cut += [[(e.replicate_id, e.step, e.detail) for e in big.aborts if e.replicate_id < 8],
            big.coupling_kind]
    assert cut == _coupled_bytes(small)


def test_tasks_beside_a_bank_return_with_it_and_leave_it_unchanged(monkeypatch):
    """On two workers a bank of 9 is one block, and a task beside it runs
    on the other worker; the tasks' results come back in order in the
    bank's beside list, and the bank's arrays do not change."""
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    monkeypatch.setattr(sgd, "WORKERS", 2)
    run = lambda beside: run_coupled_replicates(
        obj, oracle, SCHED, np.ones(1), _horizon(6), 4, 9, 3, beside=beside)
    plain, bank = run(()), run((os.getpid,))
    assert plain.beside == [] and bank.beside[0] != os.getpid()
    np.testing.assert_array_equal(bank.coupled_dist2, plain.coupled_dist2)
    np.testing.assert_array_equal(bank.continuous.final_states, plain.continuous.final_states)
    assert run((lambda: 1, lambda: "two", lambda: None)).beside == [1, "two", None]


def test_a_task_beside_a_bank_raises_to_the_caller_and_leaves_no_child(monkeypatch):
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)

    def fail():
        raise DivergenceError(0, 7, "state is non-finite")

    for workers in (1, 2):
        monkeypatch.setattr(sgd, "WORKERS", workers)
        with pytest.raises(DivergenceError, match="replicate 0 aborted at step 7"):
            run_coupled_replicates(obj, oracle, SCHED, np.ones(1), _horizon(6), 4, 9, 3,
                                   beside=(fail,))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
    return run_coupled_replicates(obj, oracle, SCHED, np.ones(2), _horizon(16), 8, 20, 55)


def test_strong_error_is_root_mean_square(small_bank):
    est = strong_error(small_bank)
    d2 = small_bank.coupled_dist2[:, -1]
    assert est.value == pytest.approx(np.sqrt(d2.mean()), rel=1e-12)
    assert est.n == 20
    assert est.ci_halfwidth > 0


def test_strong_error_checkpoint_selection(small_bank):
    first = int(small_bank.discrete.sample_indices[0])
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
    est = weak_error(small_bank, g)
    diffs = g(small_bank.continuous.final_states) - g(small_bank.discrete.final_states)
    assert est.value == pytest.approx(abs(diffs.mean()), rel=1e-12)
    assert est.n == 20


def test_weak_error_requires_states_and_replicates():
    """weak_error reads the final states every bank keeps, one per
    replicate and leg, and needs at least 2 replicates."""
    obj = make_quadratic(dim=1, lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    g = lambda s: np.sum(s * s, axis=-1)
    two = run_coupled_replicates(obj, oracle, SCHED, np.ones(1), _horizon(4), 8, 2, 2)
    assert two.discrete.final_states.shape == two.continuous.final_states.shape == (2, 1)
    diffs = g(two.continuous.final_states) - g(two.discrete.final_states)
    assert weak_error(two, g).value == abs(diffs.mean())
    one = run_coupled_replicates(obj, oracle, SCHED, np.ones(1), _horizon(4), 8, 1, 2)
    with pytest.raises(ValueError, match="at least 2"):
        weak_error(one, g)


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
