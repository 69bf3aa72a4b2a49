import os
import pickle
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlab.core import StepSchedule, derive_stream, log_spaced_indices
from sgdlab.noise import gaussian_oracle, heavy_oracle, least_squares_batch_oracle
from sgdlab import sgd
from sgdlab.objectives import make_least_squares, make_linear_probe, make_quadratic
from sgdlab.sgd import (
    DIVERGENCE_NORM,
    DivergenceError,
    ReplicateRuns,
    _norm_detail,
    _Rows,
    run_sgd,
    run_sgd_replicates,
    fork_map,
)

from helpers import states_at


def _stream(rep=0, seed=1):
    return derive_stream(seed, rep, "noise")


def test_noiseless_quadratic_matches_recursion():
    """With zero noise the iterates follow x_{n+1} = (1 - lam*step_n) x_n
    exactly, so the recorded values must match an independent loop."""
    lam, gamma, alpha = 1.0, 0.5, 0.5
    obj = make_quadratic(lam=lam)
    oracle = gaussian_oracle(obj, 0.0)
    sched = StepSchedule(gamma, alpha)
    plan = np.arange(1, 101)
    traj = run_sgd(obj, oracle, sched, np.array([1.0]), 100, plan=plan, stream=_stream())
    x = 1.0
    for n in range(100):
        x = x * (1.0 - lam * gamma * (n + 1) ** (-alpha))
        assert traj.dist2_to_min[0, n] == pytest.approx(x * x, rel=1e-10)
        assert traj.values[0, n] == pytest.approx(0.5 * x * x, rel=1e-10)


def test_linear_probe_is_pure_noise_accumulation():
    """On the flat objective the trajectory is exactly minus the running
    weighted sum of the raw gaussian draws from the same stream: the run
    stopped after k steps ends there, for every k up to n."""
    obj = make_linear_probe(dim=2)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.1, 0.25)
    n = 200
    states = states_at(
        lambda k: run_sgd(obj, oracle, sched, np.zeros(2), k, stream=_stream(3)).final_states,
        range(1, n + 1),
    )
    raw = _stream(3).generator().standard_normal((n, 2))
    steps = sched.step_size(np.arange(n))
    expected = -np.cumsum(steps[:, None] * raw, axis=0)
    np.testing.assert_array_equal(states[0], expected)


def test_vectorized_bank_matches_solo_runs(monkeypatch):
    obj = make_quadratic(dim=2)
    oracle = heavy_oracle(obj, 0.5, "laplace")
    sched = StepSchedule(0.3, 0.5)
    bank = run_sgd_replicates(obj, oracle, sched, np.ones(2), 500, 5, 42)
    monkeypatch.setattr(sgd, "WORKERS", 1)  # the banks stopped early run in-process
    ends = log_spaced_indices(500)
    bank_states = states_at(
        lambda k: run_sgd_replicates(obj, oracle, sched, np.ones(2), k, 5, 42).final_states, ends
    )
    for i in range(5):
        solo = run_sgd(obj, oracle, sched, np.ones(2), 500, stream=derive_stream(42, i, "noise"))
        np.testing.assert_array_equal(bank.values[i], solo.values[0])
        np.testing.assert_array_equal(bank.dist2_to_min[i], solo.dist2_to_min[0])
        np.testing.assert_array_equal(bank.grad_sq[i], solo.grad_sq[0])
        np.testing.assert_array_equal(bank.final_states[i], solo.final_states[0])
        solo_states = states_at(
            lambda k: run_sgd(obj, oracle, sched, np.ones(2), k,
                              stream=derive_stream(42, i, "noise")).final_states,
            ends,
        )
        np.testing.assert_array_equal(bank_states[i], solo_states[0])


def test_block_size_invariance(monkeypatch):
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    banks = []
    for block in (sgd.REPLICATE_BLOCK, 7):
        monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
        banks.append(run_sgd_replicates(obj, oracle, sched, np.array([1.0]), 300, 600, 7))
    np.testing.assert_array_equal(banks[0].values, banks[1].values)
    np.testing.assert_array_equal(banks[0].dist2_to_min, banks[1].dist2_to_min)


@pytest.mark.parametrize("law", ["gaussian", "rademacher", "laplace", "student", "lsq_batch"])
def test_chunk_size_invariance(monkeypatch, law):
    """Drawing each stream in 7-step pieces reads the same values as the
    default chunk, for every draw the oracles make."""
    obj = make_quadratic(dim=2)
    if law == "gaussian":
        oracle = gaussian_oracle(obj, 1.0)
    elif law == "lsq_batch":
        obj = make_least_squares(dim=2, n_data=30, stream=derive_stream(41, 0, "data"))
        oracle = least_squares_batch_oracle(obj, 3)
    else:
        oracle = heavy_oracle(obj, 0.5, law, df=6.0 if law == "student" else None)
    bank = lambda k: run_sgd_replicates(obj, oracle, StepSchedule(0.3, 0.5), np.ones(2), k, 5, 3)
    monkeypatch.setattr(sgd, "WORKERS", 1)  # many small banks: fork none
    banks, states = [], []
    for chunk in (sgd.CHUNK, 7):
        monkeypatch.setattr(sgd, "CHUNK", chunk)
        banks.append(bank(300))
        states.append(states_at(lambda k: bank(k).final_states, banks[-1].sample_indices))
    np.testing.assert_array_equal(states[0], states[1])
    np.testing.assert_array_equal(banks[0].final_states, banks[1].final_states)
    np.testing.assert_array_equal(banks[0].values, banks[1].values)


def test_chunk_boundary_continuity():
    # crossing chunk edges must not disturb the stream
    obj = make_linear_probe(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.1, 0.0)
    n = 1500
    traj = run_sgd(obj, oracle, sched, np.zeros(1), n, plan=np.array([n]), stream=_stream(9))
    raw = _stream(9).generator().standard_normal((n, 1))
    expected = -0.1 * raw.sum(axis=0)
    np.testing.assert_allclose(traj.final_states[0], expected, rtol=0, atol=1e-12)


def test_default_plan_is_log_spaced():
    obj = make_quadratic()
    oracle = gaussian_oracle(obj, 0.0)
    traj = run_sgd(obj, oracle, StepSchedule(0.1, 0.5), np.array([1.0]), 10_000, stream=_stream())
    assert traj.sample_indices[0] == 1
    assert traj.sample_indices[-1] == 10_000
    assert len(traj.sample_indices) <= 64


def test_plan_normalization_and_validation():
    obj = make_quadratic()
    oracle = gaussian_oracle(obj, 0.0)
    sched = StepSchedule(0.1, 0.5)
    traj = run_sgd(obj, oracle, sched, np.array([1.0]), 50, plan=[10, 5, 10, 50], stream=_stream())
    np.testing.assert_array_equal(traj.sample_indices, [5, 10, 50])
    with pytest.raises(ValueError):
        run_sgd(obj, oracle, sched, np.array([1.0]), 50, plan=[0, 5], stream=_stream())
    with pytest.raises(ValueError):
        run_sgd(obj, oracle, sched, np.array([1.0]), 50, plan=[51], stream=_stream())
    with pytest.raises(ValueError):
        run_sgd(obj, oracle, sched, np.array([1.0]), 0, stream=_stream())


def test_stream_is_required():
    obj = make_quadratic()
    oracle = gaussian_oracle(obj, 1.0)
    with pytest.raises(ValueError):
        run_sgd(obj, oracle, StepSchedule(0.1, 0.5), np.array([1.0]), 10)


def test_divergence_raises_with_location():
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 0.0)
    # constant step 3 > 2/lam diverges geometrically from x0 != 0
    sched = StepSchedule(3.0, 0.0)
    with pytest.raises(DivergenceError) as exc:
        run_sgd(obj, oracle, sched, np.array([1.0]), 5000, stream=_stream())
    assert exc.value.replicate_id == 0
    assert exc.value.step > 0


def test_divergence_in_bank_names_replicate():
    """Each diverging replicate aborts alone: the bank keeps no row for it
    and lists the error its solo run raises, at the same step."""
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(3.0, 0.0)
    bank = run_sgd_replicates(obj, oracle, sched, np.array([1.0]), 5000, 3, 1)
    assert [err.replicate_id for err in bank.aborts] == [0, 1, 2]
    assert len(bank.replicate_ids) == 0
    assert bank.values.shape == (0, len(bank.sample_indices))
    for err in bank.aborts:
        with pytest.raises(DivergenceError) as solo:
            run_sgd(obj, oracle, sched, np.array([1.0]), 5000, stream=_stream(err.replicate_id))
        assert solo.value.step == err.step
        assert str(solo.value) == str(err)


def test_divergence_error_pickles():
    """A worker sends its aborts to the parent pickled."""
    err = DivergenceError(7, 42, "|X| = 1.5e+12 exceeds 1e+12")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is DivergenceError
    assert str(back) == str(err) == "replicate 7 aborted at step 42: |X| = 1.5e+12 exceeds 1e+12"
    assert (back.replicate_id, back.step) == (7, 42)


def test_fork_map_keeps_item_order(monkeypatch):
    for workers in (1, 2, 3):
        monkeypatch.setattr(sgd, "WORKERS", workers)
        assert fork_map(lambda i: i * i, range(7)) == [i * i for i in range(7)]
        assert fork_map(lambda i: i, []) == []


def test_fork_map_raises_a_child_error_and_leaves_no_child(monkeypatch):
    """Item 1 runs in the first forked child; its error reaches the parent
    with its type and message.  An error in the parent's own share (item 0)
    kills the child.  Either way every child has been reaped."""
    monkeypatch.setattr(sgd, "WORKERS", 2)
    parent = os.getpid()

    def unit(i):
        if i == 1 and os.getpid() != parent:
            raise DivergenceError(i, 3, "state is non-finite")
        return i

    with pytest.raises(DivergenceError, match=r"^replicate 1 aborted at step 3: state is non-finite$") as exc:
        fork_map(unit, range(4))
    assert (exc.value.replicate_id, exc.value.step) == (1, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    def fail(i):
        raise KeyError(f"unit {i}")

    with pytest.raises(KeyError, match="unit 0"):
        fork_map(fail, range(2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_names_a_child_that_died(monkeypatch):
    monkeypatch.setattr(sgd, "WORKERS", 2)
    parent = os.getpid()

    def unit(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(RuntimeError, match="worker ended without a result"):
        fork_map(unit, range(2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_inside_a_call_runs_in_process(monkeypatch):
    monkeypatch.setattr(sgd, "WORKERS", 2)
    outer = fork_map(lambda i: (os.getpid(), fork_map(lambda j: os.getpid(), range(2))), range(2))
    assert outer[0][0] == os.getpid() != outer[1][0]
    for pid, inner in outer:
        assert inner == [pid, pid]


def test_bank_of_one_starts_no_child(monkeypatch):
    def no_fork():
        raise AssertionError("a bank of one forked")

    monkeypatch.setattr(sgd, "WORKERS", 2)
    monkeypatch.setattr(os, "fork", no_fork)
    obj = make_quadratic()
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    solo = run_sgd(obj, oracle, sched, np.array([1.0]), 50, stream=_stream())
    bank = run_sgd_replicates(obj, oracle, sched, np.array([1.0]), 50, 1, 1)
    np.testing.assert_array_equal(bank.values[0], solo.values[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_rows_are_reset_and_the_rest_step_on():
    """Noise scaled by x**2 throws some replicates past the divergence norm,
    after which they would overflow within a few steps.  A diverged row is
    reset to the minimizer, where this noise vanishes, so nothing
    overflows, and the surviving rows run on to their solo results."""
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, lambda x: 2.0 * x * x, eta=1.0)
    sched = StepSchedule(1.0, 0.5)
    bank = run_sgd_replicates(obj, oracle, sched, np.array([1.0]), 500, 16, 3)
    assert 0 < len(bank.aborts) < 16
    aborted = {err.replicate_id for err in bank.aborts}
    kept = [i for i in range(16) if i not in aborted]
    assert bank.replicate_ids.tolist() == kept
    for row, rep in enumerate(kept):
        solo = run_sgd(obj, oracle, sched, np.array([1.0]), 500, stream=_stream(rep, seed=3))
        np.testing.assert_array_equal(bank.values[row], solo.values[0])


def test_alpha_one_small_gamma_warns():
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    with pytest.warns(UserWarning, match="alpha=1") as caught:
        run_sgd(obj, oracle, StepSchedule(0.4, 1.0), np.array([1.0]), 10, stream=_stream())
    assert caught[0].filename == __file__  # points at the caller's line
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_sgd(obj, oracle, StepSchedule(1.0, 1.0), np.array([1.0]), 10, stream=_stream())


def test_replicate_runs_trajectory_roundtrip():
    """A solo run returns its replicate's one-row bank: the replicate's id,
    no aborts, and the bank's row for that replicate, final state included."""
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    bank = run_sgd_replicates(obj, oracle, sched, np.array([1.0]), 100, 3, 11)
    solo = run_sgd(obj, oracle, sched, np.array([1.0]), 100, stream=_stream(1, seed=11))
    assert isinstance(solo, ReplicateRuns)
    assert solo.replicate_ids.tolist() == [1]
    assert solo.aborts == []
    assert solo.final_states.shape == (1, 1)
    np.testing.assert_array_equal(solo.sample_indices, bank.sample_indices)
    for name in ("values", "dist2_to_min", "grad_sq", "final_states"):
        np.testing.assert_array_equal(getattr(solo, name), getattr(bank, name)[1:2])


def _einsum_check(aborted, ids, x, step, detail, reset):
    """The divergence check without the vdot bound: per-row norms always."""
    sq = np.einsum("rd,rd->r", x, x)
    bad = ~np.isfinite(sq) | (sq > DIVERGENCE_NORM**2)
    for i in np.flatnonzero(bad).tolist():
        aborted.setdefault(i, (int(ids[i]), step, detail(sq[i])))
    x[bad] = reset


def _edge_rows(d):
    """Rows at and one ulp past the divergence norm, coordinates at
    norm / sqrt(d), squares that overflow, and the non-finite and
    signed-zero values."""
    edge = DIVERGENCE_NORM / np.sqrt(d)
    coord = st.sampled_from([
        0.0, -0.0, 1.5, -2.0, 5e10, 1e200, DIVERGENCE_NORM, -DIVERGENCE_NORM,
        np.nextafter(DIVERGENCE_NORM, np.inf), edge, np.nextafter(edge, np.inf),
        np.nextafter(edge, 0.0), np.nan, np.inf, -np.inf,
    ])
    flat = st.sampled_from([edge, np.nextafter(edge, np.inf), np.nextafter(edge, 0.0)])
    return st.one_of(st.lists(coord, min_size=d, max_size=d), flat.map(lambda c: [c] * d))


@st.composite
def _blocks(draw):
    d = draw(st.sampled_from([1, 3]))
    rows = st.lists(_edge_rows(d), min_size=1, max_size=6)
    return d, [np.array(draw(rows), dtype=float).reshape(-1, d) for _ in range(2)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_blocks())
@example(case=(1, [np.full((1024, 1), 5e10)] * 2))
@example(case=(3, [np.full((1024, 3), 5e10)] * 2))
@example(case=(1, [np.array([[DIVERGENCE_NORM], [np.nextafter(DIVERGENCE_NORM, np.inf)]])] * 2))
def test_check_matches_the_per_row_check(case):
    """Two steps of _Rows.check give the aborted rows, their first
    (replicate, step, detail) and the reset states, bit for bit, of the
    check that always takes per-row norms, and warn of no overflow.  1024
    rows of 5e10 sum past the vdot bound, but no row is past the norm."""
    d, blocks = case
    n = max(len(b) for b in blocks)
    blocks = [np.resize(b, (n, d)) for b in blocks]
    ids = np.arange(n) * 3 + 1
    reset = np.full(d, -0.0)
    detail = _norm_detail("X")
    rows, expected = _Rows(ids), {}
    for step, block in enumerate(blocks, start=1):
        x, ref = block.copy(), block.copy()
        rows.check(x, step, detail, reset)
        _einsum_check(expected, ids, ref, step, detail, reset)
        assert x.tobytes() == ref.tobytes()
        got = {i: (e.replicate_id, e.step, e.detail) for i, e in rows.aborted.items()}
        assert got == expected
