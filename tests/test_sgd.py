import os
import pickle
import signal

import numpy as np
import pytest

from sgdlab.core import StepSchedule, derive_stream
from sgdlab.noise import gaussian_oracle, heavy_oracle, least_squares_batch_oracle
from sgdlab import sgd
from sgdlab.objectives import make_least_squares, make_linear_probe, make_quadratic
from sgdlab.sgd import (
    DivergenceError,
    Trajectory,
    run_projected_sgd,
    run_sgd,
    run_sgd_replicates,
    fork_map,
    suffix_average,
)


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
        assert traj.dist2_to_min[n] == pytest.approx(x * x, rel=1e-10)
        assert traj.values[n] == pytest.approx(0.5 * x * x, rel=1e-10)


def test_linear_probe_is_pure_noise_accumulation():
    """On the flat objective the trajectory is exactly minus the running
    weighted sum of the raw gaussian draws from the same stream."""
    obj = make_linear_probe(dim=2)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.1, 0.25)
    n = 200
    plan = np.arange(1, n + 1)
    traj = run_sgd(obj, oracle, sched, np.zeros(2), n, plan=plan, stream=_stream(3), record_states=True)
    raw = _stream(3).generator().standard_normal((n, 2))
    steps = sched.step_size(np.arange(n))
    expected = -np.cumsum(steps[:, None] * raw, axis=0)
    np.testing.assert_array_equal(traj.states, expected)


def test_vectorized_bank_matches_solo_runs():
    obj = make_quadratic(dim=2)
    oracle = heavy_oracle(obj, 0.5, "laplace")
    sched = StepSchedule(0.3, 0.5)
    bank = run_sgd_replicates(obj, oracle, sched, np.ones(2), 500, 5, 42, record_states=True)
    for i in range(5):
        solo = run_sgd(
            obj, oracle, sched, np.ones(2), 500,
            stream=derive_stream(42, i, "noise"), record_states=True,
        )
        np.testing.assert_array_equal(bank.values[i], solo.values)
        np.testing.assert_array_equal(bank.dist2_to_min[i], solo.dist2_to_min)
        np.testing.assert_array_equal(bank.grad_sq[i], solo.grad_sq)
        np.testing.assert_array_equal(bank.states[i], solo.states)


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
    banks = []
    for chunk in (sgd.CHUNK, 7):
        monkeypatch.setattr(sgd, "CHUNK", chunk)
        banks.append(run_sgd_replicates(obj, oracle, StepSchedule(0.3, 0.5), np.ones(2), 300,
                                        5, 3, record_states=True))
    np.testing.assert_array_equal(banks[0].states, banks[1].states)
    np.testing.assert_array_equal(banks[0].values, banks[1].values)


def test_chunk_boundary_continuity():
    # crossing chunk edges must not disturb the stream
    obj = make_linear_probe(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.1, 0.0)
    n = 1500
    traj = run_sgd(obj, oracle, sched, np.zeros(1), n, plan=np.array([n]), stream=_stream(9), record_states=True)
    raw = _stream(9).generator().standard_normal((n, 1))
    expected = -0.1 * raw.sum(axis=0)
    np.testing.assert_allclose(traj.states[0], expected, rtol=0, atol=1e-12)


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
    np.testing.assert_array_equal(bank.values[0], solo.values)


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
        np.testing.assert_array_equal(bank.values[row], solo.values)


def test_projected_sgd_stays_in_ball():
    obj = make_linear_probe(dim=2)
    oracle = gaussian_oracle(obj, 5.0)
    sched = StepSchedule(1.0, 0.0)
    traj = run_projected_sgd(
        obj, oracle, sched, np.zeros(2), 400, radius=2.0,
        plan=np.arange(1, 401), stream=_stream(4), record_states=True,
    )
    norms = np.linalg.norm(traj.states, axis=1)
    assert norms.max() <= 2.0 + 1e-12
    assert norms.max() > 1.9  # the walk actually hits the boundary


def test_projected_sgd_with_huge_radius_matches_plain():
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.2, 0.5)
    plain = run_sgd(obj, oracle, sched, np.ones(2), 300, stream=_stream(6), record_states=True)
    proj = run_projected_sgd(
        obj, oracle, sched, np.ones(2), 300, radius=1e9, stream=_stream(6), record_states=True
    )
    np.testing.assert_array_equal(plain.states, proj.states)


def test_projected_sgd_rejects_outside_start():
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    with pytest.raises(ValueError):
        run_projected_sgd(
            obj, oracle, StepSchedule(0.1, 0.5), np.array([5.0]), 10, radius=1.0,
            stream=_stream(),
        )


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
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    bank = run_sgd_replicates(obj, oracle, StepSchedule(0.5, 0.5), np.array([1.0]), 100, 3, 11)
    t1 = bank.trajectory(1)
    assert t1.replicate_id == 1
    np.testing.assert_array_equal(t1.values, bank.values[1])
    assert len(bank.trajectories()) == 3


def test_trajectory_validates_lengths():
    with pytest.raises(ValueError):
        Trajectory(
            sample_indices=np.array([1, 2]),
            values=np.array([1.0]),
            dist2_to_min=np.array([1.0, 2.0]),
            replicate_id=0,
        )


def test_suffix_average():
    vals = np.array([4.0, 2.0, 1.0, 3.0])
    assert suffix_average(vals, 0) == 3.0
    assert suffix_average(vals, 1) == 2.0
    assert suffix_average(vals, 3) == 2.5
    with pytest.raises(ValueError):
        suffix_average(vals, 4)
    with pytest.raises(ValueError):
        suffix_average(vals, -1)
