import numpy as np
import pytest

from sgdlab.core import StepSchedule, derive_stream
from sgdlab.noise import gaussian_oracle, heavy_oracle
from sgdlab.objectives import make_linear_probe, make_quadratic
from sgdlab.sgd import (
    DivergenceError,
    Trajectory,
    run_projected_sgd,
    run_sgd,
    run_sgd_replicates,
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


def test_thread_count_invariance():
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.5, 0.5)
    banks = [
        run_sgd_replicates(obj, oracle, sched, np.array([1.0]), 300, 600, 7, threads=t)
        for t in (1, 4, 8)
    ]
    for other in banks[1:]:
        np.testing.assert_array_equal(banks[0].values, other.values)
        np.testing.assert_array_equal(banks[0].dist2_to_min, other.dist2_to_min)


def test_chunk_boundary_continuity():
    # crossing the 1024-step chunk edge must not disturb the stream
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
    with pytest.warns(UserWarning, match="alpha=1"):
        run_sgd(obj, oracle, StepSchedule(0.4, 1.0), np.array([1.0]), 10, stream=_stream())
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
