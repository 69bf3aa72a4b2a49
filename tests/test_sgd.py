import os
import pickle
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlab.core import StepSchedule, derive_stream, log_spaced_indices
from sgdlab.coupling import run_coupled_replicates
from sgdlab.noise import gaussian_oracle, heavy_oracle, least_squares_batch_oracle
from sgdlab import sgd
from sgdlab.objectives import make_least_squares, make_linear_probe, make_phi_p, make_quadratic
from sgdlab.sgd import (
    DIVERGENCE_NORM,
    DivergenceError,
    _norm_detail,
    _Rows,
    run_sgd_sweep,
    fork_map,
    worker_slices,
)

from helpers import states_at


def _stream(rep):
    return derive_stream(1, rep, "noise")


def test_noiseless_quadratic_matches_recursion():
    """With zero noise the iterates follow x_{n+1} = (1 - lam*step_n) x_n
    exactly, so the runs stopped after each n steps, and the values recorded
    at the checkpoints, must match an independent loop."""
    lam, gamma, alpha = 1.0, 0.5, 0.5
    obj = make_quadratic(lam=lam)
    oracle = gaussian_oracle(obj, 0.0)
    sched = StepSchedule(gamma, alpha)
    run = lambda k: run_sgd_sweep(obj, oracle, [sched], np.array([1.0]), k, 1, 1)[0]
    states = states_at(lambda k: run(k).final_states, range(1, 101))
    traj = run(100)
    x, loop = 1.0, []
    for n in range(100):
        x = x * (1.0 - lam * gamma * (n + 1) ** (-alpha))
        loop.append(x)
        assert states[0, n, 0] == pytest.approx(x, rel=1e-10)
    expected = np.array(loop)[traj.sample_indices - 1]
    np.testing.assert_allclose(traj.dist2_to_min[0], expected**2, rtol=1e-10)
    np.testing.assert_allclose(traj.values[0], 0.5 * expected**2, rtol=1e-10)


def test_linear_probe_is_pure_noise_accumulation(monkeypatch):
    """On the flat objective replicate 3's trajectory is exactly minus the
    running weighted sum of the raw gaussian draws from its stream: the run
    stopped after k steps ends there, for every k up to n."""
    obj = make_linear_probe(dim=2)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.1, 0.25)
    n = 200
    monkeypatch.setattr(sgd, "WORKERS", 1)  # many small banks: fork none
    states = states_at(
        lambda k: run_sgd_sweep(obj, oracle, [sched], np.zeros(2), k, 4, 1)[0].final_states,
        range(1, n + 1),
    )
    raw = _stream(3).generator().standard_normal((n, 2))
    steps = sched.step_size(np.arange(n))
    expected = -np.cumsum(steps[:, None] * raw, axis=0)
    np.testing.assert_array_equal(states[3], expected)


def _bank_bytes(bank):
    """Every field of a bank, arrays as bytes and aborts as their
    (replicate, step, detail)."""
    arrays = ("sample_indices", "values", "dist2_to_min", "grad_sq", "final_states", "replicate_ids")
    aborts = [(e.replicate_id, e.step, e.detail) for e in bank.aborts]
    return [getattr(bank, name).tobytes() for name in arrays] + [aborts]


@pytest.mark.parametrize("case", ["gaussian", "laplace"])
def test_block_size_invariance(monkeypatch, case):
    """A bank is the same bytes for every block size, 1 included, where
    each row steps alone.  The laplace banks, in dimension 2, are also
    stopped at each checkpoint, and the states they pass through agree
    too."""
    if case == "gaussian":
        obj = make_quadratic(dim=1)
        oracle = gaussian_oracle(obj, 1.0)
        sched, x0, n, reps, seed = StepSchedule(0.5, 0.5), np.array([1.0]), 300, 600, 7
    else:
        obj = make_quadratic(dim=2)
        oracle = heavy_oracle(obj, 0.5, "laplace")
        sched, x0, n, reps, seed = StepSchedule(0.3, 0.5), np.ones(2), 500, 5, 42
        monkeypatch.setattr(sgd, "WORKERS", 1)  # many small banks: fork none
    bank = lambda k: run_sgd_sweep(obj, oracle, [sched], x0, k, reps, seed)[0]
    ends = log_spaced_indices(n) if case == "laplace" else []
    banks, states = [], []
    for block in (sgd.REPLICATE_BLOCK, 7, 1):
        monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
        banks.append(_bank_bytes(bank(n)))
        states.append([bank(k).final_states.tobytes() for k in ends])
    assert banks[1] == banks[0] and banks[2] == banks[0]
    assert states[1] == states[0] and states[2] == states[0]


@pytest.mark.parametrize("case", ["phi_2", "least_squares", "least_squares_compacted"])
def test_sweep_equals_per_schedule_banks(monkeypatch, case):
    """A sweep steps one stacked bank, yet each of its banks is, bit for
    bit, the bank of its schedule run alone, under one or two workers and
    any block size.  At gamma 4 some least-squares replicates diverge, and
    they abort under that schedule only.  The compacted case has 40
    replicates (six 7-row blocks), and at gamma 64 every one of them
    diverges: those banks copy out some of their rows, or none."""
    n_replicates = 40 if case == "least_squares_compacted" else 24
    if case == "phi_2":
        obj = make_phi_p(2)
        oracle = gaussian_oracle(obj, 1.0)
        scheds = [StepSchedule(0.5, a) for a in (0.3, 0.5, 0.7)]
    else:
        obj = make_least_squares(dim=4, n_data=64, stream=derive_stream(1, 0, "data"))
        oracle = least_squares_batch_oracle(obj, 1)
        gammas = (4.0, 64.0, 1.0) if case == "least_squares_compacted" else (1.0, 4.0)
        scheds = [StepSchedule(g, 0.5) for g in gammas]
    x0 = np.ones(obj.dim)
    alone = [
        _bank_bytes(run_sgd_sweep(obj, oracle, [s], x0, 100, n_replicates, 1)[0]) for s in scheds
    ]
    if case == "least_squares":
        assert not alone[0][-1] and 0 < len(alone[1][-1]) < 24
    if case == "least_squares_compacted":
        assert [len(bank[-1]) for bank in alone] == [8, 40, 0]
    for workers, block in ((1, sgd.REPLICATE_BLOCK), (2, sgd.REPLICATE_BLOCK), (1, 7), (2, 7)):
        monkeypatch.setattr(sgd, "WORKERS", workers)
        monkeypatch.setattr(sgd, "REPLICATE_BLOCK", block)
        sweep = run_sgd_sweep(obj, oracle, scheds, x0, 100, n_replicates, 1)
        assert [_bank_bytes(bank) for bank in sweep] == alone


def test_sweep_warns_for_each_alpha_one_schedule_below_the_critical_step():
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    scheds = [StepSchedule(g, 1.0) for g in (0.4, 1.0, 0.3)] + [StepSchedule(0.3, 0.5)]
    with pytest.warns(UserWarning, match="alpha=1") as caught:
        run_sgd_sweep(obj, oracle, scheds, np.array([1.0]), 10, 2, 1)
    assert [str(w.message).split(" <=")[0] for w in caught] == [
        "alpha=1 with gamma=0.4", "alpha=1 with gamma=0.3"]
    assert all(w.filename == __file__ for w in caught)  # the caller's line


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
    bank = lambda k: run_sgd_sweep(obj, oracle, [StepSchedule(0.3, 0.5)], np.ones(2), k, 5, 3)[0]
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
    # crossing chunk edges must not disturb replicate 9's stream
    obj = make_linear_probe(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(0.1, 0.0)
    n = 1500
    (traj,) = run_sgd_sweep(obj, oracle, [sched], np.zeros(1), n, 10, 1)
    raw = _stream(9).generator().standard_normal((n, 1))
    expected = -0.1 * raw.sum(axis=0)
    np.testing.assert_allclose(traj.final_states[9], expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("runner", ["sweep", "coupled"])
def test_sgd_legs_hold_no_step_table(runner):
    """Each chunk's step sizes are computed with its noise: one replicate
    over 2^16 steps (or blocks of one substep; a step table of 0.5 MiB)
    peaks under 0.25 MiB of allocations.  A short run warms up imports and
    caches first."""
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 1.0)
    sched = StepSchedule(1.0, 0.5)  # gamma_alpha = 1: a block per unit of time
    if runner == "sweep":
        run = lambda n: run_sgd_sweep(obj, oracle, [sched], np.ones(1), n, 1, 5)[0].final_states
    else:
        run = lambda n: run_coupled_replicates(obj, oracle, sched, np.ones(1), float(n), 1, 1, 5
                                               ).discrete.final_states
    run(8)
    tracemalloc.start()
    try:
        assert np.all(np.isfinite(run(2**16)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20


def test_checkpoints_are_log_spaced():
    obj = make_quadratic()
    oracle = gaussian_oracle(obj, 0.0)
    (traj,) = run_sgd_sweep(obj, oracle, [StepSchedule(0.1, 0.5)], np.array([1.0]), 10_000, 1, 1)
    np.testing.assert_array_equal(traj.sample_indices, log_spaced_indices(10_000))
    assert traj.sample_indices[0] == 1
    assert traj.sample_indices[-1] == 10_000
    assert len(traj.sample_indices) <= 64


def test_sweep_validation():
    obj = make_quadratic()
    oracle = gaussian_oracle(obj, 0.0)
    sched = StepSchedule(0.1, 0.5)
    run = lambda n, reps=1: run_sgd_sweep(obj, oracle, [sched], np.array([1.0]), n, reps, 1)
    with pytest.raises(ValueError, match="n_steps and n_replicates"):
        run(0)
    with pytest.raises(ValueError, match="n_steps and n_replicates"):
        run(50, reps=0)
    with pytest.raises(ValueError, match="at least one schedule"):
        run_sgd_sweep(obj, oracle, [], np.array([1.0]), 50, 1, 1)


def test_divergence_in_bank_names_replicate(monkeypatch):
    """Each diverging replicate aborts alone: the bank keeps no row for it
    and lists its error, at the step where it left the finite regime, as
    when every replicate steps alone."""
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    # constant step 3 > 2/lam diverges geometrically from x0 != 0
    sched = StepSchedule(3.0, 0.0)
    run = lambda: run_sgd_sweep(obj, oracle, [sched], np.array([1.0]), 5000, 3, 1)[0]
    bank = run()
    assert [err.replicate_id for err in bank.aborts] == [0, 1, 2]
    assert all(err.step > 0 for err in bank.aborts)
    assert len(bank.replicate_ids) == 0
    assert bank.values.shape == (0, len(bank.sample_indices))
    monkeypatch.setattr(sgd, "REPLICATE_BLOCK", 1)  # every row steps alone
    assert _bank_bytes(bank) == _bank_bytes(run())


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


def _counted_cut(n, cap, workers):
    """The cut before tasks could run beside a bank: ceil(n / (workers * cap))
    slices per worker of ceil(n / count) rows each, the last one shorter
    (or missing, so that it has fewer slices than it counted)."""
    count = workers * -(-n // (workers * cap))
    size = -(-n // count)
    return count, [slice(i, min(i + size, n)) for i in range(0, n, size)]


def test_worker_slices_cut_blocks_and_make_room_for_tasks(monkeypatch):
    """With no task beside, the cut is the counted cut wherever that one had
    the slices it counted, and otherwise has that many (n slices of one
    when n is smaller): 4 rows on 3 workers are 3 slices, not 2.  With
    tasks beside, the slices cover range(n) in order, each at most cap
    long, and they are the fewest that with the tasks make a multiple of
    the workers (n slices of one when n is smaller)."""
    for workers in (1, 2, 3):
        monkeypatch.setattr(sgd, "WORKERS", workers)
        for cap in (7, 1024):
            # every n up to 5000 at the default cap; at cap 7, where a cut
            # has hundreds of slices, every n up to 700 and every 13th after
            for n in range(1, 5001) if cap == 1024 else [*range(1, 700), *range(700, 5001, 13)]:
                count, counted = _counted_cut(n, cap, workers)
                cut = worker_slices(n, cap)
                if len(counted) == count:
                    assert cut == counted
                else:
                    assert len(cut) == min(n, count)
                for beside in (1, 2, 3) if n % 7 == 0 or n < 100 else ():
                    cut = worker_slices(n, cap, beside)
                    assert cut[0].start == 0 and cut[-1].stop == n
                    assert all(a.stop == b.start for a, b in zip(cut, cut[1:]))
                    assert all(0 < s.stop - s.start <= cap for s in cut)
                    fewest = -(-n // cap)
                    fewest += -(fewest + beside) % workers
                    assert len(cut) == min(n, fewest)
    monkeypatch.setattr(sgd, "WORKERS", 2)
    assert worker_slices(512, 1024, 1) == [slice(0, 512)]
    assert worker_slices(2048, 1024, 1) == [slice(0, 683), slice(683, 1366), slice(1366, 2048)]
    assert worker_slices(0, 1024, 1) == []


def test_bank_of_one_starts_no_child(monkeypatch):
    def no_fork():
        raise AssertionError("a bank of one forked")

    monkeypatch.setattr(sgd, "WORKERS", 2)
    monkeypatch.setattr(os, "fork", no_fork)
    obj = make_quadratic()
    oracle = gaussian_oracle(obj, 1.0)
    scheds = [StepSchedule(0.5, 0.5), StepSchedule(0.5, 0.7)]
    banks = run_sgd_sweep(obj, oracle, scheds, np.array([1.0]), 50, 1, 1)
    assert [bank.replicate_ids.tolist() for bank in banks] == [[0], [0]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_rows_are_reset_and_the_rest_step_on(monkeypatch):
    """Noise scaled by x**2 throws some replicates past the divergence norm,
    after which they would overflow within a few steps.  A diverged row is
    reset to the minimizer, where this noise vanishes, so nothing
    overflows, and the surviving rows run on to the results they have
    when every replicate steps alone."""
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, lambda x: 2.0 * x * x, eta=1.0)
    sched = StepSchedule(1.0, 0.5)
    run = lambda: run_sgd_sweep(obj, oracle, [sched], np.array([1.0]), 500, 16, 3)[0]
    bank = run()
    assert 0 < len(bank.aborts) < 16
    aborted = {err.replicate_id for err in bank.aborts}
    kept = [i for i in range(16) if i not in aborted]
    assert bank.replicate_ids.tolist() == kept
    monkeypatch.setattr(sgd, "REPLICATE_BLOCK", 1)  # every row steps alone
    assert _bank_bytes(bank) == _bank_bytes(run())


@pytest.mark.parametrize("case", ["stable", "diverging"])
def test_replicate_rows_do_not_depend_on_bank_size(case):
    """A replicate's row and abort are a function of the master seed and
    its id alone: a bank of 16 holds, bit for bit, what a bank of 8 holds
    for replicates 0-7, aborts included."""
    obj = make_quadratic(lam=1.0)
    if case == "stable":
        oracle = gaussian_oracle(obj, 1.0)
    else:
        oracle = gaussian_oracle(obj, lambda x: 2.0 * x * x, eta=1.0)
    run = lambda reps: run_sgd_sweep(obj, oracle, [StepSchedule(1.0, 0.5)], np.array([1.0]),
                                     500, reps, 3)[0]
    small, big = run(8), run(16)
    if case == "diverging":
        assert 0 < len(small.aborts) < 8
    first = big.replicate_ids < 8
    cut = [big.sample_indices.tobytes()]
    cut += [getattr(big, name)[first].tobytes()
            for name in ("values", "dist2_to_min", "grad_sq", "final_states", "replicate_ids")]
    cut.append([(e.replicate_id, e.step, e.detail) for e in big.aborts if e.replicate_id < 8])
    assert cut == _bank_bytes(small)


def test_alpha_one_small_gamma_warns():
    obj = make_quadratic(lam=1.0)
    oracle = gaussian_oracle(obj, 1.0)
    run = lambda gamma: run_sgd_sweep(obj, oracle, [StepSchedule(gamma, 1.0)], np.array([1.0]), 10, 1, 1)
    with pytest.warns(UserWarning, match="alpha=1") as caught:
        run(0.4)
    assert caught[0].filename == __file__  # points at the caller's line
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(1.0)


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
