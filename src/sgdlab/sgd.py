"""Discrete stochastic gradient descent with decaying steps, and the bank
machinery that every process in the package runs on.

The recursion X_{n+1} = X_n - gamma (n+1)^{-alpha} H(X_n, Z_{n+1}) runs as
a bank of replicates (run_sgd_replicates); a solo run (run_sgd) is a bank
of one row.  The block scheduler (_map_blocks) cuts the bank's streams into
consecutive near-equal blocks of at most REPLICATE_BLOCK rows, as many per
worker (one each for a bank of up to WORKERS * REPLICATE_BLOCK rows), and
hands them to fork_map, which runs them on WORKERS processes (this one and
forked children, one per core this process may run on) and returns the
results in block order.  One block kernel (_Rows.run) steps each block: it
draws innovations in chunks of CHUNK steps (CHUNK // K for a coupled step
of K substeps) from per-replicate counter-based streams, checks every row
for divergence after each step and records observables at the plan's
checkpoints.  The sde and coupling modules drive the same kernel with their
own step.

Block and chunk are sized together: a block's draw buffer holds
REPLICATE_BLOCK * CHUNK = 2^18 innovations, so a wider block (fewer
Python-level steps per bank) takes a shorter chunk and the buffer does
not grow.  Every array op is row-independent and each stream is read in
order whatever the chunk, so a replicate's trajectory is bit-identical
however the replicates are split into blocks and the steps into chunks,
and whichever process steps a block.

A row whose state leaves the finite regime records its first
DivergenceError and has its state reset to the minimizer; the other rows
step on, and the bank drops the aborted rows and lists their errors in
its aborts field.
"""
from __future__ import annotations

import os
import pickle
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, StepSchedule, derive_stream, log_spaced_indices
from .noise import GradientOracle
from .objectives import Objective, StronglyConvex

CHUNK = 256
REPLICATE_BLOCK = 1024
DIVERGENCE_NORM = 1e12
# fork_map's worker count: the cores this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_inside = False


class DivergenceError(RuntimeError):
    """A replicate left the finite regime; carries where it happened."""

    def __init__(self, replicate_id: int, step: int, detail: str):
        super().__init__(
            f"replicate {replicate_id} aborted at step {step}: {detail}"
        )
        self.replicate_id = replicate_id
        self.step = step
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.replicate_id, self.step, self.detail)


@dataclass
class Trajectory:
    """One replicate sampled at a sorted set of indices (or times)."""

    sample_indices: np.ndarray
    values: np.ndarray
    dist2_to_min: np.ndarray
    replicate_id: int
    states: np.ndarray | None = None
    grad_sq: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.sample_indices)
        for arr in (self.values, self.dist2_to_min, self.states, self.grad_sq):
            if arr is not None and len(arr) != n:
                raise ValueError("trajectory columns must match sample_indices")


@dataclass
class ReplicateRuns:
    """Checkpoint records for a bank of replicates, stacked (replicate, checkpoint).

    Only replicates that never diverged have rows; aborts holds the
    DivergenceError of each of the others, ordered by replicate id.
    """

    sample_indices: np.ndarray
    values: np.ndarray
    dist2_to_min: np.ndarray
    grad_sq: np.ndarray
    replicate_ids: np.ndarray
    states: np.ndarray | None = None
    aborts: list[DivergenceError] = field(default_factory=list)

    def trajectory(self, i: int) -> Trajectory:
        return Trajectory(
            sample_indices=self.sample_indices,
            values=self.values[i],
            dist2_to_min=self.dist2_to_min[i],
            replicate_id=int(self.replicate_ids[i]),
            states=None if self.states is None else self.states[i],
            grad_sq=self.grad_sq[i],
        )

    def trajectories(self) -> list[Trajectory]:
        return [self.trajectory(i) for i in range(len(self.replicate_ids))]


def _norm_detail(symbol: str):
    """Abort detail naming the state's norm, or its non-finiteness."""

    def detail(sq) -> str:
        if not np.isfinite(sq):
            return "state is non-finite"
        return f"|{symbol}| = {np.sqrt(sq):.3e} exceeds {DIVERGENCE_NORM:g}"

    return detail


class _Checkpoints:
    """One process's observables for every row of a block, one column per checkpoint."""

    def __init__(self, obj: Objective, n_rows: int, n_ckpt: int, record_states: bool):
        self.obj = obj
        self.values = np.empty((n_rows, n_ckpt))
        self.dist2 = np.empty((n_rows, n_ckpt))
        self.grad_sq = np.empty((n_rows, n_ckpt))
        self.states = np.empty((n_rows, n_ckpt, obj.dim)) if record_states else None

    def __getstate__(self):
        # a worker sends back the arrays only; the parent has the objective
        return {k: v for k, v in vars(self).items() if k != "obj"}

    def record(self, p: int, x: np.ndarray) -> None:
        self.values[:, p] = self.obj.value(x)
        diff = x - self.obj.x_star
        self.dist2[:, p] = np.einsum("rd,rd->r", diff, diff)
        g = self.obj.gradient(x)
        self.grad_sq[:, p] = np.einsum("rd,rd->r", g, g)
        if self.states is not None:
            self.states[:, p] = x


class _Rows:
    """The replicate rows of one block and the first divergence of each row."""

    def __init__(self, ids):
        self.ids = np.asarray(ids)
        self.aborted: dict[int, DivergenceError] = {}

    def check(self, x: np.ndarray, step: int, detail, reset) -> None:
        """The divergence check: rows of x past DIVERGENCE_NORM or non-finite
        record their first DivergenceError and are reset, in place, to the
        finite state reset; the other rows are untouched."""
        sq = np.einsum("rd,rd->r", x, x)
        if sq.max() <= DIVERGENCE_NORM**2:
            return  # nan and inf fail the comparison and take the slow path
        bad = ~np.isfinite(sq) | (sq > DIVERGENCE_NORM**2)
        for i in np.flatnonzero(bad).tolist():
            if i not in self.aborted:
                self.aborted[i] = DivergenceError(int(self.ids[i]), step, detail(sq[i]))
        x[bad] = reset

    def run(self, n_steps: int, plan: np.ndarray, draw, step, record, substeps: int = 1) -> None:
        """The block kernel: draw(start, m) the noise of each chunk of m steps,
        step(n, noise, j) every step n (the j-th of its chunk), then
        record(p) at each plan[p] == n + 1.  A chunk is CHUNK // substeps
        steps (at least one) for steps that each draw substeps increments.
        Stops once every row aborted."""
        chunk = max(1, CHUNK // substeps)
        p = 0
        for start in range(0, n_steps, chunk):
            m = min(chunk, n_steps - start)
            noise = draw(start, m)
            for j in range(m):
                step(start + j, noise, j)
                if len(self.aborted) == len(self.ids):
                    return
                while p < len(plan) and plan[p] == start + j + 1:
                    record(p)
                    p += 1


def fork_map(fn, items) -> list:
    """[fn(item) for item in items] on up to WORKERS processes, this one and
    forked children: process w runs items w, w + workers, ..., and each
    child pipes back its pickled results, or the exception it raised, which
    the parent raises again.  Runs in-process with one worker or one item,
    and inside a call (in a child or in the parent's share).  Every child
    is reaped, and killed first if the parent leaves early."""
    global _inside
    items = list(items)
    workers = min(WORKERS, len(items))
    if workers <= 1 or _inside:
        return [fn(item) for item in items]
    share = lambda w: [fn(item) for item in items[w::workers]]
    pids, pipes = [], []
    try:
        for w in range(1, workers):
            r, wfd = os.pipe()
            pipes.append(open(r, "rb"))
            with open(wfd, "wb") as writer:  # the parent's end closes after the fork
                pid = os.fork()
                if pid == 0:
                    try:
                        _inside = True
                        try:
                            reply = pickle.dumps(share(w))
                        except BaseException as err:
                            reply = pickle.dumps(err)
                        writer.write(reply)
                        writer.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        _inside = True
        shares = [share(0)]
        for fh in pipes:
            try:
                result = pickle.load(fh)
            except EOFError:  # killed (e.g. out of memory), or its error would not pickle
                raise RuntimeError("a fork_map worker ended without a result") from None
            if isinstance(result, BaseException):
                raise result
            shares.append(result)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _inside = False
        for fh in pipes:
            fh.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return [shares[i % workers][i // workers] for i in range(len(items))]


def worker_slices(n: int, cap: int | None = None) -> list[slice]:
    """Consecutive near-equal slices of range(n), at most cap long, as few
    as allow the same number per worker (one each when n <= WORKERS * cap)."""
    if n == 0:
        return []
    count = WORKERS * -(-n // (WORKERS * (cap or n)))
    size = -(-n // count)
    return [slice(i, i + size) for i in range(0, n, size)]


def _map_blocks(streams: list, work) -> list:
    """The block scheduler: work(block) on the consecutive blocks of at most
    REPLICATE_BLOCK streams that worker_slices cuts, run by fork_map.  Each
    work call returns a tuple whose first entry is the block's _Rows."""
    return fork_map(lambda s: work(streams[s]), worker_slices(len(streams), REPLICATE_BLOCK))


def _survivors(parts: list) -> tuple[np.ndarray, list[DivergenceError]]:
    """Mask of the stacked block rows that never diverged, and the aborts
    of the others in replicate order."""
    keep, aborts = [], []
    for rows, *_ in parts:
        k = np.ones(len(rows.ids), dtype=bool)
        k[list(rows.aborted)] = False
        keep.append(k)
        aborts += [rows.aborted[i] for i in sorted(rows.aborted)]
    return np.concatenate(keep), aborts


def _replicate_runs(parts: list, sample_indices, leg: int = 1) -> ReplicateRuns:
    """Stack the _Checkpoints at position leg of every block's result."""
    keep, aborts = _survivors(parts)
    cat = lambda arrays: np.concatenate(arrays)[keep]
    ckpts = [part[leg] for part in parts]
    return ReplicateRuns(
        sample_indices=sample_indices,
        values=cat([c.values for c in ckpts]),
        dist2_to_min=cat([c.dist2 for c in ckpts]),
        grad_sq=cat([c.grad_sq for c in ckpts]),
        replicate_ids=cat([part[0].ids for part in parts]),
        states=None if ckpts[0].states is None else cat([c.states for c in ckpts]),
        aborts=aborts,
    )


def _only_row(runs: ReplicateRuns) -> Trajectory:
    """The trajectory of a bank of one, or the DivergenceError it aborted with."""
    if runs.aborts:
        raise runs.aborts[0]
    return runs.trajectory(0)


def _normalize_plan(plan, n: int, error: str) -> np.ndarray:
    """Sorted distinct checkpoint indices in [1, n] (default: log-spaced);
    raises ValueError(error) for indices outside."""
    if plan is None:
        return log_spaced_indices(n)
    plan = np.unique(np.asarray(plan, dtype=np.int64))
    if len(plan) == 0 or plan[0] < 1 or plan[-1] > n:
        raise ValueError(error)
    return plan


def _sgd_block(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_steps: int,
    plan: np.ndarray,
    streams: list[RngStream],
    record_states: bool,
    radius: float | None,
):
    rows = _Rows([s.replicate_id for s in streams])
    gens = [s.generator() for s in streams]
    x = np.broadcast_to(np.asarray(x0, dtype=float), (len(gens), obj.dim)).copy()
    steps = np.asarray(sched.step_size(np.arange(n_steps)))
    ckpt = _Checkpoints(obj, len(gens), len(plan), record_states)
    detail = _norm_detail("X")

    def draw(start, m):
        return np.stack([oracle.draw_raw((m,), g) for g in gens])

    def step(n, raw, j):
        nonlocal x
        x = x - steps[n] * oracle.apply(x, raw[:, j])
        if radius is not None:
            norms = np.sqrt(np.einsum("rd,rd->r", x, x))
            over = norms > radius
            if np.any(over):
                x[over] *= radius / norms[over, None]
        rows.check(x, n + 1, detail, obj.x_star)

    rows.run(n_steps, plan, draw, step, lambda p: ckpt.record(p, x))
    return rows, ckpt


def _sgd(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_steps: int,
    streams: list,
    plan,
    record_states: bool,
    radius: float | None,
) -> ReplicateRuns:
    """The one SGD entry: the rows of streams, stepped block by block."""
    if n_steps < 1 or not streams:
        raise ValueError("n_steps and n_replicates must be >= 1")
    if any(s is None for s in streams):
        raise ValueError("SGD needs an explicit RngStream")
    if radius is not None and np.linalg.norm(np.asarray(x0, dtype=float)) > radius:
        raise ValueError("x0 must lie inside the projection ball")
    tag = obj.tag(StronglyConvex)
    if sched.alpha == 1.0 and tag is not None and not sched.gamma > 1.0 / (2.0 * tag.mu):
        warnings.warn(
            f"alpha=1 with gamma={sched.gamma:g} <= 1/(2 mu)={1.0 / (2.0 * tag.mu):g}:"
            " the strongly convex rate guarantee needs a larger gamma",
            stacklevel=3,
        )
    plan = _normalize_plan(plan, n_steps, "plan indices must lie in [1, n_steps]")
    work = lambda block: _sgd_block(
        obj, oracle, sched, x0, n_steps, plan, block, record_states, radius
    )
    return _replicate_runs(_map_blocks(streams, work), plan)


def run_sgd(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_steps: int,
    plan=None,
    stream: RngStream | None = None,
    record_states: bool = False,
) -> Trajectory:
    """One SGD replicate, recorded at the plan's iteration indices."""
    return _only_row(_sgd(obj, oracle, sched, x0, n_steps, [stream], plan, record_states, None))


def run_projected_sgd(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_steps: int,
    radius: float,
    plan=None,
    stream: RngStream | None = None,
    record_states: bool = False,
) -> Trajectory:
    """SGD with each step followed by projection onto the ball |x| <= radius.

    An infinite radius reproduces run_sgd bit for bit: the projection is
    only applied to rows strictly outside the ball.
    """
    return _only_row(
        _sgd(obj, oracle, sched, x0, n_steps, [stream], plan, record_states, float(radius))
    )


def run_sgd_replicates(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_steps: int,
    n_replicates: int,
    master_seed: int,
    plan=None,
    record_states: bool = False,
    radius: float | None = None,
) -> ReplicateRuns:
    """A bank of replicates with streams derived from one master seed.

    Results are identical for any block size, and equal to run_sgd
    replicate by replicate; replicates that diverge are listed in the
    bank's aborts instead of its rows.
    """
    streams = [derive_stream(master_seed, i, "noise") for i in range(n_replicates)]
    return _sgd(obj, oracle, sched, x0, n_steps, streams, plan, record_states, radius)


def suffix_average(values, k: int) -> float:
    """Mean of the last k+1 entries of values."""
    values = np.asarray(values, dtype=float)
    if k < 0 or k + 1 > len(values):
        raise ValueError(f"need k+1 = {k + 1} values, have {len(values)}")
    return float(values[len(values) - (k + 1) :].mean())
