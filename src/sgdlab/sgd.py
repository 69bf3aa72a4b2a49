"""Discrete stochastic gradient descent with decaying steps, and the bank
machinery that every process in the package runs on.

The recursion X_{n+1} = X_n - gamma (n+1)^{-alpha} H(X_n, Z_{n+1}) runs as
a bank of replicates (run_sgd_replicates); a solo run (run_sgd) returns
the one-row bank of its stream.  The block scheduler (_map_blocks) cuts
the bank's streams into consecutive near-equal blocks of at most
REPLICATE_BLOCK rows, as many per worker (one each for a bank of up to
WORKERS * REPLICATE_BLOCK rows), and hands them to fork_map, which runs
them on WORKERS processes (this one and forked children, one per core
this process may run on) and returns the results in block order.  One
block kernel (_Rows.run) steps each block: it draws innovations in chunks
of CHUNK steps (CHUNK // K for a coupled step of K substeps) from
per-replicate counter-based streams, checks every row for divergence
after each step (_Rows.check: one vdot over the block, per-row norms only
when that sum is large or not finite) and records observables at the
plan's checkpoints.  The sde and coupling modules drive the same kernel
with their own step.  Every bank keeps each row's state after the last
step (final_states), whatever the plan; checkpoints record observables
only.

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
its aborts field.  A solo runner (run_sgd here, run_sde_em and
run_coupled in their modules) raises its row's DivergenceError instead.
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
class ReplicateRuns:
    """Checkpoint records for a bank of replicates, stacked (replicate,
    checkpoint), and final_states, each row's (dim,) state after the last
    step (None only in a table no run made, such as the CLI's batch-eps
    rows).

    Only replicates that never diverged have rows; aborts holds the
    DivergenceError of each of the others, ordered by replicate id.
    """

    sample_indices: np.ndarray
    values: np.ndarray
    dist2_to_min: np.ndarray
    grad_sq: np.ndarray
    replicate_ids: np.ndarray
    final_states: np.ndarray | None = None
    aborts: list[DivergenceError] = field(default_factory=list)


def _norm_detail(symbol: str):
    """Abort detail naming the state's norm, or its non-finiteness."""

    def detail(sq) -> str:
        if not np.isfinite(sq):
            return "state is non-finite"
        return f"|{symbol}| = {np.sqrt(sq):.3e} exceeds {DIVERGENCE_NORM:g}"

    return detail


class _Checkpoints:
    """One process's observables for every row of a block, one column per
    checkpoint, and the rows' states after the last step (final, set by the
    block once it has run)."""

    def __init__(self, obj: Objective, n_rows: int, n_ckpt: int):
        self.obj = obj
        self.values = np.empty((n_rows, n_ckpt))
        self.dist2 = np.empty((n_rows, n_ckpt))
        self.grad_sq = np.empty((n_rows, n_ckpt))
        self.final = None

    def __getstate__(self):
        # a worker sends back the arrays only; the parent has the objective
        return {k: v for k, v in vars(self).items() if k != "obj"}

    def record(self, p: int, x: np.ndarray) -> None:
        self.values[:, p], g = self.obj.value_and_gradient(x)
        diff = x - self.obj.x_star
        self.dist2[:, p] = np.einsum("rd,rd->r", diff, diff)
        self.grad_sq[:, p] = np.einsum("rd,rd->r", g, g)


class _Rows:
    """The replicate rows of one block and the first divergence of each row."""

    def __init__(self, ids):
        self.ids = np.asarray(ids)
        self.aborted: dict[int, DivergenceError] = {}

    def check(self, x: np.ndarray, step: int, detail, reset) -> None:
        """The divergence check: rows of x past DIVERGENCE_NORM or non-finite
        record their first DivergenceError and are reset, in place, to the
        finite state reset; the other rows are untouched.

        One vdot over the whole block clears it first: every row's squared
        norm is at most the sum over all rows, and the factor 1/2 covers the
        rounding of both sums.  nan and inf fail the comparison, and only a
        block that fails it pays for the per-row norms.  vdot, unlike dot,
        does not warn when a square overflows to inf (a warning is an error
        under -W error)."""
        if np.vdot(x, x) <= 0.5 * DIVERGENCE_NORM**2:
            return
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
        final_states=cat([c.final for c in ckpts]),
        aborts=aborts,
    )


def _solo(bank):
    """A bank of one, or the DivergenceError its row aborted with."""
    if bank.aborts:
        raise bank.aborts[0]
    return bank


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
):
    rows = _Rows([s.replicate_id for s in streams])
    gens = [s.generator() for s in streams]
    x = np.broadcast_to(np.asarray(x0, dtype=float), (len(gens), obj.dim)).copy()
    steps = np.asarray(sched.step_size(np.arange(n_steps)))
    ckpt = _Checkpoints(obj, len(gens), len(plan))
    detail = _norm_detail("X")

    def draw(start, m):
        return np.stack([oracle.draw_raw((m,), g) for g in gens])

    def step(n, raw, j):
        nonlocal x
        x = x - steps[n] * oracle.apply(x, raw[:, j])
        rows.check(x, n + 1, detail, obj.x_star)

    rows.run(n_steps, plan, draw, step, lambda p: ckpt.record(p, x))
    ckpt.final = x
    return rows, ckpt


def _sgd(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_steps: int,
    streams: list,
    plan,
) -> ReplicateRuns:
    """The one SGD entry: the rows of streams, stepped block by block."""
    if n_steps < 1 or not streams:
        raise ValueError("n_steps and n_replicates must be >= 1")
    if any(s is None for s in streams):
        raise ValueError("SGD needs an explicit RngStream")
    tag = obj.tag(StronglyConvex)
    if sched.alpha == 1.0 and tag is not None and not sched.gamma > 1.0 / (2.0 * tag.mu):
        warnings.warn(
            f"alpha=1 with gamma={sched.gamma:g} <= 1/(2 mu)={1.0 / (2.0 * tag.mu):g}:"
            " the strongly convex rate guarantee needs a larger gamma",
            stacklevel=3,
        )
    plan = _normalize_plan(plan, n_steps, "plan indices must lie in [1, n_steps]")
    work = lambda block: _sgd_block(obj, oracle, sched, x0, n_steps, plan, block)
    return _replicate_runs(_map_blocks(streams, work), plan)


def run_sgd(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_steps: int,
    plan=None,
    stream: RngStream | None = None,
) -> ReplicateRuns:
    """One SGD replicate, recorded at the plan's iteration indices: a
    one-row bank, or the DivergenceError its row aborted with."""
    return _solo(_sgd(obj, oracle, sched, x0, n_steps, [stream], plan))


def run_sgd_replicates(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_steps: int,
    n_replicates: int,
    master_seed: int,
    plan=None,
) -> ReplicateRuns:
    """A bank of replicates with streams derived from one master seed.

    Results are identical for any block size, and equal to run_sgd
    replicate by replicate; replicates that diverge are listed in the
    bank's aborts instead of its rows.
    """
    streams = [derive_stream(master_seed, i, "noise") for i in range(n_replicates)]
    return _sgd(obj, oracle, sched, x0, n_steps, streams, plan)

