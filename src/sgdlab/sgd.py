"""Discrete stochastic gradient descent with decaying steps, and the bank
machinery that every process in the package runs on.

The recursion X_{n+1} = X_n - gamma (n+1)^{-alpha} H(X_n, Z_{n+1}) runs as
a bank of replicates, one per schedule of a sweep (run_sgd_sweep: the same
replicates under one or more schedules).  A sweep is one stacked bank:
each block steps its replicates under every schedule at once, draws each
replicate's noise once for all of them, and splits back into one bank per
schedule whose bytes equal those of that schedule's sweep alone.  The
block scheduler (_map_blocks) cuts the bank's streams into the fewest
consecutive blocks of at most REPLICATE_BLOCK replicates that, with the
zero-argument tasks a caller runs beside the bank (couple-demo's bias
probe), make the same number per worker (one block each for a bank of up
to WORKERS * REPLICATE_BLOCK replicates and no task), and hands blocks and
tasks to fork_map, which runs them on WORKERS processes (this one and
forked children, one per core this process may run on) and returns the
results in order.  One block kernel (_Rows.run) steps each block: it draws
innovations in chunks of CHUNK steps (CHUNK // K for a coupled step of K
substeps) from per-replicate counter-based streams into one buffer that
each chunk refills (_raw_draw; sde._brownian_draw for Brownian
increments), checks every row for divergence after each step
(_Rows.check: one vdot over the block, per-row norms only when that sum
is large or not finite) and records observables at the checkpoints,
core.log_spaced_indices of the bank's step count (at most 64,
geometrically spaced, the last step among them): the points every rate
and approximation fit reads.  The sde and coupling modules drive the
same kernel with their own step.  Every bank keeps each row's state
after the last step (final_states): the recorder writes the rows' states
with their observables, and the last checkpoint is the last step.
A step's size is computed with its chunk's noise, so no run holds a
table of its whole schedule.

Results are written in place: a bank is one ReplicateRuns from its first
step to its report.  Its checkpoint arrays and final states are
allocated once, before its blocks fork, in anonymous shared memory
(_bank), and each block writes the rows of its own through the one
checkpoint recorder (_record), in whichever process steps it.  A block's
result, the only thing a forked worker pipes back, is its rows' ids and
aborts (_Rows); no checkpoint array is pickled or concatenated.

Block and chunk are sized together: a block's draw buffer holds
REPLICATE_BLOCK * CHUNK = 2^18 innovations, so a wider block (fewer
Python-level steps per bank) takes a shorter chunk and the buffer does
not grow; a stacked block shares the buffer over its schedules, so it
does not grow with them either.  Every array op is row-independent and each stream is read in
order whatever the chunk, so a replicate's trajectory is bit-identical
however the replicates are split into blocks and the steps into chunks,
and whichever process steps a block.

A row whose state leaves the finite regime records its first
DivergenceError and has its state reset to the minimizer; the other rows
step on, and the bank drops the aborted rows and lists their errors in
its aborts field (_survivors).  A bank with no aborted row is the one
its blocks wrote, views of shared memory; one with aborts holds a copy of
the surviving rows.  Either way a bank's arrays go when the bank is
dropped, so a caller that drops each bank once it is done with it holds
one at a time (the stepping itself holds every bank of a sweep).  There is no solo
runner: a single run is a bank of one, and sde.em_bias_probe, which needs
its legs' final states, raises a leg's DivergenceError instead.
"""
from __future__ import annotations

import mmap
import os
import pickle
import signal
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .core import RngStream, derive_stream, log_spaced_indices
from .noise import GradientOracle
from .objectives import Objective, StronglyConvex

CHUNK = 256
REPLICATE_BLOCK = 1024
DIVERGENCE_NORM = 1e12
# _Rows.check's squared bounds: the vdot over a block and a row's squared norm
_BLOCK_CLEAR_SQ = 0.5 * DIVERGENCE_NORM**2
_ROW_CLEAR_SQ = DIVERGENCE_NORM**2
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


def _shared(n: int) -> np.ndarray:
    """n floats in anonymous shared memory: what a forked child writes
    there, the parent reads.  The memory is unmapped with the last view."""
    return np.frombuffer(mmap.mmap(-1, 8 * max(n, 1)), dtype=float, count=n)


def _bank(obj: Objective, n_rows: int, sample_indices: np.ndarray) -> ReplicateRuns:
    """A bank of n_rows replicates (ids 0 to n_rows - 1) recording at
    sample_indices, before its blocks run: its checkpoint arrays and final
    states are views of one shared buffer, which the blocks write."""
    size = 3 * n_rows * len(sample_indices)
    buf = _shared(size + n_rows * obj.dim)
    return ReplicateRuns(sample_indices, *buf[:size].reshape(3, n_rows, len(sample_indices)),
                         np.arange(n_rows), buf[size:].reshape(n_rows, obj.dim))


def _record(obj: Objective, bank: ReplicateRuns, s: slice, p: int, x: np.ndarray) -> None:
    """The checkpoint recorder: the observables of bank's rows s at
    checkpoint p, from their states x, which are also the rows' final
    states until a later checkpoint records (the last is the last step)."""
    bank.values[s, p], g = obj.value_and_gradient(x)
    diff = x - obj.x_star
    bank.dist2_to_min[s, p] = np.einsum("rd,rd->r", diff, diff)
    bank.grad_sq[s, p] = np.einsum("rd,rd->r", g, g)
    bank.final_states[s] = x


class _Rows:
    """The replicate rows of one block and the first divergence of each row
    (all_aborted once every row has one)."""

    def __init__(self, ids):
        self.ids = np.asarray(ids)
        self.aborted: dict[int, DivergenceError] = {}
        self.all_aborted = False

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
        if np.vdot(x, x) <= _BLOCK_CLEAR_SQ:
            return
        sq = np.einsum("rd,rd->r", x, x)
        if sq.max() <= _ROW_CLEAR_SQ:
            return  # nan and inf fail the comparison and take the slow path
        bad = ~np.isfinite(sq) | (sq > _ROW_CLEAR_SQ)
        for i in np.flatnonzero(bad).tolist():
            if i not in self.aborted:
                self.aborted[i] = DivergenceError(int(self.ids[i]), step, detail(sq[i]))
        x[bad] = reset
        self.all_aborted = len(self.aborted) == len(self.ids)

    def split(self, count: int) -> list[_Rows]:
        """The rows cut into count consecutive equal parts (a stacked
        block's schedules), each with the aborts of its own rows."""
        size = len(self.ids) // count
        parts = [_Rows(self.ids[k * size : (k + 1) * size]) for k in range(count)]
        for i in sorted(self.aborted):
            parts[i // size].aborted[i % size] = self.aborted[i]
        return parts

    def run(self, n_steps: int, plan: np.ndarray, draw, step, record, substeps: int = 1) -> None:
        """The block kernel: draw(start, m) the noise of each chunk of m steps,
        step(n, noise, j) every step n (the j-th of its chunk), then
        record(p) at each plan[p] == n + 1.  A chunk is CHUNK // substeps
        steps (at least one) for steps that each draw substeps increments.
        Stops once every row aborted."""
        chunk = max(1, CHUNK // substeps)
        plan = plan.tolist() + [None]
        p, due = 0, plan[0]
        for start in range(0, n_steps, chunk):
            m = min(chunk, n_steps - start)
            noise = draw(start, m)
            for j in range(m):
                step(start + j, noise, j)
                if self.all_aborted:
                    return
                if due == start + j + 1:
                    record(p)
                    p += 1
                    due = plan[p]
            del noise  # freed before the next chunk is drawn, not after


def fork_map(fn, items) -> list:
    """[fn(item) for item in items] on up to WORKERS processes, this one and
    forked children: process w runs items w, w + workers, ..., and each
    child pipes back its pickled results, or the exception it raised, which
    the parent raises again.  A bank's block results are its rows' ids and
    aborts only: the blocks write their banks in place, into shared memory
    allocated before the fork (_bank).  Runs in-process with one worker or
    one item, and inside a call (in a child or in the parent's share).
    Every child is reaped, and killed first if the parent leaves early.  A
    child leaves through os._exit, which flushes no file buffer, so fn
    flushes any file it writes (cli._emit_banks' workers write raw rows to
    files opened before the fork) before it returns."""
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


def worker_slices(n: int, cap: int | None = None, beside: int = 0) -> list[slice]:
    """Consecutive slices of range(n), at most cap long: the fewest that,
    with beside other tasks, make a multiple of WORKERS (one per worker
    when n <= WORKERS * cap and beside is 0), or n slices of one when n is
    smaller.  The first slices all have the same length and the rest are
    no longer."""
    if n == 0:
        return []
    count = -(-n // (cap or n))
    count = min(n, count + -(count + beside) % WORKERS)
    size = -(-n // count)
    edges = [min(i * size, n - count + i) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _map_blocks(n: int, work, beside=()) -> tuple[list, list]:
    """The block scheduler: work(s) on each of the consecutive slices s of at
    most REPLICATE_BLOCK of a bank's n rows that worker_slices cuts, and
    each zero-argument task of beside, run together by fork_map; returns the
    blocks' results in block order and the tasks' results in task order."""
    slices = worker_slices(n, REPLICATE_BLOCK, len(beside))
    tasks = [partial(work, s) for s in slices] + list(beside)
    results = fork_map(lambda task: task(), tasks)
    return results[: len(slices)], results[len(slices) :]


def _survivors(bank: ReplicateRuns, parts: list) -> ReplicateRuns:
    """bank, as its blocks wrote it (parts their _Rows, in order), cut to
    the rows that never diverged, with the aborts of the others in
    replicate order: bank itself, holding views of the shared buffer, when
    no row aborted, else a copy of the surviving rows."""
    aborts = [rows.aborted[i] for rows in parts for i in sorted(rows.aborted)]
    if not aborts:
        return bank
    keep = np.isin(bank.replicate_ids, [err.replicate_id for err in aborts], invert=True)
    per_row = ("values", "dist2_to_min", "grad_sq", "replicate_ids", "final_states")
    return replace(bank, aborts=aborts, **{name: getattr(bank, name)[keep] for name in per_row})


def _raw_draw(oracle: GradientOracle, gens: list):
    """draw(start, m) for the block kernel: the next m raw innovations of
    each generator, as a (rows, m, ...) view of one buffer that each chunk
    refills in place; the buffer is sized by the first chunk, the longest."""
    buf = None

    def draw(start, m):
        nonlocal buf
        for i, g in enumerate(gens):
            raw = oracle.draw_raw((m,), g)
            if buf is None:
                buf = np.empty((len(gens),) + raw.shape, raw.dtype)
            buf[i, :m] = raw
        return buf[:, :m]

    return draw


def _sgd_block(
    obj: Objective,
    oracle: GradientOracle,
    scheds: tuple,
    x0,
    n_steps: int,
    streams: list[RngStream],
    banks: list[ReplicateRuns],
    s: slice,
) -> list[_Rows]:
    """One block of a sweep: the replicates of streams[s] under every
    schedule, stepped as one (schedules, replicates, dim) state and recorded
    into rows s of banks (one per schedule).  Each chunk is drawn once per
    replicate and broadcast over the schedules, together with the chunk's
    (steps, schedules) table of step sizes, so no block holds a whole
    run's table.  Returns one _Rows per schedule."""
    streams = streams[s]
    rows = _Rows([st.replicate_id for st in streams] * len(scheds))
    shape = (len(scheds), len(streams), obj.dim)
    x = np.broadcast_to(np.asarray(x0, dtype=float), shape).copy()
    raw_draw = _raw_draw(oracle, [st.generator() for st in streams])
    detail = _norm_detail("X")

    def draw(start, m):
        steps = np.stack([sc.step_size(start + np.arange(m)) for sc in scheds], axis=1)
        return raw_draw(start, m), steps[..., None, None]

    def step(n, noise, j):
        nonlocal x
        raw, steps = noise
        x = x - steps[j] * oracle.apply(x, raw[:, j])
        rows.check(x.reshape(-1, obj.dim), n + 1, detail, obj.x_star)

    def record(p):
        for bank, xs in zip(banks, x):
            _record(obj, bank, s, p, xs)

    rows.run(n_steps, banks[0].sample_indices, draw, step, record)
    return rows.split(len(scheds))


def run_sgd_sweep(
    obj: Objective,
    oracle: GradientOracle,
    scheds,
    x0,
    n_steps: int,
    n_replicates: int,
    master_seed: int,
) -> list[ReplicateRuns]:
    """One bank per schedule of scheds, each of the same replicates, with
    streams derived from one master seed, recording at the checkpoints
    log_spaced_indices(n_steps).

    The sweep runs as one stacked bank that draws each replicate's noise
    once for every schedule; each bank's bytes equal those of the sweep of
    its schedule alone, for any block size.  A replicate that diverges
    under one schedule is listed in that bank's aborts instead of its rows.
    """
    scheds = tuple(scheds)
    if n_steps < 1 or n_replicates < 1:
        raise ValueError("n_steps and n_replicates must be >= 1")
    if not scheds:
        raise ValueError("a sweep needs at least one schedule")
    tag = obj.tag(StronglyConvex)
    for sched in scheds:
        if sched.alpha == 1.0 and tag is not None and not sched.gamma > 1.0 / (2.0 * tag.mu):
            warnings.warn(
                f"alpha=1 with gamma={sched.gamma:g} <= 1/(2 mu)={1.0 / (2.0 * tag.mu):g}:"
                " the strongly convex rate guarantee needs a larger gamma",
                stacklevel=2,
            )
    plan = log_spaced_indices(n_steps)
    streams = [derive_stream(master_seed, i, "noise") for i in range(n_replicates)]
    banks = [_bank(obj, n_replicates, plan) for _ in scheds]
    work = lambda s: _sgd_block(obj, oracle, scheds, x0, n_steps, streams, banks, s)
    blocks, _ = _map_blocks(n_replicates, work)
    return [_survivors(bank, [block[k] for block in blocks]) for k, bank in enumerate(banks)]
