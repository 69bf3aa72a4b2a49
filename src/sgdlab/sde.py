"""Euler-Maruyama integration of the decaying-rate diffusion.

The continuous companion of the SGD recursion follows
dY_t = -(c + t)^{-alpha} [grad f(Y_t) dt + c^{1/2} S(Y_t) dB_t] with
c = gamma_alpha and S(x) = oracle.sigma_sqrt(x), the square root of the
oracle's noise covariance (a zero-noise oracle gives the deterministic
time-changed gradient flow).  Integration is Euler-Maruyama with
left-endpoint evaluation of both the rate and S, either over an explicitly
materialized Brownian path, so that refined runs can share its increments
(run_sde_em, which returns a one-row bank), or over increments each
replicate draws from its own stream (run_sde_em_replicates).  Each bank's
final_states are the states at the last substep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream, StepSchedule, derive_stream
from .noise import GradientOracle
from .objectives import Objective
from .sgd import (
    ReplicateRuns,
    _Checkpoints,
    _map_blocks,
    _normalize_plan,
    _replicate_runs,
    _Rows,
    _norm_detail,
    _solo,
    fork_map,
)

DEFAULT_SUBSTEPS = 16


@dataclass
class BrownianPath:
    """Increments of one Brownian motion on a uniform grid of width h.

    increment j is B_{(j+1)h} - B_{jh} ~ Normal(0, h Id).
    """

    horizon: float
    h: float
    increments: np.ndarray
    dim: int

    def __post_init__(self):
        expected = path_length(self.horizon, self.h)
        if self.increments.shape != (expected, self.dim):
            raise ValueError(
                f"path needs {expected} increments of dim {self.dim},"
                f" got array of shape {self.increments.shape}"
            )

    @property
    def count(self) -> int:
        return len(self.increments)

    def block_sums(self, k: int) -> np.ndarray:
        """Sums of consecutive groups of k increments (count must divide)."""
        if self.count % k != 0:
            raise ValueError(f"{self.count} increments do not split into blocks of {k}")
        return self.increments.reshape(self.count // k, k, self.dim).sum(axis=1)

    def refine(self, stream) -> "BrownianPath":
        """Bridge each increment into two halves of width h/2.

        The first half is increment/2 plus an independent Normal(0, h/4)
        perturbation and the second is the remainder, so each pair sums
        back to the coarse increment to machine precision (the subtraction
        rounds once; exact cancellation is not a float identity).  The fine
        path spans the count * h the coarse increments cover, which exceeds
        the horizon when the horizon is off the coarse grid.
        """
        rng = stream.generator() if isinstance(stream, RngStream) else stream
        xi = np.sqrt(self.h) / 2.0 * rng.standard_normal(self.increments.shape)
        first = 0.5 * self.increments + xi
        second = self.increments - first
        fine = np.empty((2 * self.count, self.dim))
        fine[0::2] = first
        fine[1::2] = second
        return BrownianPath(self.count * self.h, self.h / 2.0, fine, self.dim)


def path_length(horizon: float, h: float) -> int:
    """ceil(horizon/h), robust to the quotient sitting a few ulp above an integer."""
    return int(np.ceil(horizon / h - 1e-9))


def sample_brownian_path(horizon: float, h: float, dim: int, stream) -> BrownianPath:
    if horizon <= 0 or h <= 0:
        raise ValueError("horizon and h must be positive")
    rng = stream.generator() if isinstance(stream, RngStream) else stream
    n = path_length(horizon, h)
    inc = np.sqrt(h) * rng.standard_normal((n, dim))
    return BrownianPath(horizon, h, inc, dim)


def _plan_substeps(plan_times, count: int, h: float) -> np.ndarray:
    """Plan times snapped to substep indices in [1, count] (default: log-spaced)."""
    j = None if plan_times is None else np.rint(np.asarray(plan_times, dtype=float) / h)
    return _normalize_plan(j, count, "plan times must fall in (0, horizon] on the substep grid")


def _em_block(obj, oracle, sched, x0, count, h, plan, ids, draw):
    """Euler-Maruyama rows of one block; draw(start, m) gives their (rows, m, dim) increments."""
    root_ga = np.sqrt(sched.gamma_alpha)
    rates = np.asarray(sched.continuous_rate(np.arange(count) * h))
    rows = _Rows(ids)
    y = np.broadcast_to(np.asarray(x0, dtype=float), (len(rows.ids), obj.dim)).copy()
    ckpt = _Checkpoints(obj, len(rows.ids), len(plan))
    detail = _norm_detail("Y")

    def step(j, db, i):
        nonlocal y
        drift = obj.gradient(y) * h
        y = y - rates[j] * (drift + root_ga * oracle.apply_sqrt(y, db[:, i]))
        rows.check(y, j + 1, detail, obj.x_star)

    rows.run(count, plan, draw, step, lambda p: ckpt.record(p, y))
    ckpt.final = y
    return rows, ckpt


def run_sde_em(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int,
    path: BrownianPath,
    plan_times=None,
    replicate_id: int = 0,
) -> ReplicateRuns:
    """Integrate the diffusion over one Brownian path: a one-row bank, or
    the DivergenceError its row aborted with.

    The substep is h = gamma_alpha / substeps_per_block and the path must be
    sampled on exactly that grid over [0, horizon].  Records at plan times,
    snapped to the substep grid (default: 64 log-spaced points).
    """
    if sched.alpha >= 1.0:
        raise ValueError("the continuous process needs alpha < 1")
    h = sched.gamma_alpha / substeps_per_block
    if not np.isclose(path.h, h, rtol=1e-9, atol=0.0):
        raise ValueError(f"path substep {path.h!r} does not match gamma_alpha/K = {h!r}")
    if path.dim != obj.dim:
        raise ValueError(f"path dim {path.dim} != objective dim {obj.dim}")
    if path.count * path.h < horizon * (1.0 - 1e-9):
        raise ValueError("path does not cover the horizon")
    count = path_length(horizon, h)
    plan = _plan_substeps(plan_times, count, h)
    part = _em_block(
        obj, oracle, sched, x0, count, h, plan, [replicate_id],
        lambda start, m: path.increments[None, start : start + m],
    )
    return _solo(_replicate_runs([part], plan * h))


def run_sde_em_replicates(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int,
    n_replicates: int,
    master_seed: int,
    plan_times=None,
) -> ReplicateRuns:
    """Bank of independent diffusion replicates with on-the-fly increments.

    Paths are never materialized (long horizons would not fit in memory);
    each replicate draws its increments from its own brownian stream in
    fixed chunks, so the result does not depend on the block size.
    """
    if sched.alpha >= 1.0:
        raise ValueError("the continuous process needs alpha < 1")
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    h = sched.gamma_alpha / substeps_per_block
    count = path_length(horizon, h)
    plan = _plan_substeps(plan_times, count, h)
    root_h = np.sqrt(h)

    def work(block):
        gens = [s.generator() for s in block]
        draw = lambda start, m: root_h * np.stack([g.standard_normal((m, obj.dim)) for g in gens])
        ids = [s.replicate_id for s in block]
        return _em_block(obj, oracle, sched, x0, count, h, plan, ids, draw)

    streams = [derive_stream(master_seed, i, "brownian") for i in range(n_replicates)]
    return _replicate_runs(_map_blocks(streams, work), plan * h)


def em_bias_probe(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int,
    path: BrownianPath,
    refine_stream,
) -> float:
    """Integrator self-consistency: |Y_T at K substeps - Y_T at 2K| on one path.

    The second run uses the bridge refinement of the same path, so the
    difference isolates discretization error from Brownian randomness.
    Both runs stop at the first coarse grid time at or past the horizon.
    The two legs run side by side through fork_map: the coarse one (K
    substeps) in this process, the fine one (2K) in a forked child when
    there are two workers.  A leg's DivergenceError is raised here, the
    coarse leg's first.
    """
    h = sched.gamma_alpha / substeps_per_block
    end = path_length(horizon, h) * h
    legs = [(substeps_per_block, path), (2 * substeps_per_block, path.refine(refine_stream))]
    coarse, fine = fork_map(
        lambda leg: run_sde_em(obj, oracle, sched, x0, end, *leg, plan_times=[end]), legs
    )
    return float(np.linalg.norm(coarse.final_states[0] - fine.final_states[0]))
