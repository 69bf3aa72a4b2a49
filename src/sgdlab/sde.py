"""Euler integration of the decaying-rate diffusion and its noiseless flow.

The continuous companion of the SGD recursion follows
dY_t = -(c + t)^{-alpha} [grad f(Y_t) dt + c^{1/2} S(Y_t) dB_t] with
c = gamma_alpha and S a square root of the noise covariance.  Integration
is Euler-Maruyama with left-endpoint evaluation of both the rate and S,
over explicitly materialized Brownian paths so that coupled and refined
runs can share increments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream, StepSchedule, derive_stream, log_spaced_indices
from .noise import GradientOracle
from .objectives import Objective
from .sgd import (
    CHUNK,
    ReplicateRuns,
    Trajectory,
    _Checkpoints,
    _map_blocks,
    _only_row,
    _replicate_runs,
    _Rows,
    _norm_detail,
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
        rounds once; exact cancellation is not a float identity).
        """
        rng = stream.generator() if isinstance(stream, RngStream) else stream
        xi = np.sqrt(self.h) / 2.0 * rng.standard_normal(self.increments.shape)
        first = 0.5 * self.increments + xi
        second = self.increments - first
        fine = np.empty((2 * self.count, self.dim))
        fine[0::2] = first
        fine[1::2] = second
        return BrownianPath(self.horizon, self.h / 2.0, fine, self.dim)


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


def _diffusion_fn(sigma_sqrt):
    """Normalize the diffusion spec to a callable (x, db) -> vector or None."""
    if sigma_sqrt is None:
        return None
    if isinstance(sigma_sqrt, GradientOracle):
        return sigma_sqrt.apply_sqrt
    if callable(sigma_sqrt):

        def apply(x, db):
            return np.einsum("...ij,...j->...i", sigma_sqrt(x), db)

        return apply
    raise TypeError("sigma_sqrt must be None, an oracle, or a matrix-valued callable")


def _plan_substeps(plan_times, count: int, h: float) -> np.ndarray:
    if plan_times is None:
        return log_spaced_indices(count)
    t = np.asarray(plan_times, dtype=float)
    j = np.unique(np.rint(t / h).astype(np.int64))
    if len(j) == 0 or j[0] < 1 or j[-1] > count:
        raise ValueError("plan times must fall in (0, horizon] on the substep grid")
    return j


def _em_block(obj, sigma_sqrt, sched, x0, count, h, plan, ids, draw, record_states):
    """Euler-Maruyama rows of one block; draw(start, m) gives their (rows, m, dim) increments."""
    dif = _diffusion_fn(sigma_sqrt)
    root_ga = np.sqrt(sched.gamma_alpha)
    rates = np.asarray(sched.continuous_rate(np.arange(count) * h))
    rows = _Rows(ids)
    y = np.broadcast_to(np.asarray(x0, dtype=float), (len(rows.ids), obj.dim)).copy()
    ckpt = _Checkpoints(obj, len(rows.ids), len(plan), record_states)
    detail = _norm_detail("Y")

    def step(j, db, i):
        nonlocal y
        drift = obj.gradient(y) * h
        move = drift if dif is None else drift + root_ga * dif(y, db[:, i])
        y = y - rates[j] * move
        rows.check(y, j + 1, detail, obj.x_star)

    rows.run(count, CHUNK, plan, draw, step, lambda p: ckpt.record(p, y))
    return rows, ckpt


def run_sde_em(
    obj: Objective,
    sigma_sqrt,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int,
    path: BrownianPath,
    plan_times=None,
    record_states: bool = False,
    replicate_id: int = 0,
) -> Trajectory:
    """Integrate the diffusion over one Brownian path.

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
        obj, sigma_sqrt, sched, x0, count, h, plan, [replicate_id],
        lambda start, m: path.increments[None, start : start + m], record_states,
    )
    return _only_row(_replicate_runs([part], plan * h))


def run_sde_em_replicates(
    obj: Objective,
    sigma_sqrt,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int,
    n_replicates: int,
    master_seed: int,
    plan_times=None,
    threads: int = 1,
) -> ReplicateRuns:
    """Bank of independent diffusion replicates with on-the-fly increments.

    Paths are never materialized (long horizons would not fit in memory);
    each replicate draws its increments from its own brownian stream in
    fixed chunks, so the result does not depend on the thread count.
    """
    if sched.alpha >= 1.0:
        raise ValueError("the continuous process needs alpha < 1")
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    h = sched.gamma_alpha / substeps_per_block
    count = path_length(horizon, h)
    plan = _plan_substeps(plan_times, count, h)
    root_h = np.sqrt(h)

    def work(ids):
        gens = [derive_stream(master_seed, int(rid), "brownian").generator() for rid in ids]
        draw = lambda start, m: root_h * np.stack([g.standard_normal((m, obj.dim)) for g in gens])
        return _em_block(obj, sigma_sqrt, sched, x0, count, h, plan, ids, draw, False)

    return _replicate_runs(_map_blocks(n_replicates, threads, work), plan * h)


def run_gradient_flow(
    obj: Objective,
    x0,
    horizon: float,
    steps: int,
    plan_times=None,
    record_states: bool = False,
) -> Trajectory:
    """Classic RK4 on the autonomous flow dx/dt = -grad f(x)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = horizon / steps
    plan = _plan_substeps(plan_times, steps, h)
    rows = _Rows([0])
    y = np.broadcast_to(np.asarray(x0, dtype=float), (1, obj.dim)).copy()
    ckpt = _Checkpoints(obj, 1, len(plan), record_states)
    detail = _norm_detail("Y")

    def step(j, _noise, _j):
        nonlocal y
        k1 = -obj.gradient(y)
        k2 = -obj.gradient(y + 0.5 * h * k1)
        k3 = -obj.gradient(y + 0.5 * h * k2)
        k4 = -obj.gradient(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.check(y, j + 1, detail, obj.x_star)

    rows.run(steps, steps, plan, lambda start, m: None, step, lambda p: ckpt.record(p, y))
    return _only_row(_replicate_runs([(rows, ckpt)], plan * h))


def em_bias_probe(
    obj: Objective,
    sigma_sqrt,
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
    """
    h = sched.gamma_alpha / substeps_per_block
    final = [path_length(horizon, h) * h]
    coarse = run_sde_em(
        obj, sigma_sqrt, sched, x0, horizon, substeps_per_block, path,
        plan_times=final, record_states=True,
    )
    fine_path = path.refine(refine_stream)
    fine = run_sde_em(
        obj, sigma_sqrt, sched, x0, horizon, 2 * substeps_per_block, fine_path,
        plan_times=final, record_states=True,
    )
    return float(np.linalg.norm(coarse.states[-1] - fine.states[-1]))
