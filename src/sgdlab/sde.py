"""Euler-Maruyama integration of the decaying-rate diffusion.

The continuous companion of the SGD recursion follows
dY_t = -(c + t)^{-alpha} [grad f(Y_t) dt + c^{1/2} S(Y_t) dB_t] with
c = gamma_alpha and S(x) = oracle.sigma_sqrt(x), the square root of the
oracle's noise covariance (a zero-noise oracle gives the deterministic
time-changed gradient flow).  Integration is Euler-Maruyama with
left-endpoint evaluation of both the rate and S, over increments each
replicate draws from its own stream chunk by chunk, with each chunk's
rates computed for that chunk, so neither a path nor its rate table is
ever held.  A bank of the diffusion is the continuous leg of a coupled
bank (coupling.run_coupled_replicates), which steps through _em_substep;
em_bias_probe runs one replicate and the bridge refinement of its path
through the same substep, as two one-row legs stepped together in one
pass of the block kernel, in the calling process.
"""
from __future__ import annotations

import numpy as np

from .core import StepSchedule, derive_stream
from .noise import GradientOracle
from .objectives import Objective
from . import sgd
from .sgd import _Rows, _norm_detail


def path_length(horizon: float, h: float) -> int:
    """ceil(horizon/h), robust to the quotient sitting a few ulp above an integer."""
    return int(np.ceil(horizon / h - 1e-9))


def _substep_grid(obj: Objective, sched: StepSchedule, x0, horizon: float,
                  substeps_per_block: int) -> tuple[float, int]:
    """(h, count): the substep width and the number of substeps that cover
    horizon; raises ValueError for a run the diffusion cannot make."""
    if sched.alpha >= 1.0:
        raise ValueError("the continuous process needs alpha < 1")
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    if substeps_per_block < 1:
        raise ValueError("substeps_per_block must be >= 1")
    if np.ndim(x0) > 1 or np.size(x0) not in (1, obj.dim):
        raise ValueError(f"x0 must be a scalar or a vector of dim {obj.dim}")
    h = sched.gamma_alpha / substeps_per_block
    return h, path_length(horizon, h)


def _brownian_draw(gens: list, dim: int, per_step: int, scale: float | np.ndarray):
    """draw(start, m) for the block kernel: the next m * per_step standard
    normal dim-vectors of each generator, times scale (a float, or one per
    generator shaped (rows, 1, 1)), as a (rows, m * per_step, dim) view of
    one buffer that each chunk refills in place.  The buffer holds a whole
    chunk of the kernel (sgd.CHUNK // per_step steps, read at this call);
    each stream is read as standard_normal((m * per_step, dim)) reads it."""
    buf = np.empty((len(gens), max(1, sgd.CHUNK // per_step) * per_step, dim))

    def draw(start, m):
        out = buf[:, : m * per_step]
        for g, row in zip(gens, out):
            g.standard_normal(out=row)
        out *= scale
        return out

    return draw


def _em_substep(obj, oracle, sched, h):
    """Euler-Maruyama at substep width h: substep(y, rate, db) is y one substep on, and
    rates(start, m) lists substeps start to start + m's rates, computed for that chunk only."""
    root_ga, gradient, apply_sqrt = np.sqrt(sched.gamma_alpha), obj.gradient, oracle.apply_sqrt
    rates = lambda start, m: sched.continuous_rate((start + np.arange(m)) * h).tolist()

    def substep(y, rate, db):
        return y - rate * (gradient(y) * h + root_ga * apply_sqrt(y, db))

    return rates, substep


def em_bias_probe(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int,
    master_seed: int,
) -> float:
    """Integrator self-consistency: |Y_T at K substeps - Y_T at 2K| on one
    Brownian path.

    The coarse leg integrates replicate 0's brownian stream of master_seed;
    when the horizon is a whole number of blocks it is replicate 0 of the
    coupled bank's continuous leg.  The fine leg bridges each of its
    increments into two halves of width h/2: the first is increment/2 plus
    an independent Normal(0, h/4) draw from replicate 1's brownian stream,
    and the second is the remainder, so each pair sums back to the coarse
    increment to machine precision (the subtraction rounds once).  The
    difference thus isolates discretization error from Brownian randomness.
    One pass of the block kernel steps both legs: each step takes one
    coarse substep and the two fine substeps that refine it, from one read
    of both streams per chunk (sgd.CHUNK fine substeps), so neither leg
    holds its path, and both stop at the first coarse grid time at or past
    the horizon.  A leg that diverges records its first DivergenceError and
    the pass stops once the coarse leg has; the coarse leg's error is
    raised here before the fine leg's.  couple-demo runs the whole probe
    beside its coupled bank, as one task of the bank's fork_map.
    """
    h, count = _substep_grid(obj, sched, x0, horizon, substeps_per_block)
    rates, substep = _em_substep(obj, oracle, sched, h)
    fine_rates, fine_substep = _em_substep(obj, oracle, sched, sched.gamma_alpha / (2 * substeps_per_block))
    # replicate 0's increments and replicate 1's bridge normals, read together
    normals = _brownian_draw([derive_stream(master_seed, i, "brownian").generator() for i in (0, 1)],
                             obj.dim, 1, np.array([np.sqrt(h), np.sqrt(h) / 2.0])[:, None, None])
    coarse, fine = _Rows([0]), _Rows([0])
    y = np.broadcast_to(np.asarray(x0, dtype=float), (1, obj.dim)).copy()
    z = y.copy()
    detail = _norm_detail("Y")

    def draw(start, m):
        inc, xi = normals(start, m)[:, :, None]
        return inc, 0.5 * inc + xi, rates(start, m), fine_rates(2 * start, 2 * m)

    def step(j, noise, i):
        nonlocal y, z
        inc, first, rate, fine_rate = noise
        y = substep(y, rate[i], inc[i])
        coarse.check(y, j + 1, detail, obj.x_star)
        z = fine_substep(z, fine_rate[2 * i], first[i])
        fine.check(z, 2 * j + 1, detail, obj.x_star)
        z = fine_substep(z, fine_rate[2 * i + 1], inc[i] - first[i])
        fine.check(z, 2 * j + 2, detail, obj.x_star)

    # an empty plan: the pass records nothing but the legs' final states
    coarse.run(count, np.zeros(0, int), draw, step, None, 2)
    for rows in (coarse, fine):
        if rows.aborted:
            raise rows.aborted[0]
    return float(np.linalg.norm(y[0] - z[0]))
