"""Coupled discrete/continuous runs sharing one Brownian source.

One Brownian path drives the diffusion (sde's Euler-Maruyama substep); the
same path's block increments, rescaled to standard normals, drive the
discrete chain's noise through one of three couplings per block, which
resolve_kind picks from the oracle's noise law (the first that applies):

* gaussian_shared: the discrete step is oracle.apply(x, G) with G the
  rescaled block increment (exact for oracles whose raw innovation is a
  standard normal, so that apply(x, G) = grad f(x) + sigma_sqrt(x) G);
* comonotone_1d: the discrete noise is F^{-1}(Phi(G)) for the oracle's
  one-dimensional noise law F, the W2-optimal coupling of 1-D marginals;
* independent: the discrete step is oracle.apply(x, raw) with raw drawn
  from its own stream.  This is not an optimal coupling; distances
  measured under it upper-bound nothing sharp and are flagged by the kind
  string.

A bank of coupled replicates (run_coupled_replicates) is a CoupledBank,
and its continuous leg is the package's one bank of the diffusion (of
the noiseless flow, with a zero-noise oracle); a replicate that diverges
is dropped from both legs and listed in the aborts of the bank and of
each leg.  Each leg is one ReplicateRuns, allocated in shared memory
before the blocks run (sgd._bank); the blocks write it in place through
sgd's one checkpoint recorder, final states included, and the squared
gaps between the legs (coupled_dist2) beside it.  A bank can run
zero-argument tasks beside its blocks, in the same fork_map (couple-demo's
integrator bias probe), and returns their results in its beside list.
strong_error and weak_error reduce a bank to error estimates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import Estimate
from .core import RngStream, StepSchedule, derive_stream, log_spaced_indices
from .noise import GradientOracle
from .objectives import Objective
from .sde import _brownian_draw, _em_substep, _substep_grid, path_length
from .sgd import (
    DivergenceError,
    ReplicateRuns,
    _bank,
    _map_blocks,
    _raw_draw,
    _record,
    _Rows,
    _shared,
    _survivors,
)

GAUSSIAN_SHARED = "gaussian_shared"
COMONOTONE_1D = "comonotone_1d"
INDEPENDENT = "independent"
# The comonotone map's lowest u.  For every df > 4, scipy's Student quantile
# is accurate to about 1e-13 down to u = 1e-212; below about 1e-218 it is
# wrong, and +inf from 1e-255 on for df near 4 (at 1e-300 for df up to 6).
U_FLOOR = 1e-200


@dataclass
class CoupledBank:
    """Vectorized bank of coupled replicates (arrays are replicate-major).

    discrete records at the log-spaced block indices n, continuous at the
    matching times n * gamma_alpha (each leg's sample_indices), and
    coupled_dist2[r, i] is the squared distance between replicate r's two
    states at checkpoint i.  discrete.final_states and
    continuous.final_states hold the two states after the last block.
    Only replicates whose two processes both stayed finite have rows; aborts
    holds the DivergenceError of each of the others, ordered by replicate id.
    beside holds the results of the tasks run beside the bank, in order.
    """

    coupled_dist2: np.ndarray
    discrete: ReplicateRuns
    continuous: ReplicateRuns
    coupling_kind: str
    aborts: list[DivergenceError] = field(default_factory=list)
    beside: list = field(default_factory=list)


def ndtr(g):
    """The standard normal CDF.  scipy.special is imported here, on the
    first call, because it is slow to import and only the comonotone
    coupling uses it."""
    from scipy.special import ndtr as phi

    return phi(g)


def resolve_kind(obj: Objective, oracle: GradientOracle) -> str:
    """The coupling of the oracle's noise law: shared for gaussian noise,
    comonotone for other one-dimensional noise with a quantile function,
    independent otherwise."""
    if oracle.gaussian_noise:
        return GAUSSIAN_SHARED
    if obj.dim == 1 and oracle.noise_ppf is not None:
        return COMONOTONE_1D
    return INDEPENDENT


def _coupled_block(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_blocks: int,
    substeps: int,
    kind: str,
    streams: list[RngStream],
    discrete: ReplicateRuns,
    continuous: ReplicateRuns,
    gap_d2: np.ndarray,
    s: slice,
) -> _Rows:
    """One block of a coupled bank: the replicates of streams[s], recorded
    into rows s of each leg and of gap_d2."""
    streams = streams[s]
    rows = _Rows([st.replicate_id for st in streams])
    brown_gens = [derive_stream(st.master_seed, st.replicate_id, "brownian").generator() for st in streams]
    noise_gens = [st.generator() for st in streams] if kind == INDEPENDENT else []
    r, d = len(streams), obj.dim
    h = sched.gamma_alpha / substeps
    root_ga = np.sqrt(sched.gamma_alpha)
    rates, substep = _em_substep(obj, oracle, sched, h)
    x_star = obj.x_star
    brown = _brownian_draw(brown_gens, d, substeps, np.sqrt(h))
    independent = _raw_draw(oracle, noise_gens)

    x = np.broadcast_to(np.asarray(x0, dtype=float), (r, d)).copy()
    y = x.copy()
    continuous_detail = lambda sq: "continuous state is non-finite or diverged"
    discrete_detail = lambda sq: "discrete state is non-finite or diverged"

    def draw(k0, nb):
        # the chunk's increments copied substep-major, so that each substep
        # reads a contiguous (rows, dim) slice, their rates as a list and
        # the chunk's discrete step sizes; each block's rescaled increment
        # sum (one reshape of the draw, the same bits as summing each
        # block's slice) is the discrete chain's raw innovation, unless the
        # independent kind draws its own
        db = brown(k0, nb)
        if kind == INDEPENDENT:
            raw = independent(k0, nb)
        else:
            raw = db.reshape(r, nb, substeps, d).sum(axis=2) / root_ga
        steps = sched.step_size(k0 + np.arange(nb))
        return db.transpose(1, 0, 2).copy(), rates(k0 * substeps, nb * substeps), raw, steps

    def step(k, noise, b):
        nonlocal x, y
        db, rate, raw, steps = noise
        for j in range(b * substeps, (b + 1) * substeps):
            y = substep(y, rate[j], db[j])
            rows.check(y, k + 1, continuous_detail, x_star)
        if kind == COMONOTONE_1D:
            u = np.clip(ndtr(raw[:, b]), U_FLOOR, 1.0 - 1e-16)
            h_val = obj.gradient(x) + oracle.noise_ppf(u)
        else:
            h_val = oracle.apply(x, raw[:, b])
        x = x - steps[b] * h_val
        rows.check(x, k + 1, discrete_detail, x_star)

    def record(p):
        _record(obj, discrete, s, p, x)
        _record(obj, continuous, s, p, y)
        gap = y - x
        gap_d2[s, p] = np.einsum("rd,rd->r", gap, gap)

    rows.run(n_blocks, discrete.sample_indices, draw, step, record, substeps)
    return rows


def run_coupled_replicates(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int,
    n_replicates: int,
    master_seed: int,
    beside=(),
) -> CoupledBank:
    """Bank of coupled replicates over ceil(horizon / gamma_alpha) blocks,
    recording at the block indices log_spaced_indices(n_blocks); the block
    size never changes results.

    Replicate i's (master_seed, i) pair derives the brownian stream driving
    both processes and, for the independent kind, the separate noise
    stream.  Replicates that diverge are listed in the bank's aborts
    instead of its rows.  beside holds zero-argument tasks that run in the
    bank's fork_map, on the cores its blocks leave free (the block
    scheduler cuts the bank into fewer blocks to make room for them);
    their results are the bank's beside list, and an exception a task
    raises reaches the caller.
    """
    _substep_grid(obj, sched, x0, horizon, substeps_per_block)  # the diffusion's checks
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    kind = resolve_kind(obj, oracle)
    ga = sched.gamma_alpha
    n_blocks = path_length(horizon, ga)
    plan = log_spaced_indices(n_blocks)
    streams = [derive_stream(master_seed, i, "noise") for i in range(n_replicates)]
    discrete, continuous = (_bank(obj, n_replicates, at) for at in (plan, plan * ga))
    gap_d2 = _shared(n_replicates * len(plan)).reshape(n_replicates, len(plan))
    work = lambda s: _coupled_block(
        obj, oracle, sched, x0, n_blocks, substeps_per_block, kind, streams, discrete, continuous,
        gap_d2, s,
    )
    parts, side = _map_blocks(n_replicates, work, beside)
    discrete, continuous = (_survivors(leg, parts) for leg in (discrete, continuous))
    return CoupledBank(
        coupled_dist2=gap_d2[discrete.replicate_ids] if discrete.aborts else gap_d2,
        discrete=discrete,
        continuous=continuous,
        coupling_kind=kind,
        aborts=discrete.aborts,
        beside=side,
    )


def strong_error(runs: CoupledBank, checkpoint: int | None = None) -> Estimate:
    """Root mean squared coupled distance of a bank at a block checkpoint.

    The mean of squared distances gets a normal-approximation interval and
    the square root a delta-method one (95%, two-sided).  Defaults to the
    last recorded checkpoint.
    """
    idx = len(runs.discrete.sample_indices) - 1
    if checkpoint is not None:
        hits = np.nonzero(runs.discrete.sample_indices == checkpoint)[0]
        if len(hits) == 0:
            raise ValueError(f"checkpoint {checkpoint} was not recorded")
        idx = int(hits[0])
    d2 = runs.coupled_dist2[:, idx]
    n = len(d2)
    if n < 2:
        raise ValueError("strong_error needs at least 2 replicates")
    mean = float(d2.mean())
    se = float(d2.std(ddof=1)) / np.sqrt(n)
    if mean <= 0.0:
        return Estimate(value=0.0, ci_halfwidth=0.0, n=n)
    return Estimate(value=float(np.sqrt(mean)), ci_halfwidth=1.96 * se / (2.0 * np.sqrt(mean)), n=n)


def weak_error(bank: CoupledBank, g) -> Estimate:
    """|E g(continuous endpoint) - E g(discrete endpoint)| with a 95% CI.

    The paired estimator mean(g(Y) - g(X)) over the bank's replicates
    cancels most replicate noise.
    """
    gx = np.asarray(g(bank.discrete.final_states), dtype=float)
    gy = np.asarray(g(bank.continuous.final_states), dtype=float)
    if len(gx) < 2:
        raise ValueError("weak_error needs at least 2 replicates")
    diffs = gy - gx
    se = float(diffs.std(ddof=1)) / np.sqrt(len(diffs))
    return Estimate(value=abs(float(diffs.mean())), ci_halfwidth=1.96 * se, n=len(diffs))


def w2_1d(a, b) -> float:
    """Quadratic Wasserstein distance of two equal-size 1-D samples.

    Sorting couples order statistics, which is the optimal transport plan
    on the line; the distance is the root mean squared gap.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.shape != b.shape:
        raise ValueError(f"sample counts differ: {a.shape} vs {b.shape}")
    if len(a) == 0:
        raise ValueError("need at least one sample")
    diff = a - b
    return float(np.sqrt(np.mean(diff * diff)))


def epsilon_hat(oracle: GradientOracle, x, n_samples: int, stream: RngStream) -> float:
    """Distance between the oracle's noise law and its gaussian surrogate.

    Draws n_samples of H(x, .), then n_samples of the surrogate
    grad f(x) + sigma_sqrt(x) G, and measures W2 per coordinate between
    the two (combined as a root sum of squares).  For non-diagonal
    covariances this compares marginals only, which lower-bounds the
    joint distance.
    """
    rng = stream.generator()
    x = np.asarray(x, dtype=float)
    d = oracle.objective.dim
    draws = oracle.apply(
        np.broadcast_to(x, (n_samples,) + x.shape),
        oracle.draw_raw((n_samples,), rng),
    )
    grad = oracle.objective.gradient(x)
    surrogate = grad + oracle.apply_sqrt(x, rng.standard_normal((n_samples, d)))
    per_coord = [w2_1d(draws[:, i], surrogate[:, i]) for i in range(d)]
    return float(np.sqrt(np.sum(np.square(per_coord))))
