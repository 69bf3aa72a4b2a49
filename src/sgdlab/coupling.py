"""Coupled discrete/continuous runs sharing one Brownian source.

One Brownian path drives the diffusion; the same path's block increments,
rescaled to standard normals, drive the discrete chain's noise through one
of three couplings per block:

* gaussian_shared: the discrete noise IS the rescaled block increment
  (exact for oracles whose noise is sigma_sqrt(x) times a standard normal);
* comonotone_1d: the discrete noise is F^{-1}(Phi(G)) for the oracle's
  one-dimensional noise law F, the W2-optimal coupling of 1-D marginals;
* independent: the discrete noise comes from its own stream.  This is not
  an optimal coupling; distances measured under it upper-bound nothing
  sharp and are flagged by the kind string.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .analysis import Estimate
from .core import RngStream, StepSchedule, derive_stream
from .noise import GradientOracle
from .objectives import Objective
from .sde import path_length
from .sgd import (
    DivergenceError,
    ReplicateRuns,
    Trajectory,
    _Checkpoints,
    _map_blocks,
    _normalize_plan,
    _replicate_runs,
    _Rows,
    _survivors,
)

GAUSSIAN_SHARED = "gaussian_shared"
COMONOTONE_1D = "comonotone_1d"
INDEPENDENT = "independent"
COUPLING_KINDS = (GAUSSIAN_SHARED, COMONOTONE_1D, INDEPENDENT)
# The comonotone map's lowest u.  For every df > 4, scipy's Student quantile
# is accurate to about 1e-13 down to u = 1e-212; below about 1e-218 it is
# wrong, and +inf from 1e-255 on for df near 4 (at 1e-300 for df up to 6).
U_FLOOR = 1e-200


@dataclass
class CoupledRun:
    """One replicate of the pair, recorded at aligned block checkpoints.

    discrete.sample_indices holds block indices n; continuous records the
    matching times n * gamma_alpha; dist2[i] is the squared distance
    between the two states at checkpoint i.
    """

    discrete: Trajectory
    continuous: Trajectory
    dist2: np.ndarray
    schedule: StepSchedule
    coupling_kind: str
    replicate_id: int


@dataclass
class CoupledBank:
    """Vectorized bank of coupled replicates (arrays are replicate-major).

    Only replicates whose two processes both stayed finite have rows;
    aborts holds the DivergenceError of each of the others, ordered by
    replicate id.
    """

    block_indices: np.ndarray
    times: np.ndarray
    coupled_dist2: np.ndarray
    discrete: ReplicateRuns
    continuous: ReplicateRuns
    final_discrete_states: np.ndarray
    final_continuous_states: np.ndarray
    schedule: StepSchedule
    coupling_kind: str
    aborts: list[DivergenceError] = field(default_factory=list)

    def run(self, i: int) -> CoupledRun:
        return CoupledRun(
            discrete=self.discrete.trajectory(i),
            continuous=self.continuous.trajectory(i),
            dist2=self.coupled_dist2[i],
            schedule=self.schedule,
            coupling_kind=self.coupling_kind,
            replicate_id=int(self.discrete.replicate_ids[i]),
        )

    def runs(self) -> list[CoupledRun]:
        return [self.run(i) for i in range(len(self.coupled_dist2))]


def resolve_kind(obj: Objective, oracle: GradientOracle, kind: str | None) -> str:
    if kind is None:
        if oracle.gaussian_noise:
            return GAUSSIAN_SHARED
        if obj.dim == 1 and oracle.noise_ppf is not None:
            return COMONOTONE_1D
        return INDEPENDENT
    if kind not in COUPLING_KINDS:
        raise ValueError(f"coupling kind must be one of {COUPLING_KINDS}, got {kind!r}")
    if kind == GAUSSIAN_SHARED and not oracle.gaussian_noise:
        raise ValueError("gaussian_shared needs an oracle with gaussian noise")
    if kind == COMONOTONE_1D:
        if obj.dim != 1:
            raise ValueError("comonotone coupling is one-dimensional only")
        if oracle.noise_ppf is None:
            raise ValueError(
                "comonotone coupling needs a noise law with an invertible CDF;"
                " this oracle does not expose a quantile function"
            )
    return kind


def _coupled_block(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    n_blocks: int,
    substeps: int,
    plan: np.ndarray,
    streams: list[RngStream],
    kind: str,
    record_states: bool,
):
    rows = _Rows([s.replicate_id for s in streams])
    keys = [(s.master_seed, s.replicate_id) for s in streams]
    brown_gens = [derive_stream(*key, "brownian").generator() for key in keys]
    noise_gens = [derive_stream(*key, "noise").generator() for key in keys]
    r = len(brown_gens)
    d = obj.dim
    ga = sched.gamma_alpha
    h = ga / substeps
    root_ga = np.sqrt(ga)
    root_h = np.sqrt(h)
    rates = np.asarray(sched.continuous_rate(np.arange(n_blocks * substeps) * h))
    steps_disc = np.asarray(sched.step_size(np.arange(n_blocks)))
    x_star = obj.x_star
    # the one-dimensional comonotone map degenerates to the shared coupling
    # when the noise is gaussian (quantile of its own CDF), so take the
    # exact path and keep the requested label
    effective = GAUSSIAN_SHARED if kind == COMONOTONE_1D and oracle.gaussian_noise else kind

    x = np.broadcast_to(np.asarray(x0, dtype=float), (r, d)).copy()
    y = x.copy()
    discrete = _Checkpoints(obj, r, len(plan), record_states)
    continuous = _Checkpoints(obj, r, len(plan), record_states)
    gap_d2 = np.empty((r, len(plan)))
    continuous_detail = lambda sq: "continuous state is non-finite or diverged"
    discrete_detail = lambda sq: "discrete state is non-finite or diverged"

    def draw(k0, nb):
        db = root_h * np.stack([g.standard_normal((nb * substeps, d)) for g in brown_gens])
        if effective != INDEPENDENT:
            return db, None
        return db, np.stack([oracle.draw_raw((nb,), g) for g in noise_gens])

    def step(k, noise, b):
        nonlocal x, y
        db, raw = noise
        for j in range(substeps):
            drift = obj.gradient(y) * h
            y = y - rates[k * substeps + j] * (
                drift + root_ga * oracle.apply_sqrt(y, db[:, b * substeps + j])
            )
            rows.check(y, k + 1, continuous_detail, x_star)
        g_block = db[:, b * substeps : (b + 1) * substeps].sum(axis=1) / root_ga
        if effective == GAUSSIAN_SHARED:
            h_val = obj.gradient(x) + oracle.apply_sqrt(x, g_block)
        elif effective == COMONOTONE_1D:
            u = np.clip(ndtr(g_block), U_FLOOR, 1.0 - 1e-16)
            h_val = obj.gradient(x) + oracle.noise_ppf(u)
        else:
            h_val = oracle.apply(x, raw[:, b])
        x = x - steps_disc[k] * h_val
        rows.check(x, k + 1, discrete_detail, x_star)

    def record(p):
        discrete.record(p, x)
        continuous.record(p, y)
        gap = y - x
        gap_d2[:, p] = np.einsum("rd,rd->r", gap, gap)

    rows.run(n_blocks, plan, draw, step, record, substeps)
    return rows, discrete, continuous, gap_d2, x, y


def _coupled(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int,
    streams: list,
    kind: str | None,
    plan,
    record_states: bool,
) -> CoupledBank:
    """The one coupled entry: the pairs of the replicates that streams
    identify, stepped block by block."""
    if sched.alpha >= 1.0:
        raise ValueError("coupling needs alpha < 1")
    if not streams:
        raise ValueError("n_replicates must be >= 1")
    if any(s is None for s in streams):
        raise ValueError("a coupled run needs an explicit RngStream")
    kind = resolve_kind(obj, oracle, kind)
    ga = sched.gamma_alpha
    n_blocks = path_length(horizon, ga)
    plan = _normalize_plan(plan, n_blocks, "plan block indices must lie in [1, n_blocks]")
    work = lambda block: _coupled_block(
        obj, oracle, sched, x0, n_blocks, substeps_per_block, plan, block, kind, record_states
    )
    parts = _map_blocks(streams, work)
    keep, aborts = _survivors(parts)
    cat = lambda i: np.concatenate([part[i] for part in parts])[keep]
    return CoupledBank(
        block_indices=plan,
        times=plan * ga,
        coupled_dist2=cat(3),
        discrete=_replicate_runs(parts, plan, leg=1),
        continuous=_replicate_runs(parts, plan * ga, leg=2),
        final_discrete_states=cat(4),
        final_continuous_states=cat(5),
        schedule=sched,
        coupling_kind=kind,
        aborts=aborts,
    )


def run_coupled(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int = 16,
    stream: RngStream | None = None,
    kind: str | None = None,
    plan=None,
    record_states: bool = False,
) -> CoupledRun:
    """One coupled replicate over ceil(horizon / gamma_alpha) blocks.

    stream identifies the replicate: its (master_seed, replicate_id) pair
    derives the brownian stream driving both processes and, for the
    independent kind, the separate noise stream.
    """
    bank = _coupled(
        obj, oracle, sched, x0, horizon, substeps_per_block, [stream], kind, plan, record_states
    )
    if bank.aborts:
        raise bank.aborts[0]
    return bank.run(0)


def run_coupled_replicates(
    obj: Objective,
    oracle: GradientOracle,
    sched: StepSchedule,
    x0,
    horizon: float,
    substeps_per_block: int,
    n_replicates: int,
    master_seed: int,
    kind: str | None = None,
    plan=None,
    record_states: bool = False,
) -> CoupledBank:
    """Bank of coupled replicates; the block size never changes results.

    Replicates that diverge are listed in the bank's aborts instead of its rows.
    """
    streams = [derive_stream(master_seed, i, "noise") for i in range(n_replicates)]
    return _coupled(
        obj, oracle, sched, x0, horizon, substeps_per_block, streams, kind, plan, record_states
    )


def strong_error(runs: CoupledBank, checkpoint: int | None = None) -> Estimate:
    """Root mean squared coupled distance of a bank at a block checkpoint.

    The mean of squared distances gets a normal-approximation interval and
    the square root a delta-method one (95%, two-sided).  Defaults to the
    last recorded checkpoint.
    """
    idx = len(runs.block_indices) - 1
    if checkpoint is not None:
        hits = np.nonzero(runs.block_indices == checkpoint)[0]
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


def _endpoint_states(runs: ReplicateRuns) -> np.ndarray:
    if runs.states is None:
        raise ValueError("weak_error needs recorded states (record_states=True)")
    return runs.states[:, -1]


def weak_error(runs_discrete, runs_continuous_or_coupled, g) -> Estimate:
    """|E g(continuous endpoint) - E g(discrete endpoint)| with a 95% CI.

    When the second argument is a CoupledBank, the paired estimator
    mean(g(Y) - g(X)) over its replicates is used, which cancels most
    replicate noise, and the first argument is ignored.  Otherwise both
    arguments are ReplicateRuns recorded with record_states=True, and the
    two sample means of g at their last checkpoint are differenced with a
    pooled interval.
    """
    second = runs_continuous_or_coupled
    if isinstance(second, CoupledBank):
        gx = np.asarray(g(second.final_discrete_states), dtype=float)
        gy = np.asarray(g(second.final_continuous_states), dtype=float)
        if len(gx) < 2:
            raise ValueError("weak_error needs at least 2 replicates")
        diffs = gy - gx
        se = float(diffs.std(ddof=1)) / np.sqrt(len(diffs))
        return Estimate(value=abs(float(diffs.mean())), ci_halfwidth=1.96 * se, n=len(diffs))
    gx = np.asarray(g(_endpoint_states(runs_discrete)), dtype=float)
    gy = np.asarray(g(_endpoint_states(second)), dtype=float)
    if len(gx) < 2 or len(gy) < 2:
        raise ValueError("weak_error needs at least 2 replicates per process")
    se = np.sqrt(gx.var(ddof=1) / len(gx) + gy.var(ddof=1) / len(gy))
    return Estimate(
        value=abs(float(gy.mean() - gx.mean())),
        ci_halfwidth=1.96 * float(se),
        n=min(len(gx), len(gy)),
    )


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


def epsilon_hat(oracle: GradientOracle, x, n_samples: int, stream) -> float:
    """Distance between the oracle's noise law and its gaussian surrogate.

    Draws n_samples of H(x, .), then n_samples of the surrogate
    grad f(x) + sigma_sqrt(x) G, and measures W2 per coordinate between
    the two (combined as a root sum of squares).  For non-diagonal
    covariances this compares marginals only, which lower-bounds the
    joint distance.
    """
    rng = stream.generator() if isinstance(stream, RngStream) else stream
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
