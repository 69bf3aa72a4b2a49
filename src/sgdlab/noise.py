"""Stochastic gradient oracles and their covariance structure.

An oracle is the pair (objective, noise law): additive noise (gaussian and
heavy share one builder of grad f(x) + scale(x) * a unit-variance draw), or
the mean of per-sample gradients over a drawn batch.  Every oracle separates
*drawing* raw innovations from *applying* them to a state, so a driver can
pre-draw blocks, reuse them across coupled processes, and stay bit-identical
between scalar and vectorized paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objectives import LeastSquaresObjective, Objective

HEAVY_LAWS = ("rademacher", "laplace", "student")


@dataclass(frozen=True)
class GradientOracle:
    """Unbiased gradient estimator H(x, xi) with known covariance.

    draw_raw(prefix, rng) returns the raw innovation for states with the
    given batch shape; apply(x, raw) turns state plus innovation into the
    estimate H.  sigma(x) is the estimator covariance at x (already divided
    by the batch size where one applies), sigma_sqrt its symmetric square
    root, and apply_sqrt(x, g) the matching action on a vector without
    forming the matrix when the structure is diagonal.  eta is the declared
    noise level: a uniform bound on trace sigma(x) for the additive-noise
    oracles, and the second moment of the per-sample gradient at the
    minimizer for the mini-batch ones.

    noise_ppf, when present, is the quantile function of one noise
    coordinate; oracles whose noise has no fixed one-dimensional law
    (resampled data batches, a state-dependent scale) leave it None.
    gaussian_noise marks oracles whose raw innovation is a standard normal
    G with apply(x, G) = grad f(x) + sigma_sqrt(x) G.
    """

    name: str
    objective: Objective
    eta: float
    draw_raw: Callable[[tuple, np.random.Generator], np.ndarray]
    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    sigma_sqrt: Callable[[np.ndarray], np.ndarray]
    apply_sqrt: Callable[[np.ndarray, np.ndarray], np.ndarray]
    noise_ppf: Callable[[np.ndarray], np.ndarray] | None = None
    gaussian_noise: bool = False


def _ndtri(u):
    """The standard normal quantile.  scipy.special is imported here, on the
    first call, because it is slow to import and only quantiles use it."""
    from scipy.special import ndtri

    return ndtri(u)


def _standardized_law(law: str, dim: int, df: float | None):
    """draw(prefix, rng) and ppf for one of the unit-variance laws."""
    if law not in ("normal",) + HEAVY_LAWS:
        raise ValueError(f"law must be one of {('normal',) + HEAVY_LAWS}, got {law!r}")
    if df is not None and law != "student":
        raise ValueError("df applies to student noise only")
    if law == "normal":

        def draw(prefix, rng):
            return rng.standard_normal(prefix + (dim,))

        return draw, _ndtri

    if law == "rademacher":

        def draw(prefix, rng):
            return rng.integers(0, 2, size=prefix + (dim,)).astype(float) * 2.0 - 1.0

        def ppf(u):
            return np.where(np.asarray(u) < 0.5, -1.0, 1.0)

        return draw, ppf

    if law == "laplace":
        b = 1.0 / np.sqrt(2.0)

        def draw(prefix, rng):
            return rng.laplace(0.0, b, size=prefix + (dim,))

        def ppf(u):
            u = np.asarray(u, dtype=float)
            return np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(2.0 * (1.0 - u)))

        return draw, ppf

    if df is None or df <= 4:
        raise ValueError("student noise needs df > 4")
    df = float(df)
    unit = np.sqrt((df - 2.0) / df)

    def draw(prefix, rng):
        return rng.standard_t(df, size=prefix + (dim,)) * unit

    def ppf(u):
        # scipy.stats.t.ppf, bit for bit: stdtrit plus its location 0.0
        # (which turns -0.0 into 0.0), and -inf at 0, where stdtrit
        # alone gives +inf
        from scipy.special import stdtrit  # slow to import; see _ndtri

        u = np.asarray(u, dtype=float)
        return np.where(u == 0.0, -np.inf, stdtrit(df, u) + 0.0) * unit

    return draw, ppf


def _additive_oracle(obj: Objective, law: str, scale_of, eta, scale=None, df=None, name=None):
    """H = grad f(x) + scale_of(x) * raw, with raw i.i.d. unit-variance
    draws of law: a diagonal sigma_sqrt(x) holding scale_of(x).

    scale is the constant that scale_of returns, and None when the scale
    depends on x; only a constant scale gives the noise a quantile.  name
    defaults to the law (student carries its df).
    """
    draw_raw, std_ppf = _standardized_law(law, obj.dim, df)

    def apply(x, raw):
        return obj.gradient(x) + scale_of(x) * raw

    def sigma_sqrt(x):
        x = np.asarray(x, dtype=float)
        s = np.broadcast_to(np.asarray(scale_of(x), dtype=float), x.shape)
        out = np.zeros(x.shape + (x.shape[-1],))
        idx = np.arange(x.shape[-1])
        out[..., idx, idx] = s
        return out

    def sigma(x):
        return np.square(sigma_sqrt(x))

    def apply_sqrt(x, g):
        return scale_of(np.asarray(x, dtype=float)) * g

    def noise_ppf(u):
        return scale * std_ppf(u)

    return GradientOracle(
        name=name or (f"student{df:g}" if law == "student" else law), objective=obj,
        eta=float(eta), draw_raw=draw_raw, apply=apply, sigma=sigma, sigma_sqrt=sigma_sqrt,
        apply_sqrt=apply_sqrt, noise_ppf=None if scale is None else noise_ppf,
        gaussian_noise=law == "normal",
    )


def gaussian_oracle(obj: Objective, sigma_spec, eta: float | None = None) -> GradientOracle:
    """Additive gaussian noise: H = grad f(x) + scale(x) * G.

    sigma_spec is either a constant scalar scale or a callable mapping x to
    per-coordinate scales (a state-dependent diagonal).  For a callable
    spec the uniform trace bound cannot be inferred, so eta must be given.
    """
    if callable(sigma_spec):
        if eta is None:
            raise ValueError("state-dependent sigma needs an explicit eta bound on trace sigma(x)")

        def scale_of(x):
            d = np.asarray(sigma_spec(x), dtype=float)
            if np.any(d < 0):
                raise ValueError("sigma entries must be nonnegative")
            return d

        return _additive_oracle(obj, "normal", scale_of, eta, name="gaussian")
    s = float(sigma_spec)
    if s < 0:
        raise ValueError(f"sigma must be nonnegative, got {s}")
    if eta is None:
        eta = s * s * obj.dim
    return _additive_oracle(obj, "normal", lambda x: s, eta, scale=s, name="gaussian")


def heavy_oracle(obj: Objective, scale: float, law: str, df: float | None = None) -> GradientOracle:
    """Additive noise from a standardized heavier-than-gaussian law.

    Coordinates are i.i.d. with mean zero and unit variance before the
    scale factor, so trace sigma = scale**2 * dim regardless of the law.
    student requires df > 4 so the fourth moment exists.
    """
    if law not in HEAVY_LAWS:
        raise ValueError(f"law must be one of {HEAVY_LAWS}, got {law!r}")
    scale = float(scale)
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    return _additive_oracle(obj, law, lambda x: scale, scale * scale * obj.dim, scale=scale, df=df)


def batch_oracle(
    obj: Objective,
    per_sample_gradient: Callable[[np.ndarray, np.ndarray], np.ndarray],
    data_name: str,
    draw_data: Callable[[tuple, np.random.Generator], np.ndarray],
    m: int,
    sigma_f: Callable[[np.ndarray], np.ndarray],
    eta: float,
) -> GradientOracle:
    """Mini-batch oracle: H(x) averages per-sample gradients of m data draws.

    draw_data(prefix, rng) returns data points shaped prefix + datum shape;
    the oracle appends the batch axis, and data_name goes into its name.
    per_sample_gradient(x, y) must broadcast over leading axes of both
    arguments; it receives x expanded with a batch axis against y of shape
    (..., m, datum).  The covariance is sigma_f(x) / m, with sigma_f the
    closed-form single-sample gradient covariance, and eta is the second
    moment of the per-sample gradient at the minimizer.
    """
    if m < 1:
        raise ValueError("batch size must be >= 1")
    m = int(m)

    def draw_raw(prefix, rng):
        return draw_data(prefix + (m,), rng)

    def apply(x, raw):
        x = np.asarray(x, dtype=float)
        grads = per_sample_gradient(x[..., None, :], raw)
        return np.mean(grads, axis=-2)

    def sigma(x):
        return np.asarray(sigma_f(x), dtype=float) / m

    def sigma_sqrt(x):
        return psd_sqrt(sigma(x))

    def apply_sqrt(x, g):
        return np.einsum("...ij,...j->...i", sigma_sqrt(x), g)

    return GradientOracle(
        name=f"batch{m}[{data_name}]",
        objective=obj,
        eta=float(eta),
        draw_raw=draw_raw,
        apply=apply,
        sigma=sigma,
        sigma_sqrt=sigma_sqrt,
        apply_sqrt=apply_sqrt,
    )


def least_squares_batch_oracle(obj: LeastSquaresObjective, m: int) -> GradientOracle:
    """Resample the rows of a least-squares objective in batches of m.

    A data point is a row index i; its per-sample gradient is the residual
    of row (a_i, b_i) times the feature vector a_i.  Covariance and eta come
    from the empirical data in closed form.
    """
    if not isinstance(obj, LeastSquaresObjective):
        raise TypeError("need an objective carrying its data rows")
    a, b = obj.data_a, obj.data_b

    def per_sample_gradient(x, i):
        feats = a[i]
        resid = np.sum(x * feats, axis=-1) - b[i]
        return resid[..., None] * feats

    grads_at = lambda x: per_sample_gradient(np.asarray(x, dtype=float)[..., None, :], np.arange(len(b)))

    def sigma_f(x):
        g = grads_at(x)
        mean = g.mean(axis=-2)
        c = g - mean[..., None, :]
        return np.einsum("...ni,...nj->...ij", c, c) / a.shape[0]

    def draw_rows(prefix, rng):
        return rng.integers(0, len(b), size=prefix)

    g_star = grads_at(obj.x_star)
    eta = float(np.mean(np.sum(g_star * g_star, axis=-1)))
    return batch_oracle(obj, per_sample_gradient, "rows", draw_rows, m, sigma_f, eta)


def probe_batch_oracle(obj: Objective, m: int, law: str = "normal", df: float | None = None) -> GradientOracle:
    """Pure-noise batch oracle: per-sample gradient is the data point itself.

    On a flat objective this gives H = mean of m i.i.d. standardized
    vectors, the cleanest instance of batch-size covariance scaling:
    sigma = identity / m.
    """
    draw_std, _ = _standardized_law(law, obj.dim, df)
    eye = np.eye(obj.dim)

    def per_sample_gradient(x, y):
        return obj.gradient(x) + y

    def sigma_f(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(eye, x.shape[:-1] + (obj.dim, obj.dim))

    return batch_oracle(
        obj, per_sample_gradient, f"iid-{law}", draw_std, m, sigma_f, float(obj.dim)
    )


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix, clipping tiny negative eigenvalues."""
    w, v = np.linalg.eigh(mat)
    root = np.sqrt(np.clip(w, 0.0, None))
    return np.einsum("...ik,...k,...jk->...ij", v, root, v)

