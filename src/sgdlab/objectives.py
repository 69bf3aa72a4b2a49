"""Test objectives with exact gradients, minimizers, and function-class tags.

Every objective is vectorized: value maps (..., dim) arrays to (...) and
gradient maps (..., dim) to (..., dim), so batched replicate states can be
evaluated in one call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import RngStream

# Gradient-dominance constants of the sine benchmark: grid scan plus a
# local polish of the worst ratio, then rounded OUTWARD so the resulting
# thresholds stay valid on any sampling grid (tests recompute them from
# scratch).  Optimum sits near x = 2.2017 (dominance) / x = 2.1538 (quasar).
PL_SINE_GRAD_DOMINANCE_C = 2.84849993
PL_SINE_QUASAR_TAU = 0.49609006


class SingularGramError(np.linalg.LinAlgError):
    """Raised when least-squares data produce a singular normal system."""


@dataclass(frozen=True)
class StronglyConvex:
    """Curvature lower bound mu on secants: <g(x)-g(y), x-y> >= mu |x-y|^2."""

    mu: float


@dataclass(frozen=True)
class Convex:
    pass


@dataclass(frozen=True)
class Lojasiewicz:
    """Gradient dominance |grad f(x)|^r >= tau_tilde (f(x) - f*).

    With r = 2 this is the Polyak gradient-dominance inequality.
    """

    r: float
    tau_tilde: float


@dataclass(frozen=True)
class QuasarConvex:
    """Star-shaped bound <grad f(x), x - x*> >= tau (f(x) - f*)."""

    tau: float


@dataclass(frozen=True)
class Objective:
    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    x_star: np.ndarray
    f_star: float
    class_tags: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def f_gap(self, x) -> np.ndarray:
        return self.value(x) - self.f_star

    def value_and_gradient(self, x) -> tuple:
        """(value(x), gradient(x)), bit for bit; an objective whose two share
        work computes it once."""
        return self.value(x), self.gradient(x)

    def tag(self, kind):
        """First class tag of the given kind, or None."""
        for t in self.class_tags:
            if isinstance(t, kind):
                return t
        return None


@dataclass(frozen=True)
class LeastSquaresObjective(Objective):
    """Objective plus the empirical data it averages over."""

    data_a: np.ndarray = None
    data_b: np.ndarray = None

    def value_and_gradient(self, x) -> tuple:
        return _least_squares(x, self.data_a, self.data_b, True, True)


# The most residuals (floats) one least-squares row block holds: a block of
# max(1, RESIDUAL_BLOCK // n_data) rows keeps each (rows, n_data) temporary
# within 128 KiB, in cache, whatever the number of rows evaluated.
RESIDUAL_BLOCK = 2**14


def _least_squares(x, a, b, value: bool, gradient: bool) -> tuple:
    """(value, gradient) of mean (a . x - b)^2 / 2 at x (..., dim), each None
    unless asked for, evaluated over consecutive row blocks of x.  einsum
    keeps the contraction order fixed for any batch shape, so a row's bits
    do not depend on its block or on the shape of x (BLAS matmul's would)."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, x.shape[-1])
    values = np.empty(len(flat)) if value else None
    grads = np.empty(flat.shape) if gradient else None
    step = max(1, RESIDUAL_BLOCK // len(b))
    for lo in range(0, len(flat), step):
        rows = slice(lo, lo + step)
        resid = np.einsum("rd,nd->rn", flat[rows], a) - b
        if value:
            values[rows] = 0.5 * np.mean(resid * resid, axis=-1)
        if gradient:
            grads[rows] = np.einsum("rn,nd->rd", resid, a) / len(b)
    return (values.reshape(x.shape[:-1])[()] if value else None,
            grads.reshape(x.shape) if gradient else None)


def make_quadratic(dim: int = 1, lam: float = 1.0) -> Objective:
    """f(x) = (lam/2) |x|^2 with minimizer 0."""
    if lam <= 0:
        raise ValueError("lam must be positive")

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * lam * np.sum(x * x, axis=-1)

    def gradient(x):
        return lam * np.asarray(x, dtype=float)

    return Objective(
        name="quadratic",
        dim=dim,
        value=value,
        gradient=gradient,
        x_star=np.zeros(dim),
        f_star=0.0,
        class_tags=(StronglyConvex(lam), Convex(), Lojasiewicz(2.0, 2.0 * lam)),
    )


def make_phi_p(p: int) -> Objective:
    """One-dimensional convex benchmark, x**(2p) inside [-1, 1] and linear outside.

    The two pieces meet with matching value and slope at +-1, so the
    function is C^1 with a flat valley whose flatness grows with p.
    """
    if p < 1 or int(p) != p:
        raise ValueError("p must be an integer >= 1")
    p = int(p)
    two_p = 2 * p

    def value(x):
        t = np.asarray(x, dtype=float)[..., 0]
        inner = np.clip(t, -1.0, 1.0) ** two_p
        outer = two_p * (np.abs(t) - 1.0) + 1.0
        return np.where(np.abs(t) <= 1.0, inner, outer)

    def gradient(x):
        # outside [-1, 1] the clip gives +-1, whose power is the outer
        # slope's sign, so one branch covers both pieces (nan stays nan)
        t = np.asarray(x, dtype=float)[..., 0]
        return (two_p * np.clip(t, -1.0, 1.0) ** (two_p - 1))[..., None]

    return Objective(
        name=f"phi_{p}",
        dim=1,
        value=value,
        gradient=gradient,
        x_star=np.zeros(1),
        f_star=0.0,
        class_tags=(Convex(),),
    )


def make_pl_sine() -> Objective:
    """Non-convex gradient-dominated benchmark f(x) = x^2 + 3 sin(x)^2.

    Single stationary point at 0.  The dominance constants carried in the
    tags are measured by a grid infimum, not claimed analytically.
    """

    def value(x):
        t = np.asarray(x, dtype=float)[..., 0]
        return t * t + 3.0 * np.sin(t) ** 2

    def gradient(x):
        t = np.asarray(x, dtype=float)[..., 0]
        return (2.0 * t + 3.0 * np.sin(2.0 * t))[..., None]

    return Objective(
        name="pl_sine",
        dim=1,
        value=value,
        gradient=gradient,
        x_star=np.zeros(1),
        f_star=0.0,
        class_tags=(
            Lojasiewicz(2.0, 1.0 / PL_SINE_GRAD_DOMINANCE_C),
            QuasarConvex(PL_SINE_QUASAR_TAU),
        ),
    )


def make_least_squares(dim: int, n_data: int, stream: RngStream) -> LeastSquaresObjective:
    """Empirical half squared residual over a generated dataset.

    f(x) = mean_i (a_i . x - b_i)^2 / 2 with rows a_i standard normal and
    b_i from a planted linear model.  The minimizer solves the normal
    equations directly; a singular normal system is reported, never
    regularized away.
    """
    if not 1 <= dim <= 32:
        raise ValueError("dim must lie in [1, 32] for the direct solve")
    if n_data < dim:
        raise ValueError("need n_data >= dim for a determined system")
    rng = stream.generator()
    a = rng.standard_normal((n_data, dim))
    x_true = rng.standard_normal(dim)
    b = a @ x_true + 0.5 * rng.standard_normal(n_data)
    return least_squares_from_data(a, b)


def least_squares_from_data(a: np.ndarray, b: np.ndarray) -> LeastSquaresObjective:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError("a must be (n_data, dim) with matching b")
    n_data, dim = a.shape
    gram = a.T @ a
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[-1] <= 0 or eigvals[0] <= 1e-12 * eigvals[-1]:
        raise SingularGramError(
            f"normal system is singular (eigenvalue range {eigvals[0]:.3e}"
            f" to {eigvals[-1]:.3e}); supply better-conditioned data"
        )
    x_star = np.linalg.solve(gram, a.T @ b)
    mu = eigvals[0] / n_data

    def value(x):
        return _least_squares(x, a, b, True, False)[0]

    def gradient(x):
        return _least_squares(x, a, b, False, True)[1]

    f_star = float(value(x_star))
    tags = (Convex(), StronglyConvex(mu), Lojasiewicz(2.0, 2.0 * mu))
    return LeastSquaresObjective(
        name="least_squares",
        dim=dim,
        value=value,
        gradient=gradient,
        x_star=x_star,
        f_star=f_star,
        class_tags=tags,
        data_a=a,
        data_b=b,
    )


def make_linear_probe(dim: int = 1) -> Objective:
    """Flat objective f = 0; all dynamics come from the oracle noise."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def gradient(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return Objective(
        name="linear_probe",
        dim=dim,
        value=value,
        gradient=gradient,
        x_star=np.zeros(dim),
        f_star=0.0,
        class_tags=(Convex(),),
    )


@dataclass(frozen=True)
class GridSpec:
    """Sampling box for condition certification.

    One-dimensional objectives get a regular grid; higher dimensions get
    uniform points drawn from a fixed seed.  Points within
    exclude_radius of the minimizer are dropped for ratio conditions,
    which are 0/0 there.
    """

    lo: float
    hi: float
    num: int = 2001
    exclude_radius: float = 1e-6

    def __post_init__(self):
        if self.num < 2:
            raise ValueError("grid needs at least 2 points")
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ValueError(f"grid needs finite lo < hi, got lo={self.lo}, hi={self.hi}")
        if self.hi - self.lo == np.inf:  # linspace and uniform overflow on it
            raise ValueError(f"grid span hi - lo overflows, got lo={self.lo}, hi={self.hi}")
        if not 0.0 <= self.exclude_radius < np.inf:
            raise ValueError(f"exclude_radius must be finite and >= 0, got {self.exclude_radius}")

    def points(self, dim: int) -> np.ndarray:
        if dim == 1:
            return np.linspace(self.lo, self.hi, self.num)[:, None]
        rng = np.random.Generator(np.random.Philox(0))
        return rng.uniform(self.lo, self.hi, size=(self.num, dim))


@dataclass(frozen=True)
class CertificationReport:
    objective: str
    condition: object
    worst_ratio: float
    threshold: float
    passed: bool
    n_points: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"certify {self.objective} {self.condition}: worst_ratio="
            f"{self.worst_ratio:.6g} threshold={self.threshold:.6g} {status}"
        )


def ratio_points(obj: Objective, grid: GridSpec) -> tuple:
    """The grid points a ratio condition (every condition but the convex
    ones) is checked on: those beyond exclude_radius from the minimizer with
    a positive gap, with their gaps.  A ValueError if there is none."""
    pts = grid.points(obj.dim)
    gap = obj.value(pts) - obj.f_star
    keep = (np.linalg.norm(pts - obj.x_star, axis=-1) > grid.exclude_radius) & (gap > 0)
    if not keep.any():
        raise ValueError("no grid point lies beyond exclude_radius with a positive gap")
    return pts[keep], gap[keep]


def certify_condition(obj: Objective, cond, grid: GridSpec) -> CertificationReport:
    """Check a function-class inequality on a grid and report the worst ratio.

    Failure is an outcome, not an error: the report carries the extremal
    ratio and the threshold implied by the supplied constants.
    """
    if isinstance(cond, (StronglyConvex, Convex)):
        pts = grid.points(obj.dim)
        x, y = pts[1:], pts[:-1]
        dg = obj.gradient(x) - obj.gradient(y)
        dx = x - y
        denom = np.sum(dx * dx, axis=-1)
        keep = denom > 0
        ratio = np.sum(dg * dx, axis=-1)[keep] / denom[keep]
        threshold = cond.mu if isinstance(cond, StronglyConvex) else 0.0
        worst = float(ratio.min())
        return CertificationReport(obj.name, cond, worst, threshold, worst >= threshold, int(keep.sum()))

    pts, gap = ratio_points(obj, grid)
    g = obj.gradient(pts)
    if isinstance(cond, Lojasiewicz):
        num = np.linalg.norm(g, axis=-1) ** cond.r
        threshold = cond.tau_tilde
    elif isinstance(cond, QuasarConvex):
        num = np.sum(g * (pts - obj.x_star), axis=-1)
        threshold = cond.tau
    else:
        raise TypeError(f"unsupported condition {cond!r}")

    worst = float((num / gap).min())
    return CertificationReport(obj.name, cond, worst, threshold, worst >= threshold, len(pts))
