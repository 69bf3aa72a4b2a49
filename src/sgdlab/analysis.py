"""Rate regression, theoretical exponents, and closed-form reference values.

RATE_CLASSES is the one table of the function classes whose decay rates
the rates experiment judges, keyed by the class tag types of
sgdlab.objectives; expected_rate gives a tag's exponent at a step-size
decay alpha.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import sorted_distinct
from .objectives import Convex, Lojasiewicz, QuasarConvex, StronglyConvex

# One row per function class, in report order: its class tag type, its name
# in reports, the observable its exponent is about, and whether the exponent
# is sharp (the fitted decay should match it) or only a guarantee (decaying
# faster is fine).  The Lojasiewicz exponent is sharp at r = 2 only: the
# rates experiment judges a tag with r < 2 as a guarantee.
RATE_CLASSES = (
    (StronglyConvex, "strongly_convex", "dist2", True),
    (Convex, "convex", "f_gap", False),
    (Lojasiewicz, "lojasiewicz", "f_gap", True),
    (QuasarConvex, "quasar_convex", "f_gap", False),
)


@dataclass(frozen=True)
class Estimate:
    """A scalar estimate with a 95% normal-approximation interval."""

    value: float
    ci_halfwidth: float
    n: int


@dataclass(frozen=True)
class RateEstimate:
    slope: float
    r_squared: float
    window: tuple


def fit_rate(points) -> RateEstimate:
    """OLS slope of log(value) against log(index) over the tail window.

    points is a sequence of (index, value) pairs with positive values,
    assumed log-spaced in the index (a bank's sample_indices); the fit
    keeps the last half of them (at least 5).  Decay shows up as a
    negative slope.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (index, value) pairs")
    pts = pts[np.argsort(pts[:, 0])]
    if np.any(pts[:, 1] <= 0):
        raise ValueError("rate fits need strictly positive values")
    tail = pts[len(pts) // 2 :]
    if len(tail) < 5:
        raise ValueError(f"window holds {len(tail)} points, need at least 5")
    x = np.log(tail[:, 0])
    y = np.log(tail[:, 1])
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("degenerate window: all indices equal")
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    yc = y - y.mean()
    ss_tot = float(yc @ yc)
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateEstimate(slope=slope, r_squared=r2, window=(float(tail[0, 0]), float(tail[-1, 0])))


def expected_rate(tag, alpha: float) -> float | None:
    """Theoretical decay exponent for a class tag of RATE_CLASSES at this
    alpha, or None when the theory gives no polynomial guarantee there.
    Logarithmic factors are ignored.
    """
    names = {kind: name for kind, name, _, _ in RATE_CLASSES}
    if type(tag) not in names:
        raise TypeError(f"no rate for class tag {tag!r}")
    a = alpha
    hi = 1.0 if isinstance(tag, StronglyConvex) else 1.0 - 1e-12
    if not 0.0 < a <= hi:
        raise ValueError(f"alpha={a} out of range for {names[type(tag)]}")

    if isinstance(tag, StronglyConvex):
        return a

    if isinstance(tag, Convex):
        return min(a, 1.0 - a)

    if isinstance(tag, Lojasiewicz):
        r = tag.r
        if not 0.0 < r <= 2.0:
            raise ValueError("lojasiewicz needs r in (0, 2]")
        if r == 2.0:
            return a
        delta = min((r / 2.0) / (1.0 - r / 2.0) * (1.0 - a), (r / 2.0) * a)
        return delta if delta > 0 else None

    delta = min((3.0 * a - 1.0) / 2.0, a / 2.0, 1.0 - a)  # QuasarConvex
    return delta if delta > 0 else None


def drift_sup_bound(
    f_step,
    u_init,
    n0: int,
    a1: float,
    a2: float,
    check_grid: bool = True,
) -> float:
    """Uniform bound B for recursions u_{n+1} <= u_n + F(n, u_n).

    Requires F(n, x) < 0 for x >= a1 and F(n, x) <= a2 for x >= 0, both
    for n >= n0; then every trajectory started from the supplied initial
    values u_0..u_{n0+1} stays below B = max(max(u_init), a1) + a2.  The
    hypotheses are spot-checked on a grid (16 geometrically spaced n from
    n0 to 100 000) unless check_grid is False.
    """
    u_init = np.asarray(u_init, dtype=float)
    if len(u_init) < n0 + 2:
        raise ValueError(f"need initial values up to index n0+1 = {n0 + 1}")
    if check_grid:
        ns = sorted_distinct(np.geomspace(n0 + 1, max(n0 + 2, 100_000), 16).astype(int)) - 1
        ns = ns[ns >= n0]
        span = max(3.0 * a1, a1 + 10.0)
        for n in ns:
            for x in np.linspace(a1, span, 11):
                v = f_step(int(n), float(x))
                if not v < 0:
                    raise ValueError(
                        f"hypothesis failed: F({n}, {x:g}) = {v:g} is not < 0"
                    )
            for x in np.linspace(0.0, span, 23):
                v = f_step(int(n), float(x))
                if not v <= a2 + 1e-12:
                    raise ValueError(
                        f"hypothesis failed: F({n}, {x:g}) = {v:g} exceeds a2 = {a2:g}"
                    )
    return float(max(np.max(u_init), a1) + a2)


def drift_sup_verify(f_step, u_init, n0: int, a1: float, a2: float, n_steps: int) -> tuple[float, float]:
    """Iterate the worst case u_{n+1} = u_n + F(n, u_n) and track its peak.

    Returns (B, max_u over the whole run including initial values); the
    bound holds when max_u <= B.
    """
    b = drift_sup_bound(f_step, u_init, n0, a1, a2, check_grid=False)
    u_init = np.asarray(u_init, dtype=float)
    u = float(u_init[n0 + 1])
    peak = float(np.max(u_init))
    for n in range(n0 + 1, n_steps):
        u = u + f_step(n, u)
        if u > peak:
            peak = u
    return b, peak


def probe_exact_second_moment(m: int, gamma: float, alpha: float, n: int) -> float:
    """E|X_n|^2 for the flat-objective probe driven by averaged unit noise.

    The iterates are pure weighted noise sums, so the second moment is the
    exact partial sum (gamma^2/m) * sum_{k=0}^{n-1} (k+1)^{-2 alpha}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n, dtype=float)
    return gamma * gamma / m * float(np.sum((k + 1.0) ** (-2.0 * alpha)))


def probe_strong_error_floor(m: int, gamma: float, alpha: float, horizon: float) -> float:
    """Lower bound on the probe's root mean squared deviation at time T.

    Valid for alpha < 1/2, where the noise sums keep growing:
    m^{-1/2} gamma^delta (1-2 alpha)^{-1/2} (T/2)^{1/2 - alpha} with
    delta = min(1, (2 - 2 alpha)^{-1}).
    """
    if not alpha < 0.5:
        raise ValueError("the floor needs alpha < 1/2")
    delta = min(1.0, 1.0 / (2.0 - 2.0 * alpha))
    return (
        m ** (-0.5)
        * gamma**delta
        * (1.0 - 2.0 * alpha) ** (-0.5)
        * (horizon / 2.0) ** (0.5 - alpha)
    )
