"""Step-size schedules and reproducible random-stream derivation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROLES = ("noise", "brownian", "data")


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step sizes gamma * (n+1)**(-alpha).

    gamma is the base step, alpha in [0, 1] the decay exponent.  For
    alpha < 1 the schedule also defines the time-scale constant
    gamma_alpha = gamma**(1/(1-alpha)) that maps iteration n to the
    continuous time n * gamma_alpha.
    """

    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    def step_size(self, n):
        """Step used at iteration n (0-based): gamma * (n+1)**(-alpha)."""
        n = np.asarray(n, dtype=float)
        return self.gamma * (n + 1.0) ** (-self.alpha)

    @property
    def gamma_alpha(self) -> float:
        """Time-scale constant gamma**(1/(1-alpha)); undefined at alpha = 1
        and where a float cannot hold it."""
        if self.alpha >= 1.0:
            raise ValueError("gamma_alpha is undefined for alpha = 1")
        try:
            ga = self.gamma ** (1.0 / (1.0 - self.alpha))
        except OverflowError:
            ga = np.inf
        if not 0.0 < ga < np.inf:
            raise ValueError(
                f"gamma_alpha = gamma**(1/(1-alpha)) is {ga} at gamma {self.gamma:g},"
                f" alpha {self.alpha:g}"
            )
        return ga

    def continuous_rate(self, t):
        """Instantaneous rate (gamma_alpha + t)**(-alpha) of the companion SDE."""
        ga = self.gamma_alpha
        t = np.asarray(t, dtype=float)
        return (ga + t) ** (-self.alpha)

    def label(self) -> str:
        return f"g{self.gamma:g}_a{self.alpha:g}"


@dataclass(frozen=True)
class RngStream:
    """Key for a counter-based random stream.

    The triple (master_seed, replicate_id, role) fully determines the
    draw sequence, so replicates are bit-reproducible under any worker
    count or execution order.  generator() always starts the stream
    from the beginning.
    """

    master_seed: int
    replicate_id: int
    role: str

    def generator(self) -> np.random.Generator:
        key = np.random.SeedSequence(
            self.master_seed,
            spawn_key=(self.replicate_id, ROLES.index(self.role)),
        )
        return np.random.Generator(np.random.Philox(key))


def derive_stream(master_seed: int, replicate_id: int, role: str) -> RngStream:
    """Derive the stream for one (replicate, role) pair under a master seed."""
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    if replicate_id < 0:
        raise ValueError("replicate_id must be nonnegative")
    return RngStream(int(master_seed), int(replicate_id), role)


def log_spaced_indices(n_max: int) -> np.ndarray:
    """At most 64 distinct integer checkpoints, geometrically spaced in [1, n_max]."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    pts = np.geomspace(1, n_max, num=64)
    idx = sorted_distinct(np.rint(pts).astype(np.int64))
    idx[-1] = n_max
    return idx


def sorted_distinct(values) -> np.ndarray:
    """The distinct entries of values in ascending order, by sorting and
    dropping repeats: numpy 2.4's unique imports numpy.ma on its first call,
    some 1 MB and 10-20 ms."""
    a = np.sort(np.asarray(values).ravel())
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]
