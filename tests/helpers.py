"""Reference estimators and integrators that the tests check the library against."""
import numpy as np

from sgdlab import sgd


def empirical_sigma(oracle, x, n_samples: int, stream) -> np.ndarray:
    """Unbiased sample covariance of the oracle output at a fixed state."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples for an unbiased covariance")
    x = np.asarray(x, dtype=float)
    draws = oracle.apply(
        np.broadcast_to(x, (n_samples,) + x.shape),
        oracle.draw_raw((n_samples,), stream.generator()),
    )
    centered = draws - draws.mean(axis=0)
    return centered.T @ centered / (n_samples - 1)


def finite_difference_gradient(value, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar objective at one point."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.shape[-1]):
        hi = x.copy()
        lo = x.copy()
        hi[..., i] += step
        lo[..., i] -= step
        out[..., i] = (value(hi) - value(lo)) / (2.0 * step)
    return out


def states_at(final_states, ends) -> np.ndarray:
    """(rows, len(ends), dim) states of runs stopped at each of ends, where
    final_states(k) runs k steps (or blocks) and returns the final states
    of its bank: the states a bank passes through at those checkpoints."""
    return np.stack([final_states(int(k)) for k in ends], axis=1)


def _euler(obj, oracle, sched, x0, h, path):
    """A plain one-row Euler-Maruyama loop over the increments path: the
    final state, or the (replicate, step, detail) of the first substep
    whose state is non-finite or past the divergence norm."""
    rates = sched.continuous_rate(np.arange(len(path)) * h)
    root_ga = np.sqrt(sched.gamma_alpha)
    y = np.broadcast_to(np.asarray(x0, dtype=float), (1, obj.dim)).copy()
    for j, (rate, db) in enumerate(zip(rates.tolist(), path)):
        y = y - rate * (obj.gradient(y) * h + root_ga * oracle.apply_sqrt(y, db[None]))
        sq = np.einsum("rd,rd->r", y, y)[0]
        if not sq <= sgd.DIVERGENCE_NORM**2:
            return 0, j + 1, sgd._norm_detail("Y")(sq)
    return y[0]


def sgd_second_moment(sched, lam: float, sigma: float, x0: float, checkpoints) -> np.ndarray:
    """E X_n^2 of one-dimensional SGD on (lam/2) x^2 under additive gaussian
    noise of scale sigma, from X_0 = x0, at each checkpoint n: the exact
    recursion e_{n+1} = (1 - gamma_n lam)^2 e_n + gamma_n^2 sigma^2 with
    e_0 = x0^2 and gamma_n = sched.step_size(n)."""
    checkpoints = np.asarray(checkpoints, dtype=int)
    moments = [x0 * x0]
    for gamma in sched.step_size(np.arange(checkpoints.max())).tolist():
        moments.append((1.0 - gamma * lam) ** 2 * moments[-1] + gamma * gamma * sigma * sigma)
    return np.array(moments)[checkpoints]
