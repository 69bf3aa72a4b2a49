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


def coupled_second_moments(sched, lam: float, sigma: float, x0: float, substeps: int,
                           n_blocks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E X_k^2, E X_k Y_k, E Y_k^2) at each block k = 0..n_blocks of the
    coupled bank on (lam/2) x^2 under additive gaussian noise of scale
    sigma, from X_0 = Y_0 = x0, carried block by block.  Block k's
    continuous leg takes substeps Euler-Maruyama substeps of width
    h = gamma_alpha / substeps, substep j (counted from the run's start)
    at rate r_j = sched.continuous_rate(j h); its discrete step's noise is
    the block's increment sum over sqrt(gamma_alpha).  With a = 1 - gamma_k
    lam, A the product of the block's factors 1 - r_j lam h, and c_j =
    -r_j sqrt(gamma_alpha) sigma carried to the block's end by the factors
    of the later substeps:
        E X^2 <- a^2 E X^2 + gamma_k^2 sigma^2
        E Y^2 <- A^2 E Y^2 + h sum_j c_j^2
        E XY  <- a A E XY - (gamma_k sigma / sqrt(gamma_alpha)) h sum_j c_j"""
    root_ga = np.sqrt(sched.gamma_alpha)
    h = sched.gamma_alpha / substeps
    rates = sched.continuous_rate(np.arange(n_blocks * substeps) * h).reshape(n_blocks, substeps)
    factors = 1.0 - rates * lam * h
    # from_j[:, j] is the product of the block's factors j, j + 1, ...
    from_j = np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]
    c = -rates * root_ga * sigma * np.concatenate([from_j[:, 1:], np.ones((n_blocks, 1))], axis=1)
    gammas = sched.step_size(np.arange(n_blocks))
    a, big_a = 1.0 - gammas * lam, from_j[:, 0]
    noise_xx, noise_yy = gammas**2 * sigma**2, h * np.sum(c * c, axis=1)
    noise_xy = -(gammas * sigma / root_ga) * h * np.sum(c, axis=1)
    xx = xy = yy = x0 * x0
    moments = [(xx, xy, yy)]
    for ak, big_ak, nxx, nxy, nyy in zip(a.tolist(), big_a.tolist(), noise_xx.tolist(),
                                         noise_xy.tolist(), noise_yy.tolist()):
        xx, xy, yy = ak * ak * xx + nxx, ak * big_ak * xy + nxy, big_ak * big_ak * yy + nyy
        moments.append((xx, xy, yy))
    return tuple(np.array(moments).T)
