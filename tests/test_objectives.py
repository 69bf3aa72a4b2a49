import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sgdlab import objectives
from sgdlab.core import derive_stream
from sgdlab.objectives import (
    PL_SINE_GRAD_DOMINANCE_C,
    PL_SINE_QUASAR_TAU,
    Convex,
    GridSpec,
    Lojasiewicz,
    QuasarConvex,
    SingularGramError,
    StronglyConvex,
    certify_condition,
    least_squares_from_data,
    make_least_squares,
    make_linear_probe,
    make_phi_p,
    make_pl_sine,
    make_quadratic,
)

from helpers import finite_difference_gradient


def test_quadratic_values_and_gradient():
    obj = make_quadratic(dim=3, lam=2.0)
    x = np.array([1.0, -2.0, 0.5])
    assert obj.value(x) == pytest.approx(1.0 * (1 + 4 + 0.25))
    np.testing.assert_allclose(obj.gradient(x), 2.0 * x)
    assert obj.f_star == 0.0
    np.testing.assert_array_equal(obj.x_star, np.zeros(3))
    assert obj.f_gap(x) == obj.value(x)


def test_quadratic_batched_evaluation():
    obj = make_quadratic(dim=2)
    xs = np.arange(10.0).reshape(5, 2)
    vals = obj.value(xs)
    assert vals.shape == (5,)
    grads = obj.gradient(xs)
    assert grads.shape == (5, 2)
    for i in range(5):
        assert vals[i] == obj.value(xs[i])


def test_tag_lookup():
    obj = make_quadratic(lam=3.0)
    sc = obj.tag(StronglyConvex)
    assert sc is not None and sc.mu == 3.0
    loj = obj.tag(Lojasiewicz)
    assert loj.r == 2.0 and loj.tau_tilde == 6.0
    assert obj.tag(QuasarConvex) is None


def test_phi_p_piecewise_structure():
    for p in (1, 2, 5):
        obj = make_phi_p(p)
        # inside: pure even power
        for t in (0.0, 0.3, -0.9, 1.0):
            assert obj.value(np.array([t])) == pytest.approx(t ** (2 * p), abs=1e-15)
        # outside: linear continuation matching value and slope at the seam
        assert obj.value(np.array([1.5])) == pytest.approx(2 * p * 0.5 + 1.0)
        assert obj.value(np.array([-2.0])) == pytest.approx(2 * p * 1.0 + 1.0)
        assert obj.gradient(np.array([3.0]))[0] == pytest.approx(2 * p)
        assert obj.gradient(np.array([-3.0]))[0] == pytest.approx(-2 * p)


def test_phi_p_is_c1_at_seam():
    obj = make_phi_p(3)
    eps = 1e-7
    for s in (1.0, -1.0):
        below = obj.gradient(np.array([s * (1 - eps)]))[0]
        above = obj.gradient(np.array([s * (1 + eps)]))[0]
        assert below == pytest.approx(above, abs=1e-5)


def test_phi_p_no_overflow_far_out():
    obj = make_phi_p(5)
    with np.errstate(over="raise"):
        v = obj.value(np.array([1e8]))
        g = obj.gradient(np.array([1e8]))
    assert np.isfinite(v) and np.isfinite(g).all()


def test_phi_p_gradient_matches_fd():
    obj = make_phi_p(2)
    for t in (-1.7, -0.4, 0.2, 0.99, 1.3):
        x = np.array([t])
        fd = finite_difference_gradient(obj.value, x)
        np.testing.assert_allclose(obj.gradient(x), fd, atol=1e-6)


def test_phi_p_gradient_is_the_two_branch_formula_bit_for_bit():
    """The one-branch gradient equals evaluating both pieces and picking
    one with np.where, at the seam, one ulp either side, far out, at
    signed zeros, infinities and nan."""
    one_up, one_down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    t = np.array([0.0, -0.0, 1.0, -1.0, one_up, -one_up, one_down, -one_down,
                  2.0, -2.0, 0.3, -0.7, 1e300, np.inf, -np.inf, np.nan])
    for p in (1, 2, 3, 5):
        two_p = 2 * p
        with np.errstate(invalid="ignore"):
            old = np.where(np.abs(t) <= 1.0, two_p * np.clip(t, -1.0, 1.0) ** (two_p - 1),
                           two_p * np.sign(t))
        new = make_phi_p(p).gradient(t[:, None])[:, 0]
        assert np.array_equal(new, old, equal_nan=True)
        assert np.array_equal(np.signbit(new), np.signbit(old))


def test_phi_p_rejects_bad_p():
    with pytest.raises(ValueError):
        make_phi_p(0)
    with pytest.raises(ValueError):
        make_phi_p(2.5)


def test_pl_sine_shape():
    obj = make_pl_sine()
    x = np.array([0.7])
    assert obj.value(x) == pytest.approx(0.49 + 3 * np.sin(0.7) ** 2)
    fd = finite_difference_gradient(obj.value, x)
    np.testing.assert_allclose(obj.gradient(x), fd, atol=1e-6)
    # stationary only at the global minimum on a coarse scan
    t = np.linspace(-8, 8, 1601)
    g = obj.gradient(t[:, None])[:, 0]
    signs = np.sign(g[np.abs(t) > 1e-9])
    assert np.all(signs == np.sign(t[np.abs(t) > 1e-9]))


def test_pl_sine_frozen_constants_match_polished_optimum():
    """Independent re-derivation of the dominance constants.

    Scan a dense grid for the worst ratio, then polish with a local
    optimizer; the frozen module constants must agree and must bound
    every grid ratio from the safe side.
    """

    def f(t):
        return t * t + 3 * np.sin(t) ** 2

    def g(t):
        return 2 * t + 3 * np.sin(2 * t)

    grid = np.linspace(1e-6, 12, 200_001)
    c_grid = f(grid) / g(grid) ** 2
    t0 = grid[np.argmax(c_grid)]
    res = minimize_scalar(lambda t: -f(t) / g(t) ** 2, bracket=(t0 - 1e-3, t0, t0 + 1e-3))
    assert -res.fun == pytest.approx(PL_SINE_GRAD_DOMINANCE_C, rel=1e-6)
    # threshold valid on the whole grid
    assert np.max(c_grid) <= PL_SINE_GRAD_DOMINANCE_C * (1 + 1e-12)

    q_grid = g(grid) * grid / f(grid)
    t1 = grid[np.argmin(q_grid)]
    res2 = minimize_scalar(lambda t: g(t) * t / f(t), bracket=(t1 - 1e-3, t1, t1 + 1e-3))
    assert res2.fun == pytest.approx(PL_SINE_QUASAR_TAU, rel=1e-6)
    assert np.min(q_grid) >= PL_SINE_QUASAR_TAU * (1 - 1e-12)


def test_linear_probe_is_flat():
    obj = make_linear_probe(dim=2)
    x = np.array([3.0, -4.0])
    assert obj.value(x) == 0.0
    np.testing.assert_array_equal(obj.gradient(x), np.zeros(2))


def test_least_squares_normal_equations():
    obj = make_least_squares(dim=4, n_data=64, stream=derive_stream(2, 0, "data"))
    grad_at_star = obj.gradient(obj.x_star)
    np.testing.assert_allclose(grad_at_star, np.zeros(4), atol=1e-10)
    # f_star is the attained minimum
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = obj.x_star + 0.1 * rng.standard_normal(4)
        assert obj.value(x) >= obj.f_star - 1e-12
    sc = obj.tag(StronglyConvex)
    assert sc is not None and sc.mu > 0


def test_least_squares_deterministic_in_stream():
    a = make_least_squares(dim=3, n_data=32, stream=derive_stream(7, 0, "data"))
    b = make_least_squares(dim=3, n_data=32, stream=derive_stream(7, 0, "data"))
    np.testing.assert_array_equal(a.data_a, b.data_a)
    np.testing.assert_array_equal(a.data_b, b.data_b)
    np.testing.assert_array_equal(a.x_star, b.x_star)


def test_least_squares_gradient_matches_fd():
    obj = make_least_squares(dim=3, n_data=40, stream=derive_stream(4, 0, "data"))
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3)
    fd = finite_difference_gradient(obj.value, x)
    np.testing.assert_allclose(obj.gradient(x), fd, atol=1e-7)


# with 4-row least-squares blocks: one row, a block less one, a block, a
# block and one, several blocks and a remainder, and a stacked (S, R, d) bank
@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 3), (4, 3), (5, 3), (11, 3), (2, 5, 3)])
def test_value_and_gradient_is_value_then_gradient_bit_for_bit(shape, monkeypatch):
    """Least squares computes its residual once for both, a block of rows
    at a time; the result is bitwise value(x) and gradient(x), and those are
    the one-shot einsum expressions of the residual.  Other objectives take
    the default pair."""
    monkeypatch.setattr(objectives, "RESIDUAL_BLOCK", 4 * 40)
    lsq = make_least_squares(dim=3, n_data=40, stream=derive_stream(4, 0, "data"))
    x = np.random.default_rng(2).standard_normal(shape) * 3.0
    resid = np.einsum("...d,nd->...n", x, lsq.data_a) - lsq.data_b
    reference = (0.5 * np.mean(resid * resid, axis=-1),
                 np.einsum("...n,nd->...d", resid, lsq.data_a) / 40)
    for obj in (lsq, make_quadratic(dim=3, lam=2.0), make_linear_probe(dim=3)):
        value, gradient = obj.value_and_gradient(x)
        assert value.shape == shape[:-1] and gradient.shape == shape
        assert value.tobytes() == np.asarray(obj.value(x)).tobytes()
        assert gradient.tobytes() == obj.gradient(x).tobytes()
    assert [a.tobytes() for a in lsq.value_and_gradient(x)] == [a.tobytes() for a in reference]


def test_least_squares_residuals_stay_within_a_row_block():
    """A 1024-row evaluation at n_data 1024 holds 16 rows of residuals at a
    time (128 KiB), not all 1024 (8 MiB per temporary)."""
    lsq = make_least_squares(dim=4, n_data=1024, stream=derive_stream(5, 0, "data"))
    x = np.random.default_rng(3).standard_normal((1024, 4))
    lsq.value_and_gradient(x)
    tracemalloc.start()
    try:
        lsq.value_and_gradient(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_least_squares_singular_gram_reported():
    a = np.ones((10, 2))  # rank one
    b = np.arange(10.0)
    with pytest.raises(SingularGramError):
        least_squares_from_data(a, b)


def test_least_squares_rejects_undersized_data():
    with pytest.raises(ValueError):
        make_least_squares(dim=8, n_data=4, stream=derive_stream(0, 0, "data"))


def test_least_squares_two_point_instance():
    # mean of (x)^2/2 and (x-2)^2/2: minimum 0.5 at x = 1
    obj = least_squares_from_data(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    np.testing.assert_allclose(obj.x_star, [1.0])
    assert obj.f_star == pytest.approx(0.5)
    np.testing.assert_allclose(obj.gradient(np.array([1.0])), [0.0], atol=1e-12)


def test_certify_quadratic_exact_ratio():
    obj = make_quadratic(lam=2.0)
    grid = GridSpec(-5.0, 5.0, num=801)
    rep = certify_condition(obj, obj.tag(Lojasiewicz), grid)
    # |grad|^2/(f - f*) = 2 lam exactly in floats (power-of-two lam)
    assert rep.passed
    assert rep.worst_ratio == 4.0


def test_certify_strong_convexity_pass_and_fail():
    obj = make_quadratic(lam=1.0)
    grid = GridSpec(-3.0, 3.0, num=501)
    good = certify_condition(obj, StronglyConvex(1.0), grid)
    assert good.passed
    bad = certify_condition(obj, StronglyConvex(1.5), grid)
    assert not bad.passed
    assert "FAIL" in bad.line()


def test_certify_pl_sine_tags_on_grid():
    obj = make_pl_sine()
    grid = GridSpec(-12.0, 12.0, num=4001)
    for tag in obj.class_tags:
        rep = certify_condition(obj, tag, grid)
        assert rep.passed, rep.line()


def test_certify_rejects_unknown_condition():
    obj = make_quadratic()
    with pytest.raises(TypeError):
        certify_condition(obj, object(), GridSpec(-1.0, 1.0, num=11))


def test_grid_spec_excludes_minimizer_neighborhood():
    grid = GridSpec(-1.0, 1.0, num=21, exclude_radius=0.2)
    obj = make_quadratic()
    rep = certify_condition(obj, obj.tag(Lojasiewicz), grid)
    assert rep.n_points < 21


def test_finite_difference_gradient_quadratic():
    obj = make_quadratic(dim=2, lam=1.5)
    x = np.array([0.4, -1.1])
    np.testing.assert_allclose(
        finite_difference_gradient(obj.value, x), obj.gradient(x), atol=1e-8
    )
