import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import laplace as scipy_laplace
from scipy.stats import t as scipy_t

import sgdlab
from sgdlab.core import derive_stream
from sgdlab.noise import (
    HEAVY_LAWS,
    PER_SAMPLE_SMOOTH,
    VARIANCE_BOUND,
    batch_oracle,
    empirical_data,
    empirical_sigma,
    gaussian_oracle,
    heavy_oracle,
    iid_data,
    least_squares_batch_oracle,
    probe_batch_oracle,
    psd_sqrt,
)
from sgdlab.objectives import make_least_squares, make_linear_probe, make_quadratic


def test_gaussian_oracle_fields():
    obj = make_quadratic(dim=3)
    oracle = gaussian_oracle(obj, 0.5)
    assert oracle.setting == VARIANCE_BOUND
    assert oracle.eta == pytest.approx(0.25 * 3)
    assert oracle.gaussian_noise
    x = np.array([1.0, 0.0, -1.0])
    np.testing.assert_allclose(oracle.sigma(x), 0.25 * np.eye(3))
    np.testing.assert_allclose(oracle.sigma_sqrt(x), 0.5 * np.eye(3))
    g = np.array([2.0, 4.0, -2.0])
    np.testing.assert_allclose(oracle.apply_sqrt(x, g), 0.5 * g)


def test_gaussian_oracle_unbiased():
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 1.0)
    x = np.array([0.3, -0.7])
    rng = derive_stream(11, 0, "noise").generator()
    draws = oracle.apply(np.broadcast_to(x, (200_000, 2)), oracle.draw_raw((200_000,), rng))
    np.testing.assert_allclose(draws.mean(axis=0), obj.gradient(x), atol=0.01)


def test_gaussian_oracle_sample_repeatable_from_stream():
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 1.0)
    stream = derive_stream(3, 5, "noise")
    a = oracle.sample(np.zeros(2), stream)
    b = oracle.sample(np.zeros(2), stream)
    np.testing.assert_array_equal(a, b)


def test_gaussian_zero_noise():
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 0.0)
    assert oracle.eta == 0.0
    x = np.array([1.0, 2.0])
    h = oracle.sample(x, derive_stream(0, 0, "noise"))
    np.testing.assert_array_equal(h, obj.gradient(x))


def test_gaussian_state_dependent_scale():
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, lambda x: np.abs(x[..., 0:1]), eta=4.0)
    x = np.array([2.0])
    np.testing.assert_allclose(oracle.sigma(x), [[4.0]])
    # explicit eta required for callables
    with pytest.raises(ValueError):
        gaussian_oracle(obj, lambda x: np.abs(x))
    with pytest.raises(ValueError):
        gaussian_oracle(obj, -1.0)


def test_gaussian_ppf_matches_scipy():
    obj = make_quadratic(dim=1)
    oracle = gaussian_oracle(obj, 2.0)
    u = np.array([0.025, 0.5, 0.975])
    from scipy.stats import norm

    np.testing.assert_allclose(oracle.noise_ppf(u), norm.ppf(u, scale=2.0), atol=1e-12)


@pytest.mark.parametrize("law,df", [("rademacher", None), ("laplace", None), ("student", 6.0)])
def test_heavy_laws_standardized(law, df):
    obj = make_quadratic(dim=1)
    oracle = heavy_oracle(obj, 1.0, law, df=df)
    rng = derive_stream(17, 0, "noise").generator()
    raw = oracle.draw_raw((400_000,), rng)
    assert abs(raw.mean()) < 0.01
    assert raw.var() == pytest.approx(1.0, abs=0.02)
    assert oracle.eta == 1.0
    assert oracle.setting == VARIANCE_BOUND
    assert not oracle.gaussian_noise


def test_laplace_ppf_closed_form():
    obj = make_quadratic(dim=1)
    oracle = heavy_oracle(obj, 1.0, "laplace")
    u = np.array([0.01, 0.1, 0.5, 0.9, 0.99])
    expected = scipy_laplace.ppf(u, scale=1.0 / np.sqrt(2.0))
    np.testing.assert_allclose(oracle.noise_ppf(u), expected, atol=1e-12)


def test_student_ppf_and_scaling():
    """The quantile is scale * unit-variance factor * scipy.stats.t.ppf,
    bit for bit, the ends and out-of-range values included."""
    u = np.array([-1.0, -0.0, 0.0, 1e-300, 1e-10, 0.05, 0.4, 0.5, np.nextafter(0.5, 0.0),
                  0.8, 1.0 - 1e-16, 1.0, 1.5, np.inf, np.nan])
    for df in (4.5, 6.0, 30.0):
        oracle = heavy_oracle(make_quadratic(dim=1), 3.0, "student", df=df)
        expected = 3.0 * (scipy_t.ppf(u, df) * np.sqrt((df - 2.0) / df))
        got = oracle.noise_ppf(u)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_cli_import_leaves_scipy_stats_out():
    """scipy.stats costs about half a second to import; the CLI needs
    only scipy.special."""
    code = "import sys, sgdlab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_pool_modules_out():
    """The worker pool is os.fork and pipes: importing the CLI loads no
    multiprocessing, and no sgdlab module imports multiprocessing or
    concurrent.futures (scipy.special already loads the latter through
    numpy.testing, so only the source can show that sgdlab does not)."""
    code = "import sys, sgdlab.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"
    for path in Path(sgdlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
                assert not any(n.split(".")[0] in ("multiprocessing", "concurrent") for n in names), path


def test_rademacher_ppf_is_sign_function():
    obj = make_quadratic(dim=1)
    oracle = heavy_oracle(obj, 1.0, "rademacher")
    np.testing.assert_array_equal(
        oracle.noise_ppf(np.array([0.2, 0.49, 0.51, 0.9])), [-1.0, -1.0, 1.0, 1.0]
    )


def test_student_requires_heavy_df():
    obj = make_quadratic(dim=1)
    with pytest.raises(ValueError):
        heavy_oracle(obj, 1.0, "student", df=4.0)
    with pytest.raises(ValueError):
        heavy_oracle(obj, 1.0, "student")
    with pytest.raises(ValueError):
        heavy_oracle(obj, 1.0, "cauchy")


@settings(max_examples=25, deadline=None)
@given(
    law=st.sampled_from(HEAVY_LAWS + ("normal",)),
    a=st.integers(1, 5),
    b=st.integers(1, 7),
)
def test_chunked_draws_equal_flat_draws(law, a, b):
    """Drawing (a, b, dim) in one call equals drawing (a*b, dim) and
    reshaping; the chunked engines rely on this."""
    df = 6.0 if law == "student" else None
    data = iid_data(3, law, df)
    flat = data.draw((a * b,), derive_stream(1, 0, "noise").generator())
    chunked = data.draw((a, b), derive_stream(1, 0, "noise").generator())
    np.testing.assert_array_equal(flat.reshape(a, b, 3), chunked)


def test_probe_batch_oracle_covariance_scaling():
    obj = make_linear_probe(dim=2)
    for m in (1, 4):
        oracle = probe_batch_oracle(obj, m)
        assert oracle.batch_m == m
        assert oracle.setting == PER_SAMPLE_SMOOTH
        assert oracle.eta == 2.0
        x = np.zeros(2)
        np.testing.assert_allclose(oracle.sigma(x), np.eye(2) / m)
        est = empirical_sigma(oracle, x, 100_000, derive_stream(23, 0, "noise"))
        np.testing.assert_allclose(est, np.eye(2) / m, atol=0.02)


def test_probe_batch_mean_is_gradient():
    obj = make_quadratic(dim=2, lam=2.0)
    oracle = probe_batch_oracle(obj, 3)
    x = np.array([1.0, -1.0])
    rng = derive_stream(29, 0, "noise").generator()
    draws = oracle.apply(np.broadcast_to(x, (100_000, 2)), oracle.draw_raw((100_000,), rng))
    np.testing.assert_allclose(draws.mean(axis=0), obj.gradient(x), atol=0.02)


def test_least_squares_batch_oracle_unbiased_and_sized():
    obj = make_least_squares(dim=3, n_data=50, stream=derive_stream(31, 0, "data"))
    oracle = least_squares_batch_oracle(obj, 4)
    x = obj.x_star + 0.5
    rng = derive_stream(31, 1, "noise").generator()
    draws = oracle.apply(np.broadcast_to(x, (200_000, 3)), oracle.draw_raw((200_000,), rng))
    np.testing.assert_allclose(draws.mean(axis=0), obj.gradient(x), atol=0.02)


def test_least_squares_batch_covariance_matches_empirical():
    obj = make_least_squares(dim=2, n_data=40, stream=derive_stream(37, 0, "data"))
    oracle = least_squares_batch_oracle(obj, 2)
    x = np.array([0.5, -0.25])
    analytic = oracle.sigma(x)
    est = empirical_sigma(oracle, x, 400_000, derive_stream(37, 1, "noise"))
    np.testing.assert_allclose(est, analytic, atol=0.03 * max(1.0, np.abs(analytic).max()))


def test_least_squares_batch_eta_is_second_moment_at_star():
    obj = make_least_squares(dim=2, n_data=30, stream=derive_stream(41, 0, "data"))
    oracle = least_squares_batch_oracle(obj, 1)
    resid = obj.data_a @ obj.x_star - obj.data_b
    per_sample = resid[:, None] * obj.data_a
    expected = float(np.mean(np.sum(per_sample**2, axis=1)))
    assert oracle.eta == pytest.approx(expected, rel=1e-12)


def test_least_squares_batch_requires_data_rows():
    with pytest.raises(TypeError):
        least_squares_batch_oracle(make_quadratic(dim=2), 1)


def test_batch_oracle_estimates_covariance_when_not_given():
    # two-point data cloud with known population covariance of the
    # per-sample gradient (identity map): points +-v
    v = np.array([1.0, 2.0])
    pts = np.stack([v, -v])
    obj = make_linear_probe(dim=2)
    oracle = batch_oracle(obj, lambda x, y: y + 0.0 * x, empirical_data(pts), 1)
    sig = oracle.sigma(np.zeros(2))
    np.testing.assert_allclose(sig, np.outer(v, v), rtol=0.05)
    assert oracle.eta == pytest.approx(float(v @ v), rel=0.01)


def test_batch_oracle_rejects_bad_m():
    obj = make_linear_probe(dim=1)
    with pytest.raises(ValueError):
        batch_oracle(obj, lambda x, y: y, iid_data(1), 0)


def test_empirical_data_resamples_rows():
    pts = np.arange(12.0).reshape(4, 3)
    data = empirical_data(pts)
    draw = data.draw((1000,), derive_stream(2, 0, "data").generator())
    assert draw.shape == (1000, 3)
    # every drawn row is one of the originals
    matches = (draw[:, None, :] == pts[None, :, :]).all(axis=2).any(axis=1)
    assert matches.all()
    with pytest.raises(ValueError):
        empirical_data(np.empty((0, 3)))


def test_psd_sqrt_roundtrip():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    mat = m @ m.T
    root = psd_sqrt(mat)
    np.testing.assert_allclose(root @ root, mat, atol=1e-10)
    np.testing.assert_allclose(root, root.T, atol=1e-12)


def test_empirical_sigma_requires_two_samples():
    oracle = gaussian_oracle(make_quadratic(dim=1), 1.0)
    with pytest.raises(ValueError):
        empirical_sigma(oracle, np.zeros(1), 1, derive_stream(0, 0, "noise"))
