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
    batch_oracle,
    gaussian_oracle,
    heavy_oracle,
    least_squares_batch_oracle,
    probe_batch_oracle,
    psd_sqrt,
)
from sgdlab.objectives import make_least_squares, make_linear_probe, make_quadratic

from helpers import empirical_sigma


def test_gaussian_oracle_fields():
    obj = make_quadratic(dim=3)
    oracle = gaussian_oracle(obj, 0.5)
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
    """An oracle draws from the generator it is handed and nothing else, so
    a stream opened afresh repeats the same draw of H(x, .)."""
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 1.0)
    stream = derive_stream(3, 5, "noise")
    a, b = (oracle.apply(np.zeros(2), oracle.draw_raw((), stream.generator())) for _ in range(2))
    np.testing.assert_array_equal(a, b)


def test_gaussian_zero_noise():
    obj = make_quadratic(dim=2)
    oracle = gaussian_oracle(obj, 0.0)
    assert oracle.eta == 0.0
    x = np.array([1.0, 2.0])
    h = oracle.apply(x, oracle.draw_raw((), derive_stream(0, 0, "noise").generator()))
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
    assert not oracle.gaussian_noise


def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def test_additive_oracles_are_gradient_plus_scale_times_raw_bit_for_bit():
    """Every additive oracle applies grad f(x) + scale * raw, and its
    quantile is scale times the standardized law's, bit for bit; a
    gaussian oracle's apply on a standard normal G is grad f(x) +
    apply_sqrt(x, G), which the shared coupling steps through."""
    from scipy.special import ndtri, stdtrit

    obj = make_quadratic(dim=3, lam=2.0)
    rng = derive_stream(43, 0, "noise").generator()
    x = rng.standard_normal((5, 3)) * 3.0
    x[0] = [-0.0, 0.0, 1e-300]
    u = np.array([1e-200, 0.01, 0.3, 0.5, np.nextafter(0.5, 0.0), 0.9, 1.0 - 1e-16])
    b = 1.0 / np.sqrt(2.0)
    laplace_ppf = lambda u: np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(2.0 * (1.0 - u)))
    unit6 = np.sqrt(4.0 / 6.0)
    cases = [
        (gaussian_oracle(obj, 0.5), 0.5, ndtri),
        (gaussian_oracle(obj, 0.0), 0.0, ndtri),
        (gaussian_oracle(obj, lambda x: np.abs(x) + 0.25, eta=9.0), None, None),
        (heavy_oracle(obj, 0.5, "rademacher"), 0.5, lambda u: np.where(u < 0.5, -1.0, 1.0)),
        (heavy_oracle(obj, 0.5, "laplace"), 0.5, laplace_ppf),
        (heavy_oracle(obj, 0.5, "student", df=6.0), 0.5, lambda u: (stdtrit(6.0, u) + 0.0) * unit6),
    ]
    for oracle, scale, std_ppf in cases:
        raw = oracle.draw_raw((5,), rng)
        expected_scale = np.abs(x) + 0.25 if scale is None else scale
        assert _same_bits(oracle.apply(x, raw), obj.gradient(x) + expected_scale * raw)
        if scale is None:
            assert oracle.noise_ppf is None
        else:
            assert _same_bits(oracle.noise_ppf(u), scale * std_ppf(u))
        if oracle.gaussian_noise:
            g = rng.standard_normal((5, 3))
            assert _same_bits(oracle.apply(x, g), obj.gradient(x) + oracle.apply_sqrt(x, g))
    assert [o.gaussian_noise for o, _, _ in cases] == [True] * 3 + [False] * 3


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


def test_cli_import_leaves_scipy_special_out():
    """scipy.special takes most of the CLI's import time; only the quantile
    functions and the comonotone coupling use it, and they import it on
    their first call."""
    code = "import sys, sgdlab.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_pool_modules_out():
    """The worker pool is os.fork and pipes: importing the CLI loads neither
    multiprocessing nor concurrent.futures, and no sgdlab module imports
    either, not even inside a function."""
    code = ("import sys, sgdlab.cli;"
            " print(any(m in sys.modules for m in ('multiprocessing', 'concurrent.futures')))")
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
    with pytest.raises(ValueError, match="student noise needs df > 4"):
        heavy_oracle(obj, 1, "student")
    with pytest.raises(ValueError):
        heavy_oracle(obj, 1.0, "cauchy")
    # and df belongs to student noise only
    with pytest.raises(ValueError, match="df applies to student noise only"):
        heavy_oracle(obj, 1.0, "laplace", df=6.0)


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
    draw = probe_batch_oracle(make_linear_probe(dim=3), 1, law, df).draw_raw
    flat = draw((a * b,), derive_stream(1, 0, "noise").generator())
    chunked = draw((a, b), derive_stream(1, 0, "noise").generator())
    np.testing.assert_array_equal(flat.reshape(a, b, 1, 3), chunked)


def test_probe_batch_oracle_covariance_scaling():
    obj = make_linear_probe(dim=2)
    for m in (1, 4):
        oracle = probe_batch_oracle(obj, m)
        assert oracle.name.startswith(f"batch{m}[")
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


def test_batch_oracle_rejects_bad_m():
    obj = make_linear_probe(dim=1)
    draw = lambda prefix, rng: rng.standard_normal(prefix + (1,))
    with pytest.raises(ValueError):
        batch_oracle(obj, lambda x, y: y, "iid", draw, 0, lambda x: np.eye(1), 1.0)


def test_empirical_data_resamples_rows():
    """The least-squares batch oracle draws batches of its objective's data
    row indices, with replacement, and reaches every row."""
    obj = make_least_squares(dim=2, n_data=4, stream=derive_stream(2, 1, "data"))
    oracle = least_squares_batch_oracle(obj, 3)
    draw = oracle.draw_raw((1000,), derive_stream(2, 0, "data").generator())
    assert draw.shape == (1000, 3)
    assert np.issubdtype(draw.dtype, np.integer)
    assert draw.min() >= 0 and draw.max() < 4
    assert set(draw.ravel().tolist()) == {0, 1, 2, 3}


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
