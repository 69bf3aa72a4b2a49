import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdlab.objectives
from sgdlab.analysis import (
    RATE_CLASSES,
    expected_rate,
    fit_rate,
    drift_sup_bound,
    drift_sup_verify,
    probe_exact_second_moment,
    probe_strong_error_floor,
)
from sgdlab.cli import _OBJECTIVES, _REQUIRED
from sgdlab.objectives import Convex, Lojasiewicz, QuasarConvex, StronglyConvex


# ---------------------------------------------------------------- regression

def test_fit_rate_recovers_exact_power_law():
    n = np.geomspace(10, 1e5, 40)
    est = fit_rate(zip(n, 3.0 * n**-0.7))
    assert est.slope == pytest.approx(-0.7, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.window == (n[20], n[39])


@given(
    beta=st.floats(min_value=-2.0, max_value=2.0),
    coef=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=100, deadline=None)
def test_fit_rate_power_law_property(beta, coef):
    n = np.geomspace(5, 1e4, 30)
    est = fit_rate(zip(n, coef * n**beta))
    assert est.slope == pytest.approx(beta, abs=1e-8)


def test_fit_rate_window_drops_transient():
    """The leading half of the points can follow any positive junk; the
    fitted slope must come from the tail window alone."""
    n = np.geomspace(1, 1e4, 20)
    vals = np.empty(20)
    vals[:10] = 7.0  # flat transient
    vals[10:] = 2.0 * n[10:] ** -0.5
    est = fit_rate(zip(n, vals))
    assert est.slope == pytest.approx(-0.5, abs=1e-12)
    assert est.window == (n[10], n[19])


def test_fit_rate_order_independent():
    n = np.geomspace(10, 1e4, 24)
    vals = 5.0 * n**-1.2
    rng = np.random.default_rng(3)
    perm = rng.permutation(24)
    a = fit_rate(zip(n, vals))
    b = fit_rate(zip(n[perm], vals[perm]))
    assert a.slope == b.slope


def test_fit_rate_noisy_fit_reports_uncertainty():
    rng = np.random.default_rng(1)
    n = np.geomspace(10, 1e5, 40)
    vals = n**-0.5 * np.exp(rng.normal(0, 0.1, size=40))
    est = fit_rate(zip(n, vals))
    assert est.r_squared < 1.0
    assert est.slope == pytest.approx(-0.5, abs=0.15)


def test_fit_rate_validation():
    n = np.geomspace(10, 1e3, 12)
    good = list(zip(n, 1.0 / n))
    with pytest.raises(ValueError, match="pairs"):
        fit_rate(np.ones((4, 3)))
    with pytest.raises(ValueError, match="positive"):
        fit_rate(zip(n, np.concatenate([[0.0], 1.0 / n[1:]])))
    with pytest.raises(ValueError, match="at least 5"):
        fit_rate(good[:4])
    with pytest.raises(ValueError, match="degenerate"):
        fit_rate([(10.0, 1.0)] * 10)


# ---------------------------------------------------------------- exponent table

def test_rate_classes_cover_every_class_tag_once():
    """Every class tag type of sgdlab.objectives (each of its dataclasses but
    the objectives, the grid and the certification report) has exactly one
    row."""
    others = (sgdlab.objectives.Objective, sgdlab.objectives.GridSpec, sgdlab.objectives.CertificationReport)
    tag_types = {
        value for value in vars(sgdlab.objectives).values()
        if isinstance(value, type) and value.__module__ == "sgdlab.objectives"
        and hasattr(value, "__dataclass_fields__") and not issubclass(value, others)
    }
    kinds = [kind for kind, _, _, _ in RATE_CLASSES]
    assert len(kinds) == len(set(kinds))
    assert set(kinds) == tag_types == {StronglyConvex, Convex, Lojasiewicz, QuasarConvex}


def test_every_rate_class_is_carried_by_a_built_in_objective():
    """Each RATE_CLASSES row is reachable: some objective kind of the CLI,
    built with its defaults (p = 2 where a kind needs one, least-squares
    data from seed 0), carries a tag of its type."""
    carried = set()
    for keys, make in _OBJECTIVES.values():
        obj = make(0, **{key: 2 if value is _REQUIRED else value for key, value in keys.items()})
        carried |= {type(tag) for tag in obj.class_tags}
    assert {kind for kind, _, _, _ in RATE_CLASSES} <= carried


def test_expected_rate_strongly_convex_is_alpha():
    for a in (0.3, 0.5, 0.7, 1.0):
        assert expected_rate(StronglyConvex(1.0), a) == a


def test_expected_rate_convex():
    assert expected_rate(Convex(), 0.3) == pytest.approx(0.3)
    assert expected_rate(Convex(), 0.7) == pytest.approx(0.3)
    assert expected_rate(Convex(), 0.5) == pytest.approx(0.5)


def test_expected_rate_lojasiewicz():
    # exponent r = 2 recovers the strongly convex rate
    assert expected_rate(Lojasiewicz(2.0, 1.0), 0.6) == 0.6
    # r = 1: min(1 - a, a / 2)
    assert expected_rate(Lojasiewicz(1.0, 1.0), 0.6) == pytest.approx(0.3)
    assert expected_rate(Lojasiewicz(1.0, 1.0), 0.9) == pytest.approx(0.1)
    # r = 1.5: min(3 (1 - a), 0.75 a)
    assert expected_rate(Lojasiewicz(1.5, 1.0), 0.5) == pytest.approx(0.375)
    with pytest.raises(ValueError, match="needs r"):
        expected_rate(Lojasiewicz(0.0, 1.0), 0.5)
    with pytest.raises(ValueError, match="needs r"):
        expected_rate(Lojasiewicz(2.5, 1.0), 0.5)


def test_expected_rate_quasar_convex():
    # min((3a - 1)/2, a/2, 1 - a)
    assert expected_rate(QuasarConvex(1.0), 0.5) == pytest.approx(0.25)
    assert expected_rate(QuasarConvex(1.0), 0.8) == pytest.approx(0.2)
    # the first branch vanishes at a = 1/3
    assert expected_rate(QuasarConvex(1.0), 1.0 / 3.0) is None


def test_expected_rate_validation():
    with pytest.raises(ValueError, match="out of range"):
        expected_rate(Convex(), 1.0)  # alpha = 1 only makes sense with strong convexity
    with pytest.raises(ValueError, match="out of range"):
        expected_rate(StronglyConvex(1.0), 0.0)
    expected_rate(StronglyConvex(1.0), 1.0)  # boundary allowed here
    with pytest.raises(TypeError, match="class tag"):
        expected_rate("convex", 0.5)


# ---------------------------------------------------------------- bounded recursions

def test_drift_sup_bound_and_worst_case_iteration():
    """F pulls strictly down above a1 = 1 and never adds more than
    a2 = 0.1, so the recursion stays below max(u_init) + a2 forever."""
    f = lambda n, x: -0.1 * (x - 0.9)
    b, peak = drift_sup_verify(f, [2.0, 1.9], n0=0, a1=1.0, a2=0.1, n_steps=2000)
    assert b == pytest.approx(2.1)
    assert peak <= b
    assert drift_sup_bound(f, [2.0, 1.9], 0, 1.0, 0.1) == pytest.approx(2.1)


def test_drift_sup_bound_oscillating_recursion():
    """A recursion that keeps getting kicked up by a2 below a1 and damped
    above it oscillates but never exceeds the bound."""
    a1, a2 = 1.0, 0.25
    f = lambda n, x: a2 if x < a1 else -(x - a1) - 0.01
    b, peak = drift_sup_verify(f, [0.3, 0.55], n0=0, a1=a1, a2=a2, n_steps=5000)
    assert b == pytest.approx(a1 + a2)
    assert peak <= b


def test_drift_sup_bound_rejects_bad_hypotheses():
    with pytest.raises(ValueError, match="not < 0"):
        drift_sup_bound(lambda n, x: 0.5, [1.0, 1.0], 0, 1.0, 1.0)
    with pytest.raises(ValueError, match="exceeds a2"):
        drift_sup_bound(
            lambda n, x: 0.2 if x < 1.0 else -0.1,
            [1.0, 1.0], 0, 1.0, 0.1,
        )
    with pytest.raises(ValueError, match="initial values"):
        drift_sup_bound(lambda n, x: -1.0, [1.0], 3, 1.0, 0.1)


# ---------------------------------------------------------------- probe references

def test_probe_second_moment_is_partial_sum():
    got = probe_exact_second_moment(4, 0.1, 0.25, 50)
    want = sum(0.1**2 / 4 * (k + 1) ** -0.5 for k in range(50))
    assert got == pytest.approx(want, rel=1e-14)


def test_probe_second_moment_batch_scaling():
    one = probe_exact_second_moment(1, 0.2, 0.3, 100)
    four = probe_exact_second_moment(4, 0.2, 0.3, 100)
    assert four == pytest.approx(one / 4.0, rel=1e-14)
    with pytest.raises(ValueError):
        probe_exact_second_moment(1, 0.2, 0.3, 0)


def test_probe_floor_closed_form():
    # delta = min(1, 1/(2 - 2a)) = 2/3 at a = 1/4
    want = 0.1 ** (2.0 / 3.0) * np.sqrt(2.0) * 1.0 ** 0.25
    assert probe_strong_error_floor(1, 0.1, 0.25, 2.0) == pytest.approx(want, rel=1e-12)
    assert probe_strong_error_floor(4, 0.1, 0.25, 2.0) == pytest.approx(want / 2.0, rel=1e-12)
    with pytest.raises(ValueError, match="alpha < 1/2"):
        probe_strong_error_floor(1, 0.1, 0.5, 2.0)


def test_probe_floor_sits_below_exact_moment():
    """The floor is a lower bound for the probe's RMS deviation at the
    discrete index matching the horizon, so the exact second moment there
    must dominate it."""
    gamma, alpha, horizon, m = 0.1, 0.25, 2.0, 1
    ga = gamma ** (1.0 / (1.0 - alpha))
    n = int(horizon / ga)
    exact_rms = np.sqrt(probe_exact_second_moment(m, gamma, alpha, n))
    assert exact_rms >= probe_strong_error_floor(m, gamma, alpha, horizon)
