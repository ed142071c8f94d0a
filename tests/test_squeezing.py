import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from spinsq import (
    ALKALI,
    REIDC,
    EnsembleSpec,
    MeasurementOutcome,
    NoiseModel,
    ProbeConfig,
    eta_optimal,
    most_probable_outcome,
    phi_from_eta_d,
    xi_closed_form,
    xi_db,
    xi_most_probable,
    xi_noisy,
)
from spinsq.squeezing import CLOSED_FORM_BLOCK, closed_form_moments, xi_closed_form_array
from spinsq.backaction import ExpansionCoeffs


def test_gaussian_integrals_against_quadrature():
    # closed_form_moments evaluates <Jz^2> and <Jx> as ratios of Gaussian
    # integrals; pick coefficients giving a = 2/N + lambda phi^2,
    # b = 2 W phi and Y phi^2 = c, then integrate by quadrature
    a, b, c, n, phi = 0.37, -1.2, 0.4, 50, 0.1
    lam = (a - 2.0 / n) / phi**2
    coef = ExpansionCoeffs(w=b / (2 * phi), y=c / phi**2, z=-2 * c / phi**2 - lam)
    bp = b - lam * phi**2
    f = lambda x, beta: math.exp(-a * x * x + beta * x)
    norm = quad(lambda x: f(x, b), -60, 60)[0]
    jz2 = quad(lambda x: x * x * f(x, b), -60, 60)[0] / norm
    jx = math.exp(c + b / 2) * quad(lambda x: (n / 2 - x) * f(x, bp), -60, 60)[0] / norm
    r = closed_form_moments(EnsembleSpec(n_atoms=n, phi=phi), coef)
    assert r.jz2 == pytest.approx(jz2, rel=1e-10)
    assert r.jx == pytest.approx(jx, rel=1e-10)


def test_closed_form_at_most_probable_outcome_is_canonical():
    # W = 0, lambda = 4 I0 -> xi^2 = 1/(1 + 2 I0 N phi^2) with the shortcut Jx
    for n, i0, prod in [(400, 100.0, 1.0), (1000, 50.0, 4.0), (100, 100.0, 0.5)]:
        phi = math.sqrt(prod / (2 * i0 * n))
        ens = EnsembleSpec(n_atoms=n, phi=phi)
        probe = ProbeConfig(i0=i0, x_t=math.pi / 4)
        out = most_probable_outcome(probe)
        r = xi_closed_form(ens, probe, out, jx_mode="shortcut")
        assert r.xi_sq == pytest.approx(1.0 / (1.0 + prod), rel=1e-10)
        assert r.jz2 == pytest.approx((n / 4.0) / (1.0 + prod), rel=1e-10)


def test_closed_form_exact_jx_frozen_point():
    ens = EnsembleSpec(n_atoms=400, phi=math.sqrt(4.0 / (2 * 100 * 400)))
    probe = ProbeConfig(i0=100.0, x_t=math.pi / 4)
    out = most_probable_outcome(probe)
    r = xi_closed_form(ens, probe, out, jx_mode="exact")
    assert r.jz2 == pytest.approx(20.0, rel=1e-10)
    assert r.jx == pytest.approx(198.20767986658387, rel=1e-12)
    assert r.xi_sq == pytest.approx(0.20363340872555058, rel=1e-12)


def test_closed_form_moments_jx_zero_sentinel():
    # a strongly positive W pushes the Gaussian <Jx> negative for tiny N
    coef = ExpansionCoeffs(w=500.0, y=0.0, z=0.0)
    ens = EnsembleSpec(n_atoms=4, phi=0.1)
    r = closed_form_moments(ens, coef, jx_mode="exact")
    assert r.jx_zero
    assert math.isinf(r.xi_sq)
    with pytest.raises(ValueError):
        closed_form_moments(ens, coef, jx_mode="bogus")


@pytest.mark.parametrize("jx_mode", ["exact", "shortcut"])
def test_xi_closed_form_array_matches_scalar_rows(jx_mode):
    # N = 4, phi = 0.1 makes the Gaussian <Jx> negative at large I_alpha
    # with I_beta = 0, so the jx_zero sentinel is among the rows; zeros are
    # the outcomes that fig3 clamps; more than one block is evaluated
    ens = EnsembleSpec(n_atoms=4, phi=0.1)
    probe = ProbeConfig(i0=100.0, x_t=math.pi / 4)
    rng = np.random.default_rng(5)
    i_alpha = np.concatenate([[0.0, 0.0, 4000.0, 200.0], rng.uniform(0, 600, 2 * CLOSED_FORM_BLOCK)])
    i_beta = np.concatenate([[0.0, 150.0, 0.0, 200.0], rng.uniform(0, 600, 2 * CLOSED_FORM_BLOCK)])
    xi = xi_closed_form_array(ens, probe, MeasurementOutcome(i_alpha, i_beta), jx_mode=jx_mode)
    expected = [
        xi_closed_form(ens, probe, MeasurementOutcome(a, b), jx_mode=jx_mode).xi_sq
        for a, b in zip(i_alpha.tolist(), i_beta.tolist())
    ]
    if jx_mode == "exact":
        assert math.isinf(xi[2]) and math.isinf(expected[2])
    # one formula for both: every row is bit-identical
    np.testing.assert_array_equal(xi, expected)


def test_closed_form_moments_broadcast_sentinel_and_overflow():
    ens = EnsembleSpec(n_atoms=4, phi=0.1)
    coef = ExpansionCoeffs(w=np.array([0.0, 500.0, 1.0]), y=np.zeros(3), z=np.zeros(3))
    r = closed_form_moments(ens, coef, jx_mode="exact")
    assert r.jx_zero.tolist() == [False, True, False]
    assert math.isinf(r.xi_sq[1]) and np.all(np.isfinite(r.xi_sq[[0, 2]]))
    for k in (0, 2):
        scalar = closed_form_moments(ens, ExpansionCoeffs(float(coef.w[k]), 0.0, 0.0))
        assert r.xi_sq[k] == scalar.xi_sq
    # e^{W phi} overflows: refused, never returned as inf
    huge = ExpansionCoeffs(w=np.array([0.0, 1e4]), y=np.zeros(2), z=np.zeros(2))
    with pytest.raises(FloatingPointError):
        closed_form_moments(EnsembleSpec(n_atoms=100, phi=1.0), huge, jx_mode="exact")


def test_xi_most_probable():
    assert xi_most_probable(0.0, 40.0) == 1.0
    assert xi_most_probable(0.32, 40.0) == pytest.approx(1 / 13.8, rel=1e-12)
    with pytest.raises(ValueError):
        xi_most_probable(1.0, 40.0)
    with pytest.raises(ValueError):
        xi_most_probable(0.5, -1.0)


def test_xi_noisy_models():
    eta, d = 0.3, 40.0
    assert xi_noisy(eta, d, REIDC) == pytest.approx(
        1.0 / ((1 - eta) ** 2 * (1 + eta * d)), rel=1e-12
    )
    assert xi_noisy(eta, d, ALKALI) == pytest.approx(
        1.0 / (1 + eta * d) + eta / (1 - eta) + eta / (1 - eta) ** 2, rel=1e-12
    )
    with pytest.raises(ValueError):
        NoiseModel("other")


def numeric_eta_optimal(d, model):
    """Minimizer of xi_noisy on (0, 1) by scipy, independent of eta_optimal."""
    return minimize_scalar(
        lambda e: xi_noisy(e, d, model),
        bounds=(1e-9, 1 - 1e-9),
        method="bounded",
        options={"xatol": 1e-12},
    ).x


def test_eta_optimal_closed_form_and_numeric_agree():
    for d in (10.0, 40.0, 100.0):
        closed = eta_optimal(d, REIDC)
        assert closed == pytest.approx((d - 2) / (3 * d), rel=1e-12)
        assert numeric_eta_optimal(d, REIDC) == pytest.approx(closed, abs=1e-6)
    assert eta_optimal(10.0) == pytest.approx(4.0 / 15.0, rel=1e-12)
    assert eta_optimal(40.0) == pytest.approx(19.0 / 60.0, rel=1e-12)


def test_eta_optimal_is_a_minimum():
    for d, model in [(10.0, REIDC), (40.0, REIDC), (75.0, ALKALI)]:
        eta = eta_optimal(d, model)
        f0 = xi_noisy(eta, d, model)
        for de in (-1e-3, 1e-3):
            assert xi_noisy(eta + de, d, model) >= f0 - 1e-12


def test_eta_optimal_alkali_frozen_value():
    eta = eta_optimal(75.0, ALKALI)
    assert eta == pytest.approx(0.060964689917201324, abs=1e-8)
    assert xi_noisy(eta, 75.0, ALKALI) == pytest.approx(
        0.31351776040181956, rel=1e-10
    )
    # independent of eta_optimal: the derivative of the alkali formula,
    # -d/(1 + eta d)^2 + 1/(1-eta)^2 + (1+eta)/(1-eta)^3, rises with eta
    # from 2 - d < 0, so its single root is the optimum
    d = 75.0
    root = brentq(
        lambda e: -d / (1 + e * d) ** 2 + 1 / (1 - e) ** 2 + (1 + e) / (1 - e) ** 3,
        0.0,
        0.5,
        xtol=1e-15,
    )
    assert eta == pytest.approx(root, abs=1e-8)


def test_eta_optimal_validation():
    with pytest.raises(ValueError):
        eta_optimal(-1.0)
    # below d = 2 both models' xi'^2 rise from eta = 0: no interior minimum,
    # so the search (the reidc closed form needs d > 2) is clamped to the
    # lower end
    assert eta_optimal(1.0, ALKALI) == 1e-9
    assert eta_optimal(1.5, REIDC) == 1e-9


def test_phi_from_eta_d():
    assert phi_from_eta_d(0.32, 40.0, 6e10, 1e11) == pytest.approx(
        3.265986323710904e-11, rel=1e-12
    )
    # round trip: 2 N I0 phi^2 = eta d
    phi = phi_from_eta_d(0.25, 10.0, 1e4, 1e3)
    assert 2 * 1e4 * 1e3 * phi * phi == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(ValueError):
        phi_from_eta_d(0.0, 10.0, 1e4, 1e3)


def test_xi_db():
    assert xi_db(1.0) == 0.0
    assert xi_db(0.5) == pytest.approx(3.010299956639812, rel=1e-12)
    assert xi_db(0.1) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError):
        xi_db(0.0)
