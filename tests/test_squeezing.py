import math
import re
import sys

import mpmath
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
from spinsq.backaction import ExpansionCoeffs, expansion_coeffs
from spinsq.cli import _linspace
from spinsq.oracle import sample_outcome


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


def _gaussian_integral_moments(n, phi, w, y, z):
    """(<Jz^2>, <Jx>) of the Gaussian integrals in a, b and b' (squeezing's
    module docstring), two exponentials apart, at mpmath's working precision."""
    n, phi, w, y, z = (mpmath.mpf(v) for v in (n, phi, w, y, z))
    lam = -2 * y - z
    s = n * phi**2 * lam / 2
    jz2 = n / 4 * (1 / (1 + s) + n * phi**2 * w**2 / (1 + s) ** 2)
    a, b = 2 / n + lam * phi**2, 2 * w * phi
    bp = b - lam * phi**2
    jx = mpmath.exp(y * phi**2 + w * phi) * (a * n - bp) / (2 * a)
    return jz2, jx * mpmath.exp((bp**2 - b**2) / (4 * a))


def test_closed_form_matches_mpmath_on_sampled_outcomes():
    # sampled outcomes at desk scale and at N = 6e10, I0 = 1e11; the floats
    # W, Y, Z of expansion_coeffs are the exact inputs of a 50-digit
    # reference.  Two exponentials whose exponents largely cancel, and
    # squares by pow, would leave exact-mode rows up to ~5e-14 off
    rng = np.random.default_rng(1)
    cases = [
        (n, i0, eta_d)
        for n in (100, 400, 2000)
        for i0 in (50.0, 100.0, 1e4)
        for eta_d in (0.5, 1.0, 4.0, 12.8)
    ] + [(60_000_000_000, 1e11, 12.8)] * 8
    for n, i0, eta_d in cases:
        ens = EnsembleSpec(n_atoms=n, phi=phi_from_eta_d(1.0, eta_d, n, i0))
        probe = ProbeConfig(i0=i0, x_t=rng.uniform(0.05, 1.52))
        coef = expansion_coeffs(probe, sample_outcome(ens, probe, rng, size=24))
        exact = closed_form_moments(ens, coef, jx_mode="exact")
        shortcut = closed_form_moments(ens, coef, jx_mode="shortcut")
        with mpmath.workdps(50):
            for k in range(coef.w.size):
                jz2, jx = _gaussian_integral_moments(n, ens.phi, coef.w[k], coef.y[k], coef.z[k])
                pairs = (
                    (exact.jz2[k], jz2), (exact.jx[k], jx), (exact.xi_sq[k], n * jz2 / jx**2),
                    (shortcut.jz2[k], jz2), (shortcut.xi_sq[k], 4 * jz2 / n),
                )
                for got, want in pairs:
                    assert abs(mpmath.mpf(got) / want - 1) < 1e-14, (n, i0, eta_d, k)


def test_one_exponential_extends_the_domain_and_other_overflows_raise():
    # W phi = 800 overflows e^{W phi}, while the whole exponent of <Jx>,
    # with lambda = 2000 and q = 1001, is 5.79; the value is mpmath's
    ens = EnsembleSpec(n_atoms=100, phi=0.1)
    r = closed_form_moments(ens, ExpansionCoeffs(w=8000.0, y=0.0, z=-2000.0))
    assert r.jx == pytest.approx(3461.06683310710789, rel=1e-12)
    assert math.isfinite(r.xi_sq) and not r.jx_zero
    # q * q past the float range still raises, float coefficients included
    for mode in ("exact", "shortcut"):
        with pytest.raises(FloatingPointError):
            closed_form_moments(ens, ExpansionCoeffs(0.0, 0.0, -1e160), mode)
    # and so does the square of the shortcut's <Jx> = N/2, a float: N = 5e154
    # and q = 100 keep N <Jz^2> = N^2 / 4q finite, while (N/2)^2 is not
    huge = EnsembleSpec(n_atoms=5 * 10**154, phi=1e-154)
    with pytest.raises(FloatingPointError):
        closed_form_moments(huge, ExpansionCoeffs(0.0, 0.0, -3.96e155), "shortcut")


def test_xi_most_probable():
    assert xi_most_probable(0.0, 40.0) == 1.0
    assert xi_most_probable(0.32, 40.0) == pytest.approx(1 / 13.8, rel=1e-12)
    with pytest.raises(ValueError):
        xi_most_probable(1.0, 40.0)
    with pytest.raises(ValueError):
        xi_most_probable(0.5, -1.0)
    for d in (math.nan, math.inf):
        with pytest.raises(ValueError, match="d must be finite"):
            xi_most_probable(0.5, d)
        with pytest.raises(ValueError, match="d must be finite"):
            xi_noisy(0.5, d, ALKALI)


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
    # the bits of (d - 2)/(3d) wherever 3d is finite, and 1/3 to 1 ulp
    # where 3d overflows
    rng = np.random.default_rng(25)
    for d in np.exp(rng.uniform(math.log(2.0), math.log(5.9e307), 2000)).tolist():
        if d > 2.0:
            assert eta_optimal(d, REIDC) == (d - 2.0) / (3.0 * d)
    for d in (6e307, 8.98e307, sys.float_info.max):
        assert abs(eta_optimal(d, REIDC) - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)


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
    # NaN had given 1 - 1e-9 and inf NaN
    for d in (math.nan, math.inf):
        for model in (REIDC, ALKALI):
            with pytest.raises(ValueError, match="d must be finite"):
                eta_optimal(d, model)
    # below d = 2 both models' xi'^2 rise from eta = 0: no interior minimum,
    # so eta_optimal returns the lower end
    assert eta_optimal(1.0, ALKALI) == 1e-9
    assert eta_optimal(1.5, REIDC) == 1e-9
    for d in (0.5, 1.0, 2.0):
        for model in (REIDC, ALKALI):
            assert eta_optimal(d, model) == 1e-9


def _alkali_root_mpmath(d):
    """The root in (0, 1) of d e^3 + (2d^2 - 3d) e^2 + 7d e + 2 - d, where
    the alkali xi'^2 has zero slope, by 60-digit bisection."""
    with mpmath.workdps(60):
        d = mpmath.mpf(d)
        g = lambda e: d * (1 - e) ** 3 - 2 * (1 + e * d) ** 2  # falls on [0, 1]
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(220):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
        return (lo + hi) / 2


@pytest.mark.parametrize(
    "d",
    [2 + 1e-12, 2 + 1e-6, 2.001, 2.5, 3.0, 16.0, 51.0, 75.0, 1e3, 1e5, 1e8,
     # ~3e7 took the forward cubic's companion matrix 1.5e-11 off
     29789818.113584615],
)
def test_eta_optimal_alkali_matches_mpmath(d):
    eta = eta_optimal(d, ALKALI)
    assert abs(mpmath.mpf(eta) / _alkali_root_mpmath(d) - 1) < 1e-11


def test_eta_optimal_tends_to_zero_just_above_d_2():
    # the interior minimum leaves eta = 0 continuously: eta ~ (d - 2)/14
    # for the alkali model and (d - 2)/6 for reidc
    prev = {REIDC: 0.0, ALKALI: 0.0}
    for excess in (4.5e-16, 1e-12, 1e-9, 1e-6, 1e-3):
        d = 2.0 + excess
        for model, slope in ((ALKALI, 14.0), (REIDC, 6.0)):
            eta = eta_optimal(d, model)
            assert eta > prev[model]
            assert eta == pytest.approx((d - 2.0) / slope, rel=2e-3)
            prev[model] = eta


def test_phi_from_eta_d():
    assert phi_from_eta_d(0.32, 40.0, 6e10, 1e11) == pytest.approx(
        3.265986323710904e-11, rel=1e-12
    )
    # round trip: 2 N I0 phi^2 = eta d
    phi = phi_from_eta_d(0.25, 10.0, 1e4, 1e3)
    assert 2 * 1e4 * 1e3 * phi * phi == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(ValueError):
        phi_from_eta_d(0.0, 10.0, 1e4, 1e3)
    # finite, positive inputs whose phi leaves the float range: 2 N I0
    # overflows (phi would be 0.0) or underflows, or eta d does either
    for args, phi in [
        ((0.32, 40.0, 1e300, 1e11), "0.0"),
        ((0.5, 1e300, 1e-300, 1e-300), "inf"),
        ((1e-300, 1e-300, 1e100, 1e100), "0.0"),
        ((1e300, 1e300, 1.0, 1.0), "inf"),
    ]:
        eta, d, n, i0 = args
        message = (
            f"phi = {phi} is not finite and > 0 for eta = {eta}, d = {d}, "
            f"n_atoms = {n}, i0 = {i0}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            phi_from_eta_d(*args)
    good = (0.25, 10.0, 1e4, 1e3)
    for k in range(4):
        for bad in (math.nan, math.inf):
            args = good[:k] + (bad,) + good[k + 1:]
            with pytest.raises(ValueError, match="finite"):
                phi_from_eta_d(*args)


def test_xi_db():
    # 0.0, not -0.0: [plan] d = 2 prints xi_prime_db = 0.0
    assert math.copysign(1.0, xi_db(1.0)) == 1.0 and xi_db(1.0) == 0.0
    assert xi_db(0.5) == pytest.approx(3.010299956639812, rel=1e-12)
    assert xi_db(0.1) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError):
        xi_db(0.0)
    with pytest.raises(ValueError):
        xi_db(math.nan)


def test_xi_noisy_is_elementwise_over_eta():
    # fig4's default eta grid: one array call holds the bits of the scalar
    # calls for both models
    etas = _linspace(0.8 / 200, 0.8, 200)
    for model in (REIDC, ALKALI):
        for d in (10.0, 40.0, 75.0):
            expected = [xi_noisy(eta, d, model) for eta in etas.tolist()]
            assert xi_noisy(etas, d, model).tolist() == expected
            assert xi_most_probable(etas, d).tolist() == [
                xi_most_probable(eta, d) for eta in etas.tolist()
            ]
    # and so do random eta: both square 1 - eta by x * x, not by C pow
    etas = np.random.default_rng(23).uniform(0.0, 0.999, 20_000)
    for model in (REIDC, ALKALI):
        for d in (10.0, 75.0):
            expected = [xi_noisy(eta, d, model) for eta in etas.tolist()]
            assert xi_noisy(etas, d, model).tolist() == expected


@pytest.mark.parametrize("eta", [[0.1, 1.0], [0.2, math.nan], [-0.1, 0.5]])
def test_xi_noisy_refuses_any_eta_outside_the_unit_interval(eta):
    bad = [e for e in eta if not 0.0 <= e < 1.0][0]
    for model in (REIDC, ALKALI):
        with pytest.raises(ValueError, match=rf"eta must be in \[0, 1\), got {bad}"):
            xi_noisy(np.array(eta), 10.0, model)
