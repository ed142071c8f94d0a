"""Acceptance suite: one test (pass/fail line) per primary criterion.

Criteria 3, 6 and 8 are split into sub-criteria where the verification
paths have measurably different accuracy.  3b and 6b gate at the order of
accuracy their method promises, and each gate's size is derived rather
than fitted; 8c stays red:

* 3a (most probable outcomes) holds the flat 5% gate (worst row 1.3%).
  3b (outcomes displaced by one standard deviation) is held to the
  expansion's own accuracy: every row within max(5%, phi sqrt(N)).  The
  largest rel_err / (phi sqrt(N)) over the default rows is 0.58 (11.7%
  at phi sqrt(N) = 0.2).  3b also checks that this error is the omitted
  first order: it halves each time I0 quadruples at fixed 2 I0 N phi^2.
* 6a (Monte Carlo per-mode means) holds at 3 standard errors.  6b
  (variances) allows the one-sided interval that the second-order
  truncation implies: the formula V2 lies above the exact mixture
  variance by at most 4 I0^2 (N phi^2)^2 (16 photons^2 at the test
  point, against a gap of 15.75 and a standard error of 4.3).
* 8a/8b (grid structure and the most-probable-outcome law) are exact
  identities.  8c (alkali model at d = 75 reaching 0.4 +/- 0.05) fails:
  the documented alkali formula has its minimum at 0.3135.  The window
  has no source in the repository, so whether the test or xi_noisy is at
  fault stays open until the paper's text is in the repository.  8c is
  expected to fail.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from spinsq import (
    ALKALI,
    REIDC,
    EnsembleSpec,
    MeasurementOutcome,
    ProbeConfig,
    compare_report,
    css_log_weights,
    eta_optimal,
    fock_posterior,
    intensity_moments_approx,
    intensity_moments_exact,
    mode_amplitudes,
    most_probable_outcome,
    posterior_weights,
    sample_outcome,
    table1,
    xi_closed_form,
    xi_most_probable,
    xi_noisy,
)
from spinsq.backaction import ExpansionCoeffs, _log_kernel
from spinsq.dicke import m_values
from spinsq.squeezing import closed_form_moments


# ---------------------------------------------------------------------------
# 1. planner reproduces the published operating points
# ---------------------------------------------------------------------------

def test_criterion_1_planner_table():
    t0 = time.perf_counter()
    rows = {r.name[:2].lower(): r for r in table1()}
    elapsed = time.perf_counter() - t0
    eu, pr = rows["eu"], rows["pr"]

    assert eu.xi_prime_sq == pytest.approx(0.50, abs=0.01)
    assert pr.xi_prime_sq == pytest.approx(0.16, abs=0.01)
    assert eu.eta == pytest.approx(0.27, abs=0.005)
    assert pr.eta == pytest.approx(0.32, abs=0.005)
    assert eu.xi_prime_db == pytest.approx(3.0, abs=0.1)
    assert pr.xi_prime_db == pytest.approx(8.0, abs=0.1)
    # cross-section and atom number within a factor 2 of the references
    for got, ref in [
        (eu.sigma, 1.2e-14),
        (pr.sigma, 2.2e-13),
        (eu.n_atoms, 3e11),
        (pr.n_atoms, 6e10),
    ]:
        assert 0.5 < got / ref < 2.0
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. closed-form optimal eta vs numeric minimization
# ---------------------------------------------------------------------------

def test_criterion_2_eta_optimal_closed_vs_numeric():
    # the numeric reference is scipy's bounded minimizer, independent of
    # eta_optimal's closed form
    for d in (5.0, 10.0, 40.0, 100.0):
        closed = eta_optimal(d, REIDC)
        numeric = minimize_scalar(
            lambda e: xi_noisy(e, d, REIDC),
            bounds=(1e-9, 1 - 1e-9),
            method="bounded",
            options={"xatol": 1e-12},
        ).x
        assert abs(closed - (d - 2) / (3 * d)) < 1e-15
        assert abs(closed - numeric) < 1e-6


# ---------------------------------------------------------------------------
# 3. oracle equivalence at desk scale (flat 5% gate)
# ---------------------------------------------------------------------------

def test_criterion_3a_oracle_equivalence_at_most_probable_outcomes():
    t0 = time.perf_counter()
    rep = compare_report(offsets=((0, 0),))
    assert rep["max_rel_err"] <= 0.05
    assert time.perf_counter() - t0 < 300.0


def test_criterion_3b_oracle_equivalence_at_one_std_offsets():
    """Closed form vs oracle at +/-1 sigma outcomes, at the expansion's accuracy.

    The closed form keeps the kernel to second order in phi.  Off the mean
    outcome the first omitted order is phi sqrt(N) = sqrt(prod / 2 I0),
    which is 0.2 at I0 = 50, 2 I0 N phi^2 = 4.  There the error reaches
    0.117, so the flat 5% gate of 3a cannot hold: 48 of the 270 rows
    exceed it.  Over all rows the largest rel_err / (phi sqrt(N)) is 0.58,
    a margin of 1.7x under the adaptive gate.

    Three checks pin it down:

    1. every row lies within max(5%, phi sqrt(N));
    2. the oracle's kernel is right at the worst row: its
       S(x) = sum x^n / (n!)^2 = I0(2 sqrt(x)) matches mpmath's besseli
       (as log, to 1e-12) at every diagonal argument the row uses, so the
       error is the closed form's;
    3. at the worst default point (N = 400, X_t = pi/4, product 4,
       alpha offset +/-1 sigma) the error halves each time I0 quadruples
       at fixed product, i.e. it scales as phi sqrt(N) (ratios 2.01, 1.98
       at +1 sigma and 2.03, 2.02 at -1 sigma).  A closed form that is
       wrong at second order leaves an error that does not vanish as I0
       grows, and fails this.
    """
    t0 = time.perf_counter()
    rep = compare_report()  # default offsets: mean and +/- 1 std per axis
    assert time.perf_counter() - t0 < 300.0
    assert len(rep["rows"]) == 270
    for row in rep["rows"]:
        phi_sqrt_n = math.sqrt(row["product"] / (2.0 * row["i0"]))
        assert row["rel_err"] <= max(0.05, phi_sqrt_n), row

    worst = max(rep["rows"], key=lambda row: row["rel_err"])
    n, i0 = worst["n_atoms"], worst["i0"]
    ens = EnsembleSpec(n_atoms=n, phi=math.sqrt(worst["product"] / (2.0 * i0 * n)))
    alpha, beta = mode_amplitudes(ens, ProbeConfig(i0=i0, x_t=worst["x_t"]), m_values(n))
    args = np.concatenate((worst["i_alpha"] * alpha**2, worst["i_beta"] * beta**2))
    args = args[args > 0.0]
    log_s, sign = _log_kernel(args)
    assert np.all(sign == 1.0)
    with mpmath.workdps(30):
        expected = [mpmath.log(mpmath.besseli(0, 2 * mpmath.sqrt(x))) for x in args]
    assert log_s == pytest.approx(np.array(expected, dtype=float), rel=1e-12, abs=1e-12)

    errs = []
    for i0 in (50.0, 200.0, 800.0):
        grid = {"n_atoms": (400,), "i0": (i0,), "product": (4.0,), "x_t": (math.pi / 4,)}
        conv = compare_report(grid=grid, offsets=((1, 0), (-1, 0)))
        errs.append([row["rel_err"] for row in conv["rows"]])
    for coarse, fine in zip(errs, errs[1:]):
        for e_coarse, e_fine in zip(coarse, fine):
            assert 1.7 <= e_coarse / e_fine <= 2.3


# ---------------------------------------------------------------------------
# 4. full-Hilbert-space micro-oracle vs series-kernel posterior
# ---------------------------------------------------------------------------

def test_criterion_4_fock_micro_oracle():
    t0 = time.perf_counter()
    ens = EnsembleSpec(n_atoms=8, phi=0.05)
    probe = ProbeConfig(i0=4.0, x_t=math.pi / 4)
    outcomes = [
        most_probable_outcome(probe),
        MeasurementOutcome(10.0, 3.0),
        MeasurementOutcome(2.0, 14.0),
    ]
    for out in outcomes:
        rho = fock_posterior(ens, probe, out, cutoff=40)
        pw = posterior_weights(ens, probe, out, method="exact")
        shift = pw.log_w.max()
        w = np.exp(pw.log_w - shift)
        w /= w.sum()
        assert np.max(np.abs(np.diag(rho) - w)) < 1e-8
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 5. light-moment closure
# ---------------------------------------------------------------------------

def test_criterion_5_light_moment_closure():
    cases = []
    for n in (100, 400, 1000, 2000):
        for i0 in (50.0, 100.0, 400.0):
            for phi_sqrt_n in (0.01, 0.03, 0.05):
                for x_t in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
                    if math.sin(2 * x_t) ** 2 >= 0.1:
                        cases.append((n, i0, phi_sqrt_n / math.sqrt(n), x_t))
    for n, i0, phi, x_t in cases:
        ens = EnsembleSpec(n_atoms=n, phi=phi)
        probe = ProbeConfig(i0=i0, x_t=x_t)
        ap = intensity_moments_approx(ens, probe)
        ex = intensity_moments_exact(ens, probe)
        assert abs(ap.var_total - ex.var_total) / ex.var_total <= 0.01
        assert abs(ex.mean_total - 4 * i0) <= 10.0 * i0 * n * phi**3 * math.sqrt(n) + 1e-9


# ---------------------------------------------------------------------------
# 6. Monte Carlo consistency with the second-order per-mode moments
# ---------------------------------------------------------------------------

N_MC = 100_000
MC_ENS = EnsembleSpec(n_atoms=400, phi=7.07e-3)
MC_PROBE = ProbeConfig(i0=100.0, x_t=math.pi / 4)


@pytest.fixture(scope="module")
def mc_moments():
    """Seed-0 draws shared by 6, 6a and 6b: one vector draw of 1e5 outcomes."""
    out = sample_outcome(MC_ENS, MC_PROBE, np.random.default_rng(0), size=N_MC)
    ia, ib = out.i_alpha, out.i_beta
    ia.flags.writeable = ib.flags.writeable = False
    return ia, ib, intensity_moments_approx(MC_ENS, MC_PROBE)


def _z_mean(arr, mu):
    return (arr.mean() - mu) / (arr.std(ddof=1) / math.sqrt(arr.size))


def _var_se(arr):
    """Standard error of the sample variance, from the fourth central moment."""
    m4 = float(np.mean((arr - arr.mean()) ** 4))
    return math.sqrt((m4 - arr.var(ddof=1) ** 2) / arr.size)


def _z_var(arr, var):
    return (arr.var(ddof=1) - var) / _var_se(arr)


def test_criterion_6a_monte_carlo_means(mc_moments):
    ia, ib, mom = mc_moments
    assert abs(_z_mean(ia, mom.mean_alpha)) < 3.0
    assert abs(_z_mean(ib, mom.mean_beta)) < 3.0


def test_criterion_6b_monte_carlo_variances(mc_moments):
    """Sampled per-mode variances vs the second-order formulas V2.

    V2 is exact only to second order in phi, so the gate is 3 standard
    errors plus a bound on the omitted orders.  At X_t = pi/4 both modes
    follow 2 I0 (1 +/- sin 2m phi) plus shot noise, with m = k - N/2 and
    k ~ Binomial(N, 1/2), so E[sin 2m phi] = 0, E[cos 4m phi] = cos(2 phi)^N
    and the exact mixture variance is

        V_exact = 2 I0 + 4 I0^2 E[sin^2 2m phi] = 2 I0 + 2 I0^2 (1 - cos(2 phi)^N),

    while the formula gives V2 = 2 I0 + 4 I0^2 N phi^2.  With y = 2 N phi^2:
    cos 2phi >= 1 - 2 phi^2 >= 0 and Bernoulli's inequality give
    cos(2 phi)^N >= 1 - y; cos x <= exp(-x^2/2) for |x| <= pi/2 gives
    cos(2 phi)^N <= exp(-y) <= 1 - y + y^2/2.  Hence

        0 <= V2 - V_exact = 4 I0^2 [N phi^2 - (1 - cos(2 phi)^N)/2]
                          <= 4 I0^2 (N phi^2)^2.

    The sample variance v_hat estimates V_exact, so within 3 standard errors
    -3 SE - bound <= v_hat - V2 <= 3 SE: the samples may sit below V2 by the
    truncation, never above it.  At N = 400, phi = 7.07e-3, I0 = 100 the
    bound is 15.99 against a gap of 999.76 - 984.00 = 15.75; 1e5 samples
    give a standard error of ~4.3, so the bias is resolved and the bound is
    the only margin beyond 3 SE.  A wrong second-order coefficient moves V2
    by hundreds and fails.
    """
    ia, ib, mom = mc_moments
    ex = intensity_moments_exact(MC_ENS, MC_PROBE)
    n, phi, i0 = MC_ENS.n_atoms, MC_ENS.phi, MC_PROBE.i0
    bound = 4.0 * i0**2 * (n * phi**2) ** 2
    v_exact = 2.0 * i0 + 2.0 * i0**2 * (1.0 - math.cos(2.0 * phi) ** n)
    for arr, v2, v_mix in ((ia, mom.var_alpha, ex.var_alpha), (ib, mom.var_beta, ex.var_beta)):
        assert v_mix == pytest.approx(v_exact, rel=1e-9)
        assert 0.0 <= v2 - v_mix <= bound
        se = _var_se(arr)
        assert -3.0 * se - bound <= arr.var(ddof=1) - v2 <= 3.0 * se


def test_criterion_6_sampler_matches_exact_mixture_moments(mc_moments):
    # control for 6b: the same samples agree with the exact mixture
    # variances, locating the discrepancy in the formulas, not the sampler
    ia, ib, _ = mc_moments
    ex = intensity_moments_exact(MC_ENS, MC_PROBE)
    assert abs(_z_var(ia, ex.var_alpha)) < 3.0
    assert abs(_z_var(ib, ex.var_beta)) < 3.0
    assert abs(_z_mean(ia, ex.mean_alpha)) < 3.0
    assert abs(_z_mean(ib, ex.mean_beta)) < 3.0


# ---------------------------------------------------------------------------
# 7. identity suite
# ---------------------------------------------------------------------------

def test_criterion_7_identity_suite():
    # binomial ladder recursion, exact to 1e-12 for N <= 60
    for n in range(1, 61):
        dw = css_log_weights(n)
        m = m_values(n)[:-1]
        lhs = 0.5 * (dw.log_w[:-1] + dw.log_w[1:]) + 0.5 * np.log(
            (n / 2.0 - m) * (n / 2.0 + m + 1.0)
        )
        rhs = dw.log_w[:-1] + np.log(n / 2.0 - m)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    # closed-form Gaussian-integral moments vs adaptive quadrature,
    # randomized coefficients: a = 2/N + lambda phi^2, b = 2 W phi,
    # b' = b - lambda phi^2 and Y phi^2 = c
    rng = np.random.default_rng(2024)
    ens = EnsembleSpec(n_atoms=50, phi=0.1)
    for _ in range(20):
        a = float(rng.uniform(0.05, 3.0))
        b = float(rng.uniform(-2.0, 2.0))
        c = float(rng.uniform(-1.0, 1.0))
        lam = (a - 2.0 / 50) / 0.1**2
        coef = ExpansionCoeffs(w=b / 0.2, y=c / 0.1**2, z=-2 * c / 0.1**2 - lam)
        r = closed_form_moments(ens, coef)
        lim = 40.0 / math.sqrt(a)
        f = lambda x, beta: math.exp(-a * x * x + beta * x)
        q1 = quad(lambda x: f(x, b), -lim, lim)[0]
        q2 = quad(lambda x: x * x * f(x, b), -lim, lim)[0]
        q3 = quad(lambda x: (25.0 - x) * f(x, b - lam * 0.1**2), -lim, lim)[0]
        jz2, jx = q2 / q1, math.exp(c + b / 2) * q3 / q1
        assert abs(r.jz2 - jz2) <= 1e-10 * abs(jz2)
        assert abs(r.jx - jx) <= 1e-10 * abs(jx)

    # POVM completeness: integral over outcomes of the diagonal kernel is 1
    for gamma_sq in (0.5, 4.0, 25.0):
        def kernel(i_bar):
            log_s, _ = _log_kernel(i_bar * gamma_sq)
            return math.exp(-i_bar - gamma_sq + log_s)

        upper = gamma_sq + 60.0 + 20.0 * math.sqrt(gamma_sq)
        total = quad(kernel, 0.0, upper, limit=200)[0]
        assert abs(total - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# 8. structural checks on the squeezing landscape
# ---------------------------------------------------------------------------

def test_criterion_8a_grid_minimum_at_mean_outcomes():
    n, i0 = 400, 100.0
    phi = math.sqrt(2.0 / (2 * i0 * n))
    ens = EnsembleSpec(n_atoms=n, phi=phi)
    probe = ProbeConfig(i0=i0, x_t=math.pi / 4)
    mean = most_probable_outcome(probe)
    mom = intensity_moments_approx(ens, probe)
    sa, sb = math.sqrt(mom.var_alpha), math.sqrt(mom.var_beta)
    xi_center = xi_closed_form(ens, probe, mean, jx_mode="shortcut").xi_sq
    for fa in np.linspace(-1, 1, 9):
        for fb in np.linspace(-1, 1, 9):
            out = MeasurementOutcome(
                max(mean.i_alpha + fa * sa, 0.0), max(mean.i_beta + fb * sb, 0.0)
            )
            xi = xi_closed_form(ens, probe, out, jx_mode="shortcut").xi_sq
            assert xi >= xi_center - 1e-12


def test_criterion_8b_most_probable_point_equals_canonical_law():
    for n, i0, prod, x_t in [
        (400, 100.0, 1.0, math.pi / 4),
        (1000, 50.0, 4.0, math.pi / 8),
        (100, 100.0, 0.5, 3 * math.pi / 8),
    ]:
        phi = math.sqrt(prod / (2 * i0 * n))
        ens = EnsembleSpec(n_atoms=n, phi=phi)
        probe = ProbeConfig(i0=i0, x_t=x_t)
        out = most_probable_outcome(probe)
        xi = xi_closed_form(ens, probe, out, jx_mode="shortcut").xi_sq
        # 2 I0 N phi^2 = eta d, so the canonical law reads 1/(1 + prod)
        assert abs(xi - xi_most_probable(0.5, 2.0 * prod)) < 1e-10


def test_criterion_8c_alkali_d75_minimum_near_0p4():
    """EXPECTED TO FAIL: the alkali-model curve at d = 75 has its numeric
    minimum at xi'^2 = 0.3135 (eta = 0.061), outside the stated
    0.4 +/- 0.05 window.

    xi_noisy(., ALKALI) is 1/(1 + eta d) + eta/(1-eta) + eta/(1-eta)^2, the
    formula stated in the squeezing module docstring and the
    scattering-noise demo.  The repository holds no source for the window
    (PAPER.md holds only the abstract), so it is open whether the window or
    the formula is wrong.  Observations: the formula's minimum is 0.419 at
    d = 40, 0.375 at d = 51 and 0.348 at d = 60, so the window may belong to
    another optical depth.  Nearby variants (either loss term dropped,
    2 eta/(1-eta) in place of both, or 1/((1-eta)(1 + eta d)) + eta/(1-eta))
    give 0.23-0.31 at d = 75, also outside it.  If the paper's text gives
    a different alkali model, xi_noisy and the fig4 rows must change.
    """
    eta = eta_optimal(75.0, ALKALI)
    assert xi_noisy(eta, 75.0, ALKALI) == pytest.approx(0.4, abs=0.05)
