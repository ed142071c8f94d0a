import math

import mpmath
import numpy as np
import pytest

from spinsq import (
    EnsembleSpec,
    MeasurementOutcome,
    ProbeConfig,
    SingularPhase,
    collective_moments,
    expansion_coeffs,
    most_probable_outcome,
    mode_amplitudes,
    posterior_weights,
)
from spinsq.backaction import _log_kernel, _log_povm_element
from spinsq.dicke import m_values

PROBE = ProbeConfig(i0=100.0, x_t=math.pi / 8)
ENS = EnsembleSpec(n_atoms=200, phi=0.005)


def povm_log_weight(probe, out, ens, m, m_prime):
    """(log|<M_alpha>_{m,m'} <M_beta>_{m,m'}|, sign) with the exact kernel."""
    am, bm = mode_amplitudes(ens, probe, m)
    ap, bp = mode_amplitudes(ens, probe, m_prime)
    log_w, sign = _log_povm_element(out, am, bm, ap, bp)
    return float(log_w - (out.i_alpha + out.i_beta)), float(sign)


def test_outcome_validation():
    with pytest.raises(ValueError):
        MeasurementOutcome(i_alpha=-1.0, i_beta=0.0)
    with pytest.raises(ValueError):
        MeasurementOutcome(i_alpha=0.0, i_beta=float("nan"))


def test_most_probable_outcome():
    out = most_probable_outcome(PROBE)
    assert out.i_alpha == pytest.approx(341.4213562373095, rel=1e-12)
    assert out.i_beta == pytest.approx(58.5786437626905, rel=1e-12)
    assert out.i_alpha + out.i_beta == pytest.approx(4 * PROBE.i0, rel=1e-12)


def test_coeffs_at_most_probable_outcome():
    # the defining property of the expansion: W = 0, lambda = 4 I0 at the means
    out = most_probable_outcome(PROBE)
    coef = expansion_coeffs(PROBE, out)
    assert abs(coef.w) < 1e-10
    assert coef.y == pytest.approx(-300.0, rel=1e-12)
    assert coef.z == pytest.approx(200.0, rel=1e-12)
    assert coef.lam == pytest.approx(400.0, rel=1e-12)


def test_coeffs_at_shifted_outcome_frozen():
    out = most_probable_outcome(PROBE)
    std_a = math.sqrt(4 * PROBE.i0 * math.cos(PROBE.x_t) ** 2)
    shifted = MeasurementOutcome(out.i_alpha + std_a, out.i_beta)
    coef = expansion_coeffs(PROBE, shifted)
    assert coef.w == pytest.approx(3.776413030308401, rel=1e-12)
    assert coef.y == pytest.approx(-304.94959415101556, rel=1e-12)
    assert coef.z == pytest.approx(200.7821207471381, rel=1e-12)
    assert coef.lam == pytest.approx(409.117067554893, rel=1e-12)


def test_coeffs_at_dark_outcome():
    # I_alpha = I_beta = 0: W = -4 I0 sin 2X, lambda = 0
    out = MeasurementOutcome(0.0, 0.0)
    coef = expansion_coeffs(PROBE, out)
    assert coef.w == pytest.approx(-400.0 * math.sin(math.pi / 4), rel=1e-12)
    assert coef.y == 0.0
    assert coef.z == 0.0
    assert coef.lam == 0.0


def test_coeffs_match_finite_differences_of_exact_log_kernel():
    # lambda and W against numerical derivatives of the exact log-kernel in
    # m*phi; W carries a known O(1/sqrt(I0)) asymptotic error, so it only
    # gets an absolute tolerance
    out = most_probable_outcome(PROBE)
    std_a = math.sqrt(4 * PROBE.i0 * math.cos(PROBE.x_t) ** 2)
    shifted = MeasurementOutcome(out.i_alpha + std_a, out.i_beta)
    coef = expansion_coeffs(PROBE, shifted)

    ens = EnsembleSpec(n_atoms=2000, phi=1e-3)
    h = ens.phi

    def f(m):
        lw, _ = povm_log_weight(PROBE, shifted, ens, m, m)
        return lw

    f0, fp, fm_ = f(0.0), f(1.0), f(-1.0)
    lam_num = -(fp - 2 * f0 + fm_) / h**2 / 2.0  # diag factor -2 lam phi^2 m^2 /2
    w_num = (fp - fm_) / (4.0 * h)  # diag factor 2 W phi m
    assert lam_num == pytest.approx(coef.lam, rel=0.01)
    assert abs(w_num - coef.w) < 1.0


def test_singular_phase_raises():
    for x in (0.0, 1e-9, math.pi / 2, math.pi / 2 - 1e-9, math.pi, 3 * math.pi / 2):
        probe = ProbeConfig(i0=10.0, x_t=x)
        with pytest.raises(SingularPhase):
            expansion_coeffs(probe, MeasurementOutcome(10.0, 10.0))


@pytest.mark.parametrize(
    "x",
    [0.0, 1.0, -1.0, -2.0, -150.0, -200.0, -400.0, -1000.0, -1e4, 1e5, 1e13, 1e18, 1e24],
)
def test_log_kernel_matches_mpmath(x):
    # S(x) = sum x^n/(n!)^2 is I0(2 sqrt x) for x >= 0, J0(2 sqrt -x) for x < 0;
    # S < 0 at x = -2, -200 and -1e4; from x ~ 5e17 on, ive(0, z) is NaN
    with mpmath.workdps(40):
        z = 2 * mpmath.sqrt(abs(x))
        s = mpmath.besseli(0, z) if x >= 0 else mpmath.besselj(0, z)
        expected_log, expected_sign = float(mpmath.log(abs(s))), float(mpmath.sign(s))
    log_s, sign = _log_kernel(x)
    assert sign == expected_sign
    assert float(log_s) == pytest.approx(expected_log, rel=1e-12, abs=1e-12)


def test_log_kernel_array_matches_scalar_calls():
    # one call over mixed signs takes each element through its own branch and
    # gives bit for bit what the scalar calls give; a float gives numpy scalars
    xs = [-1e4, -400.0, -2.0, 0.0, 1.0, 1e5, 1e18]
    log_s, sign = _log_kernel(np.array(xs))
    for x, log_x, sign_x in zip(xs, log_s, sign):
        log_1, sign_1 = _log_kernel(x)
        assert type(log_1) is np.float64 and type(sign_1) is np.float64
        assert (log_1, sign_1) == (log_x, sign_x)


def test_povm_weight_symmetry_and_frozen_value():
    out = most_probable_outcome(PROBE)
    lw1 = povm_log_weight(PROBE, out, ENS, 3.0, -5.0)
    lw2 = povm_log_weight(PROBE, out, ENS, -5.0, 3.0)
    assert lw1 == lw2
    assert lw1[0] == pytest.approx(-7.808236703727047, rel=1e-12)
    assert lw1[1] == 1.0


def test_posterior_second_order_variance():
    # at the most probable outcome the posterior variance of m contracts to
    # (N/4)/(1 + 2 I0 N phi^2)
    n, i0, prod = 400, 100.0, 1.0
    phi = math.sqrt(prod / (2 * i0 * n))
    ens = EnsembleSpec(n_atoms=n, phi=phi)
    probe = ProbeConfig(i0=i0, x_t=math.pi / 4)
    out = most_probable_outcome(probe)
    pw = posterior_weights(ens, probe, out, method="second_order")
    w, m = pw.normalized(), m_values(n)
    var = float(np.dot(w, m * m) - np.dot(w, m) ** 2)
    assert var == pytest.approx((n / 4.0) / (1.0 + prod), rel=1e-3)


def test_posterior_exact_mean_shift_prediction():
    # Gaussian prediction <m> = (N/2) phi W / (1 + s); the analytic W has an
    # O(1/sqrt(I0)) error, so check at large I0 with a matched tolerance
    i0, n, prod = 2000.0, 200, 0.05
    phi = math.sqrt(prod / (2 * i0 * n))
    ens = EnsembleSpec(n_atoms=n, phi=phi)
    probe = ProbeConfig(i0=i0, x_t=math.pi / 8)
    mean = most_probable_outcome(probe)
    std_a = math.sqrt(4 * i0 * math.cos(probe.x_t) ** 2)
    out = MeasurementOutcome(mean.i_alpha + 0.5 * std_a, mean.i_beta)

    pw = posterior_weights(ens, probe, out, method="exact")
    w, m = pw.normalized(), m_values(n)
    mean_exact = float(np.dot(w, m))

    coef = expansion_coeffs(probe, out)
    s = n * phi * phi * coef.lam / 2.0
    mean_pred = (n / 2.0) * phi * coef.w / (1.0 + s)
    assert mean_pred == pytest.approx(mean_exact, rel=0.10)


def test_posterior_exact_tvd_vs_second_order_frozen():
    # N=12, I0=9, phi=0.05, X=pi/4, most probable outcome: the two posterior
    # diagonals agree to TVD < 0.02 (frozen independently derived value)
    ens = EnsembleSpec(n_atoms=12, phi=0.05)
    probe = ProbeConfig(i0=9.0, x_t=math.pi / 4)
    out = most_probable_outcome(probe)
    pe = posterior_weights(ens, probe, out, "exact").normalized()
    ps = posterior_weights(ens, probe, out, "second_order").normalized()
    tvd = 0.5 * float(np.abs(pe - ps).sum())
    assert tvd == pytest.approx(0.0193618744874896, abs=1e-10)
    assert tvd < 0.02


def test_posterior_exact_caps_and_bad_method():
    probe = ProbeConfig(i0=10.0, x_t=math.pi / 4)
    out = most_probable_outcome(probe)
    with pytest.raises(ValueError):
        posterior_weights(EnsembleSpec(n_atoms=4000, phi=1e-4), probe, out)
    with pytest.raises(ValueError):
        posterior_weights(
            EnsembleSpec(n_atoms=10, phi=1e-4), ProbeConfig(i0=1e5), out
        )
    with pytest.raises(ValueError):
        posterior_weights(EnsembleSpec(n_atoms=10, phi=1e-4), probe, out, "nope")


def test_posterior_exact_small_mean_at_most_probable_outcome():
    # |<m>| stays below 0.01 sqrt(N) at the most probable outcome
    for n, i0, prod in [(100, 100.0, 0.5), (400, 100.0, 1.0), (1000, 50.0, 4.0)]:
        phi = math.sqrt(prod / (2 * i0 * n))
        ens = EnsembleSpec(n_atoms=n, phi=phi)
        probe = ProbeConfig(i0=i0, x_t=math.pi / 4)
        out = most_probable_outcome(probe)
        pw = posterior_weights(ens, probe, out, method="exact")
        mean = float(np.dot(pw.normalized(), m_values(n)))
        assert abs(mean) <= 0.01 * math.sqrt(n)


def test_posterior_rotation_symmetry():
    # swapping X_t -> pi/2 - X_t together with the two outcomes leaves xi^2
    # invariant (the two probe pairs trade roles)
    n, i0 = 100, 50.0
    phi = 5e-3
    ens = EnsembleSpec(n_atoms=n, phi=phi)
    p1 = ProbeConfig(i0=i0, x_t=math.pi / 8)
    p2 = ProbeConfig(i0=i0, x_t=math.pi / 2 - math.pi / 8)
    out1 = MeasurementOutcome(190.0, 40.0)
    out2 = MeasurementOutcome(40.0, 190.0)
    r1 = collective_moments(posterior_weights(ens, p1, out1, "exact"))
    r2 = collective_moments(posterior_weights(ens, p2, out2, "exact"))
    assert r1.xi_sq == pytest.approx(r2.xi_sq, rel=1e-10)
