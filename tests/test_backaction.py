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
from spinsq.backaction import _log_kernel
from spinsq.dicke import log_binomial_weights, m_values

PROBE = ProbeConfig(i0=100.0, x_t=math.pi / 8)
ENS = EnsembleSpec(n_atoms=200, phi=0.005)


def povm_log_weight(probe, out, ens, m, m_prime):
    """(log|<M_alpha>_{m,m'} <M_beta>_{m,m'}|, sign) with the exact kernel,
    one element at a time from the mode envelopes at m and m'."""
    am, bm = mode_amplitudes(ens, probe, m)
    ap, bp = mode_amplitudes(ens, probe, m_prime)
    log_a, sign_a = _log_kernel(out.i_alpha * (am * ap))
    log_b, sign_b = _log_kernel(out.i_beta * (bm * bp))
    log_w = -0.5 * ((am * am + ap * ap) + (bm * bm + bp * bp)) + log_a + log_b
    return float(log_w - (out.i_alpha + out.i_beta)), float(sign_a * sign_b)


def test_outcome_validation():
    with pytest.raises(ValueError):
        MeasurementOutcome(i_alpha=-1.0, i_beta=0.0)
    with pytest.raises(ValueError, match="got i_beta = nan$"):
        MeasurementOutcome(i_alpha=0.0, i_beta=float("nan"))
    # arrays: the message names the first offending reading, not the arrays
    i_alpha = np.array([1.0, 2.0, 3.0, np.nan, 5.0])
    i_beta = np.array([1.0, 2.0, 3.0, 4.0, -1.0])
    with pytest.raises(ValueError, match=r"got i_alpha\[3\] = nan$"):
        MeasurementOutcome(i_alpha, i_beta)
    with pytest.raises(ValueError, match=r"got i_beta\[2\] = inf$"):
        MeasurementOutcome(np.ones(4), np.array([0.0, 1.0, np.inf, -1.0]))


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


def test_posterior_weights_equal_povm_elements():
    # the posterior's diagonal and first off-diagonal, built from the whole
    # ladder at once, against one kernel element at a time; at X_t = pi/8 and
    # N phi = 16 both envelopes change sign, and some off-diagonal kernels
    # take the J_0 branch where J_0 < 0
    ens = EnsembleSpec(n_atoms=40, phi=0.4)
    probe = ProbeConfig(i0=3.0, x_t=math.pi / 8)
    out = MeasurementOutcome(7.5, 4.25)
    pw = posterior_weights(ens, probe, out)
    m = m_values(ens.n_atoms)
    # povm_log_weight includes the m-independent -(I_alpha + I_beta); the posterior does not
    total = out.i_alpha + out.i_beta
    diag = np.array([povm_log_weight(probe, out, ens, k, k)[0] for k in m]) + total
    pairs = [povm_log_weight(probe, out, ens, k, k + 1.0) for k in m[:-1]]
    off = np.array([lw for lw, _ in pairs]) + total
    assert np.allclose(pw.log_w - log_binomial_weights(40), diag, rtol=1e-13, atol=1e-12)
    assert np.allclose(pw.offdiag_logf, off - diag[:-1], rtol=1e-13, atol=1e-12)
    assert np.array_equal(pw.offdiag_sign, [sign for _, sign in pairs])
    assert -1.0 in pw.offdiag_sign


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


def test_posterior_exact_caps_and_bad_method():
    probe = ProbeConfig(i0=10.0, x_t=math.pi / 4)
    out = most_probable_outcome(probe)
    with pytest.raises(ValueError):
        posterior_weights(EnsembleSpec(n_atoms=4000, phi=1e-4), probe, out)
    with pytest.raises(ValueError):
        posterior_weights(
            EnsembleSpec(n_atoms=10, phi=1e-4), ProbeConfig(i0=1e5), out
        )
    # "exact" is the only method; the closed form's expansion has no posterior
    for method in ("nope", "second_order"):
        with pytest.raises(ValueError, match="unknown method"):
            posterior_weights(EnsembleSpec(n_atoms=10, phi=1e-4), probe, out, method)


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


@pytest.mark.parametrize("method", ["exact"])
@pytest.mark.parametrize("x_t", [math.pi / 8, math.pi / 2 - 0.01])
def test_posterior_rows_equal_scalar_calls(method, x_t):
    # one call over an outcome array gives, row by row, the bits of the
    # scalar calls; near X_t = pi/2 the alpha envelope changes sign across
    # the ladder, so the exact band takes the j0 branch
    ens = EnsembleSpec(n_atoms=100, phi=0.01)
    probe = ProbeConfig(i0=50.0, x_t=x_t)
    a, _ = mode_amplitudes(ens, probe, m_values(100))
    assert bool((a[:-1] * a[1:] < 0).any()) == (x_t > 1.0)
    i_alpha, i_beta = [0.0, 3.0, 150.0, 20.5], [200.0, 0.0, 190.0, 7.25]
    out = MeasurementOutcome(np.array(i_alpha), np.array(i_beta))
    rows = posterior_weights(ens, probe, out, method)
    assert rows.log_w.shape == (4, 101)
    for j, (i_a, i_b) in enumerate(zip(i_alpha, i_beta)):
        one = posterior_weights(ens, probe, MeasurementOutcome(i_a, i_b), method)
        for name in ("log_w", "offdiag_logf", "offdiag_sign"):
            assert getattr(rows, name)[j].tobytes() == getattr(one, name).tobytes(), name
        assert rows.normalized()[j].tobytes() == one.normalized().tobytes()


@pytest.mark.parametrize("method", ["exact"])
def test_posterior_repeated_readings_equal_scalar_calls(method):
    # readings that repeat on either mode share one kernel row; near
    # X_t = pi/2 the alpha kernel takes the j0 branch on its band, where
    # I_alpha = 150 gives a negative J_0, and each row still holds the bits
    # of its own scalar call
    ens = EnsembleSpec(n_atoms=100, phi=0.02)
    probe = ProbeConfig(i0=50.0, x_t=math.pi / 2 - 0.01)
    a, _ = mode_amplitudes(ens, probe, m_values(100))
    assert (a[:-1] * a[1:] < 0).any()
    i_alpha = [3.0, 3.0, 150.0, 3.0, 0.0, 150.0]
    i_beta = [200.0, 7.25, 200.0, 200.0, 7.25, 0.0]
    rows = posterior_weights(ens, probe, MeasurementOutcome(np.array(i_alpha), np.array(i_beta)), method)
    assert (rows.offdiag_sign < 0).any()
    for j, (i_a, i_b) in enumerate(zip(i_alpha, i_beta)):
        one = posterior_weights(ens, probe, MeasurementOutcome(i_a, i_b), method)
        for name in ("log_w", "offdiag_logf", "offdiag_sign"):
            assert getattr(rows, name)[j].tobytes() == getattr(one, name).tobytes(), name


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
