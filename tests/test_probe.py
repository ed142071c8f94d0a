import math
import warnings

import numpy as np
import pytest

from spinsq import (
    EnsembleSpec,
    ProbeConfig,
    intensity_moments_approx,
    intensity_moments_exact,
    mode_amplitudes,
)
from spinsq.dicke import m_values
from spinsq.probe import PHI2N_WARN, check_phi2n

ENS = EnsembleSpec(n_atoms=200, phi=0.005)
PROBE = ProbeConfig(i0=100.0, x_t=math.pi / 8)


def test_probe_config_validation_and_wrapping():
    with pytest.raises(ValueError):
        ProbeConfig(i0=-1.0)
    # a NaN x_t would reach the closed form as xi^2 = NaN
    for x_t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="x_t"):
            ProbeConfig(i0=100.0, x_t=x_t)
    p = ProbeConfig(i0=1.0, x_t=2 * math.pi + 0.3)
    assert p.x_t == pytest.approx(0.3, rel=1e-12)


def test_mode_amplitudes_frozen_values():
    a, b = mode_amplitudes(ENS, PROBE, 10.0)
    assert a == pytest.approx(18.83702247424973, rel=1e-12)
    assert b == pytest.approx(8.567598185291391, rel=1e-12)
    # the half shift of the total and difference moments: m phi/2 at m = 10
    ah, bh = mode_amplitudes(ENS, PROBE, 5.0)
    assert ah == pytest.approx(18.663138489259936, rel=1e-12)
    assert bh == pytest.approx(8.113168649452028, rel=1e-12)


def test_mode_amplitudes_m_zero_is_unshifted():
    a, b = mode_amplitudes(ENS, PROBE, 0.0)
    assert a == pytest.approx(2 * 10 * math.cos(math.pi / 8), rel=1e-12)
    assert b == pytest.approx(2 * 10 * math.sin(math.pi / 8), rel=1e-12)


def test_mode_amplitudes_rejects_out_of_range_m():
    with pytest.raises(ValueError):
        mode_amplitudes(ENS, PROBE, 150.0)


def test_half_convention_total_intensity_identity():
    # with the half shift m phi/2 of the total-intensity moments,
    # |alpha|^2 + |beta|^2 = 4 I0 (1 + sin 2X_t sin m phi), exactly
    m = m_values(ENS.n_atoms)
    a, b = mode_amplitudes(ENS, PROBE, m / 2)
    tot = a * a + b * b
    expected = 4 * PROBE.i0 * (1 + math.sin(2 * PROBE.x_t) * np.sin(m * ENS.phi))
    assert np.max(np.abs(tot - expected)) < 1e-9


def test_intensity_moments_approx_frozen_values():
    mom = intensity_moments_approx(ENS, PROBE)
    assert mom.mean_total == pytest.approx(400.0, rel=1e-12)
    assert mom.var_total == pytest.approx(500.0, rel=1e-12)
    # per-mode means: 4 I0 cos^2(sin^2) X_t -/+ I0 N phi^2 cos 2X_t
    assert mom.mean_alpha == pytest.approx(341.06780284671623, rel=1e-12)
    assert mom.var_alpha == pytest.approx(441.4213562373094, rel=1e-12)
    assert mom.mean_beta == pytest.approx(58.932197153283774, rel=1e-12)
    assert mom.var_beta == pytest.approx(158.5786437626905, rel=1e-12)
    assert mom.mean_diff == 0.0
    assert mom.var_diff == pytest.approx(782.6659357793222, rel=1e-12)
    # the means are second order, so they miss the exact mixture means only
    # at fourth order in phi (4e-4 photons here)
    ex = intensity_moments_exact(ENS, PROBE)
    assert mom.mean_alpha == pytest.approx(ex.mean_alpha, rel=1e-4)
    assert mom.mean_beta == pytest.approx(ex.mean_beta, rel=1e-4)


def test_intensity_moments_exact_frozen_values():
    mom = intensity_moments_exact(ENS, PROBE)
    assert mom.mean_total == pytest.approx(400.0, rel=1e-12)
    assert mom.var_total == pytest.approx(499.87551973064546, rel=1e-12)
    assert mom.mean_alpha == pytest.approx(341.06824295092906, rel=1e-12)
    assert mom.var_alpha == pytest.approx(440.81907368860266, rel=1e-12)
    assert mom.mean_beta == pytest.approx(58.931757049070896, rel=1e-12)
    assert mom.var_beta == pytest.approx(158.6825877867168, rel=1e-12)
    assert abs(mom.mean_diff) < 1e-12
    assert mom.var_diff == pytest.approx(782.5415105571683, rel=1e-12)


def test_total_variance_formula_agrees_to_one_percent():
    # the second-order total variance is accurate to <= 1% over a parameter sweep
    for n, i0, prod, x_t in [
        (400, 100.0, 1.0, math.pi / 4),
        (400, 100.0, 4.0, math.pi / 4),
        (1000, 50.0, 1.0, math.pi / 8),
        (100, 100.0, 0.5, 3 * math.pi / 8),
    ]:
        phi = math.sqrt(prod / (2.0 * i0 * n))
        ens = EnsembleSpec(n_atoms=n, phi=phi)
        probe = ProbeConfig(i0=i0, x_t=x_t)
        ap = intensity_moments_approx(ens, probe)
        ex = intensity_moments_exact(ens, probe)
        assert ap.mean_total == pytest.approx(ex.mean_total, rel=1e-12)
        assert ap.var_total == pytest.approx(ex.var_total, rel=0.01)


def test_phi_zero_reduces_to_coherent_shot_noise():
    ens0 = EnsembleSpec(n_atoms=200, phi=0.0)
    for fn in (intensity_moments_approx, intensity_moments_exact):
        mom = fn(ens0, PROBE)
        assert mom.mean_total == pytest.approx(4 * PROBE.i0, rel=1e-12)
        assert mom.var_total == pytest.approx(4 * PROBE.i0, rel=1e-12)
        assert mom.var_alpha == pytest.approx(mom.mean_alpha, rel=1e-12)
        assert mom.var_beta == pytest.approx(mom.mean_beta, rel=1e-12)


def test_approx_warns_on_large_phi2n():
    ens_big = EnsembleSpec(n_atoms=1000, phi=0.02)  # phi^2 N = 0.4
    with pytest.warns(UserWarning, match="phi"):
        intensity_moments_approx(ens_big, PROBE)


def test_check_phi2n_warns_or_refuses_above_one_threshold():
    n = 1000
    below = EnsembleSpec(n_atoms=n, phi=math.sqrt(0.99 * PHI2N_WARN / n))
    above = EnsembleSpec(n_atoms=n, phi=math.sqrt(1.01 * PHI2N_WARN / n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_phi2n(below) == pytest.approx(0.99 * PHI2N_WARN, rel=1e-12)
        assert check_phi2n(below, refuse=True) == check_phi2n(below)
    with pytest.warns(UserWarning, match="phi"):
        assert check_phi2n(above) == pytest.approx(1.01 * PHI2N_WARN, rel=1e-12)
    with pytest.raises(ValueError, match="phi"):
        check_phi2n(above, refuse=True)


def test_exact_sum_cap():
    ens_huge = EnsembleSpec(n_atoms=2 * 10**6, phi=0.0)
    with pytest.raises(ValueError):
        intensity_moments_exact(ens_huge, PROBE)
