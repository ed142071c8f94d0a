"""Probe optics: dispersive mode amplitudes and light-intensity moments.

After the dispersive interaction, the two sideband pairs carry m-dependent
envelopes

    alpha_m = 2 sqrt(I0) cos(X_t - m phi),
    beta_m  = 2 sqrt(I0) sin(X_t + m phi),

where each Dicke index step shifts the phase by phi.  These are what
``mode_amplitudes`` returns; the per-mode photocurrent moments, the exact
kernel, the Fock micro-oracle and the Monte Carlo sampler all use them.
The total-intensity moments of ``intensity_moments_exact`` take a shift
of phi/2 per index step instead (they pass m/2), which is the one that the
second-order variance formula Var(I) = 4 I0 (1 + I0 N phi^2 sin^2 2X_t) is
exact against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dicke import EnsembleSpec, css_log_weights, m_values

#: phi^2 N above which the second-order expansion no longer holds (check_phi2n)
PHI2N_WARN = 0.1

#: cost cap for the exact O(N) sums
EXACT_SUM_CAP = 10**6


@dataclass(frozen=True)
class ProbeConfig:
    """Optical side of the problem: photon number and setup phase.

    i0 is the mean photon number per sideband (|alpha|^2 = |beta|^2 = I0);
    x_t is the free setup phase, finite, stored modulo 2*pi.
    """

    i0: float
    x_t: float = math.pi / 4

    def __post_init__(self):
        if not np.isfinite(self.i0) or self.i0 < 0:
            raise ValueError(f"i0 must be finite and >= 0, got {self.i0}")
        if not math.isfinite(self.x_t):
            raise ValueError(f"x_t must be finite, got {self.x_t}")
        object.__setattr__(self, "x_t", float(self.x_t) % (2 * math.pi))


@dataclass(frozen=True)
class LightMoments:
    """First two moments of the photocurrents (photon counts and counts^2)."""

    mean_total: float
    var_total: float
    mean_alpha: float
    var_alpha: float
    mean_beta: float
    var_beta: float


def mode_amplitudes(ens: EnsembleSpec, probe: ProbeConfig, m):
    """Real envelopes (alpha_m, beta_m) = 2 sqrt(I0) (cos(X_t - m phi),
    sin(X_t + m phi)) for Dicke index m (scalar or array)."""
    m = np.asarray(m, dtype=float)
    if np.any(np.abs(m) > ens.n_atoms / 2 + 1e-12):
        raise ValueError("|m| must not exceed n_atoms / 2")
    shift = m * ens.phi
    amp = 2.0 * math.sqrt(probe.i0)
    return amp * np.cos(probe.x_t - shift), amp * np.sin(probe.x_t + shift)


def check_phi2n(ens: EnsembleSpec, refuse: bool = False) -> float:
    """phi^2 N; above PHI2N_WARN the second-order expansion no longer holds,
    which warns, or raises ValueError when ``refuse`` is set."""
    phi2n = ens.phi * ens.phi * ens.n_atoms
    if phi2n > PHI2N_WARN:
        msg = (
            f"phi^2 * N = {phi2n:.3g} exceeds {PHI2N_WARN}; "
            "second-order results may be inaccurate"
        )
        if refuse:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=3)
    return phi2n


def intensity_moments_approx(ens: EnsembleSpec, probe: ProbeConfig) -> LightMoments:
    """Second-order (in phi) closed-form moments.

    Total intensity: mean 4 I0, variance 4 I0 (1 + I0 N phi^2 sin^2 2X_t).
    Per-mode means are the binomial average of 4 I0 cos^2(X_t -/+ m phi),
    which to second order is 4 I0 cos^2(sin^2) X_t -/+ I0 N phi^2 cos 2X_t;
    per-mode variances carry the second-order terms of order I0^2 N phi^2.
    """
    check_phi2n(ens)
    i0, x, n, phi = probe.i0, probe.x_t, ens.n_atoms, ens.phi
    c2, s2 = math.cos(x) ** 2, math.sin(x) ** 2
    c2x, c4x, s2x = math.cos(2 * x), math.cos(4 * x), math.sin(2 * x)
    a = i0 * n * phi * phi  # recurring combination I0 N phi^2

    mean_total = 4.0 * i0
    var_total = 4.0 * i0 * (1.0 + a * s2x * s2x)
    mean_alpha = 4.0 * i0 * c2 - a * c2x
    mean_beta = 4.0 * i0 * s2 + a * c2x
    var_alpha = 4.0 * i0 * (c2 + 2.0 * a * c2 * c2x - a * (c2x + c4x))
    var_beta = 4.0 * i0 * (s2 - 2.0 * a * s2 * c2x + a * (c2x - c4x))
    return LightMoments(
        mean_total=mean_total,
        var_total=var_total,
        mean_alpha=mean_alpha,
        var_alpha=var_alpha,
        mean_beta=mean_beta,
        var_beta=var_beta,
    )


def intensity_moments_exact(ens: EnsembleSpec, probe: ProbeConfig) -> LightMoments:
    """Moments by direct summation over the binomial Dicke distribution.

    No Taylor truncation: for each m the coherent-state moments are
    E[n] = |gamma_m|^2 and E[n^2] = |gamma_m|^4 + |gamma_m|^2, mixed over m
    with the exact binomial weights.  Total moments shift the phase by
    phi/2 per index step, per-mode moments by phi (see module docstring).
    """
    if ens.n_atoms > EXACT_SUM_CAP:
        raise ValueError(
            f"n_atoms = {ens.n_atoms} exceeds the exact-sum cap {EXACT_SUM_CAP}"
        )
    w = css_log_weights(ens.n_atoms).normalized()
    m = m_values(ens.n_atoms)

    # totals: half shift, m phi/2
    ah, bh = mode_amplitudes(ens, probe, m / 2.0)
    tot = ah * ah + bh * bh
    mean_total = float(np.dot(w, tot))
    var_total = float(np.dot(w, tot * tot + tot)) - mean_total**2

    # per-mode: full shift
    af, bf = mode_amplitudes(ens, probe, m)
    ia_f, ib_f = af * af, bf * bf
    mean_alpha = float(np.dot(w, ia_f))
    var_alpha = float(np.dot(w, ia_f * ia_f + ia_f)) - mean_alpha**2
    mean_beta = float(np.dot(w, ib_f))
    var_beta = float(np.dot(w, ib_f * ib_f + ib_f)) - mean_beta**2

    return LightMoments(
        mean_total=mean_total,
        var_total=var_total,
        mean_alpha=mean_alpha,
        var_alpha=var_alpha,
        mean_beta=mean_beta,
        var_beta=var_beta,
    )
