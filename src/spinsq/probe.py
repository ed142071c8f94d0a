"""Probe optics: dispersive mode amplitudes and light-intensity moments.

After the dispersive interaction, the two sideband pairs carry m-dependent
envelopes

    alpha_m = 2 sqrt(I0) cos(X_t - m phi),
    beta_m  = 2 sqrt(I0) sin(X_t + m phi),

where each Dicke index step shifts the phase by phi.  These are what
``mode_amplitudes`` returns; the per-mode photocurrent moments, the exact
kernel, the Fock micro-oracle and the Monte Carlo sampler all use them.

On the binomial ladder E[cos(t m)] = cos^N(t/2).  With L1 = N log cos phi and
L2 = N log cos 2phi, ``intensity_moments_exact`` gives each mode

    E[I_alpha|beta] = 4 I0 cos^2|sin^2 X_t -/+ 2 I0 cos 2X_t (1 - e^L1),
    Var = E + 2 I0^2 [sin^2 2X_t (1 - e^L2) + cos^2 2X_t (1 + e^L2 - 2 e^(2 L1))],

and the total, which shifts by phi/2 per index step instead (the half step:
|alpha|^2 + |beta|^2 = 4 I0 (1 + sin 2X_t sin m phi)),

    E[I] = 4 I0,    Var(I) = 4 I0 + 8 I0^2 sin^2 2X_t (1 - e^L1),

whose second-order expansion is ``intensity_moments_approx``'s
4 I0 (1 + I0 N phi^2 sin^2 2X_t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dicke import EnsembleSpec

#: phi^2 N above which the second-order expansion no longer holds (check_phi2n)
PHI2N_WARN = 0.1


@dataclass(frozen=True)
class ProbeConfig:
    """Optical side of the problem: photon number and setup phase.

    i0 is the mean photon number per sideband (|alpha|^2 = |beta|^2 = I0);
    x_t is the free setup phase, finite, stored modulo 2*pi.
    """

    i0: float
    x_t: float = math.pi / 4

    def __post_init__(self):
        if not math.isfinite(self.i0) or self.i0 < 0:
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
    return _envelopes(ens, probe, m)


def _envelopes(ens: EnsembleSpec, probe: ProbeConfig, m: np.ndarray):
    """``mode_amplitudes`` without its |m| <= N/2 check, for m that is in
    range by construction (``dicke.ladder``, a binomial draw)."""
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
    """Exact moments of the binomial Dicke mixture in closed form (module
    docstring), at a cost independent of N.  Every 1 - e^L is taken by
    ``expm1``, so that no term cancels at the dark ports.  phi >= pi/4 raises
    ValueError: cos 2phi <= 0 there, outside the domain of log cos 2phi; no
    caller comes near it, since phi^2 N <= PHI2N_WARN keeps phi <= 0.32.
    """
    i0, x, n, phi = probe.i0, probe.x_t, ens.n_atoms, ens.phi
    if phi >= math.pi / 4:
        raise ValueError(f"phi = {phi!r} must be below pi/4 for the exact light moments")
    sh, s1, t1 = math.sin(phi / 2.0), math.sin(phi), math.tan(phi)
    l1 = n * math.log1p(-2.0 * sh * sh)  # N log cos phi
    l2 = n * math.log1p(-2.0 * s1 * s1)  # N log cos 2phi
    delta = n * math.log1p(-(t1 * t1) * (t1 * t1))  # l2 - 4 l1 = N log(1 - tan^4 phi)
    d1, d2, e2 = -math.expm1(l1), -math.expm1(l2), math.expm1(2.0 * l1)
    c, s, c2x, s2x = math.cos(x), math.sin(x), math.cos(2.0 * x), math.sin(2.0 * x)
    # Var_m cos(2X_t -/+ 2m phi), the same for both modes, with
    # 1 + e^l2 - 2 e^(2 l1) = (e^(2 l1) - 1)^2 + e^(4 l1) (e^delta - 1)
    var_cos = 0.5 * (
        s2x * s2x * d2 + c2x * c2x * (e2 * e2 + math.exp(4.0 * l1) * math.expm1(delta))
    )
    mean_alpha = 4.0 * i0 * c * c - 2.0 * i0 * c2x * d1
    mean_beta = 4.0 * i0 * s * s + 2.0 * i0 * c2x * d1
    spread = 4.0 * i0 * i0 * var_cos
    return LightMoments(
        mean_total=4.0 * i0, var_total=4.0 * i0 + 8.0 * i0 * i0 * s2x * s2x * d1,
        mean_alpha=mean_alpha, var_alpha=mean_alpha + spread,
        mean_beta=mean_beta, var_beta=mean_beta + spread,
    )
