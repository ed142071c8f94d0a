"""Probe optics: dispersive mode amplitudes and light-intensity moments.

After the dispersive interaction, the two sideband pairs carry m-dependent
envelopes.  With the modulation phase theta = pi (the default),

    alpha_m = 2 sqrt(I0) cos(X_t - m phi),
    beta_m  = 2 sqrt(I0) sin(X_t + m phi),

while theta = 0 turns both envelopes into cosines (the configuration used
for the difference photocurrent).  Two phase conventions are in circulation
for the per-atom shift: the "full" convention above, where each Dicke index
step shifts the phase by phi, and the "half" convention where it shifts by
phi/2.  The per-mode photocurrent moments (and the Monte Carlo sampler built
on them) use the full convention; the total-intensity moments and the
difference photocurrent use the half convention, which is the one that the
second-order variance formula Var(I) = 4 I0 (1 + I0 N phi^2 sin^2 2X_t) is
exact against.  Both are exposed through ``mode_amplitudes``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dicke import EnsembleSpec, css_log_weights, m_values

#: proximity threshold to the singular phases {0, pi/2, pi, ...}
EPS_SING = 1e-6

#: phi^2 N above which the second-order expansion no longer holds (check_phi2n)
PHI2N_WARN = 0.1

#: cost cap for the exact O(N) sums
EXACT_SUM_CAP = 10**6


@dataclass(frozen=True)
class ProbeConfig:
    """Optical side of the problem: photon number and setup phases.

    i0 is the mean photon number per sideband (|alpha|^2 = |beta|^2 = I0);
    x_t is the free setup phase, stored modulo 2*pi; theta is the relative
    modulation phase, pi or 0 modulo 2*pi (the only configurations with
    envelope formulas); any other theta raises ValueError.
    """

    i0: float
    x_t: float = math.pi / 4
    theta: float = math.pi

    def __post_init__(self):
        if not np.isfinite(self.i0) or self.i0 < 0:
            raise ValueError(f"i0 must be finite and >= 0, got {self.i0}")
        if not (math.isfinite(self.theta) and abs(math.sin(self.theta)) < 1e-9):
            raise ValueError(f"theta must be 0 or pi (mod 2 pi), got {self.theta}")
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
    mean_diff: float
    var_diff: float


def _is_theta_pi(theta: float) -> bool:
    return abs(math.cos(theta) + 1.0) < 1e-9


def mode_amplitudes(
    ens: EnsembleSpec,
    probe: ProbeConfig,
    m,
    convention: str = "full",
):
    """Real envelopes (alpha_m, beta_m) for Dicke index m (scalar or array).

    convention="full" shifts phases by m*phi, convention="half" by m*phi/2.
    theta = pi gives the cos/sin pair; theta = 0 gives two cosines.
    """
    m = np.asarray(m, dtype=float)
    if np.any(np.abs(m) > ens.n_atoms / 2 + 1e-12):
        raise ValueError("|m| must not exceed n_atoms / 2")
    if convention == "full":
        shift = m * ens.phi
    elif convention == "half":
        shift = m * ens.phi / 2.0
    else:
        raise ValueError(f"unknown convention {convention!r}")
    amp = 2.0 * math.sqrt(probe.i0)
    beta_envelope = np.sin if _is_theta_pi(probe.theta) else np.cos
    return amp * np.cos(probe.x_t - shift), amp * beta_envelope(probe.x_t + shift)


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
    The difference photocurrent assumes the theta = 0 envelope configuration.
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
    mean_diff = 0.0  # cancels up to O(phi^3) in the theta = 0 configuration
    var_diff = 4.0 * i0 * (
        1.0 + c2x + (n * phi * phi / 4.0) * (4.0 * i0 * s2x * s2x - c2x / 2.0)
    )
    return LightMoments(
        mean_total=mean_total,
        var_total=var_total,
        mean_alpha=mean_alpha,
        var_alpha=var_alpha,
        mean_beta=mean_beta,
        var_beta=var_beta,
        mean_diff=mean_diff,
        var_diff=var_diff,
    )


def intensity_moments_exact(ens: EnsembleSpec, probe: ProbeConfig) -> LightMoments:
    """Moments by direct summation over the binomial Dicke distribution.

    No Taylor truncation: for each m the coherent-state moments are
    E[n] = |gamma_m|^2 and E[n^2] = |gamma_m|^4 + |gamma_m|^2, mixed over m
    with the exact binomial weights.  Total and difference moments use the
    half convention, per-mode moments the full convention (see module
    docstring).
    """
    if ens.n_atoms > EXACT_SUM_CAP:
        raise ValueError(
            f"n_atoms = {ens.n_atoms} exceeds the exact-sum cap {EXACT_SUM_CAP}"
        )
    w = css_log_weights(ens.n_atoms).normalized()
    m = m_values(ens.n_atoms)

    # totals: half convention
    ah, bh = mode_amplitudes(ens, probe, m, convention="half")
    ia_h, ib_h = ah * ah, bh * bh
    tot = ia_h + ib_h
    mean_total = float(np.dot(w, tot))
    var_total = float(np.dot(w, tot * tot + tot)) - mean_total**2

    # per-mode: full convention
    af, bf = mode_amplitudes(ens, probe, m, convention="full")
    ia_f, ib_f = af * af, bf * bf
    mean_alpha = float(np.dot(w, ia_f))
    var_alpha = float(np.dot(w, ia_f * ia_f + ia_f)) - mean_alpha**2
    mean_beta = float(np.dot(w, ib_f))
    var_beta = float(np.dot(w, ib_f * ib_f + ib_f)) - mean_beta**2

    # difference photocurrent: theta = 0 envelopes, half convention
    probe0 = ProbeConfig(i0=probe.i0, x_t=probe.x_t, theta=0.0)
    a0, b0 = mode_amplitudes(ens, probe0, m, convention="half")
    ia0, ib0 = a0 * a0, b0 * b0
    diff = ia0 - ib0
    mean_diff = float(np.dot(w, diff))
    var_diff = float(np.dot(w, diff * diff + ia0 + ib0)) - mean_diff**2

    return LightMoments(
        mean_total=mean_total,
        var_total=var_total,
        mean_alpha=mean_alpha,
        var_alpha=var_alpha,
        mean_beta=mean_beta,
        var_beta=var_beta,
        mean_diff=mean_diff,
        var_diff=var_diff,
    )
