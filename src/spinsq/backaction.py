"""Measurement back-action: conditional reweighting of the Dicke distribution.

Intensity detection of the two probe pairs with outcomes (I_alpha, I_beta)
acts on the atomic state through a phase-averaged coherent POVM.  Its matrix
elements between Dicke indices m, m' factorize per mode as

    <M_g>_{m,m'} = e^{-I_g} e^{-(g_m^2 + g_m'^2)/2} S(I_g g_m g_m'),
    S(x) = sum_n x^n / (n!)^2,

where g_m is the real envelope of the mode.  S is a Bessel function
(DLMF 10.25.2, 10.2.2): I_0(2 sqrt(x)) for x >= 0, evaluated in log space
through the exponentially scaled ive, and J_0(2 sqrt(-x)) for x < 0, whose
sign is carried separately.

The second-order path expands the log-kernel to quadratic order in m*phi,
giving the coefficients (V, W, Y, Z) and lambda = -2Y - Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive, j0

from .dicke import DickeWeights, EnsembleSpec, css_log_weights
from .probe import EPS_SING, ProbeConfig, mode_amplitudes

#: default caps for the exact posterior path
ORACLE_N_CAP = 2000
ORACLE_I0_CAP = 1e4


class SingularPhase(ValueError):
    """x_t too close to a multiple of pi/2 for the second-order expansion."""


@dataclass(frozen=True)
class MeasurementOutcome:
    """Detector readings (photon counts) conditioning the posterior state;
    scalars, or equal-shape arrays holding one reading per outcome."""

    i_alpha: float
    i_beta: float

    def __post_init__(self):
        a, b = self.i_alpha, self.i_beta
        # NaN fails both comparisons
        ok = (a >= 0) & (a < np.inf) & (b >= 0) & (b < np.inf)
        if not np.asarray(ok).all():
            raise ValueError(f"i_alpha, i_beta must be finite and >= 0, got {a}, {b}")


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Quadratic log-kernel coefficients V, W, Y, Z and lambda = -2Y - Z."""

    v: float
    w: float
    y: float
    z: float

    @property
    def lam(self) -> float:
        return -2.0 * self.y - self.z


def most_probable_outcome(probe: ProbeConfig) -> MeasurementOutcome:
    """The per-mode intensity means (4 I0 cos^2 X_t, 4 I0 sin^2 X_t)."""
    return MeasurementOutcome(
        i_alpha=4.0 * probe.i0 * math.cos(probe.x_t) ** 2,
        i_beta=4.0 * probe.i0 * math.sin(probe.x_t) ** 2,
    )


def expansion_coeffs(
    probe: ProbeConfig,
    out: MeasurementOutcome,
    eps_sing: float = EPS_SING,
) -> ExpansionCoeffs:
    """Closed-form second-order expansion coefficients of the log-kernel.

    At the most probable outcomes these give W = 0 and lambda = 4 I0.
    Elementwise over an outcome whose fields are arrays.  Raises
    SingularPhase when |cos x_t| or |sin x_t| falls below eps_sing (both
    appear in denominators).
    """
    i0, x = probe.i0, probe.x_t
    c, s = math.cos(x), math.sin(x)
    if abs(c) < eps_sing:
        raise SingularPhase(
            f"|cos(x_t)| = {abs(c):.3g} < {eps_sing:g}; expansion divides by cos(x_t)"
        )
    if abs(s) < eps_sing:
        raise SingularPhase(
            f"|sin(x_t)| = {abs(s):.3g} < {eps_sing:g}; expansion divides by sin(x_t)"
        )
    ra = np.sqrt(out.i_alpha / i0) if i0 > 0 else 0.0
    rb = np.sqrt(out.i_beta / i0) if i0 > 0 else 0.0
    v = 4.0 * i0 * (ra * abs(c) + rb * abs(s) - 1.0)
    w = 2.0 * i0 * (
        ra * s * c / abs(c) + rb * c * s / abs(s) - 2.0 * math.sin(2.0 * x)
    )
    y = -0.5 * i0 * (ra * (1.0 + c * c) / abs(c) + rb * (1.0 + s * s) / abs(s))
    z = i0 * (ra * s * s / abs(c) + rb * c * c / abs(s))
    return ExpansionCoeffs(v=v, w=w, y=y, z=z)


def _log_kernel(x):
    """(log|S|, sign) for S(x) = sum_n x^n / (n!)^2, elementwise over x.

    S(x) = I_0(2 sqrt(x)) for x >= 0 and J_0(2 sqrt(-x)) for x < 0.
    """
    x = np.asarray(x, dtype=float)
    z = 2.0 * np.sqrt(np.abs(x))
    pos = x >= 0
    bessel = np.where(pos, ive(0, z), j0(z))
    with np.errstate(divide="ignore"):
        log_s = np.log(np.abs(bessel)) + np.where(pos, z, 0.0)
    return log_s, np.sign(bessel)


def _log_povm_element(out: MeasurementOutcome, a_m, b_m, a_p, b_p):
    """Signed log of <M_alpha>_{m,m'} <M_beta>_{m,m'} / e^{-(I_alpha + I_beta)}.

    (a_m, b_m) and (a_p, b_p) are the mode envelopes at m and m' (scalars or
    equal-shape arrays).  Exactly symmetric under m <-> m'.
    """
    log_a, sign_a = _log_kernel(out.i_alpha * (a_m * a_p))
    log_b, sign_b = _log_kernel(out.i_beta * (b_m * b_p))
    envelopes = (a_m * a_m + a_p * a_p) + (b_m * b_m + b_p * b_p)
    return -0.5 * envelopes + log_a + log_b, sign_a * sign_b


def povm_weight_exact(
    probe: ProbeConfig,
    out: MeasurementOutcome,
    ens: EnsembleSpec,
    m: float,
    m_prime: float,
) -> tuple[float, float]:
    """Signed log of <M_alpha>_{m,m'} <M_beta>_{m,m'} with the exact kernel.

    Returns (log|weight|, sign).  Symmetric under m <-> m'.
    """
    am, bm = mode_amplitudes(ens, probe, m, convention="full")
    ap, bp = mode_amplitudes(ens, probe, m_prime, convention="full")
    log_w, sign = _log_povm_element(out, am, bm, ap, bp)
    return float(log_w - (out.i_alpha + out.i_beta)), float(sign)


def _exact_kernel_band(
    ens: EnsembleSpec, probe: ProbeConfig, out: MeasurementOutcome
):
    """Diagonal and first-off-diagonal exact log-kernels over the m grid.

    Returns (diag_log, off_log, off_sign); diagonal kernels are positive.
    The m-independent factor e^{-(I_alpha + I_beta)} is dropped.
    """
    a, b = mode_amplitudes(ens, probe, ens.m_values(), convention="full")
    diag_log, _ = _log_povm_element(out, a, b, a, b)
    off_log, off_sign = _log_povm_element(out, a[:-1], b[:-1], a[1:], b[1:])
    return diag_log, off_log, off_sign


def posterior_weights(
    ens: EnsembleSpec,
    probe: ProbeConfig,
    out: MeasurementOutcome,
    method: str = "exact",
) -> DickeWeights:
    """Conditional Dicke weights given a measurement outcome.

    method="exact" multiplies the binomial prior by the exact Bessel kernel
    (N capped at ORACLE_N_CAP, I0 at ORACLE_I0_CAP); method="second_order"
    uses the quadratic expansion, whose diagonal log-factor is
    2 W phi m - lambda phi^2 m^2.  In both cases ``offdiag_logf`` holds the
    log-ratio F(m, m+1) = K(m, m+1) / K(m, m) needed for <Jx>, with signs
    carried separately.
    """
    prior = css_log_weights(ens.n_atoms)
    m = prior.m_values()

    if method == "exact":
        if ens.n_atoms > ORACLE_N_CAP:
            raise ValueError(
                f"n_atoms = {ens.n_atoms} exceeds exact-kernel cap {ORACLE_N_CAP}"
            )
        if probe.i0 > ORACLE_I0_CAP:
            raise ValueError(
                f"i0 = {probe.i0} exceeds exact-kernel cap {ORACLE_I0_CAP:g}"
            )
        diag_log, off_log, off_sign = _exact_kernel_band(ens, probe, out)
        log_w = prior.log_w + diag_log
        offdiag_logf = off_log - diag_log[:-1]
        return DickeWeights(
            n_atoms=ens.n_atoms,
            log_w=log_w,
            offdiag_logf=offdiag_logf,
            offdiag_sign=off_sign,
        )

    if method == "second_order":
        coef = expansion_coeffs(probe, out)
        phi = ens.phi
        lam = coef.lam
        log_w = prior.log_w + 2.0 * coef.w * phi * m - lam * phi * phi * m * m
        offdiag_logf = (
            coef.w * phi + coef.y * phi * phi - lam * phi * phi * m[:-1]
        )
        return DickeWeights(
            n_atoms=ens.n_atoms,
            log_w=log_w,
            offdiag_logf=offdiag_logf,
            offdiag_sign=np.ones(ens.n_atoms),
        )

    raise ValueError(f"unknown method {method!r}")
