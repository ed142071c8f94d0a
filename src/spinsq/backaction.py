"""Measurement back-action: conditional reweighting of the Dicke distribution.

Intensity detection of the two probe pairs with outcomes (I_alpha, I_beta)
acts on the atomic state through a phase-averaged coherent POVM.  Its matrix
elements between Dicke indices m, m' factorize per mode as

    <M_g>_{m,m'} = e^{-I_g} e^{-(g_m^2 + g_m'^2)/2} S(I_g g_m g_m'),
    S(x) = sum_n x^n / (n!)^2,

where g_m is the real envelope of the mode: 2 sqrt(I0) cos(X_t - m phi)
for alpha and 2 sqrt(I0) sin(X_t + m phi) for beta (``mode_amplitudes``).
S is a Bessel function (DLMF 10.25.2, 10.2.2): I_0(2 sqrt(x)) for x >= 0,
as log i0e(z) + z with the exponentially scaled i0e (finite for all finite
z, DLMF 10.40.1), and J_0(2 sqrt(-x)) for x < 0, whose sign is carried
separately.  Each branch runs only on its own elements.

The second-order path expands the log-kernel to quadratic order in m*phi.
Its m-independent term cancels on normalization, so only the coefficients
(W, Y, Z) and lambda = -2Y - Z are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e, j0

from .dicke import DickeWeights, EnsembleSpec, css_log_weights, m_values
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
    """Quadratic log-kernel coefficients W, Y, Z and lambda = -2Y - Z."""

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


def expansion_coeffs(probe: ProbeConfig, out: MeasurementOutcome) -> ExpansionCoeffs:
    """Closed-form second-order expansion coefficients of the log-kernel.

    At the most probable outcomes these give W = 0 and lambda = 4 I0.
    Elementwise over an outcome whose fields are arrays.  Raises
    SingularPhase when |cos x_t| or |sin x_t| falls below EPS_SING (both
    appear in denominators).
    """
    i0, x = probe.i0, probe.x_t
    c, s = math.cos(x), math.sin(x)
    if abs(c) < EPS_SING:
        raise SingularPhase(
            f"|cos(x_t)| = {abs(c):.3g} < {EPS_SING:g}; expansion divides by cos(x_t)"
        )
    if abs(s) < EPS_SING:
        raise SingularPhase(
            f"|sin(x_t)| = {abs(s):.3g} < {EPS_SING:g}; expansion divides by sin(x_t)"
        )
    ra = np.sqrt(out.i_alpha / i0) if i0 > 0 else 0.0
    rb = np.sqrt(out.i_beta / i0) if i0 > 0 else 0.0
    w = 2.0 * i0 * (
        ra * s * c / abs(c) + rb * c * s / abs(s) - 2.0 * math.sin(2.0 * x)
    )
    y = -0.5 * i0 * (ra * (1.0 + c * c) / abs(c) + rb * (1.0 + s * s) / abs(s))
    z = i0 * (ra * s * s / abs(c) + rb * c * c / abs(s))
    return ExpansionCoeffs(w=w, y=y, z=z)


def _log_kernel(x):
    """(log|S|, sign) for S(x) = sum_n x^n / (n!)^2, elementwise over x.

    S(x) = I_0(2 sqrt(x)) for x >= 0 and J_0(2 sqrt(-x)) for x < 0, each
    evaluated only on its own elements; a scalar x gives numpy scalars.
    """
    x = np.asarray(x, dtype=float)
    z = 2.0 * np.sqrt(np.abs(x))
    neg = x < 0
    if not neg.any():
        return (np.log(i0e(z)) + z)[()], np.ones(z.shape)[()]
    log_s, sign = np.empty(z.shape), np.ones(z.shape)
    pos = ~neg
    z_pos = z[pos]
    log_s[pos] = np.log(i0e(z_pos)) + z_pos
    s = j0(z[neg])
    with np.errstate(divide="ignore"):
        log_s[neg] = np.log(np.abs(s))
    sign[neg] = np.sign(s)
    return log_s[()], sign[()]


def _log_povm_element(out: MeasurementOutcome, a_m, b_m, a_p, b_p):
    """Signed log of <M_alpha>_{m,m'} <M_beta>_{m,m'} / e^{-(I_alpha + I_beta)}.

    (a_m, b_m) and (a_p, b_p) are the mode envelopes at m and m' (scalars or
    equal-shape arrays).  Exactly symmetric under m <-> m'.
    """
    log_a, sign_a = _log_kernel(out.i_alpha * (a_m * a_p))
    log_b, sign_b = _log_kernel(out.i_beta * (b_m * b_p))
    envelopes = (a_m * a_m + a_p * a_p) + (b_m * b_m + b_p * b_p)
    return -0.5 * envelopes + log_a + log_b, sign_a * sign_b


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
    m = m_values(ens.n_atoms)

    if method == "exact":
        if ens.n_atoms > ORACLE_N_CAP:
            raise ValueError(
                f"n_atoms = {ens.n_atoms} exceeds exact-kernel cap {ORACLE_N_CAP}"
            )
        if probe.i0 > ORACLE_I0_CAP:
            raise ValueError(
                f"i0 = {probe.i0} exceeds exact-kernel cap {ORACLE_I0_CAP:g}"
            )
        a, b = mode_amplitudes(ens, probe, m)
        # pairs (m, m), then (m, m+1): the diagonal and first off-diagonal
        # kernels in one pass, without the m-independent e^{-(I_alpha + I_beta)}
        log_k, sign = _log_povm_element(
            out, np.concatenate((a, a[:-1])), np.concatenate((b, b[:-1])),
            np.concatenate((a, a[1:])), np.concatenate((b, b[1:])),
        )
        diag_log = log_k[: a.size]
        return DickeWeights(
            n_atoms=ens.n_atoms,
            log_w=prior.log_w + diag_log,
            offdiag_logf=log_k[a.size :] - diag_log[:-1],
            offdiag_sign=sign[a.size :],
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
