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
``posterior_weights`` weights the binomial prior with this exact kernel.

The closed form's second-order expansion of the log-kernel in m*phi lives
only in ``expansion_coeffs``: its m-independent term cancels on
normalization, so only the coefficients (W, Y, Z) and lambda = -2Y - Z are
kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import DickeWeights, EnsembleSpec, ladder, log_binomial_weights
from .probe import ProbeConfig, _envelopes, intensity_moments_approx

#: default caps for the exact posterior path
ORACLE_N_CAP = 2000
ORACLE_I0_CAP = 1e4


#: proximity threshold to the singular phases {0, pi/2, pi, ...}
EPS_SING = 1e-6


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
        # NaN fails both comparisons; Python floats give a bool, which needs
        # no numpy reduction when it is True
        ok = (a >= 0) & (a < np.inf) & (b >= 0) & (b < np.inf)
        if ok is not True and not np.asarray(ok).all():
            # built only on failure: name the first offending reading
            k = np.unravel_index(np.argmin(ok), np.shape(ok))
            a_k, b_k = (np.broadcast_to(v, np.shape(ok))[k] for v in (a, b))
            name, value = ("i_beta", b_k) if 0 <= a_k < np.inf else ("i_alpha", a_k)
            at = "".join(f"[{i}]" for i in k)
            raise ValueError(f"i_alpha, i_beta must be finite and >= 0, got {name}{at} = {value}")


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


def offset_outcomes(
    ens: EnsembleSpec, probe: ProbeConfig, offsets_alpha, offsets_beta
) -> MeasurementOutcome:
    """Outcomes at the per-mode means displaced by the given multiples of the
    per-mode standard deviations of ``intensity_moments_approx``, clamped
    at 0; elementwise over the (equal-shape) offset arrays of the two modes."""
    mean = most_probable_outcome(probe)
    mom = intensity_moments_approx(ens, probe)
    sa = math.sqrt(max(mom.var_alpha, 0.0))
    sb = math.sqrt(max(mom.var_beta, 0.0))
    return MeasurementOutcome(
        i_alpha=np.maximum(mean.i_alpha + np.asarray(offsets_alpha) * sa, 0.0),
        i_beta=np.maximum(mean.i_beta + np.asarray(offsets_beta) * sb, 0.0),
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
    if min(abs(c), abs(s)) < EPS_SING:
        raise SingularPhase(
            f"x_t = {x!r} is within {EPS_SING:g} of a singular phase of the expansion"
        )
    ra = np.sqrt(out.i_alpha / i0) if i0 > 0 else 0.0
    rb = np.sqrt(out.i_beta / i0) if i0 > 0 else 0.0
    # W is a difference of terms of order I0: regrouping its factors moves xi^2 by ~2e-10
    w = 2.0 * i0 * (
        ra * s * c / abs(c) + rb * c * s / abs(s) - 2.0 * math.sin(2.0 * x)
    )
    y = -0.5 * i0 * (ra * (1.0 + c * c) / abs(c) + rb * (1.0 + s * s) / abs(s))
    z = i0 * (ra * s * s / abs(c) + rb * c * c / abs(s))
    return ExpansionCoeffs(w=w, y=y, z=z)


def _log_kernel(x):
    """(log|S|, sign) for S(x) = sum_n x^n / (n!)^2, elementwise over x.

    S(x) = I_0(2 sqrt(x)) for x >= 0 and J_0(2 sqrt(-x)) for x < 0.  The
    I_0 form is taken on every element, and J_0 overwrites the negative
    ones when there are any; a scalar x gives numpy scalars.
    """
    from scipy.special import i0e, j0  # local: only the exact paths pay for scipy

    x = np.asarray(x, dtype=float)
    z = 2.0 * np.sqrt(np.abs(x))
    # asarray: a 0-d z gives a numpy scalar, which J_0 could not overwrite
    log_s, sign = np.asarray(np.log(i0e(z)) + z), np.empty(z.shape)
    sign.fill(1.0)
    neg = x < 0
    if neg.any():
        s = j0(z[neg])
        with np.errstate(divide="ignore"):
            log_s[neg] = np.log(np.abs(s))
        sign[neg] = np.sign(s)
    return log_s[()], sign[()]


def _distinct(x):
    """np.unique(x, return_inverse=True) (a 0-d inverse for a scalar x) at less
    than half its per-call cost, which rivals the kernel's at N <= 400."""
    s = np.sort(x, axis=None)
    u = np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))
    return u, u.searchsorted(x)


def posterior_weights(
    ens: EnsembleSpec,
    probe: ProbeConfig,
    out: MeasurementOutcome,
    method: str = "exact",
) -> DickeWeights:
    """Conditional Dicke weights given a measurement outcome.

    The binomial prior times the exact Bessel kernel (N capped at
    ORACLE_N_CAP, I0 at ORACLE_I0_CAP); "exact" is the only method, and any
    other raises ValueError.  ``offdiag_logf`` holds the log-ratio
    F(m, m+1) = K(m, m+1) / K(m, m) needed for <Jx>, with signs carried
    separately.

    Outcome fields that are 1-D arrays of k outcomes give one row of
    weights per outcome, each equal to that outcome's scalar call; the mode
    envelopes and their pair products are built once per call, the exact
    kernel once per distinct reading of each mode, and the m ladder and the
    prior are cached.
    """
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    if ens.n_atoms > ORACLE_N_CAP:
        raise ValueError(f"n_atoms = {ens.n_atoms} exceeds exact-kernel cap {ORACLE_N_CAP}")
    if probe.i0 > ORACLE_I0_CAP:
        raise ValueError(f"i0 = {probe.i0} exceeds exact-kernel cap {ORACLE_I0_CAP:g}")
    n = int(ens.n_atoms)
    g = np.array(_envelopes(ens, probe, ladder(n)[0]))  # rows alpha, beta
    # pairs (m, m), then (m, m+1): the diagonal and first off-diagonal of
    # g_m g_m' and of g_m^2 + g_m'^2, per mode
    squares = g * g
    pairs = np.concatenate((squares, g[:, :-1] * g[:, 1:]), axis=1)
    sums = np.concatenate((squares + squares, squares[:, :-1] + squares[:, 1:]), axis=1)
    # the kernel once per distinct reading of each mode: rows alpha, then beta
    i_alpha, inv_a = _distinct(out.i_alpha)
    i_beta, inv_b = _distinct(out.i_beta)
    log_s, sign = _log_kernel(np.concatenate(
        (np.multiply.outer(i_alpha, pairs[0]), np.multiply.outer(i_beta, pairs[1]))
    ))
    k = i_alpha.size
    # the log-kernel without the m-independent e^{-(I_alpha + I_beta)}; the
    # envelope term joins the alpha rows before they are gathered per outcome
    log_k = (-0.5 * (sums[0] + sums[1]) + log_s[:k])[inv_a] + log_s[k:][inv_b]
    diag_log = log_k[..., : n + 1]
    return DickeWeights(
        n_atoms=n,
        log_w=log_binomial_weights(n) + diag_log,
        offdiag_logf=log_k[..., n + 1 :] - diag_log[..., :-1],
        offdiag_sign=sign[:k][inv_a, n + 1 :] * sign[k:][inv_b, n + 1 :],
    )
