"""Closed-form squeezing parameter, limits, and photon-scattering noise.

The second-order posterior is a Gaussian in m, so its moments are ratios of
Gaussian integrals over the real line:

    <Jz^2> = int x^2 e^{-a x^2 + b x} / int e^{-a x^2 + b x}
           = (N/4) [ 1/(1+s) + N phi^2 W^2 / (1+s)^2 ],   s = N phi^2 lambda / 2,
    <Jx>   = e^{Y phi^2 + W phi} int (N/2 - x) e^{-a x^2 + b' x} / int e^{-a x^2 + b x}
           = e^{Y phi^2 + (W phi + s lambda phi^2 / 4) / q} [N/2 + N (lambda phi^2 - 2 W phi) / 4q],

with q = 1 + s, a = 2/N + lambda phi^2 = 2q/N, b = 2 W phi, b' = b - lambda phi^2:
b'^2 - b^2 = -lambda phi^2 (2b - lambda phi^2) folds the ratio's e^{(b'^2 - b^2)/4a}
into one exponential, where the W phi terms cancel to W phi / q.  For N >> 1 and
I0 ~ O(N) the <Jx> factor collapses to the shortcut N/2, in which case the
most probable outcome (W = 0, lambda = 4 I0) yields the canonical

    xi^2 = 1 / (1 + 2 I0 N phi^2) = 1 / (1 + eta d).

Scattering noise enters through two models: for rare-earth ensembles
xi'^2 = xi^2 / (1-eta)^2; for alkali vapors
xi'^2 = xi^2 + eta/(1-eta) + eta/(1-eta)^2.  ``eta_optimal`` minimizes either
over eta in closed form: the lower end for d <= 2, (d-2)/(3d) for rare-earth
ensembles, and the one root in (0, 1) of a cubic for alkali vapors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backaction import ExpansionCoeffs, MeasurementOutcome, expansion_coeffs
from .dicke import EnsembleSpec, SqueezingResult
from .probe import ProbeConfig


@dataclass(frozen=True)
class NoiseModel:
    """Photon-scattering noise model selector."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("reidc", "alkali"):
            raise ValueError(f"kind must be 'reidc' or 'alkali', got {self.kind!r}")


REIDC = NoiseModel("reidc")
ALKALI = NoiseModel("alkali")

#: outcomes per closed-form evaluation in xi_closed_form_array.  On 20,000
#: outcomes in a fresh process: 1.0 ms at 2048, 0.78 ms at 4096, 1.0 ms at
#: 8192, where freeing the temporaries trims glibc's heap (0.70 ms untrimmed)
CLOSED_FORM_BLOCK = 4096


# ---------------------------------------------------------------------------
# Closed-form squeezing parameter
# ---------------------------------------------------------------------------

@np.errstate(over="raise")
def closed_form_moments(
    ens: EnsembleSpec, coef: ExpansionCoeffs, jx_mode: str = "exact"
) -> SqueezingResult:
    """<Jz^2>, <Jx>, xi^2 from expansion coefficients via Gaussian integrals,
    elementwise over array coefficients.  With a = 2q/N, <Jx> has the one
    exponential e^{Y phi^2 + (W phi + s lambda phi^2 / 4) / q}, which holds
    W phi past e^{W phi}'s own range.  An overflow raises FloatingPointError:
    of that exponential, of q * q, of <Jx>^2 or of any product on the way."""
    n, phi = ens.n_atoms, ens.phi
    lam, w, y = coef.lam, coef.w, coef.y
    phi2 = phi * phi
    # np.multiply: a numpy lambda phi^2, float coefficients included, so that
    # q * q raises on overflow (as (1/q)**2 would not: 1/q underflows unseen)
    lam_phi2, w_phi = np.multiply(lam, phi2), w * phi
    s = (n / 2.0) * lam_phi2
    q = 1.0 + s
    jz2 = (n / 4.0) * (1.0 / q + (n * phi2) * w * w / (q * q))

    if jx_mode == "shortcut":
        jx = n / 2.0
    elif jx_mode == "exact":
        jx = np.exp(y * phi2 + (w_phi + s * lam_phi2 / 4.0) / q) * (
            n / 2.0 + (n / 4.0) * (lam_phi2 - 2.0 * w_phi) / q
        )
    else:
        raise ValueError(f"unknown jx_mode {jx_mode!r}")
    return SqueezingResult.from_moments(n, jz2, jx)


def xi_closed_form(
    ens: EnsembleSpec,
    probe: ProbeConfig,
    out: MeasurementOutcome,
    jx_mode: str = "exact",
) -> SqueezingResult:
    """Closed-form conditional squeezing for a given measurement outcome.

    jx_mode="exact" evaluates the full Gaussian-integral <Jx> including its
    exponential correction factors; jx_mode="shortcut" uses the N >> 1
    approximation <Jx> = N/2.
    """
    coef = expansion_coeffs(probe, out)
    return closed_form_moments(ens, coef, jx_mode=jx_mode)


def xi_closed_form_array(
    ens: EnsembleSpec, probe: ProbeConfig, out: MeasurementOutcome, jx_mode="exact"
) -> np.ndarray:
    """xi^2 of ``xi_closed_form`` for 1-D outcome arrays, evaluated
    CLOSED_FORM_BLOCK outcomes at a time to bound the temporaries."""
    xi_sq = np.empty(np.shape(out.i_alpha))
    for start in range(0, xi_sq.size, CLOSED_FORM_BLOCK):
        block = slice(start, start + CLOSED_FORM_BLOCK)
        coef = expansion_coeffs(
            probe, MeasurementOutcome(out.i_alpha[block], out.i_beta[block])
        )
        xi_sq[block] = closed_form_moments(ens, coef, jx_mode=jx_mode).xi_sq
    return xi_sq


def xi_most_probable(eta, d: float):
    """xi^2 = 1/(1 + eta d) at the most probable outcomes, elementwise over
    eta (a float, or an array of them)."""
    # NaN fails both comparisons; a Python float gives a bool
    ok = (0.0 <= eta) & (eta < 1.0)
    if ok is not True and not np.asarray(ok).all():
        raise ValueError(f"eta must be in [0, 1), got {np.asarray(eta)[~np.asarray(ok)][0]}")
    if not 0.0 <= d < math.inf:
        raise ValueError(f"d must be finite and >= 0, got {d}")
    return 1.0 / (1.0 + eta * d)


def xi_noisy(eta, d: float, model: NoiseModel = REIDC):
    """Squeezing degraded by photon scattering, per the chosen model,
    elementwise over eta; ``xi_most_probable`` checks eta and d."""
    base = xi_most_probable(eta, d)
    keep = 1.0 - eta
    if model.kind == "reidc":
        return base / (keep * keep)
    return base + eta / keep + eta / (keep * keep)


def eta_optimal(d: float, model: NoiseModel = REIDC) -> float:
    """Scattering probability minimizing xi_noisy at fixed optical depth.

    For d <= 2 both models' xi'^2 rise from eta = 0: the lower end 1e-9
    (phi needs eta > 0).  Above it, reidc gives (d-2)/(3d), computed as
    ((d-2)/4)/(3d/4): scaling by a power of two is exact, so the bits are
    those of (d-2)/(3d) wherever 3d is finite, and 3d/4 never overflows, so
    d up to the largest float gives 1/3 to 1 ulp.  The alkali
    slope 2/(1-eta)^3 - d/(1+eta d)^2 is 2 - d < 0 at 0, and
    g = d(1-eta)^3 - 2(1+eta d)^2 falls strictly on [0, 1], so the one root
    r1 in (0, 1) of d eta^3 + (2d^2 - 3d) eta^2 + 7d eta + 2 - d is the
    minimum.  The other roots sum to -(2d - 3) - r1 < 0 and multiply to
    (d - 2)/(d r1) > 0: both negative, or a complex pair with a negative
    real part.  Re(1/z) has the sign of Re(z), so 1/r1 is the root with the
    largest real part of the reversed cubic (over d): within ~2e-15 relative
    of mpmath for d up to 8.9e307, where the forward cubic's companion
    matrix loses up to 1.5e-11.  Past that 2d - 3 overflows, and np.roots
    raises LinAlgError, a ValueError.
    """
    if not 0.0 < d < math.inf:
        raise ValueError(f"d must be finite and > 0, got {d}")
    if d <= 2.0:
        return 1e-9
    if model.kind == "reidc":
        return (0.25 * (d - 2.0)) / (0.75 * d)
    return float(1.0 / np.roots(((2.0 - d) / d, 7.0, 2.0 * d - 3.0, 1.0)).real.max())


def phi_from_eta_d(eta: float, d: float, n_atoms: float, i0: float) -> float:
    """Phase shift per atom: phi = sqrt(eta d / (2 N I0)); a phi outside the
    float range (2 N I0 overflowing, say) raises rather than reads 0 or inf."""
    if not all(0.0 < v < math.inf for v in (eta, d, n_atoms, i0)):
        raise ValueError(
            f"all arguments must be finite and > 0, got {eta}, {d}, {n_atoms}, {i0}"
        )
    two_n_i0 = 2.0 * n_atoms * i0
    phi = math.sqrt(eta * d / two_n_i0) if two_n_i0 else math.inf
    if not 0.0 < phi < math.inf:
        raise ValueError(f"phi = {phi} is not finite and > 0 for eta = {eta}, d = {d}, "
                         f"n_atoms = {float(n_atoms)}, i0 = {i0}")
    return phi


def xi_db(xi_sq: float) -> float:
    """Squeezing in decibels: -10 log10(xi^2)."""
    # NaN fails the comparison
    if not xi_sq > 0:
        raise ValueError(f"xi_sq must be > 0, got {xi_sq}")
    # 0.0 - x, not -x: xi^2 = 1 gives 0.0, not -0.0
    return 0.0 - 10.0 * math.log10(xi_sq)
