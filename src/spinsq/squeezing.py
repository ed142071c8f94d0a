"""Closed-form squeezing parameter, limits, and photon-scattering noise.

The second-order posterior is a Gaussian in m, so its moments are ratios of
Gaussian integrals over the real line:

    <Jz^2> = int x^2 e^{-a x^2 + b x} / int e^{-a x^2 + b x}
           = (N/4) [ 1/(1+s) + N phi^2 W^2 / (1+s)^2 ],   s = N phi^2 lambda / 2,
    <Jx>   = e^{Y phi^2 + W phi} int (N/2 - x) e^{-a x^2 + b' x} / int e^{-a x^2 + b x},

with a = 2/N + lambda phi^2, b = 2 W phi, b' = b - lambda phi^2, both
evaluated in closed form by ``closed_form_moments``.  For N >> 1 and
I0 ~ O(N) the <Jx> factor collapses to the shortcut N/2, in which case the
most probable outcome (W = 0, lambda = 4 I0) yields the canonical

    xi^2 = 1 / (1 + 2 I0 N phi^2) = 1 / (1 + eta d).

Scattering noise enters through two models: for rare-earth ensembles
xi'^2 = xi^2 / (1-eta)^2, minimized over eta at (d-2)/(3d) when d > 2; for
alkali vapors xi'^2 = xi^2 + eta/(1-eta) + eta/(1-eta)^2.  ``eta_optimal``
returns that closed form where it holds and otherwise searches with the
module's own golden-section minimizer: importing scipy.optimize instead
would add ~21 MiB of peak memory and ~0.3 s to importing the CLI.
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

#: outcomes per closed-form evaluation in xi_closed_form_array
CLOSED_FORM_BLOCK = 2048


# ---------------------------------------------------------------------------
# Closed-form squeezing parameter
# ---------------------------------------------------------------------------

@np.errstate(over="raise")
def closed_form_moments(
    ens: EnsembleSpec, coef: ExpansionCoeffs, jx_mode: str = "exact"
) -> SqueezingResult:
    """<Jz^2>, <Jx>, xi^2 from expansion coefficients via Gaussian integrals,
    elementwise over array coefficients; an overflow raises FloatingPointError."""
    n, phi = ens.n_atoms, ens.phi
    lam, w, y = coef.lam, coef.w, coef.y
    s = n * phi * phi * lam / 2.0
    jz2 = (n / 4.0) * (
        1.0 / (1.0 + s) + n * phi * phi * w * w / np.float_power(1.0 + s, 2.0)
    )

    if jx_mode == "shortcut":
        jx = n / 2.0
    elif jx_mode == "exact":
        a = 2.0 / n + lam * phi * phi
        b = 2.0 * w * phi
        bp = b - lam * phi * phi
        jx = (
            np.exp(y * phi * phi + w * phi)
            * ((-bp + a * n) / (2.0 * a))
            * np.exp((bp * bp - b * b) / (4.0 * a))
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


def xi_most_probable(eta: float, d: float) -> float:
    """xi^2 = 1/(1 + eta d) at the most probable outcomes."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    return 1.0 / (1.0 + eta * d)


def xi_noisy(eta: float, d: float, model: NoiseModel = REIDC) -> float:
    """Squeezing degraded by photon scattering, per the chosen model;
    ``xi_most_probable`` checks eta and d."""
    base = xi_most_probable(eta, d)
    if model.kind == "reidc":
        return base / (1.0 - eta) ** 2
    return base + eta / (1.0 - eta) + eta / (1.0 - eta) ** 2


def _golden_min(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Golden-section minimizer of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    fc, fd = f(c), f(d_)
    while b - a > tol:
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = f(d_)
    return 0.5 * (a + b)


def eta_optimal(d: float, model: NoiseModel = REIDC) -> float:
    """Scattering probability minimizing xi_noisy at fixed optical depth.

    For the reidc model with d > 2 this is the closed form (d-2)/(3d);
    otherwise a golden-section search runs on [1e-9, 1 - 1e-9], and a search
    that ends within 1e-6 of either end has found no interior minimum and
    returns that end.
    """
    if d <= 0:
        raise ValueError(f"d must be > 0, got {d}")
    if model.kind == "reidc" and d > 2:
        return (d - 2.0) / (3.0 * d)

    lo, hi = 1e-9, 1.0 - 1e-9
    eta = _golden_min(lambda e: xi_noisy(e, d, model), lo, hi)
    if eta - lo < 1e-6:
        return lo
    if hi - eta < 1e-6:
        return hi
    return eta


def phi_from_eta_d(eta: float, d: float, n_atoms: float, i0: float) -> float:
    """Phase shift per atom: phi = sqrt(eta d / (2 N I0))."""
    if eta <= 0 or d <= 0 or n_atoms <= 0 or i0 <= 0:
        raise ValueError("all arguments must be > 0")
    return math.sqrt(eta * d / (2.0 * n_atoms * i0))


def xi_db(xi_sq: float) -> float:
    """Squeezing in decibels: -10 log10(xi^2)."""
    if xi_sq <= 0:
        raise ValueError(f"xi_sq must be > 0, got {xi_sq}")
    return -10.0 * math.log10(xi_sq)
