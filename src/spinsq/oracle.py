"""Brute-force verification path.

Everything in this module avoids the second-order expansion: the posterior
comes from the exact Bessel kernel, the micro-oracle builds the full
atom+light state in a truncated Fock basis (each mode's coherent amplitudes
for every m from one cumprod) and traces the light out, refusing a cutoff
whose dropped tail it cannot bound below FOCK_TAIL_RTOL of the trace, and
the Monte Carlo sampler draws outcomes from the exact mixture law

    m ~ binomial Dicke weights, then I_gamma ~ Poisson(|gamma_m|^2).

The sampler draws n outcomes as vectors (one binomial draw of size n, then
one array of counts per mode), so ``conditional_xi_distribution`` rows
differ from those of n successive scalar ``sample_outcome`` calls.

Desk-scale parameters (N <= 2000, I0 <= 1e4) stand in for experiment scale
by holding the governing dimensionless products (eta d = 2 I0 N phi^2)
at their physical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backaction import (
    MeasurementOutcome,
    most_probable_outcome,
    posterior_weights,
)
from .dicke import EnsembleSpec, SqueezingResult, collective_moments, css_log_weights, m_values
from .probe import ProbeConfig, check_phi2n, intensity_moments_approx, mode_amplitudes
from .squeezing import xi_closed_form, xi_closed_form_array

#: RNG algorithm recorded in output metadata
RNG_ALGORITHM = "numpy.random.PCG64"

#: above this Poisson mean, sampling switches to the Normal approximation
POISSON_NORMAL_SWITCH = 1e6

#: largest share of the posterior trace that fock_posterior's cutoff may drop
FOCK_TAIL_RTOL = 1e-8


def oracle_xi(
    ens: EnsembleSpec, probe: ProbeConfig, out: MeasurementOutcome
) -> SqueezingResult:
    """xi^2 from the exact-kernel posterior; independent of all expansions."""
    return collective_moments(posterior_weights(ens, probe, out, method="exact"))


# ---------------------------------------------------------------------------
# Full-Hilbert-space micro-oracle
# ---------------------------------------------------------------------------

def fock_posterior(
    ens: EnsembleSpec,
    probe: ProbeConfig,
    out: MeasurementOutcome,
    cutoff: int = 40,
) -> np.ndarray:
    """Normalized posterior atomic density matrix by explicit Kraus simulation.

    The joint pure state sum_m c_m |m>|alpha_m>|beta_m> is built in a
    truncated Fock basis, the (diagonal) Kraus matrices for the two
    intensity outcomes are applied to the light modes, and the light is
    traced out.  Only feasible for small N and I0; serves as an independent
    check of the exact-kernel posterior.  Raises ValueError when the Fock
    terms past the cutoff may carry more than FOCK_TAIL_RTOL of the trace,
    or when the kept trace underflows to 0.
    """
    m = m_values(ens.n_atoms)
    c = np.sqrt(css_log_weights(ens.n_atoms).normalized())
    a, b = mode_amplitudes(ens, probe, m)
    rho = np.outer(c, c)
    bound = c * c  # diagonal of rho with each mode's dropped terms bounded above
    n = np.arange(1, cutoff + 1)
    for gamma, i_bar in ((a, out.i_alpha), (b, out.i_beta)):
        # <n|gamma_m> for all m at once, shape (N+1, cutoff+1), times the Kraus
        # diagonal sqrt(Poisson(n; i_bar)); two products, each from its own
        # e^{-x/2}, so that neither underflows before gamma^2 or i_bar ~ 1490
        steps = np.empty((gamma.size, cutoff + 1))
        steps[:, 0] = np.exp(-gamma * gamma / 2.0)
        steps[:, 1:] = gamma[:, None] / np.sqrt(n)
        kraus = np.concatenate(([math.exp(-i_bar / 2.0)], np.sqrt(i_bar / n)))
        light = np.cumprod(steps, axis=1) * np.cumprod(kraus)
        kernel = light @ light.T
        rho *= kernel
        # past the cutoff each term of a row shrinks by at least the factor
        # q = |gamma| sqrt(i_bar) / (cutoff + 1), so while q < 1 the squares
        # dropped from the diagonal sum to at most light[:, -1]^2 q^2 / (1 - q^2)
        q2 = gamma * gamma * (i_bar / (cutoff + 1) ** 2)
        tail = light[:, -1] ** 2 * q2 / (1.0 - q2) if q2.max() < 1.0 else np.inf
        bound *= np.diag(kernel) + tail
    trace, total = np.trace(rho), bound.sum()
    # a trace that underflowed to 0 would give NaN
    if not (trace > 0.0 and total <= (1.0 + FOCK_TAIL_RTOL) * trace):
        raise ValueError(
            f"Fock cutoff {cutoff} keeps a trace of {trace:.3g}; the full trace "
            f"may reach {total:.3g}, more than {FOCK_TAIL_RTOL:g} above it"
        )
    return rho / trace


def fock_moments(rho: np.ndarray) -> SqueezingResult:
    """<Jz^2>, <Jx>, xi^2 by dense-matrix traces with ladder matrix elements."""
    n = rho.shape[0] - 1
    m = m_values(n)
    jz2 = float(np.dot(np.diag(rho), m * m))
    ladder = 0.5 * np.sqrt((n / 2.0 - m[:-1]) * (n / 2.0 + m[:-1] + 1.0))
    jx = float(2.0 * np.dot(np.diag(rho, 1), ladder))
    return SqueezingResult.from_moments(n, jz2, jx)


# ---------------------------------------------------------------------------
# Monte Carlo outcome sampling
# ---------------------------------------------------------------------------

def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _sample_count(rng: np.random.Generator, lam) -> np.ndarray:
    """Poisson counts for the means lam, elementwise; Normal(lam, lam) clipped
    at 0 above POISSON_NORMAL_SWITCH.  Poisson(0) = 0 consumes no draw."""
    lam = np.asarray(lam, dtype=float)
    normal = lam > POISSON_NORMAL_SWITCH
    counts = np.asarray(
        rng.poisson(np.where(normal, 0.0, np.maximum(lam, 0.0))), dtype=float
    )
    if normal.any():
        lam = lam[normal]
        counts[normal] = np.maximum(rng.normal(lam, np.sqrt(lam)), 0.0)
    return counts[()]


def sample_outcome(
    ens: EnsembleSpec, probe: ProbeConfig, seed=None, size=None
) -> MeasurementOutcome:
    """(I_alpha, I_beta) draws from the exact outcome law.

    ``size`` follows numpy: None gives one outcome with scalar fields, an
    integer n gives n outcomes at once as arrays of length n.
    """
    rng = _as_rng(seed)
    m = rng.binomial(ens.n_atoms, 0.5, size=size) - ens.n_atoms / 2.0
    a, b = mode_amplitudes(ens, probe, m)
    return MeasurementOutcome(
        i_alpha=_sample_count(rng, a**2), i_beta=_sample_count(rng, b**2)
    )


@dataclass
class SampleTable:
    """Sampled outcomes with conditional xi^2 and summary quantiles."""

    rows: np.ndarray  # shape (n, 3): i_alpha, i_beta, xi_sq
    quantiles: dict


def conditional_xi_distribution(
    ens: EnsembleSpec,
    probe: ProbeConfig,
    n_samples: int,
    seed=None,
    method: str = "second_order",
) -> SampleTable:
    """Sample outcomes and evaluate xi^2 for each by the chosen path.

    All outcomes come from one vector draw, ``sample_outcome(...,
    size=n_samples)``, so the rows differ from those of n_samples scalar
    ``sample_outcome`` calls on the same generator.  method="second_order"
    evaluates the Gaussian closed form on the whole array and refuses phi^2 N
    above probe.PHI2N_WARN (``check_phi2n``); method="exact" runs the
    exact-kernel oracle per sample (desk scale only).
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if method not in ("second_order", "exact"):
        raise ValueError(f"unknown method {method!r}")
    if method == "second_order":
        check_phi2n(ens, refuse=True)
    out = sample_outcome(ens, probe, seed, size=n_samples)
    rows = np.empty((n_samples, 3))
    rows[:, 0], rows[:, 1] = out.i_alpha, out.i_beta
    if method == "second_order":
        rows[:, 2] = xi_closed_form_array(ens, probe, out)
    else:
        for row, (i_alpha, i_beta) in zip(rows, rows[:, :2].tolist()):
            row[2] = oracle_xi(ens, probe, MeasurementOutcome(i_alpha, i_beta)).xi_sq
    quantiles = {}
    finite = rows[:, 2][np.isfinite(rows[:, 2])]
    if finite.size:
        quantiles = {q: float(np.quantile(finite, q)) for q in (0.25, 0.5, 0.75)}
    return SampleTable(rows=rows, quantiles=quantiles)


# ---------------------------------------------------------------------------
# Oracle / closed-form comparison report
# ---------------------------------------------------------------------------

DEFAULT_GRID = {
    "n_atoms": (100, 400, 1000),
    "i0": (50.0, 100.0),
    "product": (0.5, 1.0, 4.0),  # 2 I0 N phi^2
    "x_t": (math.pi / 8, math.pi / 4, 3 * math.pi / 8),
}

#: outcome displacements, in units of the per-mode standard deviations
DEFAULT_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))

#: flat relative-error gate and <Jx> mode of compare_report
DEFAULT_GATE = 0.05
DEFAULT_JX_MODE = "exact"


def compare_report(
    grid: dict | None = None,
    offsets=DEFAULT_OFFSETS,
    gate: float = DEFAULT_GATE,
    jx_mode: str = DEFAULT_JX_MODE,
) -> dict:
    """Sweep oracle vs closed-form xi^2 over a desk-scale grid.

    Each grid point fixes (N, I0, 2 I0 N phi^2, X_t); outcomes are placed at
    the per-mode means displaced by the given multiples of the per-mode
    standard deviations.  Rows carry both xi^2 values and the relative
    error; the summary reports the flat gate and the softer adaptive gate
    max(gate, phi * sqrt(N)) that tracks the expansion's intrinsic
    O(phi sqrt(N)) accuracy.  A row whose relative error is not finite
    (an infinite oracle xi^2, say) fails both gates and makes
    ``max_rel_err`` infinite.  At +/-1 sigma outcomes on the default grid
    the measured error is at most about 0.58 phi sqrt(N), a margin of
    about 1.7x.
    """
    grid = {**DEFAULT_GRID, **(grid or {})}
    rows = []
    max_rel = 0.0
    adaptive_ok = True
    for n in grid["n_atoms"]:
        for i0 in grid["i0"]:
            for prod in grid["product"]:
                phi = math.sqrt(prod / (2.0 * i0 * n))
                ens = EnsembleSpec(n_atoms=n, phi=phi)
                for x_t in grid["x_t"]:
                    probe = ProbeConfig(i0=i0, x_t=x_t)
                    mom = intensity_moments_approx(ens, probe)
                    mean = most_probable_outcome(probe)
                    sa = math.sqrt(max(mom.var_alpha, 0.0))
                    sb = math.sqrt(max(mom.var_beta, 0.0))
                    for da, db in offsets:
                        out = MeasurementOutcome(
                            i_alpha=max(mean.i_alpha + da * sa, 0.0),
                            i_beta=max(mean.i_beta + db * sb, 0.0),
                        )
                        xi_o = float(oracle_xi(ens, probe, out).xi_sq)
                        xi_c = float(xi_closed_form(ens, probe, out, jx_mode).xi_sq)
                        rel = abs(xi_c - xi_o) / xi_o
                        max_rel = max(max_rel, rel if math.isfinite(rel) else math.inf)
                        # "not <=", so that a NaN error fails the gate too
                        if not rel <= max(gate, phi * math.sqrt(n)):
                            adaptive_ok = False
                        rows.append(
                            {
                                "n_atoms": n,
                                "i0": i0,
                                "product": prod,
                                "x_t": x_t,
                                "offset_alpha": da,
                                "offset_beta": db,
                                "i_alpha": out.i_alpha,
                                "i_beta": out.i_beta,
                                "xi_oracle": xi_o,
                                "xi_closed": xi_c,
                                "rel_err": rel,
                            }
                        )
    return {
        "rows": rows,
        "max_rel_err": max_rel,
        "pass_flat_gate": max_rel <= gate,
        "pass_adaptive_gate": adaptive_ok,
    }
