"""Brute-force verification path, and its comparison with the closed form.

``oracle_xi``, ``fock_posterior``, ``fock_moments`` and ``sample_outcome``
avoid the second-order expansion; ``compare_report`` and
``conditional_xi_distribution``'s default method="second_order" evaluate
the closed form for comparison.  The oracle's posterior comes from the
exact Bessel kernel, the micro-oracle builds the full atom+light state in a
truncated Fock basis (each mode's coherent amplitudes for every m from one
cumprod) and traces the light out, refusing a cutoff whose dropped tail it
cannot bound below FOCK_TAIL_RTOL of the trace, and the Monte Carlo
sampler draws outcomes from the exact mixture law

    m ~ binomial Dicke weights, then I_gamma ~ Poisson(|gamma_m|^2).

The sampler draws n outcomes as vectors (one binomial draw of size n, then
one array of counts per mode), so ``conditional_xi_distribution`` rows
differ from those of n successive scalar ``sample_outcome`` calls.  The
counts follow that one law at every scale, desk or experiment: numpy's
Poisson draw is exact up to a mean of about 9.2e18 (I0 ~ 2.3e18 at
X_t = 0) and raises ValueError above it.

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
    offset_outcomes,
    posterior_weights,
)
from .dicke import EnsembleSpec, SqueezingResult, css_log_weights, ladder
from .probe import ProbeConfig, _envelopes, check_phi2n, mode_amplitudes
from .squeezing import xi_closed_form, xi_closed_form_array

#: RNG algorithm recorded in output metadata
RNG_ALGORITHM = "numpy.random.PCG64"

#: largest share of the posterior trace that fock_posterior's cutoff may drop
FOCK_TAIL_RTOL = 1e-8

#: kernel elements, outcomes x (2N+1), per posterior_weights call in oracle_xi,
#: i.e. per block of outcomes.  Sized by elements, not outcomes, to bound the
#: temporaries: exact ``sample`` at N = 2000 peaks at 56.4 MiB with 2**14,
#: 61.4 MiB with 2**16 and 56.1 MiB one outcome at a time.
ORACLE_BLOCK = 2**14


def oracle_xi(
    ens: EnsembleSpec, probe: ProbeConfig, out: MeasurementOutcome
) -> SqueezingResult:
    """xi^2 from the exact-kernel posterior; independent of all expansions.

    Outcome fields that are 1-D arrays give array-valued results, each
    element equal to that outcome's scalar call; scalar fields give numpy
    scalars.  The posterior and its ``DickeWeights.moments`` take
    ORACLE_BLOCK kernel elements (outcomes x (2N+1)) at a time; outcomes
    that fit one block, a scalar one included, take one posterior and go
    straight from its moments to the result.
    """
    n, size = ens.n_atoms, np.size(out.i_alpha)
    step = max(1, ORACLE_BLOCK // (2 * n + 1))
    if size <= step:
        return SqueezingResult.from_moments(
            n, *posterior_weights(ens, probe, out, method="exact").moments()
        )
    jz2, jx = np.empty((2, size))
    for start in range(0, size, step):
        block = slice(start, start + step)
        sub = MeasurementOutcome(out.i_alpha[block], out.i_beta[block])
        jz2[block], jx[block] = posterior_weights(ens, probe, sub, method="exact").moments()
    return SqueezingResult.from_moments(n, jz2, jx)


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
    c = np.sqrt(css_log_weights(ens.n_atoms).normalized())
    a, b = _envelopes(ens, probe, ladder(ens.n_atoms)[0])
    rho = c[:, None] * c
    bound = c * c  # diagonal of rho with each mode's dropped terms bounded above
    n = np.arange(1, cutoff + 1)
    root_n = np.sqrt(n)
    for gamma, i_bar in ((a, out.i_alpha), (b, out.i_beta)):
        # <n|gamma_m> for all m at once, shape (N+1, cutoff+1), times the Kraus
        # diagonal sqrt(Poisson(n; i_bar)); two products, each from its own
        # e^{-x/2}, so that neither underflows before gamma^2 or i_bar ~ 1490
        steps = np.empty((gamma.size, cutoff + 1))
        steps[:, 0] = np.exp(-gamma * gamma / 2.0)
        steps[:, 1:] = gamma[:, None] / root_n
        kraus = np.concatenate(([math.exp(-i_bar / 2.0)], np.sqrt(i_bar / n)))
        light = steps.cumprod(axis=1) * kraus.cumprod()
        kernel = light @ light.T
        rho *= kernel
        # past the cutoff each term of a row shrinks by at least the factor
        # q = |gamma| sqrt(i_bar) / (cutoff + 1), so while q < 1 the squares
        # dropped from the diagonal sum to at most light[:, -1]^2 q^2 / (1 - q^2)
        q2 = gamma * gamma * (i_bar / (cutoff + 1) ** 2)
        tail = light[:, -1] ** 2 * q2 / (1.0 - q2) if q2.max() < 1.0 else np.inf
        bound *= kernel.diagonal() + tail
    trace, total = rho.trace(), bound.sum()
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
    m, m2, rungs = ladder(n)
    jz2 = float(np.dot(rho.diagonal(), m2))
    elements = 0.5 * np.sqrt(rungs * (n / 2.0 + m[:-1] + 1.0))
    jx = float(2.0 * np.dot(rho.diagonal(1), elements))
    return SqueezingResult.from_moments(n, jz2, jx)


# ---------------------------------------------------------------------------
# Monte Carlo outcome sampling
# ---------------------------------------------------------------------------

def sample_outcome(
    ens: EnsembleSpec, probe: ProbeConfig, seed=None, size=None
) -> MeasurementOutcome:
    """(I_alpha, I_beta) draws from the exact outcome law.

    ``size`` follows numpy: None gives one outcome with scalar fields, an
    integer n gives n outcomes at once as arrays of length n.  The counts
    are whole numbers, as floats, at every scale: numpy's Poisson draw is
    exact for any mean up to about 9.2e18; a larger one raises ValueError
    ("lam value too large: i0 = ...").  Poisson(0) = 0 consumes no draw.
    """
    rng = np.random.default_rng(seed)  # a Generator passes through as is
    m = rng.binomial(ens.n_atoms, 0.5, size=size) - ens.n_atoms / 2.0
    a, b = mode_amplitudes(ens, probe, m)
    try:
        i_alpha, i_beta = (np.asarray(rng.poisson(lam), dtype=float)[()] for lam in (a**2, b**2))
    except ValueError as err:
        lam = max(np.max(a**2), np.max(b**2))
        raise ValueError(f"{err}: i0 = {float(probe.i0)} gives Poisson means up to {lam:.3g}; "
                         "numpy draws means up to about 9.2e18") from err
    return MeasurementOutcome(i_alpha=i_alpha, i_beta=i_beta)


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
    exact-kernel oracle on the whole array (desk scale only).
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
        rows[:, 2] = oracle_xi(ens, probe, out).xi_sq
    quantiles = {}
    finite = rows[:, 2][np.isfinite(rows[:, 2])]
    if finite.size:
        quantiles = dict(zip((0.25, 0.5, 0.75), np.quantile(finite, (0.25, 0.5, 0.75)).tolist()))
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

#: flat relative-error gate of compare_report
GATE = 0.05


def compare_report(grid: dict | None = None, offsets=DEFAULT_OFFSETS) -> dict:
    """Sweep oracle vs closed-form xi^2 over a desk-scale grid.

    Each grid point fixes (N, I0, 2 I0 N phi^2, X_t); outcomes are placed at
    the per-mode means displaced by the given multiples of the per-mode
    standard deviations (``offset_outcomes``); one ``oracle_xi`` call covers
    all outcomes of a grid point.  The closed form uses its exact <Jx>.  Rows
    carry both xi^2 values and the relative error; the summary reports the
    flat gate GATE, fixed so that no setting can turn it green, and the
    softer adaptive gate max(GATE, phi * sqrt(N)) that tracks the expansion's
    intrinsic O(phi sqrt(N)) accuracy.  A row whose relative error is not
    finite (an infinite oracle xi^2, say) fails both gates and makes
    ``max_rel_err`` infinite; an empty grid axis or ``offsets``, which would
    pass them on no rows, and an offset that is not finite raise ValueError.
    At +/-1 sigma outcomes on the default grid the measured error is at most
    about 0.58 phi sqrt(N), a 1.7x margin.
    """
    grid = {**DEFAULT_GRID, **(grid or {})}
    axes = {**{key: grid[key] for key in DEFAULT_GRID}, "offsets": offsets}
    if empty := [key for key, axis in axes.items() if not len(axis)]:
        raise ValueError(f"empty grid axis: {', '.join(empty)}")
    # before any math: phi = sqrt(product / (2 I0 N)) divides by I0
    for i0 in grid["i0"]:
        if not 0.0 < i0 < math.inf:
            raise ValueError(f"i0 must be finite and > 0, got {i0}")
    for prod in grid["product"]:
        if not 0.0 <= prod < math.inf:
            raise ValueError(f"product must be finite and >= 0, got {prod}")
    pairs = np.array(offsets, dtype=float).reshape(-1, 2)
    if bad := sorted({str(o) for o in pairs.ravel().tolist() if not math.isfinite(o)}):
        raise ValueError(f"offsets must be finite, got {', '.join(bad)}")
    offsets_alpha, offsets_beta = pairs.T
    rows = []
    max_rel = 0.0
    adaptive_ok = True
    for n in grid["n_atoms"]:
        for i0 in grid["i0"]:
            for prod in grid["product"]:
                phi = math.sqrt(prod / (2.0 * i0 * n))
                ens = EnsembleSpec(n_atoms=n, phi=phi)
                adaptive_gate = max(GATE, phi * math.sqrt(n))
                for x_t in grid["x_t"]:
                    probe = ProbeConfig(i0=i0, x_t=x_t)
                    out = offset_outcomes(ens, probe, offsets_alpha, offsets_beta)
                    xi_oracle = oracle_xi(ens, probe, out).xi_sq.tolist()
                    for (da, db), i_alpha, i_beta, xi_o in zip(
                        offsets, out.i_alpha.tolist(), out.i_beta.tolist(), xi_oracle
                    ):
                        one = MeasurementOutcome(i_alpha, i_beta)
                        xi_c = float(xi_closed_form(ens, probe, one).xi_sq)
                        rel = abs(xi_c - xi_o) / xi_o
                        max_rel = max(max_rel, rel if math.isfinite(rel) else math.inf)
                        # "not <=", so that a NaN error fails the gate too
                        if not rel <= adaptive_gate:
                            adaptive_ok = False
                        rows.append(
                            {
                                "n_atoms": n,
                                "i0": i0,
                                "product": prod,
                                "x_t": x_t,
                                "offset_alpha": da,
                                "offset_beta": db,
                                "i_alpha": i_alpha,
                                "i_beta": i_beta,
                                "xi_oracle": xi_o,
                                "xi_closed": xi_c,
                                "rel_err": rel,
                            }
                        )
    return {
        "rows": rows,
        "max_rel_err": max_rel,
        "pass_flat_gate": max_rel <= GATE,
        "pass_adaptive_gate": adaptive_ok,
    }
