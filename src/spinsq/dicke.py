"""Coherent-spin-state / Dicke-basis bookkeeping.

A symmetric ensemble of N spin-1/2 atoms polarized along x is described in
the Dicke basis |m>, m = -N/2 .. N/2, by binomial weights

    w_m = C(N, N/2 + m) / 2^N.

Everything here works in log space so that posterior reweighting by factors
of order exp(I0) cannot overflow.  Half-integer m (odd N) is supported by
indexing with the integer 2m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# Sanity cap on N*phi: beyond this the second-order machinery downstream is
# meaningless and almost certainly indicates a unit error in the input.
PHI_N_CAP = 1e3


def m_values(n_atoms: int) -> np.ndarray:
    """The Dicke ladder m = -N/2 .. N/2 (half-integer when N is odd), ascending."""
    return np.arange(-n_atoms, n_atoms + 1, 2) / 2.0


@dataclass(frozen=True)
class EnsembleSpec:
    """Atom count and dispersive phase shift per atom."""

    n_atoms: int
    phi: float = 0.0

    def __post_init__(self):
        if self.n_atoms < 1 or int(self.n_atoms) != self.n_atoms:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms}")
        if not np.isfinite(self.phi) or self.phi < 0:
            raise ValueError(f"phi must be finite and >= 0, got {self.phi}")
        if self.phi * self.n_atoms > PHI_N_CAP:
            raise ValueError(
                f"phi * n_atoms = {self.phi * self.n_atoms:.3g} exceeds the sanity "
                f"cap {PHI_N_CAP:.0e}; check units"
            )


@dataclass
class DickeWeights:
    """Log-domain diagonal weights and the off-diagonal band that gives <Jx>.

    ``log_w[i]`` is the unnormalized log-weight of Dicke index
    m = -N/2 + i.  ``offdiag_logf``/``offdiag_sign`` hold the length-N band
    F(m, m+1), as log-magnitude and sign, relative to the binomial prior:
    <m|rho|m+1> sqrt((N/2-m)(N/2+m+1)) = w_m (N/2-m) F(m, m+1), which the
    prior itself satisfies with F == 1 (log F = 0, sign +1).  A Dicke state,
    which has no coherences, has log F = -inf.
    """

    n_atoms: int
    log_w: np.ndarray
    offdiag_logf: np.ndarray
    offdiag_sign: np.ndarray

    def __post_init__(self):
        n = self.n_atoms
        for name, length in (("log_w", n + 1), ("offdiag_logf", n), ("offdiag_sign", n)):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (length,):
                raise ValueError(f"{name} must have length {length}, got shape {value.shape}")
            setattr(self, name, value)

    def normalized(self) -> np.ndarray:
        """Probability weights, exp-normalized with a max shift."""
        shift = self.log_w.max()
        w = np.exp(self.log_w - shift)
        return w / w.sum()


@dataclass(frozen=True)
class SqueezingResult:
    """Collective moments and the squeezing parameter xi^2 = N <Jz^2> / <Jx>^2."""

    jz2: float
    jx: float
    xi_sq: float
    jx_zero: bool = False

    @classmethod
    @np.errstate(over="raise", divide="ignore")
    def from_moments(cls, n_atoms: int, jz2, jx) -> SqueezingResult:
        """xi^2 from the moments, elementwise over arrays of outcomes; a
        vanishing <Jx> gives +inf flagged ``jx_zero``, an overflow raises."""
        # float_power squares with the C library's pow, as Python's ** does
        # (np.square and x * x round some squares differently); <Jx> <= 0 is
        # zeroed, so that N <Jz^2> / 0 gives the +inf sentinel
        xi_sq = n_atoms * jz2 / np.float_power(jx * (jx > 0), 2.0)
        return cls(jz2=jz2, jx=jx, xi_sq=xi_sq, jx_zero=jx <= 0)


def css_log_weights(n_atoms: int) -> DickeWeights:
    """Exact log-binomial CSS weights via log-gamma.

    w_m = C(N, N/2 + m) / 2^N, stored as log weights; exactly symmetric in m.
    """
    if n_atoms < 1 or int(n_atoms) != n_atoms:
        raise ValueError(f"n_atoms must be a positive integer, got {n_atoms}")
    n = int(n_atoms)
    log_k_fact = gammaln(np.arange(1, n + 2))  # log k! for k = 0 .. n
    log_w = gammaln(n + 1) - log_k_fact - log_k_fact[::-1] - n * np.log(2.0)
    # enforce exact m -> -m symmetry against round-off
    log_w = 0.5 * (log_w + log_w[::-1])
    return DickeWeights(
        n_atoms=n, log_w=log_w, offdiag_logf=np.zeros(n), offdiag_sign=np.ones(n)
    )


def collective_moments(weights: DickeWeights) -> SqueezingResult:
    """<Jz^2>, <Jx> and xi^2 from (possibly posterior-reweighted) weights.

    <Jz^2> = sum_m w_m m^2 / sum_m w_m.
    <Jx>   = sum_m w_m (N/2 - m) F(m, m+1) / sum_m w_m: the binomial ladder
    identity c_m c_{m+1} sqrt((N/2-m)(N/2+m+1)) = c_m^2 (N/2-m) of the prior
    folds the raising and lowering contributions into this single sum over
    the band.

    A vanishing <Jx> yields xi_sq = +inf with the ``jx_zero`` flag set rather
    than an exception.
    """
    n = weights.n_atoms
    m = m_values(n)
    shift = weights.log_w.max()
    w = np.exp(weights.log_w - shift)
    norm = w.sum()

    jz2 = float(np.dot(w, m * m) / norm)
    contrib = (
        np.exp(weights.log_w[:-1] + weights.offdiag_logf - shift)
        * weights.offdiag_sign
        * (n / 2.0 - m[:-1])
    )
    jx = float(contrib.sum() / norm)

    return SqueezingResult.from_moments(n, jz2, jx)
