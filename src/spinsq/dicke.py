"""Coherent-spin-state / Dicke-basis bookkeeping.

A symmetric ensemble of N spin-1/2 atoms polarized along x is described in
the Dicke basis |m>, m = -N/2 .. N/2, by binomial weights

    w_m = C(N, N/2 + m) / 2^N.

Everything here works in log space so that posterior reweighting by factors
of order exp(I0) cannot overflow.  Half-integer m (odd N) is supported by
indexing with the integer 2m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Sanity cap on N*phi: beyond this the second-order machinery downstream is
# meaningless and almost certainly indicates a unit error in the input.
PHI_N_CAP = 1e3


def m_values(n_atoms: int) -> np.ndarray:
    """The Dicke ladder m = -N/2 .. N/2 (half-integer when N is odd), ascending."""
    return np.arange(-n_atoms, n_atoms + 1, 2) / 2.0


@functools.lru_cache(maxsize=8)
def ladder(n_atoms: int) -> tuple:
    """Read-only (m, m^2, N/2 - m[:-1]) of ``m_values(n_atoms)``: the ladder,
    the weights of <Jz^2> and those of the <Jx> band, cached for 8 atom
    counts like ``log_binomial_weights``."""
    m = m_values(n_atoms)
    arrays = (m, m * m, n_atoms / 2.0 - m[:-1])
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class EnsembleSpec:
    """Atom count and dispersive phase shift per atom."""

    n_atoms: int
    phi: float = 0.0

    def __post_init__(self):
        if self.n_atoms < 1 or int(self.n_atoms) != self.n_atoms:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms}")
        if not math.isfinite(self.phi) or self.phi < 0:
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

    The arrays may carry one leading outcome axis, one row per outcome
    (shapes (k, N+1) and (k, N)); any other shape is refused.
    """

    n_atoms: int
    log_w: np.ndarray
    offdiag_logf: np.ndarray
    offdiag_sign: np.ndarray

    def __post_init__(self):
        n = self.n_atoms
        rows = np.shape(self.log_w)[:1] if np.ndim(self.log_w) == 2 else ()
        for name, length in (("log_w", n + 1), ("offdiag_logf", n), ("offdiag_sign", n)):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != rows + (length,):
                raise ValueError(
                    f"{name} must have shape {rows + (length,)}, got {value.shape}"
                )
            setattr(self, name, value)

    def normalized(self) -> np.ndarray:
        """Probability weights, exp-normalized with a max shift, per row."""
        shift = self.log_w.max(axis=-1, keepdims=True)
        w = np.exp(self.log_w - shift)
        return w / w.sum(axis=-1, keepdims=True)

    def moments(self) -> tuple:
        """(<Jz^2>, <Jx>) per row, as ``collective_moments`` defines them."""
        _, m2, rungs = ladder(self.n_atoms)
        shift = self.log_w.max(axis=-1, keepdims=True)
        w = np.exp(self.log_w - shift)
        band = np.exp(self.log_w[..., :-1] + self.offdiag_logf - shift) * self.offdiag_sign
        jx = (band * rungs).sum(axis=-1)
        norm = w.sum(axis=-1)
        # vecdot gives each row the bits of np.dot on it (a gemv would not)
        return np.vecdot(w, m2) / norm, jx / norm


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
        # <Jx> <= 0 is zeroed, so that N <Jz^2> / 0 gives the +inf sentinel;
        # np.multiply keeps a Python-float <Jx> (the shortcut's N/2) in numpy,
        # so that its square's overflow raises.  j * j is the correctly
        # rounded square, which the C library's pow is not
        j = np.multiply(jx, jx > 0)
        xi_sq = n_atoms * jz2 / (j * j)
        return cls(jz2=jz2, jx=jx, xi_sq=xi_sq, jx_zero=jx <= 0)


@functools.lru_cache(maxsize=8)
def log_binomial_weights(n_atoms: int) -> np.ndarray:
    """Read-only log C(N, N/2 + m) / 2^N, exactly symmetric in m.  The cache
    keeps 8 atom counts of N + 1 floats each: <= 128 KiB up to ORACLE_N_CAP."""
    from scipy.special import gammaln  # local: only the exact paths pay for scipy

    log_k_fact = gammaln(np.arange(1, n_atoms + 2))  # log k! for k = 0 .. n
    log_w = gammaln(n_atoms + 1) - log_k_fact - log_k_fact[::-1] - n_atoms * np.log(2.0)
    # enforce exact m -> -m symmetry against round-off
    log_w = 0.5 * (log_w + log_w[::-1])
    log_w.flags.writeable = False
    return log_w


def css_log_weights(n_atoms: int) -> DickeWeights:
    """Exact log-binomial CSS weights, a fresh ``DickeWeights`` around the
    cached read-only ``log_binomial_weights(n_atoms)``."""
    if n_atoms < 1 or int(n_atoms) != n_atoms:
        raise ValueError(f"n_atoms must be a positive integer, got {n_atoms}")
    n = int(n_atoms)
    return DickeWeights(
        n_atoms=n, log_w=log_binomial_weights(n), offdiag_logf=np.zeros(n), offdiag_sign=np.ones(n)
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
    return SqueezingResult.from_moments(weights.n_atoms, *weights.moments())
