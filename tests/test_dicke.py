import math

import numpy as np
import pytest

from spinsq import (
    DickeWeights,
    EnsembleSpec,
    collective_moments,
    css_log_weights,
)
from spinsq.dicke import m_values


def test_css_n2_weights():
    w = css_log_weights(2).normalized()
    assert np.allclose(w, [0.25, 0.5, 0.25], atol=1e-15)


def test_css_n1_half_integer_m():
    dw = css_log_weights(1)
    assert np.allclose(dw.normalized(), [0.5, 0.5], atol=1e-15)
    assert np.allclose(m_values(1), [-0.5, 0.5])
    assert np.array_equal(m_values(5), [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])


def test_css_n60_second_moment_is_n_over_4():
    dw = css_log_weights(60)
    w, m = dw.normalized(), m_values(dw.n_atoms)
    assert np.dot(w, m * m) == pytest.approx(15.0, rel=1e-12)


def test_css_normalization_and_symmetry():
    for n in (3, 10, 61, 500):
        dw = css_log_weights(n)
        w = dw.normalized()
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.array_equal(dw.log_w, dw.log_w[::-1])
        assert abs(np.dot(w, m_values(n))) < 1e-12
        assert np.dot(w, m_values(n) ** 2) == pytest.approx(n / 4.0, rel=1e-12)


def test_css_rejects_bad_n():
    with pytest.raises(ValueError):
        css_log_weights(0)
    with pytest.raises(ValueError):
        css_log_weights(-3)


def test_collective_moments_css_n100():
    r = collective_moments(css_log_weights(100))
    assert r.jz2 == pytest.approx(25.0, rel=1e-12)
    assert r.jx == pytest.approx(50.0, rel=1e-12)
    assert r.xi_sq == pytest.approx(1.0, rel=1e-12)


def dicke_state(n_atoms, index):
    """Weights of the Dicke state m = -N/2 + index: one diagonal entry, and a
    band of -inf, since a Dicke state has no coherences."""
    log_w = np.full(n_atoms + 1, -1e4)
    log_w[index] = 0.0
    return DickeWeights(
        n_atoms=n_atoms,
        log_w=log_w,
        offdiag_logf=np.full(n_atoms, -np.inf),
        offdiag_sign=np.ones(n_atoms),
    )


def test_collective_moments_delta_distribution():
    # all weight at m = 0 for N = 4: <Jz^2> = <Jx> = 0, so xi^2 = 0/0
    with np.errstate(invalid="ignore"):
        r = collective_moments(dicke_state(4, 2))
    assert r.jz2 == pytest.approx(0.0, abs=1e-12)
    assert r.jx == 0.0
    assert r.jx_zero


def test_dicke_state_m1_has_no_jx():
    # |m = 1> of N = 4: <Jz^2> = 1 and no coherences, so <Jx> = 0 and xi^2 is
    # the +inf sentinel (the ladder identity of the CSS would give <Jx> = 1)
    r = collective_moments(dicke_state(4, 3))
    assert r.jz2 == pytest.approx(1.0, rel=1e-12)
    assert r.jx == 0.0
    assert r.jx_zero
    assert r.xi_sq == math.inf


def test_jx_zero_sentinel():
    # all weight at the stretched state m = N/2, where (N/2 - m) kills <Jx>
    r = collective_moments(dicke_state(4, 4))
    assert r.jx_zero
    assert math.isinf(r.xi_sq)


def test_binomial_ladder_recursion_log_space():
    # c_m c_{m+1} sqrt((N/2-m)(N/2+m+1)) = c_m^2 (N/2-m), checked in log space
    for n in range(1, 61):
        dw = css_log_weights(n)
        m = m_values(n)[:-1]
        lhs = 0.5 * (dw.log_w[:-1] + dw.log_w[1:]) + 0.5 * np.log(
            (n / 2.0 - m) * (n / 2.0 + m + 1.0)
        )
        rhs = dw.log_w[:-1] + np.log(n / 2.0 - m)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gaussian_limit_total_variation():
    for n in (400, 1000):
        dw = css_log_weights(n)
        w, m = dw.normalized(), m_values(dw.n_atoms)
        gauss = np.exp(-(m * m) / (n / 2.0))
        gauss /= gauss.sum()
        tvd = 0.5 * np.abs(w - gauss).sum()
        assert tvd < 0.5 / math.sqrt(n)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=0)
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=10, phi=-0.1)
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=10**6, phi=1.0)  # phi * N above sanity cap


def test_dicke_weights_shape_validation():
    band = {"offdiag_logf": np.zeros(4), "offdiag_sign": np.ones(4)}
    with pytest.raises(ValueError):
        DickeWeights(n_atoms=4, log_w=np.zeros(4), **band)
    with pytest.raises(ValueError):
        DickeWeights(n_atoms=4, log_w=np.zeros(5), offdiag_logf=np.zeros(3), offdiag_sign=np.ones(4))
    with pytest.raises(ValueError):
        DickeWeights(n_atoms=4, log_w=np.zeros(5), offdiag_logf=np.zeros(4), offdiag_sign=np.ones(5))


def test_dicke_weights_require_the_band():
    # <Jx> needs the band; there is no default that would assume the CSS's
    with pytest.raises(TypeError):
        DickeWeights(n_atoms=4, log_w=np.zeros(5))
    with pytest.raises(TypeError):
        DickeWeights(n_atoms=4, log_w=np.zeros(5), offdiag_logf=np.zeros(4))
    dw = css_log_weights(4)
    assert np.array_equal(dw.offdiag_logf, np.zeros(4))
    assert np.array_equal(dw.offdiag_sign, np.ones(4))
