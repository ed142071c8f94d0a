import math

import numpy as np
import pytest

from spinsq import (
    EnsembleSpec,
    MeasurementOutcome,
    ProbeConfig,
    compare_report,
    conditional_xi_distribution,
    fock_moments,
    fock_posterior,
    intensity_moments_exact,
    most_probable_outcome,
    oracle_xi,
    posterior_weights,
    sample_outcome,
    xi_closed_form,
    xi_most_probable,
)

ENS12 = EnsembleSpec(n_atoms=12, phi=0.05)
PROBE9 = ProbeConfig(i0=9.0, x_t=math.pi / 4)


def test_oracle_xi_frozen_small_system():
    out = most_probable_outcome(PROBE9)
    r = oracle_xi(ENS12, PROBE9, out)
    assert r.jz2 == pytest.approx(2.0097504259262915, rel=1e-12)
    assert r.jx == pytest.approx(5.820218411576087, rel=1e-12)
    assert r.xi_sq == pytest.approx(0.71194232172915, rel=1e-12)


def test_oracle_xi_frozen_desk_scale():
    ens = EnsembleSpec(n_atoms=400, phi=math.sqrt(4.0 / (2 * 100 * 400)))
    probe = ProbeConfig(i0=100.0, x_t=math.pi / 4)
    out = most_probable_outcome(probe)
    r = oracle_xi(ens, probe, out)
    assert r.xi_sq == pytest.approx(0.204911989503997, rel=1e-10)


def test_fock_posterior_matches_series_kernel():
    # the explicit Kraus simulation and the series-kernel posterior must
    # agree to machine precision on diagonal and first off-diagonal
    out = most_probable_outcome(PROBE9)
    rho = fock_posterior(ENS12, PROBE9, out, cutoff=150)
    pw = posterior_weights(ENS12, PROBE9, out, method="exact")

    shift = pw.log_w.max()
    w = np.exp(pw.log_w - shift)
    w /= w.sum()
    assert np.max(np.abs(np.diag(rho) - w)) < 1e-13

    # off-diagonal agreement is checked through the collective moments
    fm = fock_moments(rho)
    ora = oracle_xi(ENS12, PROBE9, out)
    assert fm.jz2 == pytest.approx(ora.jz2, rel=1e-7)
    assert fm.jx == pytest.approx(ora.jx, rel=1e-7)
    assert fm.xi_sq == pytest.approx(ora.xi_sq, rel=1e-7)


def test_fock_posterior_past_single_exponential_underflow():
    # gamma^2 + I ~ 2000 here: a light factor started from e^{-(gamma^2 + I)/2}
    # underflows to 0 and gives NaN; e^{-gamma^2/2} and e^{-I/2} do not
    ens = EnsembleSpec(n_atoms=4, phi=math.sqrt(1.0 / (8 * 300.0)))
    probe = ProbeConfig(i0=300.0, x_t=math.pi / 8)
    out = most_probable_outcome(probe)
    fm = fock_moments(fock_posterior(ens, probe, out, cutoff=2500))
    assert fm.xi_sq == pytest.approx(oracle_xi(ens, probe, out).xi_sq, rel=1e-10)


def test_fock_posterior_is_density_matrix():
    out = most_probable_outcome(PROBE9)
    rho = fock_posterior(ENS12, PROBE9, out)
    assert np.trace(rho) == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(rho - rho.T)) < 1e-15
    assert np.all(np.linalg.eigvalsh(rho) > -1e-12)


def test_fock_posterior_refuses_truncated_tail():
    # N = 8, X_t = pi/8, 2 I0 N phi^2 = 1, mean outcome, cutoff 40: with the
    # dropped tail renormalized away, xi^2 would be 0.649 at I0 = 9 (oracle
    # 0.650), 4.71 at I0 = 25 (oracle 0.630), 1884 at I0 = 100, NaN at 2000
    for i0 in (9.0, 25.0, 100.0, 2000.0):
        ens = EnsembleSpec(n_atoms=8, phi=math.sqrt(1.0 / (16.0 * i0)))
        probe = ProbeConfig(i0=i0, x_t=math.pi / 8)
        with pytest.raises(ValueError, match="Fock cutoff 40"):
            fock_posterior(ens, probe, most_probable_outcome(probe))
    # outcomes far above the light's mean: every kept term underflows, and
    # the trace of 0 would give NaN
    ens, probe = EnsembleSpec(n_atoms=4, phi=0.01), ProbeConfig(i0=0.01, x_t=math.pi / 4)
    with pytest.raises(ValueError, match="trace of 0"):
        fock_posterior(ens, probe, MeasurementOutcome(2000.0, 2000.0))


def test_sample_outcome_deterministic_frozen():
    ens = EnsembleSpec(n_atoms=400, phi=math.sqrt(4.0 / (2 * 100 * 400)))
    probe = ProbeConfig(i0=100.0, x_t=math.pi / 4)
    s1 = sample_outcome(ens, probe, seed=42)
    s2 = sample_outcome(ens, probe, seed=42)
    assert (s1.i_alpha, s1.i_beta) == (165.0, 139.0)
    assert s1 == s2


def test_sample_outcome_phi_zero_mean():
    # with phi = 0 the outcomes are plain Poisson around the coherent means
    ens = EnsembleSpec(n_atoms=100, phi=0.0)
    probe = ProbeConfig(i0=25.0, x_t=math.pi / 4)
    rng = np.random.default_rng(0)
    draws = np.array(
        [sample_outcome(ens, probe, rng).i_alpha for _ in range(4000)]
    )
    mean = 4 * 25.0 * math.cos(math.pi / 4) ** 2
    assert draws.mean() == pytest.approx(mean, abs=4 * math.sqrt(mean / 4000))


def test_sample_outcome_total_variance_matches_formula():
    # MC total-intensity variance vs the closed-form second-order expression
    # at X_t = 0 (pure shot noise there, tight prediction)
    n, i0 = 400, 100.0
    phi = 7.07e-3
    ens = EnsembleSpec(n_atoms=n, phi=phi)
    probe = ProbeConfig(i0=i0, x_t=0.0)
    rng = np.random.default_rng(3)
    tot = np.array(
        [
            (lambda s: s.i_alpha + s.i_beta)(sample_outcome(ens, probe, rng))
            for _ in range(20000)
        ]
    )
    var_exact = intensity_moments_exact(ens, probe).var_total
    se = var_exact * math.sqrt(2.0 / 20000)  # rough SE of a sample variance
    assert abs(tot.var(ddof=1) - var_exact) < 4 * se


def test_vector_sample_outcome_normal_branch_law():
    # lambda ~ 2e7 > POISSON_NORMAL_SWITCH: every draw takes the Normal branch;
    # phi makes Var(lambda) about E[lambda], so the Normal's own variance
    # lambda is half of each mode's variance and a wrong width shows
    n_draws = 200_000
    ens = EnsembleSpec(n_atoms=400, phi=1.4e-5)
    probe = ProbeConfig(i0=1e7, x_t=0.6)
    out = sample_outcome(ens, probe, seed=11, size=n_draws)
    assert out.i_alpha.shape == out.i_beta.shape == (n_draws,)
    ex = intensity_moments_exact(ens, probe)
    for draws, mean, var in (
        (out.i_alpha, ex.mean_alpha, ex.var_alpha),
        (out.i_beta, ex.mean_beta, ex.var_beta),
    ):
        assert abs(draws.mean() - mean) < 4.0 * math.sqrt(var / n_draws)
        m4 = np.mean((draws - draws.mean()) ** 4)
        var_se = math.sqrt((m4 - draws.var(ddof=1) ** 2) / n_draws)
        assert abs(draws.var(ddof=1) - var) < 4.0 * var_se


def test_vector_sample_outcome_zero_mean_gives_exact_zeros():
    # phi = 0, x_t = 0: lambda_beta = 4 I0 sin^2(0) = 0 on every draw, while
    # lambda_alpha = 4 I0 sits on the Normal (I0 = 1e7) or Poisson branch
    for i0 in (1e7, 25.0):
        out = sample_outcome(
            EnsembleSpec(n_atoms=50, phi=0.0), ProbeConfig(i0=i0, x_t=0.0), seed=2, size=500
        )
        assert np.all(out.i_beta == 0.0)
        assert np.all(out.i_alpha > 0.0)


def test_conditional_xi_distribution_rows_are_closed_form_of_their_outcomes():
    ens = EnsembleSpec(n_atoms=400, phi=7.07e-3)
    probe = ProbeConfig(i0=100.0, x_t=0.7)
    t = conditional_xi_distribution(ens, probe, n_samples=300, seed=4)
    expected = [
        xi_closed_form(ens, probe, MeasurementOutcome(a, b)).xi_sq
        for a, b in t.rows[:, :2].tolist()
    ]
    np.testing.assert_array_equal(t.rows[:, 2], expected)


def test_conditional_xi_distribution_exact_frozen():
    # frozen for the vector stream: binomial(size=60), then Poisson arrays
    t = conditional_xi_distribution(
        ENS12, PROBE9, n_samples=60, seed=3, method="exact"
    )
    assert t.rows.shape == (60, 3)
    assert t.quantiles[0.5] == pytest.approx(0.7657654326803325, rel=1e-10)
    assert t.quantiles[0.25] <= t.quantiles[0.5] <= t.quantiles[0.75]


def test_conditional_xi_median_dominates_most_probable_value():
    # random outcomes can only do worse on average than the most probable one
    n, i0 = 400, 100.0
    phi = math.sqrt(4.0 / (2 * i0 * n))
    ens = EnsembleSpec(n_atoms=n, phi=phi)
    probe = ProbeConfig(i0=i0, x_t=math.pi / 4)
    t = conditional_xi_distribution(
        ens, probe, n_samples=60, seed=3, method="second_order"
    )
    xi_mp = xi_closed_form(ens, probe, most_probable_outcome(probe)).xi_sq
    assert t.quantiles[0.5] >= xi_mp
    with pytest.raises(ValueError):
        conditional_xi_distribution(ens, probe, n_samples=-1)
    with pytest.raises(ValueError):
        conditional_xi_distribution(ens, probe, n_samples=1, method="bogus")
    # phi^2 N = 100: outside the second-order regime, refused
    with pytest.raises(ValueError, match="phi"):
        conditional_xi_distribution(EnsembleSpec(n_atoms=400, phi=0.5), probe, n_samples=1)


def test_compare_report_means_only_within_flat_gate():
    rep = compare_report(offsets=((0, 0),), gate=0.05)
    assert rep["pass_flat_gate"]
    assert rep["pass_adaptive_gate"]
    assert rep["max_rel_err"] < 0.05
    assert len(rep["rows"]) == 3 * 2 * 3 * 3  # N x I0 x product x X_t


def test_compare_report_adaptive_gate_on_axis_offsets():
    # off-mean outcomes exceed the flat 5% gate but stay within the adaptive
    # max(5%, phi sqrt N) gate that tracks the expansion's intrinsic accuracy
    grid = {"n_atoms": (400,), "i0": (100.0,), "product": (1.0, 4.0)}
    rep = compare_report(grid=grid, gate=0.05)
    assert rep["pass_adaptive_gate"]


def test_compare_report_fails_both_gates_on_a_non_finite_row():
    # at N = 2 a -3 sigma outcome clamps I_alpha to 0, where the oracle's
    # <Jx> vanishes: xi_oracle = inf and rel_err = nan, which must fail both
    # gates rather than slip past max() and a "> bound" test
    grid = {"n_atoms": (2,), "i0": (4.0,), "product": (4.0,), "x_t": (math.pi / 8,)}
    with pytest.warns(UserWarning, match="phi"):  # phi^2 N = 0.5
        rep = compare_report(grid=grid, offsets=((-3, 0),))
    (row,) = rep["rows"]
    assert row["xi_oracle"] == math.inf
    assert math.isnan(row["rel_err"])
    assert rep["max_rel_err"] == math.inf
    assert not rep["pass_flat_gate"]
    assert not rep["pass_adaptive_gate"]


def test_oracle_vs_closed_form_tracks_most_probable_law():
    # both paths land on 1/(1 + eta d) at the means, oracle within a few %
    n, i0, prod = 1000, 50.0, 4.0
    phi = math.sqrt(prod / (2 * i0 * n))
    ens = EnsembleSpec(n_atoms=n, phi=phi)
    probe = ProbeConfig(i0=i0, x_t=math.pi / 8)
    out = most_probable_outcome(probe)
    xi_o = oracle_xi(ens, probe, out).xi_sq
    assert xi_o == pytest.approx(1.0 / (1.0 + prod), rel=0.05)
