"""The three spinsq benchmark workloads.

A builder turns (seed, size, workdir) into a :class:`Workload`: one *pass* of
calls into spinsq's public API or documented CLI, each paired with a check of
its output.  The seed moves phases, outcome-offset signs and RNG streams; it
never changes how much work a pass does.  ``size="tiny"`` is a seconds-long
version of the same pass for self-tests and for the reference check.  Why
each workload exists, and which layers it stresses, is in README.md.

Calls look spinsq functions up on their modules at call time
(``oracle.compare_report``, not a name bound here), so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from spinsq import backaction, cli, dicke, oracle, probe, squeezing

#: seed whose tiny pass is compared row by row against reference.json
DEFAULT_SEED = 0

#: seeded phase jitter (rad); small, so that the work per pass stays fixed
PHASE_JITTER = 0.05

#: per-row relative tolerance of xi^2 against recorded or re-derived values
REFERENCE_RTOL = 1e-9

#: sample means must lie within this many standard errors of the exact mean
MEAN_K_SE = 6.0

#: Fock-space cutoff for the micro-oracle cross-checks (I0 = 4)
FOCK_CUTOFF = 40

#: experiment-scale operating point shared by figure_grids and mc_sampling
EXP_I0, EXP_N, EXP_ETA, EXP_D = 1e11, 60_000_000_000, 0.32, 40.0


@dataclass
class Outcome:
    """What one checked call produced."""

    xi: list  # every xi^2 / xi'^2 value the call produced, in row order
    clamped: int = 0  # outcomes at 0 among the call's rows
    out_bytes: int = 0  # bytes the call wrote
    problems: list = field(default_factory=list)


@dataclass
class Call:
    label: str  # unique within a workload; keys reference.json
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    calls: list  # one pass
    #: run-level checks after all passes: [(problem, labels of failed calls)]
    finish: Callable[[], list] = lambda: []


def _finite_positive(values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# oracle_sweep
# ---------------------------------------------------------------------------

BASE_PHASES = (math.pi / 8, math.pi / 4, 3 * math.pi / 8)

#: (n_atoms, i0 values, products 2 I0 N phi^2, base phases, outcomes per
#: point); base phases None cycle through BASE_PHASES by product.  I0 <= 100
#: points are bound by per-element overhead, I0 = 1e4 points by the series
#: length sqrt(I0 * I).  Each class is cost-uniform, and the counts put the
#: median call in the middle of the N = 400 class and the tail call inside
#: the twelve-call N = 30, I0 = 1e4 class for any number of passes up to ten.
ORACLE_GRID = {
    "full": (
        (100, (50.0, 100.0), (0.5, 1.0, 4.0), None, 3),
        (400, (100.0,), (0.5, 1.0, 4.0), BASE_PHASES, 3),
        (30, (1e4,), (0.5, 1.0, 4.0), tuple(np.linspace(math.pi / 8, 3 * math.pi / 8, 4).tolist()), 3),
        (2000, (1e4,), (1.0,), (math.pi / 4,), 1),
    ),
    "tiny": (
        (100, (50.0,), (1.0, 4.0), None, 3),
        (20, (1e4,), (1.0,), (math.pi / 4,), 3),
    ),
}

#: Fock micro-oracle cross-checks at I0 = 4: atom counts and outcomes
#: (None: the most probable outcome)
FOCK_CHECKS = {
    "full": ((4, 8), ((None, None), (10.0, 3.0), (2.0, 14.0), (6.0, 9.0))),
    "tiny": ((4,), ((None, None),)),
}

def _compare_call(label, n, i0, prod, x_t, offsets) -> Call:
    grid = {"n_atoms": (n,), "i0": (i0,), "product": (prod,), "x_t": (x_t,)}

    def check(report) -> Outcome:
        rows = report["rows"]
        problems = []
        if len(rows) != len(offsets):
            problems.append(f"{len(rows)} rows for {len(offsets)} outcomes")
        # the adaptive gate max(5%, phi sqrt N) is the accuracy the theory
        # promises; the flat 5% gate is known-red at +/-1 sigma (3b)
        if not report["pass_adaptive_gate"]:
            problems.append(f"adaptive gate failed, max_rel_err={report['max_rel_err']:.4g}")
        xi = []
        for r in rows:
            xi += [r["xi_oracle"], r["xi_closed"]]
        if not _finite_positive(xi):
            problems.append("non-finite or non-positive xi^2")
        clamped = sum(r["i_alpha"] == 0.0 or r["i_beta"] == 0.0 for r in rows)
        return Outcome(xi, clamped, 0, problems)

    return Call(
        label,
        lambda: oracle.compare_report(grid=grid, offsets=offsets),
        check,
    )


def _fock_call(label, n, x_t, i_alpha, i_beta) -> Call:
    ens = dicke.EnsembleSpec(n_atoms=n, phi=0.05)
    pr = probe.ProbeConfig(i0=4.0, x_t=x_t)
    if i_alpha is None:
        out = backaction.most_probable_outcome(pr)
    else:
        out = backaction.MeasurementOutcome(i_alpha, i_beta)

    def run():
        rho = oracle.fock_posterior(ens, pr, out, cutoff=FOCK_CUTOFF)
        post = backaction.posterior_weights(ens, pr, out, method="exact")
        return np.diag(rho), oracle.fock_moments(rho), post.normalized(), dicke.collective_moments(post)

    def check(result) -> Outcome:
        rho_diag, fock_xi, w, exact_xi = result
        xi = [fock_xi.xi_sq, exact_xi.xi_sq]
        problems = []
        if not _finite_positive(xi):
            problems.append("non-finite or non-positive xi^2")
        elif _rel(fock_xi.xi_sq, exact_xi.xi_sq) > 1e-8:
            problems.append(f"Fock xi^2 {fock_xi.xi_sq!r} != exact {exact_xi.xi_sq!r}")
        if np.max(np.abs(rho_diag - w)) > 1e-8:
            problems.append("Fock and exact posterior diagonals differ by > 1e-8")
        return Outcome(xi, 0, 0, problems)

    return Call(label, run, check)


def oracle_sweep(seed: int, size: str, workdir: Path) -> Workload:
    """compare_report per desk-scale grid point, plus Fock cross-checks."""
    rng = np.random.default_rng(seed)

    def jitter():
        return float(rng.uniform(-PHASE_JITTER, PHASE_JITTER))

    def sign():
        return int(rng.choice((-1, 1)))

    calls = []
    atom_counts, fock_outcomes = FOCK_CHECKS[size]
    for n in atom_counts:
        for i_alpha, i_beta in fock_outcomes:
            if i_alpha is not None:
                i_alpha, i_beta = i_alpha + jitter(), i_beta + jitter()
            label = f"{len(calls):02d} fock N={n}"
            calls.append(_fock_call(label, n, math.pi / 4 + jitter(), i_alpha, i_beta))

    for n, i0_values, products, phases, n_out in ORACLE_GRID[size]:
        for i0 in i0_values:
            for k, prod in enumerate(products):
                for base in phases or (BASE_PHASES[k % 3],):
                    offsets = ((0, 0), (sign(), 0), (0, sign()))[:n_out]
                    label = f"{len(calls):02d} compare_report N={n} I0={i0:g} prod={prod:g}"
                    calls.append(_compare_call(label, n, i0, prod, base + jitter(), offsets))
    return Workload("oracle_sweep", calls)


# ---------------------------------------------------------------------------
# figure_grids
# ---------------------------------------------------------------------------

FIG_SIZES = {
    "full": {"grid_points": 101, "eta_points": 200, "reidc_d": (10, 40), "alkali_d": (16, 51, 75),
             "grid_d": tuple(range(4, 101, 4))},
    "tiny": {"grid_points": 5, "eta_points": 10, "reidc_d": (10, 40), "alkali_d": (16,),
             "grid_d": (8, 40)},
}


def _read_csv(path: Path):
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    return next(reader), list(reader)


def _xi_prime_reidc(eta: float, d: float) -> float:
    return 1.0 / ((1.0 + eta * d) * (1.0 - eta) ** 2)


def _xi_prime_alkali(eta: float, d: float) -> float:
    return 1.0 / (1.0 + eta * d) + eta / (1.0 - eta) + eta / (1.0 - eta) ** 2


def _check_fig3(header, rows, grid_points, n_phases) -> Outcome:
    problems = []
    per_phase = grid_points**2
    if header != ["x_t", "i_alpha", "i_beta", "xi_sq"] or len(rows) != n_phases * per_phase:
        return Outcome([], problems=[f"fig3: columns {header}, {len(rows)} rows"])
    xi = [float(r[3]) for r in rows]
    if not _finite_positive(xi):
        problems.append("fig3: non-finite or non-positive xi^2")
    # the centre of each phase's grid is the most probable outcome, where the
    # closed form reduces to the canonical 1 / (1 + eta d)
    expected = 1.0 / (1.0 + EXP_ETA * EXP_D)
    for k in range(n_phases):
        centre = xi[k * per_phase + (grid_points // 2) * grid_points + grid_points // 2]
        if _rel(centre, expected) > 1e-9:
            problems.append(f"fig3 centre xi^2 {centre!r} != 1/(1+eta d) = {expected!r}")
    clamped = sum(float(r[1]) == 0.0 or float(r[2]) == 0.0 for r in rows)
    return Outcome(xi, clamped, 0, problems)


def _check_fig4(header, rows, expected_rows) -> Outcome:
    if header != ["model", "d", "eta", "xi_prime_sq"] or len(rows) != expected_rows:
        return Outcome([], problems=[f"fig4: columns {header}, {len(rows)} rows"])
    formulas = {"reidc": _xi_prime_reidc, "reidc2d": _xi_prime_reidc, "alkali": _xi_prime_alkali}
    xi, bad = [], 0
    for model, d, eta, value in rows:
        xi.append(float(value))
        if _rel(xi[-1], formulas[model](float(eta), float(d))) > 1e-12:
            bad += 1
    return Outcome(xi, problems=[f"fig4: {bad} rows off the analytic xi'^2"] if bad else [])


def _check_planner(header, rows, n_rows) -> Outcome:
    """table1 / plan rows at the optimal eta: xi'^2 = 1/((1-eta)^2 (1+eta d))."""
    if len(rows) != n_rows or "xi_prime_sq" not in header:
        return Outcome([], problems=[f"planner: columns {header}, {len(rows)} rows"])
    col = {name: i for i, name in enumerate(header)}
    eta_col = col.get("eta_opt", col.get("eta"))
    xi, problems = [], []
    for r in rows:
        d, eta, value = float(r[col["d"]]), float(r[eta_col]), float(r[col["xi_prime_sq"]])
        xi.append(value)
        if _rel(eta, (d - 2.0) / (3.0 * d)) > 1e-12 or _rel(value, _xi_prime_reidc(eta, d)) > 1e-12:
            problems.append(f"planner row {r[0]}: eta={eta!r}, xi'^2={value!r} off the closed form")
    return Outcome(xi, problems=problems)


def _cli_call(label, workdir: Path, command: str, config: str, check) -> Call:
    ini = workdir / f"{label}.ini"
    out = workdir / f"{label}.csv"
    ini.write_text(config)
    argv = ["--config", str(ini), "--out", str(out), command]

    def checked(code) -> Outcome:
        if code != 0:
            return Outcome([], problems=[f"spinsq {command} exited {code}"])
        result = check(*_read_csv(out))
        result.out_bytes = out.stat().st_size
        return result

    return Call(label, lambda: cli.main(argv), checked)


def figure_grids(seed: int, size: str, workdir: Path) -> Workload:
    """In-process CLI runs: fig3 at experiment scale, per panel and whole, fig4, table1, plan."""
    rng = np.random.default_rng(seed)
    sz = FIG_SIZES[size]
    grid = sz["grid_points"]
    workdir.mkdir(parents=True, exist_ok=True)

    def phases():
        """One singular phase (0 or pi/2, nudged by the CLI) and three generic ones."""
        singular = float(rng.choice((0.0, math.pi / 2)))
        return [singular] + [b + float(rng.uniform(-PHASE_JITTER, PHASE_JITTER)) for b in BASE_PHASES]

    def fig3(label, x_t_list):
        config = (
            f"[fig3]\ni0 = {EXP_I0!r}\nn_atoms = {EXP_N}\neta = {EXP_ETA!r}\nd = {EXP_D!r}\n"
            f"grid_points = {grid}\nx_t = {' '.join(map(repr, x_t_list))}\n"
        )
        n = len(x_t_list)
        return _cli_call(label, workdir, "fig3", config, lambda h, r: _check_fig3(h, r, grid, n))

    # fig3 per panel (one phase a call) and as whole four-panel figures; with
    # three cheaper and three dearer calls around the four panel calls, the
    # median call is a panel call
    calls = [fig3(f"fig3_panel{k}", [x_t]) for k, x_t in enumerate(phases())]
    calls += [fig3(f"fig3_figure{k}", phases()) for k in range(3)]

    eta_max = 0.8 + float(rng.uniform(-0.05, 0.05))
    d_lists = {key: sz[key] for key in ("reidc_d", "alkali_d", "grid_d")}
    fig4_config = f"[fig4]\neta_max = {eta_max!r}\neta_points = {sz['eta_points']}\n" + "".join(
        f"{key} = {' '.join(map(str, values))}\n" for key, values in d_lists.items()
    )
    fig4_rows = sz["eta_points"] * sum(map(len, d_lists.values()))
    calls.append(
        _cli_call("fig4", workdir, "fig4", fig4_config, lambda h, r: _check_fig4(h, r, fig4_rows))
    )
    calls.append(
        _cli_call("table1", workdir, "table1", "", lambda h, r: _check_planner(h, r, 2))
    )
    material = str(rng.choice(("eu", "pr")))
    d = float(rng.uniform(10.0, 40.0))
    calls.append(
        _cli_call(
            "plan", workdir, "plan", f"[plan]\nmaterial = {material}\nd = {d!r}\n",
            lambda h, r: _check_planner(h, r, 1),
        )
    )
    return Workload("figure_grids", calls)


# ---------------------------------------------------------------------------
# mc_sampling
# ---------------------------------------------------------------------------

#: samples per conditional_xi_distribution call; large enough that a run
#: makes ~100 calls, so the tail call is a p90, not a one-off stall
MC_SAMPLES = {"full": 20000, "tiny": 50}

#: rows per call whose xi^2 is re-derived from their outcome
MC_ROWS_RECHECKED = 5

#: calls per pass at each scale.  Desk calls outnumber experiment calls 3:1
#: so that the median call sits inside the desk class, whichever class is
#: the cheaper one.
MC_CALLS = {"desk": 3, "experiment": 1}


def _mixture_moments(n_atoms: int, phi: float, i0: float, x_t: float):
    """Exact means and variances of (I_alpha, I_beta) under the outcome law.

    m is binomial over the Dicke ladder, so E[cos 2 m phi] = cos(phi)^N; with
    lambda_alpha = 2 I0 (1 + cos(2 X_t - 2 m phi)) and lambda_beta =
    2 I0 (1 - cos(2 X_t + 2 m phi)) the mixture means follow, and the
    variance of a Poisson (or Normal(lam, lam)) mixture is E[lam] + Var(lam).
    """
    c1 = math.exp(n_atoms * math.log1p(-2.0 * math.sin(phi / 2.0) ** 2))  # cos(phi)^N
    c2 = math.exp(n_atoms * math.log1p(-2.0 * math.sin(phi) ** 2))  # cos(2 phi)^N
    shift = math.cos(2.0 * x_t) * c1
    var_lam = 4.0 * i0 * i0 * (0.5 * (1.0 + math.cos(4.0 * x_t) * c2) - shift * shift)
    means = (2.0 * i0 * (1.0 + shift), 2.0 * i0 * (1.0 - shift))
    return means, tuple(m + var_lam for m in means)


def _xi_second_order(ens, pr, i_alpha: float, i_beta: float) -> float:
    """Closed-form conditional xi^2 (exact <Jx>), re-derived here as a check.

    Quadratic log-kernel coefficients W, Y, Z at outcome (I_alpha, I_beta),
    lambda = -2Y - Z, then the Gaussian-integral moments
    <Jz^2> = (N/4) [1/(1+s) + N phi^2 W^2/(1+s)^2] with s = N phi^2 lambda / 2 and
    <Jx> = e^{Y phi^2 + W phi} (aN - b') / (2a) e^{(b'^2 - b^2) / 4a}.
    """
    n, phi, i0, x = ens.n_atoms, ens.phi, pr.i0, pr.x_t
    c, s = math.cos(x), math.sin(x)
    ra, rb = math.sqrt(i_alpha / i0), math.sqrt(i_beta / i0)
    w = 2.0 * i0 * (ra * s * c / abs(c) + rb * c * s / abs(s) - 2.0 * math.sin(2.0 * x))
    y = -0.5 * i0 * (ra * (1.0 + c * c) / abs(c) + rb * (1.0 + s * s) / abs(s))
    z = i0 * (ra * s * s / abs(c) + rb * c * c / abs(s))
    lam = -2.0 * y - z
    sq = n * phi * phi * lam / 2.0
    jz2 = (n / 4.0) * (1.0 / (1.0 + sq) + n * phi * phi * w * w / (1.0 + sq) ** 2)
    a, b = 2.0 / n + lam * phi * phi, 2.0 * w * phi
    bp = b - lam * phi * phi
    jx = math.exp(y * phi * phi + w * phi) * (a * n - bp) / (2.0 * a) * math.exp((bp * bp - b * b) / (4.0 * a))
    return n * jz2 / jx**2


def mc_sampling(seed: int, size: str, workdir: Path) -> Workload:
    """conditional_xi_distribution at desk scale (Poisson) and experiment scale (Normal)."""
    rng = np.random.default_rng(seed)
    n_samples = MC_SAMPLES[size]

    def phase():
        return math.pi / 4 + float(rng.uniform(-PHASE_JITTER, PHASE_JITTER))

    experiment = dicke.EnsembleSpec(
        n_atoms=EXP_N, phi=squeezing.phi_from_eta_d(EXP_ETA, EXP_D, EXP_N, EXP_I0)
    )
    probes = {  # scale -> (ensemble, probe)
        "desk": (dicke.EnsembleSpec(n_atoms=400, phi=7.07e-3), probe.ProbeConfig(i0=100.0, x_t=phase())),
        "experiment": (experiment, probe.ProbeConfig(i0=EXP_I0, x_t=phase())),
    }
    sums = {scale: [0, 0.0, 0.0] for scale in probes}  # samples, sum I_alpha, sum I_beta
    calls = []
    for scale, (ens, pr) in probes.items():
        for j in range(MC_CALLS[scale]):
            gen = np.random.default_rng([seed, len(calls)])

            def check(table, scale=scale) -> Outcome:
                rows = table.rows
                if rows.shape != (n_samples, 3):
                    return Outcome([], problems=[f"{scale}: rows shape {rows.shape}"])
                problems = []
                if not (np.all(np.isfinite(rows[:, :2])) and np.all(rows[:, :2] >= 0)):
                    problems.append(f"{scale}: outcome not finite and >= 0")
                xi = rows[:, 2].tolist()
                if not _finite_positive(xi):
                    problems.append(f"{scale}: non-finite or non-positive xi^2")
                ens, pr = probes[scale]
                for i_alpha, i_beta, value in rows[:MC_ROWS_RECHECKED].tolist():
                    if _rel(value, _xi_second_order(ens, pr, i_alpha, i_beta)) > REFERENCE_RTOL:
                        problems.append(f"{scale}: xi^2 {value!r} off the closed form at ({i_alpha}, {i_beta})")
                acc = sums[scale]
                acc[0] += n_samples
                acc[1] += math.fsum(rows[:, 0].tolist())
                acc[2] += math.fsum(rows[:, 1].tolist())
                clamped = int(np.count_nonzero((rows[:, 0] == 0) | (rows[:, 1] == 0)))
                return Outcome(xi, clamped, 0, problems)

            calls.append(
                Call(
                    f"{scale}_{j}",
                    lambda ens=ens, pr=pr, gen=gen: oracle.conditional_xi_distribution(
                        ens, pr, n_samples, seed=gen, method="second_order"
                    ),
                    check,
                )
            )

    def finish() -> list:
        """Sample means of I_alpha, I_beta within MEAN_K_SE standard errors.

        Independent of how the RNG stream is consumed; the second-order
        variance formulas (known-red 6b) are not used.
        """
        failed = []
        for scale, (count, sum_a, sum_b) in sums.items():
            if not count:
                continue
            ens, pr = probes[scale]
            means, variances = _mixture_moments(ens.n_atoms, ens.phi, pr.i0, pr.x_t)
            for mode, total, mean, var in zip("ab", (sum_a, sum_b), means, variances):
                z = (total / count - mean) / math.sqrt(var / count)
                if abs(z) > MEAN_K_SE:
                    labels = [c.label for c in calls if c.label.startswith(scale)]
                    failed.append((f"{scale}: mean I_{mode} is {z:+.2f} standard errors off", labels))
        return failed

    return Workload("mc_sampling", calls, finish)


WORKLOADS = {"oracle_sweep": oracle_sweep, "figure_grids": figure_grids, "mc_sampling": mc_sampling}
