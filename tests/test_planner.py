import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from spinsq import (
    GeometrySpec,
    MaterialSpec,
    load_materials,
    plan,
    table1,
)
from spinsq.planner import AVOGADRO, DEFAULT_MODE_AREA
from spinsq.squeezing import REIDC, eta_optimal


def test_avogadro_literal_is_scipys_value():
    # the planner carries the constant itself, so importing it loads no scipy
    from scipy.constants import Avogadro

    assert AVOGADRO == Avogadro


def test_default_presets_load():
    presets = load_materials()
    assert set(presets) == {"eu", "pr"}
    mat_eu, geom_eu = presets["eu"]
    assert mat_eu.molar_mass == 152.0
    assert mat_eu.doping == 1e-3
    assert mat_eu.absorption == 2.0
    assert geom_eu.optical_depth == 10.0
    mat_pr, geom_pr = presets["pr"]
    assert mat_pr.doping == 5e-4
    assert mat_pr.absorption == 20.0
    assert geom_pr.optical_depth == 40.0


def test_load_materials_missing_file():
    with pytest.raises(FileNotFoundError):
        load_materials("/nonexistent/materials.txt")


def test_load_materials_custom_file(tmp_path):
    f = tmp_path / "mats.txt"
    f.write_text(
        "[toy]\nname = Toy\nmolar_mass = 100\ndoping = 1e-3\n"
        "absorption = 1.0\noptical_depth = 5\n"
    )
    presets = load_materials(str(f))
    mat, geom = presets["toy"]
    assert mat.name == "Toy"
    assert geom.optical_depth == 5.0
    # keys left out take the dataclass defaults
    assert geom.mode_area == DEFAULT_MODE_AREA
    assert (mat.usable_ratio, mat.host_density) == (1e-5, 4.44)


@pytest.mark.parametrize(
    "lines, key",
    [
        ("molar_mass = 100\nusable_ration = 1e-4", "usable_ration"),  # a typo
        ("molar_mass = inf", "molar_mass"),
        ("molar_mass = 100\nhost_density = nan", "host_density"),
    ],
)
def test_load_materials_refuses_unknown_key_and_non_finite_value(tmp_path, lines, key):
    f = tmp_path / "mats.txt"
    f.write_text(f"[toy]\ndoping = 1e-3\nabsorption = 1.0\n{lines}\n")
    with pytest.raises(ValueError, match=key):
        load_materials(str(f))


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialSpec(name="x", molar_mass=-1, doping=1e-3, absorption=1.0)
    with pytest.raises(ValueError):
        MaterialSpec(name="x", molar_mass=100, doping=2.0, absorption=1.0)
    with pytest.raises(ValueError):
        GeometrySpec(mode_area=0.0)


@pytest.mark.parametrize("key", ["mode_area", "optical_depth"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_geometry_refuses_a_value_not_finite_and_positive(key, value):
    with pytest.raises(ValueError, match=f"{key} = {value} is not finite and > 0"):
        GeometrySpec(**{key: value})


def test_plan_chain_internal_consistency():
    mat, geom = load_materials()["pr"]
    res = plan(mat, geom, eta=0.3)
    # N sigma / A = d by construction
    assert res.n_atoms * res.sigma / geom.mode_area == pytest.approx(
        geom.optical_depth, rel=1e-12
    )
    assert res.length == pytest.approx(geom.optical_depth / mat.absorption, rel=1e-12)
    assert res.i0 == pytest.approx(
        0.3 * res.sigma * res.n_atoms**2 / (2 * geom.mode_area), rel=1e-12
    )
    with pytest.raises(ValueError):
        plan(mat, geom, eta=1.0)


def test_table1_frozen_values():
    rows = {r.name.split(":")[0].lower()[:2]: r for r in table1()}
    eu, pr = rows["eu"], rows["pr"]

    assert eu.eta == pytest.approx(4.0 / 15.0, rel=1e-12)
    assert eu.sigma == pytest.approx(1.1369456676145255e-14, rel=1e-12)
    assert eu.length == pytest.approx(5.0, rel=1e-12)
    assert eu.n_atoms == pytest.approx(2.763186265691394e11, rel=1e-12)
    assert eu.i0 == pytest.approx(3.6842483542551917e11, rel=1e-12)
    assert eu.detuning_over_gamma == pytest.approx(20.0, rel=1e-12)
    assert eu.xi_prime_sq == pytest.approx(0.507137490608565, rel=1e-12)
    assert eu.xi_prime_db == pytest.approx(2.9487428264365025, rel=1e-12)
    assert not eu.flagged

    assert pr.eta == pytest.approx(19.0 / 60.0, rel=1e-12)
    assert pr.sigma == pytest.approx(2.0943735982372837e-13, rel=1e-12)
    assert pr.length == pytest.approx(2.0, rel=1e-12)
    assert pr.n_atoms == pytest.approx(6.000061605501314e10, rel=1e-12)
    assert pr.i0 == pytest.approx(3.800039016817499e11, rel=1e-12)
    assert pr.detuning_over_gamma == pytest.approx(80.0, rel=1e-12)
    assert pr.xi_prime_sq == pytest.approx(0.15670115059270762, rel=1e-12)
    assert pr.xi_prime_db == pytest.approx(8.049278146722568, rel=1e-12)


def test_detuning_closed_form():
    # dw/G = 2 sqrt(2 I0 sigma / (eta A)) reduces to 2 N sigma / A = 2 d
    mat, geom = load_materials()["eu"]
    res = plan(mat, geom, eta=0.2)
    assert res.detuning_over_gamma == 2.0 * geom.optical_depth


def _old_chain(mat, geom, eta):
    """(N, I0) of the chain sigma, L = d/alpha, N = rho C A L N_A R / M,
    I0 = eta sigma N^2 / (2A), in 50-digit arithmetic on the float inputs."""
    with mpmath.workdps(50):
        m, c, alpha, r, rho, a, d, eta, n_a = map(mpmath.mpf, (
            mat.molar_mass, mat.doping, mat.absorption, mat.usable_ratio,
            mat.host_density, geom.mode_area, geom.optical_depth, eta, AVOGADRO,
        ))
        sigma = alpha * m / (rho * c * n_a * r)
        n_atoms = rho * c * a * (d / alpha) * n_a * r / m
        return n_atoms, eta * sigma * n_atoms**2 / (2 * a)


def _assert_identities(mat, geom, eta):
    res = plan(mat, geom, eta)
    # below 2**-1022 a float holds a fixed absolute precision, one
    # subnormal spacing, so a subnormal I0 (eta = 5e-324) gets that much
    for value, exact in zip((res.n_atoms, res.i0), _old_chain(mat, geom, eta)):
        assert 0.0 < value < math.inf
        assert abs(value - exact) <= max(1e-14 * exact, math.ulp(0.0)), (value, exact)
    assert res.detuning_over_gamma == 2.0 * geom.optical_depth


def test_plan_identities_match_the_old_chain_in_50_digits():
    # N = d A / sigma, I0 = eta d N / 2 and dw/G = 2 d for both presets over
    # a d sweep (d <= 2 included, where eta_optimal returns its lower end)
    # at the optimal eta, and over an eta sweep at each preset's own d
    rng = np.random.default_rng(26)
    depths = [1e-3, 0.5, 1.5, 2.0, 2.5, 10.0, 40.0, 1e3, 1e6]
    depths += (10.0 ** rng.uniform(-3, 6, 40)).tolist()
    etas = [1e-9, 1e-3, 0.2, 0.5, 0.9, 1 - 1e-9]
    for mat, geom in load_materials().values():
        for d in depths:
            _assert_identities(mat, replace(geom, optical_depth=d), eta_optimal(d, REIDC))
        for eta in etas:
            _assert_identities(mat, geom, eta)


EU_MAT, EU_GEOM = load_materials()["eu"]


@pytest.mark.parametrize(
    "mat, geom, eta",
    [
        # the longer chain's N^2 or eta sigma underflows to 0
        pytest.param(EU_MAT, replace(EU_GEOM, mode_area=1e-200), 4 / 15, id="mode_area_1e-200"),
        pytest.param(EU_MAT, replace(EU_GEOM, mode_area=1e-300), 4 / 15, id="mode_area_1e-300"),
        pytest.param(EU_MAT, EU_GEOM, 1e-310, id="eta_1e-310"),
        pytest.param(replace(EU_MAT, absorption=1e300), EU_GEOM, 4 / 15, id="absorption_1e300"),
        # eta sigma is subnormal, so the longer chain loses digits
        pytest.param(EU_MAT, EU_GEOM, 1e-300, id="eta_1e-300"),
        # N^2 overflows
        pytest.param(EU_MAT, replace(EU_GEOM, mode_area=1e280), 4 / 15, id="mode_area_1e280"),
        # eta A underflows to 0, a divisor in the longer chain's detuning
        pytest.param(EU_MAT, EU_GEOM, 5e-324, id="eta_5e-324"),
    ],
)
def test_plan_identities_hold_at_the_domain_edges(mat, geom, eta):
    _assert_identities(mat, geom, eta)


@pytest.mark.parametrize(
    "mat, geom, eta, field",
    [
        (replace(EU_MAT, absorption=1e308), EU_GEOM, 4 / 15, "sigma = inf"),
        (EU_MAT, replace(EU_GEOM, optical_depth=1e-300), 1e-9, "i0 = 0.0"),
        (replace(EU_MAT, molar_mass=1e-300), EU_GEOM, 4 / 15, "n_atoms = inf"),
        # N = 88 and I0 = 4.4e300 are finite; 2 d is not
        (EU_MAT, GeometrySpec(1e-320, 1e308), 1e-9, "detuning_over_gamma = inf"),
    ],
    ids=["absorption_1e308", "d_1e-300", "molar_mass_1e-300", "d_1e308"],
)
def test_plan_refuses_a_result_not_finite_and_positive(mat, geom, eta, field):
    with pytest.raises(ValueError, match=f"{field} is not finite and > 0"):
        plan(mat, geom, eta)
