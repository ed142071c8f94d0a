import math

import pytest

from spinsq import (
    GeometrySpec,
    MaterialSpec,
    load_materials,
    plan,
    table1,
)
from spinsq.planner import AVOGADRO, DEFAULT_MODE_AREA


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
    assert res.detuning_over_gamma == pytest.approx(
        2.0 * geom.optical_depth, rel=1e-12
    )
