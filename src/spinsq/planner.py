"""Experimental parameter planning for rare-earth ion-doped crystals.

Given a material (molar mass M, doping fraction C, absorption coefficient
alpha, usable-ion ratio R, host density rho) and a geometry (mode area A,
target optical depth d), the plan is

    sigma = alpha M / (rho C N_A R)   transition cross-section [cm^2]
    L     = d / alpha                 crystal length [cm]
    N     = d A / sigma               usable atom number (rho C A L N_A R / M)
    I0    = eta d N / 2               photons per sideband (eta sigma N^2 / (2A))
    dw/G  = 2 d                       detuning in linewidths (2 sqrt(2 I0 sigma / (eta A)))

for every material.  That I0 makes the phase shift per atom,
phi = sqrt(eta d / (2 N I0)), equal to 1/N (phi N = 1), and the plan closes
with xi'^2 = 1/((1-eta)^2 (1+eta d)) at the chosen scattering probability eta.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from importlib import resources

from .squeezing import REIDC, eta_optimal, xi_db, xi_noisy

#: Avogadro constant, 1/mol: the exact SI value (scipy.constants.Avogadro)
AVOGADRO = 6.02214076e23

#: default optical mode area: pi * (100 um)^2, in cm^2
DEFAULT_MODE_AREA = math.pi * 0.01**2


def _require_positive(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite and > 0."""
    for name, v in values.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} = {v} is not finite and > 0")


@dataclass(frozen=True)
class MaterialSpec:
    """Material parameters for the planning chain (cgs units)."""

    name: str
    molar_mass: float  # g/mol
    doping: float  # dimensionless fraction
    absorption: float  # 1/cm
    usable_ratio: float = 1e-5
    host_density: float = 4.44  # g/cm^3, Y2SiO5

    def __post_init__(self):
        _require_positive(**{k: v for k, v in vars(self).items() if k != "name"})
        if self.doping > 1 or self.usable_ratio > 1:
            raise ValueError("doping and usable_ratio must be <= 1")


@dataclass(frozen=True)
class GeometrySpec:
    """Optical geometry: mode area (cm^2) and target optical depth."""

    mode_area: float = DEFAULT_MODE_AREA
    optical_depth: float = 10.0

    def __post_init__(self):
        _require_positive(**vars(self))


@dataclass(frozen=True)
class PlanResult:
    """Planner outputs for one material/geometry/eta combination."""

    name: str
    sigma: float  # cm^2
    length: float  # cm
    n_atoms: float
    i0: float
    detuning_over_gamma: float
    eta: float
    optical_depth: float
    xi_prime_sq: float
    xi_prime_db: float
    flagged: bool = False  # xi'^2 > 1 (eta far beyond optimum)


def plan(mat: MaterialSpec, geom: GeometrySpec, eta: float) -> PlanResult:
    """Plan one material at a given eta; raises ValueError naming sigma, N,
    I0 or the detuning when it is not finite and > 0 (overflow or underflow)."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    d = geom.optical_depth
    sigma = mat.absorption * mat.molar_mass / (
        mat.host_density * mat.doping * AVOGADRO * mat.usable_ratio
    )
    n_atoms = d * geom.mode_area / sigma
    i0 = eta * d * n_atoms * 0.5
    detuning = 2.0 * d
    _require_positive(sigma=sigma, n_atoms=n_atoms, i0=i0, detuning_over_gamma=detuning)
    xi_p = xi_noisy(eta, d, REIDC)
    return PlanResult(
        name=mat.name,
        sigma=sigma,
        length=d / mat.absorption,
        n_atoms=n_atoms,
        i0=i0,
        detuning_over_gamma=detuning,
        eta=eta,
        optical_depth=d,
        xi_prime_sq=xi_p,
        xi_prime_db=xi_db(xi_p),
        flagged=xi_p > 1.0,
    )


def load_materials(path=None) -> dict:
    """Load material presets (and their default geometries) from a key/value file.

    Returns {key: (MaterialSpec, GeometrySpec)}.  Without a path, the
    shipped presets (Eu and Pr in Y2SiO5) are used; user files follow the
    same format.  A key left out takes the MaterialSpec or GeometrySpec
    default.  A missing file raises FileNotFoundError; a section without
    molar_mass, doping or absorption, or with a key that names no field of
    either, raises ValueError.
    """
    parser = configparser.ConfigParser(interpolation=None)
    if path is None:
        text = (
            resources.files("spinsq").joinpath("data/materials.txt").read_text()
        )
        parser.read_string(text)
    else:
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"materials file not found: {path}")
    mat_keys = [f.name for f in fields(MaterialSpec)]
    geom_keys = [f.name for f in fields(GeometrySpec)]
    presets = {}
    for key in parser.sections():
        sec = parser[key]
        missing = [k for k in ("molar_mass", "doping", "absorption") if k not in sec]
        if missing:
            raise ValueError(f"material [{key}] has no {', '.join(missing)}")
        unknown = [k for k in sec if k not in mat_keys + geom_keys]
        if unknown:
            raise ValueError(f"material [{key}] has unknown key(s) {', '.join(unknown)}")
        values = {k: sec.getfloat(k) for k in sec if k != "name"}
        mat = MaterialSpec(
            name=sec.get("name", key),
            **{k: v for k, v in values.items() if k in mat_keys},
        )
        geom = GeometrySpec(**{k: v for k, v in values.items() if k in geom_keys})
        presets[key] = (mat, geom)
    return presets


def table1(presets: dict | None = None) -> list[PlanResult]:
    """Evaluate every preset of ``load_materials`` (by default the shipped
    ones) at its optimal scattering probability."""
    if presets is None:
        presets = load_materials()
    results = []
    for mat, geom in presets.values():
        eta = eta_optimal(geom.optical_depth, REIDC)
        results.append(plan(mat, geom, eta))
    return results
