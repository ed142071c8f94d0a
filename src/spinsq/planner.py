"""Experimental parameter planning for rare-earth ion-doped crystals.

Given a material (molar mass M, doping fraction C, absorption coefficient
alpha, usable-ion ratio R, host density rho) and a geometry (mode area A,
target optical depth d), the chain

    sigma = alpha M / (rho C N_A R)          transition cross-section [cm^2]
    L     = d / alpha                        crystal length [cm]
    N     = rho C A L N_A R / M = d A/sigma  usable atom number
    I0    = eta sigma N^2 / (2 A)            photons per sideband (phi N ~ 1)
    dw/G  = 2 sqrt(2 I0 sigma / (eta A))     detuning in linewidths

closes with the achievable squeezing xi'^2 = 1/((1-eta)^2 (1+eta d)) at the
chosen scattering probability eta.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources

from scipy.constants import Avogadro

from .squeezing import REIDC, eta_optimal, xi_db, xi_noisy

#: default optical mode area: pi * (100 um)^2, in cm^2
DEFAULT_MODE_AREA = math.pi * 0.01**2

#: default Y2SiO5 host density, g/cm^3
DEFAULT_HOST_DENSITY = 4.44


@dataclass(frozen=True)
class MaterialSpec:
    """Material parameters for the planning chain (cgs units)."""

    name: str
    molar_mass: float  # g/mol
    doping: float  # dimensionless fraction
    absorption: float  # 1/cm
    usable_ratio: float = 1e-5
    host_density: float = DEFAULT_HOST_DENSITY  # g/cm^3

    def __post_init__(self):
        for field_name in ("molar_mass", "doping", "absorption", "usable_ratio", "host_density"):
            v = getattr(self, field_name)
            if not v > 0:
                raise ValueError(f"{field_name} must be > 0, got {v}")
        if self.doping > 1 or self.usable_ratio > 1:
            raise ValueError("doping and usable_ratio must be <= 1")


@dataclass(frozen=True)
class GeometrySpec:
    """Optical geometry: mode area (cm^2) and target optical depth."""

    mode_area: float = DEFAULT_MODE_AREA
    optical_depth: float = 10.0

    def __post_init__(self):
        if not self.mode_area > 0 or not self.optical_depth > 0:
            raise ValueError("mode_area and optical_depth must be > 0")


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
    """Run the full planning chain for one material at a given eta; raises
    ValueError when N, I0 or the detuning comes out infinite or NaN."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    sigma = mat.absorption * mat.molar_mass / (
        mat.host_density * mat.doping * Avogadro * mat.usable_ratio
    )
    length = geom.optical_depth / mat.absorption
    n_atoms = (
        mat.host_density
        * mat.doping
        * geom.mode_area
        * length
        * Avogadro
        * mat.usable_ratio
        / mat.molar_mass
    )
    i0 = eta * sigma * n_atoms**2 / (2.0 * geom.mode_area)
    detuning = 2.0 * math.sqrt(2.0 * i0 * sigma / (eta * geom.mode_area))
    results = (("n_atoms", n_atoms), ("i0", i0), ("detuning_over_gamma", detuning))
    for field_name, v in results:
        if not math.isfinite(v):
            raise ValueError(f"{field_name} = {v} is not finite; check the geometry")
    xi_p = xi_noisy(eta, geom.optical_depth, REIDC)
    return PlanResult(
        name=mat.name,
        sigma=sigma,
        length=length,
        n_atoms=n_atoms,
        i0=i0,
        detuning_over_gamma=detuning,
        eta=eta,
        optical_depth=geom.optical_depth,
        xi_prime_sq=xi_p,
        xi_prime_db=xi_db(xi_p),
        flagged=xi_p > 1.0,
    )


def load_materials(path=None) -> dict:
    """Load material presets (and their default geometries) from a key/value file.

    Returns {key: (MaterialSpec, GeometrySpec)}.  Without a path, the
    shipped presets (Eu and Pr in Y2SiO5) are used; user files follow the
    same format.  A missing file raises FileNotFoundError, a section without
    molar_mass, doping or absorption raises ValueError.
    """
    parser = configparser.ConfigParser()
    if path is None:
        text = (
            resources.files("spinsq").joinpath("data/materials.txt").read_text()
        )
        parser.read_string(text)
    else:
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"materials file not found: {path}")
    presets = {}
    for key in parser.sections():
        sec = parser[key]
        missing = [k for k in ("molar_mass", "doping", "absorption") if k not in sec]
        if missing:
            raise ValueError(f"material [{key}] has no {', '.join(missing)}")
        mat = MaterialSpec(
            name=sec.get("name", key),
            molar_mass=sec.getfloat("molar_mass"),
            doping=sec.getfloat("doping"),
            absorption=sec.getfloat("absorption"),
            usable_ratio=sec.getfloat("usable_ratio", 1e-5),
            host_density=sec.getfloat("host_density", DEFAULT_HOST_DENSITY),
        )
        geom = GeometrySpec(
            mode_area=sec.getfloat("mode_area", DEFAULT_MODE_AREA),
            optical_depth=sec.getfloat("optical_depth", 10.0),
        )
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
