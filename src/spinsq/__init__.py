"""spinsq: four-color QND spin-squeezing simulator and verification suite.

Layers (bottom-up):

* :mod:`spinsq.dicke` — coherent-spin-state weights and collective moments;
* :mod:`spinsq.probe` — dispersive mode amplitudes and light-intensity moments;
* :mod:`spinsq.backaction` — exact measurement back-action, expansion coefficients;
* :mod:`spinsq.squeezing` — closed-form xi^2, limits, scattering noise models;
* :mod:`spinsq.oracle` — brute-force posteriors, Fock micro-oracle, sampling;
* :mod:`spinsq.planner` — experimental parameter chain for Eu/Pr presets;
* :mod:`spinsq.cli` — batch front-end (figures, tables, reports) as CSV/JSON.
"""

from .backaction import (
    ExpansionCoeffs,
    MeasurementOutcome,
    SingularPhase,
    expansion_coeffs,
    most_probable_outcome,
    posterior_weights,
)
from .dicke import (
    DickeWeights,
    EnsembleSpec,
    SqueezingResult,
    collective_moments,
    css_log_weights,
)
from .oracle import (
    SampleTable,
    compare_report,
    conditional_xi_distribution,
    fock_moments,
    fock_posterior,
    oracle_xi,
    sample_outcome,
)
from .planner import (
    GeometrySpec,
    MaterialSpec,
    PlanResult,
    load_materials,
    plan,
    table1,
)
from .probe import (
    LightMoments,
    ProbeConfig,
    intensity_moments_approx,
    intensity_moments_exact,
    mode_amplitudes,
)
from .squeezing import (
    ALKALI,
    REIDC,
    NoiseModel,
    eta_optimal,
    phi_from_eta_d,
    xi_closed_form,
    xi_db,
    xi_most_probable,
    xi_noisy,
)

__version__ = "0.1.0"

__all__ = [
    "ALKALI",
    "DickeWeights",
    "EnsembleSpec",
    "ExpansionCoeffs",
    "GeometrySpec",
    "LightMoments",
    "MaterialSpec",
    "MeasurementOutcome",
    "NoiseModel",
    "PlanResult",
    "ProbeConfig",
    "REIDC",
    "SampleTable",
    "SingularPhase",
    "SqueezingResult",
    "collective_moments",
    "compare_report",
    "conditional_xi_distribution",
    "css_log_weights",
    "eta_optimal",
    "expansion_coeffs",
    "fock_moments",
    "fock_posterior",
    "intensity_moments_approx",
    "intensity_moments_exact",
    "load_materials",
    "mode_amplitudes",
    "most_probable_outcome",
    "oracle_xi",
    "phi_from_eta_d",
    "plan",
    "posterior_weights",
    "sample_outcome",
    "table1",
    "xi_closed_form",
    "xi_db",
    "xi_most_probable",
    "xi_noisy",
]
