"""Conditional squeezing over the measurement-outcome plane.

Sweeps the two detector readings around their most probable values and
prints the closed-form conditional xi^2 at each grid point, showing that
the squeezing is strongest exactly at the most probable outcome, where it
reduces to the canonical 1/(1 + 2 I0 N phi^2).

Run:  python3 demos/conditional_squeezing_landscape.py
"""

import math

import numpy as np

from spinsq import EnsembleSpec, ProbeConfig, most_probable_outcome, xi_closed_form
from spinsq.backaction import offset_outcomes


def main():
    n_atoms, i0 = 400, 100.0
    eta_d = 2.0  # the governing product 2 I0 N phi^2
    phi = math.sqrt(eta_d / (2.0 * i0 * n_atoms))
    ens = EnsembleSpec(n_atoms=n_atoms, phi=phi)
    probe = ProbeConfig(i0=i0, x_t=math.pi / 4)

    mean = most_probable_outcome(probe)

    print(f"N = {n_atoms}, I0 = {i0:g}, phi = {phi:.4e}, X_t = pi/4")
    print(f"most probable outcome: ({mean.i_alpha:.1f}, {mean.i_beta:.1f})")
    print(f"expected minimum: 1/(1 + {eta_d:g}) = {1 / (1 + eta_d):.4f}\n")

    fractions = np.linspace(-1.0, 1.0, 5)
    header = "dIb\\dIa " + " ".join(f"{f:+5.2f}" for f in fractions)
    print(header + "   (offsets in std units, entries are xi^2)")
    for fb in fractions:
        cells = []
        for fa in fractions:
            out = offset_outcomes(ens, probe, fa, fb)
            xi = xi_closed_form(ens, probe, out, jx_mode="shortcut").xi_sq
            cells.append(f"{xi:5.3f}")
        print(f"{fb:+5.2f}   " + " ".join(cells))


if __name__ == "__main__":
    main()
