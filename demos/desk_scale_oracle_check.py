"""Exact-kernel oracle vs closed-form squeezing at desk scale.

Experiment-scale photon numbers (I0 ~ 1e11) cannot be simulated directly,
but the physics is controlled by the dimensionless products eta*d and
2 I0 N phi^2.  This demo holds those products at experiment values while
shrinking N and I0 to desk scale, then compares three ways of computing
the conditional squeezing parameter:

* the brute-force oracle (exact Bessel-kernel posterior, no expansion),
* the Gaussian closed form with the full <Jx> integral,
* the closed form with the large-N shortcut <Jx> = N/2.

Run:  python3 demos/desk_scale_oracle_check.py
"""

import math

from spinsq import EnsembleSpec, ProbeConfig, oracle_xi, xi_closed_form
from spinsq.backaction import offset_outcomes


def main():
    n_atoms, i0, eta_d = 400, 100.0, 4.0
    phi = math.sqrt(eta_d / (2.0 * i0 * n_atoms))
    ens = EnsembleSpec(n_atoms=n_atoms, phi=phi)
    probe = ProbeConfig(i0=i0, x_t=math.pi / 4)

    print(f"N = {n_atoms}, I0 = {i0:g}, 2 I0 N phi^2 = {eta_d:g}, X_t = pi/4")
    print(f"canonical law at the most probable outcome: "
          f"1/(1 + {eta_d:g}) = {1 / (1 + eta_d):.5f}\n")

    print(f"{'outcome':>24} {'oracle':>9} {'closed':>9} {'shortcut':>9} {'rel err':>8}")
    for label, off in [("mean", 0.0), ("mean + 0.5 std", 0.5), ("mean + 1 std", 1.0)]:
        out = offset_outcomes(ens, probe, off, 0.0)
        xo = oracle_xi(ens, probe, out).xi_sq
        xc = xi_closed_form(ens, probe, out, jx_mode="exact").xi_sq
        xs = xi_closed_form(ens, probe, out, jx_mode="shortcut").xi_sq
        print(f"{label:>24} {xo:9.5f} {xc:9.5f} {xs:9.5f} {abs(xc - xo) / xo:8.2%}")

    print("\nThe closed form tracks the oracle to ~1% at the mean; the gap")
    print("grows with the offset, at the expansion's phi*sqrt(N) accuracy.")


if __name__ == "__main__":
    main()
