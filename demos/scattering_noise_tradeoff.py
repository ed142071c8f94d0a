"""Squeezing vs photon-scattering probability for the two noise models.

More probe photons measure Jz better (xi^2 = 1/(1 + eta d) improves with
eta) but scatter more, which decoheres the spins.  The trade-off has an
interior optimum when d > 2: for rare-earth crystals
eta_opt = (d - 2)/(3 d), and for the alkali-vapor model it is the one root
in (0, 1) of the cubic 2 (1 + eta d)^2 = d (1 - eta)^3.

Run:  python3 demos/scattering_noise_tradeoff.py
"""

import numpy as np

from spinsq import ALKALI, REIDC, eta_optimal, xi_db, xi_noisy


def main():
    print("rare-earth ion-doped crystal model, xi'^2 = 1/((1-eta)^2 (1+eta d))")
    print(f"{'d':>6} {'eta_opt':>9} {'xi_min^2':>9} {'dB':>6}")
    for d in (10.0, 40.0, 100.0):
        eta = eta_optimal(d, REIDC)
        xi = xi_noisy(eta, d, REIDC)
        print(f"{d:6.0f} {eta:9.4f} {xi:9.4f} {xi_db(xi):6.2f}")

    print("\nalkali-vapor model, xi'^2 = 1/(1+eta d) + eta/(1-eta) + eta/(1-eta)^2")
    print(f"{'d':>6} {'eta_opt':>9} {'xi_min^2':>9} {'dB':>6}")
    for d in (16.0, 51.0, 75.0):
        eta = eta_optimal(d, ALKALI)
        xi = xi_noisy(eta, d, ALKALI)
        print(f"{d:6.0f} {eta:9.4f} {xi:9.4f} {xi_db(xi):6.2f}")

    print("\nrare-earth curve at d = 40 (sampled):")
    for eta in np.linspace(0.05, 0.6, 12):
        bar = "#" * int(40 * min(xi_noisy(eta, 40.0, REIDC), 1.0))
        print(f"  eta = {eta:4.2f}  xi'^2 = {xi_noisy(eta, 40.0, REIDC):6.4f}  {bar}")


if __name__ == "__main__":
    main()
