"""Measure the mode-coupling strength J from transmission/reflection spectra.

A sub-wavelength scatterer on the cavity rim couples the two counter-
propagating modes with strength J, splitting the resonance into standing-wave
doublets at roughly +-J.  This script sweeps the drive detuning for a few
values of J and locates the reflection maxima, which is how J would be read
off an experimental spectrum.
"""

import numpy as np

from bicavity import SystemParams, spectrum

KAPPA = 1.0  # work directly in units of the cavity linewidth

print(f"{'J/kappa':>8} {'peak -':>10} {'peak +':>10} {'sqrt(J^2-k^2/4)':>16}")
for j in (0.6, 0.8, 2.0, 6.0, 12.0):
    params = SystemParams(kappa=KAPPA, j_coupling=j, drive=1.0)
    grid = np.linspace(-2 * max(j, 2.0), 2 * max(j, 2.0), 4001)
    _, p_r, _, _ = spectrum(params, grid)
    half = len(grid) // 2
    left = grid[:half][np.argmax(p_r[:half])]
    right = grid[half:][np.argmax(p_r[half:])]
    exact = np.sqrt(j**2 - KAPPA**2 / 4) if j > KAPPA / 2 else 0.0
    print(f"{j:8.2f} {left:10.3f} {right:10.3f} {exact:16.3f}")

print()
print("For J >> kappa the maxima sit at +-J; near J ~ kappa they are pulled")
print("inward by the linewidth and merge once J < kappa/2.")
