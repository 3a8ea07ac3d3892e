"""Measure the mode-coupling strength J from transmission/reflection spectra.

A sub-wavelength scatterer on the cavity rim couples the two counter-
propagating modes with strength J, splitting the resonance into standing-wave
doublets at roughly +-J.  This script sweeps the drive detuning for a few
values of J and locates the reflection maxima, which is how J would be read
off an experimental spectrum.  Then it adds the emitter and prints where the
dressed reflection of the reference baseline peaks and dips.
"""

import numpy as np

from bicavity import SweepSpec, SystemParams, linear_axis, reference_baseline, run_sweep, spectrum

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

# The dressed spectrum: a laser scan moves the drive against cavity and
# emitter alike, so the sweep ties delta_a to delta.
base = reference_baseline()  # kappa = 40, g_a = g_b = kappa / 2, gamma_a = kappa / 40
print()
print("With the emitter (reference baseline, delta_a = delta), delta in units of kappa:")
for j in (0.0, 6.0):
    spec = SweepSpec(
        base.replace(j_coupling=j * base.kappa),
        (linear_axis("delta", -10 * base.kappa, 10 * base.kappa, 1601),),
        ("p_r",),
        tie_delta_a=True,
    )
    table = run_sweep(spec)
    delta, p_r = table.column("delta") / base.kappa, table.column("p_r")
    turns = np.diff(np.sign(np.diff(p_r)))
    for kind, where in (("peaks", turns < 0), ("dips", turns > 0)):
        points = ", ".join(f"{delta[k]:+.3f} ({p_r[k]:.3f})" for k in where.nonzero()[0] + 1)
        print(f"  J = {j:g} kappa: P_R {kind} at {points}")
