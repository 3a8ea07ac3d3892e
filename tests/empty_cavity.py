"""The g = 0 closed form of the intracavity fields, the tests' reference for
the spectra and for the weak-drive one-photon amplitudes."""


def field_means(delta, j_coupling, kappa, drive):
    """Steady intracavity means (<a>, <b>) of the g = 0 reduction, elementwise
    over numbers or arrays that broadcast together."""
    denom = (1j * delta + 0.5 * kappa) ** 2 + j_coupling**2
    return drive * (delta - 0.5j * kappa) / denom, -drive * j_coupling / denom
