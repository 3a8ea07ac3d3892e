import numpy as np
import pytest

from bicavity import (
    ERROR_CODES,
    ScattererSpec,
    SystemParams,
    SweepSpec,
    figure_preset,
    reference_baseline,
    run_sweep,
    scatterer_coupling,
    spectrum,
    value_axis,
)

from empty_cavity import field_means


def base(j=0.0, delta=0.0, kappa=40.0, drive=1.0):
    return SystemParams(kappa=kappa, delta=delta, j_coupling=j, drive=drive, gamma_a=1.0)


def test_resonant_empty_cavity():
    p = base()
    a, b = field_means(p.delta, p.j_coupling, p.kappa, p.drive)
    assert a == pytest.approx(-2j * 1.0 / 40.0, rel=1e-12)
    assert b == pytest.approx(0.0, abs=1e-15)


def test_fixed_point_residual():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = base(
            j=rng.uniform(0, 300),
            delta=rng.uniform(-300, 300),
            kappa=rng.uniform(1, 60),
            drive=rng.uniform(0.1, 2.0),
        )
        a, b = field_means(p.delta, p.j_coupling, p.kappa, p.drive)
        da = -(1j * p.delta + p.kappa / 2.0) * a - 1j * p.j_coupling * b - 1j * p.drive
        db = -(1j * p.delta + p.kappa / 2.0) * b - 1j * p.j_coupling * a
        assert abs(da) < 1e-12 * max(1.0, abs(a))
        assert abs(db) < 1e-12 * max(1.0, abs(a))


def test_reflection_symmetry():
    p_plus = base(j=240.0, delta=55.0)
    p_minus = base(j=240.0, delta=-55.0)
    _, b_plus = field_means(p_plus.delta, p_plus.j_coupling, p_plus.kappa, p_plus.drive)
    _, b_minus = field_means(p_minus.delta, p_minus.j_coupling, p_minus.kappa, p_minus.drive)
    assert b_plus == pytest.approx(np.conj(b_minus), rel=1e-12)


@pytest.mark.parametrize("j_over_kappa", [2.0, 4.0, 6.0, 8.0])
def test_split_peaks_at_plus_minus_j(j_over_kappa):
    # exact maxima of |<b>|^2 sit at +-sqrt(J^2 - kappa^2/4), approaching +-J
    kappa = 40.0
    j = j_over_kappa * kappa
    peak = np.sqrt(j**2 - kappa**2 / 4.0)
    grid = np.linspace(-2 * j, 2 * j, 4001)
    _, p_r, _, _ = spectrum(base(j=j), grid)
    step = grid[1] - grid[0]
    half = len(grid) // 2
    left = grid[:half][np.argmax(p_r[:half])]
    right = grid[half:][np.argmax(p_r[half:])]
    assert left == pytest.approx(-peak, abs=1.5 * step)
    assert right == pytest.approx(peak, abs=1.5 * step)
    assert peak == pytest.approx(j, rel=0.04 / j_over_kappa**2 + 0.04)


def test_unresolved_below_half_kappa():
    # J < kappa/2 gives a single unsplit reflection peak at delta = 0
    kappa = 40.0
    grid = np.linspace(-3 * kappa, 3 * kappa, 2001)
    _, p_r, _, _ = spectrum(base(j=0.4 * kappa), grid)
    interior = (np.diff(np.sign(np.diff(p_r))) < 0).nonzero()[0] + 1
    assert len(interior) == 1
    assert grid[interior[0]] == pytest.approx(0.0, abs=grid[1] - grid[0])


def test_transmission_limits():
    kappa = 40.0
    p_t, p_r, _, _ = spectrum(base(j=240.0), np.array([-500 * kappa, 0.0, 500 * kappa]))
    assert p_t[0] == pytest.approx(1.0, abs=1e-3)
    assert p_t[-1] == pytest.approx(1.0, abs=1e-3)
    assert np.all(p_r <= 1.0 + 1e-9)


def test_no_reflection_without_coupling():
    _, p_r, _, _ = spectrum(base(j=0.0), np.linspace(-100, 100, 11))
    assert np.all(p_r == 0.0)


def test_emitter_reflects_the_resonant_drive():
    # g = kappa / 2 and gamma_a = kappa / 40: the emitter sends the drive into the cw mode
    p_t, p_r, _, _ = spectrum(reference_baseline(), [0.0])
    assert p_t[0] == pytest.approx(1.524e-4, rel=1e-3)
    assert p_r[0] == pytest.approx(0.9755, rel=1e-4)
    spec = SweepSpec(reference_baseline(), (value_axis("delta", [0.0]),), ("p_t", "p_r"))
    assert run_sweep(spec).rows == [[0.0, p_t[0], p_r[0], ERROR_CODES["ok"]]]


@pytest.mark.parametrize("gamma_p", [0.0, 3.0])
def test_decoupled_emitter_gives_the_empty_cavity(gamma_p):
    # fig2's base has delta_a = gamma_a = 0: the emitter is pinned, not a singular row
    spec = figure_preset("fig2")
    spec = SweepSpec(spec.base.replace(gamma_p=gamma_p), spec.axes, spec.outputs)
    table = run_sweep(spec)
    delta, j = table.column("delta") / 40.0, table.column("j_coupling") / 40.0
    a_mean, b_mean = field_means(delta, j, 1.0, 1.0)
    np.testing.assert_allclose(table.column("p_t"), np.abs(1j + a_mean) ** 2, rtol=1e-12)
    np.testing.assert_allclose(table.column("p_r"), np.abs(b_mean) ** 2, rtol=1e-12)
    assert not table.column("error").any()


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="at least one point"):
        spectrum(base(), np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_grid_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        spectrum(base(), np.array([-1.0, bad, 1.0]))


def test_overflowing_grid_point_rejected():
    # delta / kappa overflows at 1e300 only; run_sweep tags that point invalid_point
    params = SystemParams(kappa=1e-10, j_coupling=1.0, drive=1.0)
    with pytest.raises(ValueError, match=r"delta / kappa overflows .*\[1e\+300, -1e\+300\]"):
        spectrum(params, [0.0, 1e300, 1.0, -1e300])
    p_t, p_r, _, _ = spectrum(params, [0.0, 1e250])
    assert np.isfinite(p_t).all() and np.isfinite(p_r).all()


def test_overflowing_coupling_rejected():
    with pytest.raises(ValueError, match="J / kappa overflows"):
        spectrum(SystemParams(kappa=1e-10, j_coupling=1e300, drive=1.0), [0.0])


@pytest.mark.parametrize("field", ["delta_a", "g_a", "g_b", "gamma_a", "gamma_p"])
def test_overflowing_field_rejected(field):
    # the solve reads every field / kappa; the drive alone is replaced by 1
    params = SystemParams(kappa=1e-10, g_a=1.0, drive=1.0).replace(**{field: 1e300})
    with pytest.raises(ValueError, match=rf"{field} / kappa overflows at {field} = 1e\+300"):
        spectrum(params, [0.0])
    p_t, p_r, _, _ = spectrum(params.replace(**{field: 1.0}, drive=1e300), [0.0])
    assert np.isfinite(p_t).all() and np.isfinite(p_r).all()


def test_spectrum_arrays_take_the_grid_shape():
    grid = np.linspace(-80.0, 80.0, 12).reshape(3, 4)
    p_t, p_r, a_mean, b_mean = spectrum(base(j=60.0), grid)
    for column in (p_t, p_r, a_mean, b_mean):
        assert column.shape == grid.shape
    np.testing.assert_allclose(p_t, np.abs(1j + a_mean) ** 2, rtol=1e-14)
    np.testing.assert_allclose(p_r, np.abs(b_mean) ** 2, rtol=1e-14)


def test_scatterer_polarizability_scaling():
    spec = ScattererSpec(
        radius=1.0, refractive_index=1.5, mode_volume=100.0, mode_function=0.8, omega=200.0
    )
    doubled = ScattererSpec(
        radius=2.0 ** (1.0 / 3.0),
        refractive_index=1.5,
        mode_volume=100.0,
        mode_function=0.8,
        omega=200.0,
    )
    assert doubled.polarizability == pytest.approx(2.0 * spec.polarizability, rel=1e-12)
    assert scatterer_coupling(doubled) == pytest.approx(
        2.0 * scatterer_coupling(spec), rel=1e-12
    )


def test_scatterer_index_matched_vacuum():
    spec = ScattererSpec(
        radius=1.0, refractive_index=1.0, mode_volume=50.0, mode_function=1.0, omega=100.0
    )
    assert scatterer_coupling(spec) == 0.0


def test_scatterer_coupling_magnitude_formula():
    spec = ScattererSpec(
        radius=0.5, refractive_index=2.0, mode_volume=30.0, mode_function=0.6, omega=150.0
    )
    alpha = 4.0 * np.pi * 0.5**3 * (4.0 - 1.0) / (4.0 + 2.0)
    expected = abs(alpha * 0.6**2 * 150.0 / (2.0 * 30.0))
    assert scatterer_coupling(spec) == pytest.approx(expected, rel=1e-12)
    assert scatterer_coupling(spec) >= 0.0


def test_scatterer_validation():
    with pytest.raises(ValueError):
        ScattererSpec(radius=-1.0, refractive_index=1.5, mode_volume=1.0,
                      mode_function=1.0, omega=1.0)
    with pytest.raises(ValueError):
        ScattererSpec(radius=1.0, refractive_index=1.5, mode_volume=0.0,
                      mode_function=1.0, omega=1.0)
