import numpy as np
import pytest

from bicavity import (
    AnalyticSingularityError,
    SystemParams,
    UndefinedCorrelationError,
    c_amplitudes_closed_form,
    g2_closed_form,
    g2_ratio_asymptotic,
    master_equation_g2,
    reference_baseline,
    solve_weak_drive,
)
from bicavity.dynamics import theta
from bicavity.weakdrive import RESIDUAL_TOL, g2_driven, solve_weak_drive_rows

from empty_cavity import field_means

# frozen reference values for the baseline point (kappa=40, g=20, eps=1, gamma_a=1)
G2_BASE_J0 = 0.46970546250487405
G2_BASE_J30K = 0.006557488258703919
C1_ABS2_J0 = 0.0006405273586343545


def random_params(rng):
    return SystemParams(
        kappa=rng.uniform(1.0, 60.0),
        delta=rng.uniform(-80.0, 80.0),
        delta_a=rng.uniform(-80.0, 80.0),
        j_coupling=rng.uniform(0.0, 400.0),
        g_a=rng.uniform(1.0, 40.0),
        g_b=rng.uniform(1.0, 40.0),
        drive=rng.uniform(0.001, 0.02),
        gamma_a=rng.uniform(0.2, 3.0),
    )


def test_empty_system_single_amplitude():
    p = SystemParams(kappa=40.0, delta=5.0, drive=0.3, gamma_a=1.0)
    amps = solve_weak_drive(p)
    dp = 5.0 - 20.0j
    assert amps.c_100m == pytest.approx(-0.3 / dp, rel=1e-12)
    assert abs(amps.c_000p) < 1e-15
    assert abs(amps.c_010m) < 1e-15


def test_residual_small():
    rng = np.random.default_rng(21)
    for _ in range(20):
        assert solve_weak_drive(random_params(rng)).residual <= 1e-12


def test_closed_form_matches_linear_system():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = random_params(rng)
        p = p.replace(g_b=p.g_a)  # closed form assumes equal emitter couplings
        amps = solve_weak_drive(p)
        c1, c2 = c_amplitudes_closed_form(p)
        assert abs(c1 - amps.c_100m) <= 1e-10 * max(abs(c1), 1e-300)
        assert abs(c2 - amps.c_200m) <= 1e-10 * max(abs(c2), 1e-300)
        assert g2_closed_form(p) == pytest.approx(amps.g2_ccw, rel=1e-9)


def test_uncoupled_modes_reduction():
    # J=0: driven-mode amplitude follows the bare two-level formula with the
    # combined coupling 2g^2 (the emitter still talks to both modes)
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_params(rng).replace(j_coupling=0.0)
        p = p.replace(g_b=p.g_a)
        dp = p.delta - 0.5j * p.kappa
        dd = p.delta_a - 0.5j * p.gamma_a
        g2sq = p.g_a * p.g_a
        expected = abs(p.drive) ** 2 * abs(dp * dd - g2sq) ** 2 / (
            abs(dp) ** 2 * abs(dp * dd - 2.0 * g2sq) ** 2
        )
        amps = solve_weak_drive(p)
        assert abs(amps.c_100m) ** 2 == pytest.approx(expected, rel=1e-10)


def test_cw_mode_dark_without_its_coupling():
    # with J=0 and g_b=0 nothing feeds the cw mode at all
    p = reference_baseline(g_b=0.0, drive=0.01)
    amps = solve_weak_drive(p)
    assert abs(amps.c_010m) == 0.0
    assert abs(amps.c_020m) == 0.0


def test_baseline_values_frozen():
    p = reference_baseline()
    assert g2_closed_form(p) == pytest.approx(G2_BASE_J0, rel=1e-12)
    c1, _ = c_amplitudes_closed_form(p)
    assert abs(c1) ** 2 == pytest.approx(C1_ABS2_J0, rel=1e-12)
    assert g2_closed_form(p.replace(j_coupling=1200.0)) == pytest.approx(
        G2_BASE_J30K, rel=1e-12
    )


def test_g_to_zero_limit_is_coherent():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_params(rng).replace(g_a=0.0, g_b=0.0)
        assert g2_closed_form(p) == pytest.approx(1.0, abs=1e-12)
    # and the full solver agrees
    p = reference_baseline(g_a=0.0, g_b=0.0, drive=0.5)
    assert master_equation_g2(p, n_a_max=3, n_b_max=1) == pytest.approx(1.0, abs=1e-3)


def test_generalized_couplings_match_master_equation():
    p = reference_baseline(g_a=12.0, g_b=36.0, j_coupling=800.0, drive=0.1)
    analytic = solve_weak_drive(p).g2_ccw
    numeric = master_equation_g2(p, n_a_max=2, n_b_max=2)
    assert numeric == pytest.approx(analytic, rel=0.02)


def test_drive_scaling():
    # singles scale linearly, doubles quadratically, g2 is drive independent;
    # a system that kept the drive's lowering half would break the exact powers
    for p in (
        reference_baseline(j_coupling=240.0, drive=0.2),
        reference_baseline(g_a=12.0, g_b=31.0, delta=17.0, delta_a=-9.0,
                           j_coupling=240.0, drive=0.2),
    ):
        a1 = solve_weak_drive(p)
        a2 = solve_weak_drive(p.replace(drive=0.6))
        for single in ("c_100m", "c_010m", "c_000p"):
            assert getattr(a2, single) == pytest.approx(3.0 * getattr(a1, single), rel=1e-12)
        for double in ("c_200m", "c_020m", "c_110m", "c_100p", "c_010p"):
            assert getattr(a2, double) == pytest.approx(9.0 * getattr(a1, double), rel=1e-12)
        assert a2.g2_ccw == pytest.approx(a1.g2_ccw, rel=1e-9)


def test_empty_cavity_amplitudes_are_field_means():
    # with g = 0 the ansatz is exact and its singles are the mean fields <a>, <b>
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_params(rng).replace(g_a=0.0, g_b=0.0)
        amps = solve_weak_drive(p)
        a_mean, b_mean = field_means(p.delta, p.j_coupling, p.kappa, p.drive)
        assert amps.c_100m == pytest.approx(a_mean, rel=1e-12)
        assert amps.c_010m == pytest.approx(b_mean, rel=1e-12)


def test_g2_undefined_without_drive():
    amps = solve_weak_drive(reference_baseline(g_a=12.0, g_b=31.0, drive=0.0))
    with pytest.raises(UndefinedCorrelationError):
        amps.g2_ccw


def test_g2_undefined_when_one_photon_term_underflows():
    # |c_100m|^4 underflows to 0 below |c_100m| = 1.5e-81: g2 is undefined, not inf or nan.
    assert np.isnan(g2_driven(np.array([1e-100]), np.array([1e-3]))).all()
    with pytest.raises(UndefinedCorrelationError):
        solve_weak_drive(reference_baseline(drive=1e-90)).g2_ccw


def test_asymptotic_ratios():
    r1, r2, ratio = g2_ratio_asymptotic(SystemParams(kappa=40.0, j_coupling=80.0, gamma_a=1.0))
    assert r1 == pytest.approx(40.0**2 / (4 * 80.0**2))
    assert r2 == pytest.approx(40.0**6 / (4 * 80.0**6))
    assert ratio == pytest.approx(1.0)
    _, _, ratio20 = g2_ratio_asymptotic(
        SystemParams(kappa=40.0, j_coupling=800.0, gamma_a=1.0)
    )
    assert ratio20 == pytest.approx(0.01)
    with pytest.raises(ZeroDivisionError):
        g2_ratio_asymptotic(SystemParams(kappa=40.0, gamma_a=1.0))


def test_dephasing_rejected():
    with pytest.raises(ValueError):
        solve_weak_drive(reference_baseline(gamma_p=1.0))
    with pytest.raises(ValueError):
        g2_closed_form(reference_baseline(gamma_p=1.0))


def test_closed_form_requires_equal_couplings():
    with pytest.raises(ValueError):
        c_amplitudes_closed_form(reference_baseline(g_a=5.0, g_b=6.0))


def test_lossless_singularity():
    # gamma_a = kappa -> 0 would make the one-excitation block singular at resonance
    p = SystemParams(kappa=1e-12, g_a=0.0, g_b=0.0, drive=1.0, gamma_a=1e-12)
    with pytest.raises((AnalyticSingularityError, ValueError)):
        solve_weak_drive(p.replace(kappa=0.0))


def test_nan_solution_is_singularity():
    # A subnormal J with a decoupled emitter at delta_a = 0: LAPACK finds no
    # zero pivot but returns nan amplitudes, whose nan residual must not pass.
    p = SystemParams(kappa=1.0, j_coupling=2.225073858507e-311, drive=0.01)
    with pytest.raises(AnalyticSingularityError):
        solve_weak_drive(p)


def test_singular_row_is_nan_and_the_others_keep_their_solve():
    # With g = 0 and gamma_a = 0 the emitter ket decouples: delta_a = 0 is singular.
    rng = np.random.default_rng(11)
    params = [random_params(rng) for _ in range(4)]
    params.insert(2, SystemParams(kappa=40.0, drive=1.0))
    thetas = np.array([theta(p) for p in params])
    c, residual = solve_weak_drive_rows(thetas)
    assert np.isnan(c[2]).all() and np.isnan(residual[2])
    for k in (0, 1, 3, 4):
        c_k, residual_k = solve_weak_drive_rows(thetas[k:k + 1])
        assert np.array_equal(c[k], c_k[0]) and residual[k] == residual_k[0]
        assert residual[k] <= RESIDUAL_TOL


def test_row_solved_alone_matches_its_row_in_a_stack():
    # 1024 mixed rows: g_a == g_b, zero drive and gamma_p > 0 among generic ones.
    rng = np.random.default_rng(5)
    params = []
    for k in range(1024):
        p = random_params(rng)
        if k % 4 == 1:
            p = p.replace(g_b=p.g_a)
        elif k % 4 == 2:
            p = p.replace(drive=0.0)
        elif k % 4 == 3:
            p = p.replace(gamma_p=rng.uniform(0.1, 5.0))
        params.append(p)
    thetas = np.array([theta(p) for p in params])
    c, residual = solve_weak_drive_rows(thetas)
    assert (residual <= RESIDUAL_TOL).all()
    for k in range(len(thetas)):
        c_k, residual_k = solve_weak_drive_rows(thetas[k:k + 1])
        assert (c[k] == c_k[0]).all() and residual[k] == residual_k[0]


def test_hierarchy_warning_on_strong_drive():
    with pytest.warns(UserWarning):
        solve_weak_drive(reference_baseline(drive=100.0))
