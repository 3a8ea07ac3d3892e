import sys
from dataclasses import replace

import numpy as np
import pytest

from bicavity import (
    DegenerateSteadyStateError,
    DensityMatrix,
    SteadyStateSolverError,
    SystemParams,
    UndefinedCorrelationError,
    annihilator,
    build_space,
    check_truncation,
    figure_preset,
    g2_closed_form,
    g2_zero,
    liouvillian,
    master_equation_g2,
    mean_photon,
    reference_baseline,
    run_sweep,
    solve_steady,
    steady_state,
    value_axis,
)
from bicavity import steadystate
from bicavity.dynamics import operator_table
from bicavity.steadystate import RESIDUAL_TOL
from test_properties import complex_steady_state, kronecker_liouvillian


def test_undriven_steady_state_is_vacuum():
    space = build_space(2, 2)
    rho = steady_state(liouvillian(SystemParams(kappa=40.0, gamma_a=1.0), space))
    expected = np.zeros((space.dim, space.dim))
    expected[space.index(0, 0, "-"), space.index(0, 0, "-")] = 1.0
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12


def test_steady_state_invariants():
    for p in (
        reference_baseline(j_coupling=0.0),
        reference_baseline(j_coupling=1200.0, gamma_p=3.0, delta=17.0, delta_a=17.0),
        reference_baseline(g_a=4.0, g_b=36.0, j_coupling=800.0),
    ):
        rho = solve_steady(p, n_a_max=3, n_b_max=3)
        m = rho.matrix
        assert rho.residual <= 1e-10
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(m).min() > -1e-8


def test_empty_cavity_coherent_amplitude():
    # linear cavity: <a> = -i eps / (i delta + kappa/2)
    for delta in (0.0, 13.0, -27.0):
        p = SystemParams(kappa=40.0, delta=delta, drive=1.0, gamma_a=1.0)
        rho = solve_steady(p, n_a_max=3, n_b_max=1)
        a = annihilator(rho.space, "ccw")
        expected = -1j * p.drive / (1j * delta + p.kappa / 2.0)
        assert np.trace(rho.matrix @ a) == pytest.approx(expected, rel=1e-6)


def test_weak_drive_mean_photon():
    p = SystemParams(kappa=40.0, drive=1.0, gamma_a=1.0)
    rho = solve_steady(p, n_a_max=3, n_b_max=1)
    assert mean_photon(rho, "ccw") == pytest.approx((2.0 / 40.0) ** 2, rel=1e-3)


def test_coherent_state_g2_is_one():
    p = SystemParams(kappa=40.0, drive=4.0, gamma_a=1.0)
    rho = solve_steady(p, n_a_max=4, n_b_max=1)
    assert g2_zero(rho, "ccw") == pytest.approx(1.0, abs=1e-3)


def test_g2_undefined_without_drive():
    rho = solve_steady(SystemParams(kappa=40.0, gamma_a=1.0), n_a_max=2, n_b_max=2)
    with pytest.raises(UndefinedCorrelationError):
        g2_zero(rho, "ccw")


def test_mean_photon_hand_built_states():
    space = build_space(2, 2)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[space.index(1, 0, "-"), space.index(1, 0, "-")] = 1.0
    rho = DensityMatrix(matrix=m, space=space, residual=0.0)
    assert mean_photon(rho, "ccw") == pytest.approx(1.0)
    assert mean_photon(rho, "cw") == pytest.approx(0.0)


def test_detuning_symmetry_of_g2():
    # with delta_a = delta the blockade dip is symmetric under delta -> -delta
    for delta in (10.0, 35.0, 80.0):
        plus = master_equation_g2(
            reference_baseline(delta=delta, delta_a=delta), n_a_max=2, n_b_max=2
        )
        minus = master_equation_g2(
            reference_baseline(delta=-delta, delta_a=-delta), n_a_max=2, n_b_max=2
        )
        assert plus == pytest.approx(minus, rel=1e-8)


def test_matches_weak_drive_analytics():
    # numerically exact solver vs perturbative amplitudes at weak drive
    p0 = reference_baseline(drive=0.1)
    for delta in np.linspace(-80.0, 80.0, 9):
        p = p0.replace(delta=delta, delta_a=delta)
        numeric = master_equation_g2(p, n_a_max=2, n_b_max=2)
        analytic = g2_closed_form(p)
        assert numeric == pytest.approx(analytic, rel=0.01)


def test_ccw_cw_mode_roles():
    # only the ccw mode is driven; with J=0 and g_b=0 the cw mode stays dark
    rho = solve_steady(reference_baseline(g_b=0.0), n_a_max=3, n_b_max=3)
    assert mean_photon(rho, "cw") < 1e-6 * mean_photon(rho, "ccw")


def test_truncation_converged_at_reference_drive():
    report = check_truncation(reference_baseline(), base_cutoff=3)
    assert report.converged
    assert report.error is None
    assert report.rel_change <= 1e-4


def test_truncation_flags_strong_drive():
    report = check_truncation(reference_baseline(drive=40.0), base_cutoff=2)
    assert not report.converged
    assert report.rel_change > 1e-4


def test_truncation_surfaces_undefined_correlation():
    report = check_truncation(reference_baseline(drive=0.0), base_cutoff=2)
    assert not report.converged
    assert "undefined" in report.error


def test_truncation_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        check_truncation(reference_baseline(), base_cutoff=1)


def test_linalg_failure_is_solver_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(SteadyStateSolverError):
        solve_steady(reference_baseline(), n_a_max=2, n_b_max=2)


@pytest.mark.parametrize("params", [
    reference_baseline(),
    # kappa underflows in the generator: the residual is nan
    SystemParams(kappa=5e-324, g_a=1.0, drive=1.0),
], ids=["nan-eigenvalue", "nan-residual"])
def test_nan_check_is_solver_failure(monkeypatch, params):
    # eigvalsh returning nan instead of raising must not let a state through.
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda rho: np.full(len(rho), np.nan))
    calls = counted_block_solves(monkeypatch)
    with pytest.raises(SteadyStateSolverError):
        solve_steady(params, n_a_max=2, n_b_max=2)
    # a nan residual does not lower the last one, so refinement stops at once
    assert len(calls) == 1


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [
    {},
    {"gamma_p": 1.0},
    {"j_coupling": 30.0, "delta": 2.0, "delta_a": -1.0},
    {"gamma_p": 3.0, "j_coupling": 5.0},
], ids=["bare", "dephased", "split-detuned", "dephased-split"])
def test_decoupled_undamped_emitter_is_degenerate(extra, cutoff):
    # g_a = g_b = gamma_a = 0: the emitter populations are conserved, so every
    # mixture of the two emitter states gives a steady state.
    with pytest.raises(DegenerateSteadyStateError):
        solve_steady(SystemParams(kappa=1.0, drive=1.0, **extra), cutoff, cutoff)


@pytest.mark.parametrize("g_a, cutoff", [(0.5, 2), (1.0, 3)])
def test_refinement_recovers_a_strong_drive_elimination(g_a, cutoff):
    # At drive = 1000 kappa the elimination, which does not pivot across
    # groups, leaves a residual near 1e-7 on a well-conditioned system
    # (condition number 1.7e4 and 2.7e4); refining with it recovers the state.
    p = SystemParams(kappa=1.0, drive=1000.0, g_a=g_a, j_coupling=0.1, gamma_a=1.0)
    space = build_space(cutoff, cutoff)
    table = operator_table(space)
    values = table.values(p)
    x = steadystate._block_solve(table.blocks, values, np.eye(space.dim**2)[0])
    assert steadystate._state(table, values, x)[1] > RESIDUAL_TOL

    rho = solve_steady(p, cutoff, cutoff)
    assert rho.residual <= RESIDUAL_TOL
    reference = complex_steady_state(kronecker_liouvillian(p, space), space.dim)
    assert np.max(np.abs(rho.matrix - reference)) <= 1e-12


@pytest.mark.parametrize("params, cutoff", [
    (reference_baseline(), 3),
    # me_cut4 pool points fig8a[60] and fig14b[34]
    (SystemParams(kappa=1.0, g_a=100.0, g_b=100.0, drive=1.0, gamma_a=1.0), 4),
    (reference_baseline(delta=-120.0, delta_a=16.0, j_coupling=800.0), 4),
], ids=["baseline-cut3", "fig8a-cut4", "fig14b-cut4"])
def test_a_well_conditioned_point_takes_one_solve(monkeypatch, params, cutoff):
    calls = counted_block_solves(monkeypatch)
    rho = solve_steady(params, cutoff, cutoff)
    assert rho.residual <= RESIDUAL_TOL
    assert len(calls) == 1
    space = build_space(cutoff, cutoff)
    reference = complex_steady_state(kronecker_liouvillian(params, space), space.dim)
    assert np.max(np.abs(rho.matrix - reference)) <= 1e-12


@pytest.mark.parametrize("reported", [
    [1e-6, 1e-8, 1e-7, 1e-12],
    [1e-6, 1e-8, 1e-8, 1e-12],
], ids=["rising", "flat"])
def test_refinement_stops_at_a_step_that_does_not_lower_the_residual(monkeypatch, reported):
    calls = counted_block_solves(monkeypatch)
    residuals = iter(reported)
    state = steadystate._state
    monkeypatch.setattr(steadystate, "_state", lambda *args: (state(*args)[0], next(residuals)))
    with pytest.raises(SteadyStateSolverError) as caught:
        solve_steady(reference_baseline(), 2, 2)
    assert len(calls) == 3
    assert caught.value.residual == reported[2]


@pytest.mark.parametrize("threads", [2, 4])
def test_the_cached_plan_holds_no_point_state(threads):
    # The plan is built once per space and shared by every solve on it, also
    # by the threads of a sweep: solving other points, one of them refined,
    # and a threaded sweep on the same space (switching threads often) leave
    # a point's state, and the sweep's rows, the same to the last bit.
    p1 = reference_baseline(delta=-40.0, delta_a=-40.0, j_coupling=600.0)
    p2 = SystemParams(kappa=1.0, drive=1000.0, g_a=0.5, j_coupling=0.1, gamma_a=1.0)
    first = solve_steady(p1, 2, 2)
    solve_steady(p2, 2, 2)
    fig3 = figure_preset("fig3")
    deltas = value_axis("delta", np.linspace(-120.0, 120.0, 16))
    spec = replace(fig3, cutoff=2, axes=(fig3.axes[0], deltas))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_sweep(spec, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.metadata["points_failed"] == "0"
    assert threaded.cells.tobytes() == run_sweep(spec).cells.tobytes()
    again = solve_steady(p1, 2, 2)
    assert again.matrix.tobytes() == first.matrix.tobytes()
    assert again.residual.hex() == first.residual.hex()


def counted_block_solves(monkeypatch) -> list:
    """Record the arguments of every _block_solve call the solver makes."""
    calls = []
    block_solve = steadystate._block_solve

    def counted(*args):
        calls.append(args)
        return block_solve(*args)

    monkeypatch.setattr(steadystate, "_block_solve", counted)
    return calls
