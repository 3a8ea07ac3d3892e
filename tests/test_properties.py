"""Property checks of the affine operator table, the real-coordinate solver,
the stacked weak-drive sweep and the stacked spectrum sweep.

The reference for the table is the direct construction: the Lindblad
generator assembled from Kronecker products of the full operators, and its
steady state from a dense complex solve with the trace condition in place of
the first row, on boxes and on spaces that cap the total excitation.  The
reference for an analytic sweep is a loop of solve_weak_drive calls, one per
grid point; for a spectrum sweep it is
spectrum() at each point, and field_means where no emitter couples (g = 0).
Four limits of the steady state are checked too: the cw mode stays empty
without J and g_b, at gamma_p = 0 the g2 of the master equation tends to the
weak-drive g2 as the drive falls, and at weak drive its output powers are
spectrum()'s p_t and p_r and its coherences with the vacuum are the weak-drive
amplitudes, with the emitter coupled and dephased.  spectrum()'s fields are
the weak-drive system's one-photon amplitudes at kappa = 1 and unit drive.  The
reference for a master-equation sweep row is solve_steady's box at the same
cutoff: a row the excitation-capped ladder accepts is within its tolerance,
and any other row is the box's bit for bit.  An accepted row is also its
level's solve, within the tolerance of the level below, as the ladder's rule
states.
"""

import dataclasses
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicavity import (
    ERROR_CODES,
    BicavityError,
    DegenerateSteadyStateError,
    SteadyStateSolverError,
    SweepSpec,
    SystemParams,
    UndefinedCorrelationError,
    annihilator,
    build_space,
    emitter_excitation_projector,
    emitter_lowering,
    g2_zero,
    master_equation_g2,
    mean_photon,
    pauli_z,
    reference_baseline,
    run_sweep,
    solve_steady,
    solve_weak_drive,
    spectrum,
    value_axis,
)
from bicavity import sweep
from bicavity.dynamics import from_real_coordinates, operator_table, theta
from bicavity.steadystate import PSD_TOL, UNDERFLOW_GUARD
from bicavity.weakdrive import _KETS, abs2, solve_weak_drive_rows

from empty_cavity import field_means


def kronecker_liouvillian(p: SystemParams, space) -> np.ndarray:
    dim = space.dim
    eye = np.eye(dim, dtype=complex)
    a, b = annihilator(space, "ccw"), annihilator(space, "cw")
    sm = emitter_lowering(space)
    sz = pauli_z(space)
    x = p.g_a * a.conj().T @ sm + p.g_b * b.conj().T @ sm + p.drive * a.conj().T
    h = (
        p.delta * (a.conj().T @ a + b.conj().T @ b)
        + p.delta_a * emitter_excitation_projector(space)
        + p.j_coupling * (a.conj().T @ b + b.conj().T @ a)
        + x
        + x.conj().T
    )

    def dissipator(c, rate):
        cdc = c.conj().T @ c
        return 0.5 * rate * (2.0 * np.kron(c.conj(), c) - np.kron(eye, cdc) - np.kron(cdc.T, eye))

    return (
        -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        + dissipator(a, p.kappa)
        + dissipator(b, p.kappa)
        + dissipator(sm, p.gamma_a)
        + p.gamma_p * (np.kron(sz.conj(), sz) - np.kron(eye, eye))
    )


def random_density(rng, dim):
    """Random density matrix, Hermitian to the last bit."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def real_coordinates(rho: np.ndarray) -> np.ndarray:
    """Hermitian real coordinates of rho: the inverse of from_real_coordinates."""
    return (np.triu(rho.real) + np.tril(rho.imag.T, -1)).flatten(order="F")


def generator_action(p: SystemParams, space, rho: np.ndarray) -> np.ndarray:
    """L[rho] for Hermitian rho by the solver's product: the table's sparse
    matvec on the real coordinates of rho."""
    table = operator_table(space)
    x = table.matvec(table.values(p), real_coordinates(rho))
    return from_real_coordinates(x, space.dim)


def complex_steady_state(lmat: np.ndarray, dim: int) -> np.ndarray:
    system = lmat.copy()
    system[0] = 0.0
    system[0, np.arange(dim) * (dim + 1)] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(system, rhs).reshape((dim, dim), order="F")


@st.composite
def points(draw):
    """Generic points: dephasing on, g_a != g_b, delta != delta_a, J up to 40 kappa."""
    kappa = draw(st.floats(1.0, 60.0))
    g_a = draw(st.floats(0.0, 80.0))
    delta = draw(st.floats(-120.0, 120.0))
    p = SystemParams(
        kappa=kappa,
        delta=delta,
        delta_a=draw(st.floats(-120.0, 120.0).filter(lambda v: v != delta)),
        j_coupling=draw(st.floats(0.0, 40.0 * kappa)),
        g_a=g_a,
        g_b=draw(st.floats(0.0, 80.0).filter(lambda v: v != g_a)),
        drive=draw(st.floats(0.01, 2.0)),
        gamma_a=draw(st.floats(0.2, 3.0)),
        gamma_p=draw(st.floats(0.01, 20.0)),
    )
    return p, build_space(draw(st.integers(1, 3)), draw(st.integers(1, 3)))


@st.composite
def strong_points(draw):
    """Drive log-uniform up to 1000 kappa, emitter damping down to 0 (g_a > 0),
    unequal cutoffs.

    The drive is the one term that joins excitation-difference groups, and the
    block solve does not pivot across groups, so strong drive tests it hardest:
    far above kappa the first solve loses digits and refinement recovers them.
    """
    kappa = draw(st.floats(0.5, 60.0))
    p = SystemParams(
        kappa=kappa,
        delta=draw(st.floats(-120.0, 120.0)),
        delta_a=draw(st.floats(-120.0, 120.0)),
        j_coupling=draw(st.floats(0.0, 40.0 * kappa)),
        g_a=draw(st.floats(1.0, 80.0)),
        g_b=draw(st.floats(0.0, 80.0)),
        drive=kappa * 10.0 ** draw(st.floats(0.0, 3.0)),
        gamma_a=draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
        gamma_p=draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
    )
    n_a = draw(st.integers(1, 3))
    return p, build_space(n_a, draw(st.integers(1, 3).filter(lambda n: n != n_a)))


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def assert_table_matches_kronecker_generator(p: SystemParams, space, seed: int) -> None:
    """The solver's product L[rho] against the Kronecker generator on a random
    Hermitian rho, to 1e-12 of the sum of the magnitudes of each entry's terms."""
    reference = kronecker_liouvillian(p, space)
    rho = random_density(np.random.default_rng(seed), space.dim)
    vec = rho.flatten(order="F")
    out = generator_action(p, space, rho).flatten(order="F")
    assert np.max(np.abs(out - reference @ vec)) <= 1e-12 * np.max(np.abs(reference) @ np.abs(vec))


@PROPERTY_SETTINGS
@given(points(), st.integers(0, 2**32 - 1))
def test_table_matches_kronecker_generator(point, seed):
    assert_table_matches_kronecker_generator(*point, seed)


@PROPERTY_SETTINGS
@given(strong_points(), st.integers(0, 2**32 - 1))
def test_table_matches_kronecker_generator_at_strong_drive(point, seed):
    assert_table_matches_kronecker_generator(*point, seed)


@PROPERTY_SETTINGS
@given(points())
def test_steady_state_matches_complex_solve(point):
    p, space = point
    rho = solve_steady(p, space.n_a_max, space.n_b_max)
    reference = complex_steady_state(kronecker_liouvillian(p, space), space.dim)
    assert np.max(np.abs(rho.matrix - reference)) <= 1e-10


@PROPERTY_SETTINGS
@given(strong_points())
def test_strong_drive_steady_state_matches_complex_solve(point):
    p, space = point
    rho = solve_steady(p, space.n_a_max, space.n_b_max)
    reference = complex_steady_state(kronecker_liouvillian(p, space), space.dim)
    assert np.max(np.abs(rho.matrix - reference)) <= 1e-10


@st.composite
def capped(draw, boxed):
    """The parameters of a point of boxed on a space that caps the total
    excitation, as the ladder's levels do: cutoffs 1 to 4, caps 1 to 4."""
    p, _ = draw(boxed)
    n_a, n_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return p, build_space(n_a, n_b, draw(st.integers(1, min(n_a + n_b, 4))))


@PROPERTY_SETTINGS
@given(capped(points()))
def test_capped_steady_state_matches_complex_solve(point):
    p, space = point
    rho = solve_steady(p, space.n_a_max, space.n_b_max, space.max_excitation)
    reference = complex_steady_state(kronecker_liouvillian(p, space), space.dim)
    assert np.max(np.abs(rho.matrix - reference)) <= 1e-10


@PROPERTY_SETTINGS
@given(capped(strong_points()))
def test_strong_drive_capped_steady_state_matches_complex_solve(point):
    p, space = point
    rho = solve_steady(p, space.n_a_max, space.n_b_max, space.max_excitation)
    reference = complex_steady_state(kronecker_liouvillian(p, space), space.dim)
    assert np.max(np.abs(rho.matrix - reference)) <= 1e-10


@PROPERTY_SETTINGS
@given(points())
def test_steady_state_is_a_density_matrix(point):
    p, space = point
    m = solve_steady(p, space.n_a_max, space.n_b_max).matrix
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert np.array_equal(m, m.conj().T)
    assert np.linalg.eigvalsh(m).min() >= -PSD_TOL


@st.composite
def weak_drive_points(draw):
    """gamma_p = 0 points; detunings, J and couplings in units of kappa."""
    kappa = draw(st.floats(1.0, 100.0))
    return SystemParams(
        kappa=kappa,
        delta=kappa * draw(st.floats(-3.0, 3.0)),
        delta_a=kappa * draw(st.floats(-3.0, 3.0)),
        j_coupling=kappa * draw(st.one_of(st.just(0.0), st.floats(0.0, 40.0))),
        g_a=kappa * draw(st.floats(0.05, 1.5)),
        g_b=kappa * draw(st.floats(0.0, 1.5)),
        gamma_a=draw(st.floats(0.1, 10.0)),
    )


@PROPERTY_SETTINGS
@given(weak_drive_points())
def test_master_equation_tends_to_the_weak_drive_limit(p):
    """The relative gap between the two g2 values falls as (drive / kappa)^2.

    The law needs a weak drive, every weak-drive amplitude at most 1e-2 at
    drive 1e-2 kappa, and a driven-mode photon number of at least 1e-9 at
    1e-3 kappa, below which the gap there is set by rounding.
    """
    weak = {s: solve_weak_drive(p.replace(drive=s * p.kappa)) for s in (1e-2, 1e-3)}
    assume(max(map(abs, dataclasses.astuple(weak[1e-2])[:8])) <= 1e-2)
    assume(abs(weak[1e-3].c_100m) ** 2 >= 1e-9)
    gap = {
        s: abs(master_equation_g2(p.replace(drive=s * p.kappa), 3, 3) / amps.g2_ccw - 1.0)
        for s, amps in weak.items()
    }
    assert gap[1e-3] <= min(gap[1e-2] / 50 + 1e-7, 1e-2)


@PROPERTY_SETTINGS
@given(points())
def test_the_cw_mode_stays_empty_without_its_couplings(point):
    # Not exactly 0: pivoting mixes in rounding of order 1e-33 to 1e-31.
    p, _ = point
    rho = solve_steady(p.replace(j_coupling=0.0, g_b=0.0), 3, 3)
    assert abs(mean_photon(rho, "cw")) <= UNDERFLOW_GUARD
    with pytest.raises(UndefinedCorrelationError):
        g2_zero(rho, "cw")


@PROPERTY_SETTINGS
@given(points())
def test_spectrum_is_the_master_equation_output_at_weak_drive(point):
    """p_t = |i + kappa <a> / eps|^2 and p_r = |kappa <b> / eps|^2 of the steady
    state at eps = 1e-3 kappa, cutoff 3, with the emitter coupled and dephased:
    the two differ at order (eps / kappa)^2."""
    p, _ = point
    rho = solve_steady(p.replace(drive=1e-3 * p.kappa), 3, 3)
    a, b = (np.trace(annihilator(rho.space, mode) @ rho.matrix) / 1e-3 for mode in ("ccw", "cw"))
    p_t, p_r, _, _ = spectrum(p, [p.delta])
    assert p_t[0] == pytest.approx(abs(1j + a) ** 2, rel=1e-4)
    assert p_r[0] == pytest.approx(abs(b) ** 2, rel=1e-4, abs=1e-12)


@PROPERTY_SETTINGS
@given(points())
def test_weak_drive_amplitudes_are_the_vacuum_coherences_at_dephasing(point):
    """The eight amplitudes are rho[k, |0,0,->] of the steady state at
    eps = 1e-3 kappa, cutoff 3, with the emitter dephased (its coherences with
    the vacuum decay 2 gamma_p faster): the two differ at order (eps / kappa)^2."""
    p, _ = point
    p = p.replace(drive=1e-3 * p.kappa)
    c, _ = solve_weak_drive_rows(theta(p)[None])
    rho = solve_steady(p, 3, 3)
    coherences = rho.matrix[[rho.space.index(*ket) for ket in _KETS[1:]], rho.space.index(0, 0, "-")]
    np.testing.assert_allclose(c[0], coherences, rtol=1e-4, atol=1e-15)


@PROPERTY_SETTINGS
@given(weak_drive_points())
def test_spectrum_is_the_first_order_block_of_the_weak_drive_system(p):
    # spectrum() solves at kappa = 1 and unit drive: a_mean = kappa c_100m / eps
    p = p.replace(drive=1e-6 * p.kappa)
    amplitudes = solve_weak_drive(p)
    _, _, a_mean, b_mean = spectrum(p, [p.delta])
    assert a_mean[0] == pytest.approx(p.kappa * amplitudes.c_100m / p.drive, rel=1e-12)
    assert b_mean[0] == pytest.approx(p.kappa * amplitudes.c_010m / p.drive, rel=1e-12)


ANALYTIC = ("g2_analytic", "c1_abs2", "c2_abs2")


@st.composite
def analytic_sweeps(draw):
    """1-D and 2-D analytic sweeps over zero drive, gamma_p > 0, g_a == g_b and large J."""
    kappa = draw(st.floats(1.0, 60.0))
    g_a = draw(st.floats(0.0, 80.0))
    base = SystemParams(
        kappa=kappa,
        delta=draw(st.floats(-120.0, 120.0)),
        delta_a=draw(st.sampled_from([0.0, 35.0, -80.0])),
        j_coupling=draw(st.floats(0.0, 400.0 * kappa)),
        g_a=g_a,
        g_b=draw(st.sampled_from([g_a, 0.0, 31.0])),
        drive=draw(st.sampled_from([0.01, 1.0, 3.0, 0.0])),
        gamma_a=draw(st.sampled_from([1.0, 2.5, 0.0])),
        gamma_p=draw(st.sampled_from([0.0, 0.0, 0.0, 2.0])),
    )
    values = {
        "drive": st.sampled_from([0.5, 0.001, 50.0, 0.0]),
        "gamma_p": st.sampled_from([0.0, 0.0, 3.0]),
        "gamma_a": st.sampled_from([1.0, 0.0]),
        "g": st.floats(0.0, 100.0),
        "g_a": st.sampled_from([0.0, g_a, 12.0, 60.0]),
        "g_b": st.sampled_from([0.0, g_a, 12.0, 60.0]),
        "j_coupling": st.sampled_from([0.0, 40.0, 1600.0, 1e5]),
        "delta": st.floats(-200.0, 200.0),
        "delta_a": st.sampled_from([0.0, 20.0, -75.0]),
        "kappa": st.floats(0.5, 100.0),
    }
    axes = []
    for name in draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=2)):
        axes.append(value_axis(name, draw(st.lists(values[name], min_size=1, max_size=7))))
    outputs = tuple(draw(st.permutations(ANALYTIC))[:draw(st.integers(1, 3))])
    tie_delta_a = draw(st.booleans())
    assume(not axes_overlap(axes, tie_delta_a))
    spec = SweepSpec(base=base, axes=tuple(axes), outputs=outputs, tie_delta_a=tie_delta_a)
    return spec, draw(st.sampled_from([1, 2, 3, 1024]))


def axes_overlap(axes, tie_delta_a):
    """Whether two axes set one parameter, which SweepSpec rejects."""
    fields = [
        {"g": {"g_a", "g_b"}, "delta": {"delta", "delta_a"} if tie_delta_a else {"delta"}}
        .get(axis.name, {axis.name})
        for axis in axes
    ]
    return len(fields) == 2 and bool(fields[0] & fields[1])


def point_by_point(spec):
    """Rows (values, error code) and the hierarchy-warning count from one solve per point."""
    rows, warned = [], 0
    for point in itertools.product(*(axis.values for axis in spec.axes)):
        changes = {}
        for axis, value in zip(spec.axes, point):
            if axis.name == "g":
                changes.update(g_a=value, g_b=value)
            elif axis.name == "delta" and spec.tie_delta_a:
                changes.update(delta=value, delta_a=value)
            else:
                changes[axis.name] = value
        values = {name: math.nan for name in spec.outputs}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                amps = solve_weak_drive(spec.base.replace(**changes))
                readers = {
                    "g2_analytic": lambda: amps.g2_ccw,
                    "c1_abs2": lambda: abs(amps.c_100m) ** 2,
                    "c2_abs2": lambda: abs(amps.c_200m) ** 2,
                }
                for name in ANALYTIC:  # the sweep's evaluation order
                    if name in spec.outputs:
                        values[name] = readers[name]()
                code = ERROR_CODES["ok"]
            except BicavityError as exc:
                code = ERROR_CODES[exc.code]
        warned += len(caught)
        rows.append(([values[name] for name in spec.outputs], code))
    return rows, warned


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(analytic_sweeps())
def test_analytic_sweep_matches_point_by_point(drawn):
    spec, chunk = drawn
    expected, warned = point_by_point(spec)
    with mock.patch.object(sweep, "_CHUNK", chunk), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if all(code != ERROR_CODES["ok"] for _, code in expected):
            with pytest.raises(sweep.SweepError):
                run_sweep(spec)
            return
        table = run_sweep(spec)
    assert [str(w.message) for w in caught] == (
        [f"weak-drive hierarchy violated at {warned} of {len(expected)} analytic rows "
         "(drive is not weak there); amplitudes may not describe the steady state"]
        if warned else []
    )
    width = len(spec.axes)
    for row, (values, code) in zip(table.rows, expected, strict=True):
        assert row[-1] == code
        for got, want in zip(row[width:-1], values, strict=True):
            assert (math.isnan(got) and math.isnan(want)) or math.isclose(got, want, rel_tol=1e-12)


def engine_rows(p: SystemParams, outputs):
    """(values, codes, metadata lines) of the engine of outputs, called directly
    on the point's one row of a cutoff-4 sweep."""
    spec = SweepSpec(base=p, axes=(value_axis("kappa", [p.kappa]),), outputs=outputs)
    readers = [sweep._OUTPUTS[name][1] for name in outputs]
    return sweep._ENGINES[sweep._OUTPUTS[outputs[0]][0]](spec, readers, theta(p)[None], 1)


@st.composite
def analytic_rows(draw):
    """One weak-drive parameter row: gamma_p = 0 or > 0, sometimes no drive, and
    sometimes an emitter with no coupling, width or detuning (a singular system)."""
    singular = draw(st.booleans())
    return SystemParams(
        kappa=draw(st.floats(1.0, 60.0)),
        delta=draw(st.floats(-120.0, 120.0)),
        delta_a=0.0 if singular else draw(st.floats(-80.0, 80.0)),
        j_coupling=draw(st.floats(0.0, 400.0)),
        g_a=0.0 if singular else draw(st.floats(0.0, 80.0)),
        g_b=0.0 if singular else draw(st.floats(0.0, 80.0)),
        drive=draw(st.sampled_from([1.0, 0.1, 0.0])),
        gamma_a=0.0 if singular else draw(st.sampled_from([1.0, 2.5, 0.0])),
        gamma_p=draw(st.sampled_from([0.0, 0.0, 2.0])),
    )


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(analytic_rows())
def test_analytic_row_code_names_the_single_point_error(p):
    # A one-row run_sweep that fails raises SweepError, so the engine is read directly.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the hierarchy warning at drive 1
        values, codes, _ = engine_rows(p, ("g2_analytic",))
        try:
            g2, code = solve_weak_drive(p).g2_ccw, ERROR_CODES["ok"]
        except BicavityError as e:
            g2, code = math.nan, ERROR_CODES[type(e).code]
    assert codes.tolist() == [code]
    assert values[0, 0] == g2 or (math.isnan(values[0, 0]) and math.isnan(g2))


@st.composite
def mean_field_sweeps(draw):
    """1-D and 2-D spectrum sweeps over kappa, J and delta, with the emitter coupled."""
    values = {
        "kappa": st.floats(0.5, 100.0),
        "j_coupling": st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
        "delta": st.floats(-1e4, 1e4),
    }
    names = draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=2, unique=True))
    return SweepSpec(
        base=SystemParams(
            kappa=draw(values["kappa"]),
            delta=draw(values["delta"]),
            j_coupling=draw(values["j_coupling"]),
            g_a=20.0,
            drive=draw(st.sampled_from([1.0, 0.0, 3.0])),
            gamma_a=1.0,
        ),
        axes=tuple(
            value_axis(name, draw(st.lists(values[name], min_size=1, max_size=7)))
            for name in names
        ),
        outputs=draw(st.permutations(("p_t", "p_r")))[:draw(st.integers(1, 2))],
        tie_delta_a=draw(st.booleans()),
    )


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(mean_field_sweeps())
def test_mean_field_sweep_matches_spectrum(spec):
    table = run_sweep(spec)
    width = len(spec.axes)
    points = itertools.product(*(axis.values for axis in spec.axes))
    for row, point in zip(table.rows, points, strict=True):
        p = spec.base.replace(**{axis.name: v for axis, v in zip(spec.axes, point)})
        if spec.tie_delta_a and "delta" in (axis.name for axis in spec.axes):
            p = p.replace(delta_a=p.delta)
        p_t, p_r, _, _ = spectrum(p, [p.delta])
        expected = {"p_t": p_t[0], "p_r": p_r[0]}
        a_mean, b_mean = field_means(p.delta / p.kappa, p.j_coupling / p.kappa, 1.0, 1.0)
        powers = {"p_t": abs(1j + a_mean) ** 2, "p_r": abs(b_mean) ** 2}
        assert row[-1] == ERROR_CODES["ok"]
        for got, name in zip(row[width:-1], spec.outputs, strict=True):
            assert got == expected[name]
            if p.g_a == p.g_b == 0:  # the closed form has no emitter
                assert math.isclose(got, powers[name], rel_tol=1e-12)


def test_singular_chunk_falls_back_to_point_solves():
    # With g = 0 and gamma_a = 0 the emitter ket decouples: delta_a = 0 is singular.
    spec = SweepSpec(
        base=SystemParams(kappa=40.0, drive=1.0),
        axes=(value_axis("delta_a", [5.0, 0.0, -5.0]),),
        outputs=("g2_analytic", "c1_abs2"),
    )
    table = run_sweep(spec)
    assert list(table.column("error")) == [0.0, ERROR_CODES["analytic_singularity"], 0.0]
    assert np.isnan(table.rows[1][1:3]).all()
    amps = solve_weak_drive(spec.base.replace(delta_a=5.0))
    assert table.rows[0][1:3] == [amps.g2_ccw, abs2(np.array([amps.c_100m]))[0]]


def test_master_equation_failure_leaves_analytic_cells_nan(monkeypatch):
    solve = sweep.solve_steady

    def failing_at_resonance(params, *cutoffs):
        if params.delta == 0.0:
            raise SteadyStateSolverError("forced failure")
        return solve(params, *cutoffs)

    monkeypatch.setattr(sweep, "solve_steady", failing_at_resonance)
    spec = SweepSpec(
        base=reference_baseline(),
        axes=(value_axis("delta", [-40.0, 0.0, 40.0]),),
        outputs=("g2_analytic", "g2_ccw", "c2_abs2"),
        cutoff=2,
        tie_delta_a=True,
    )
    assert spec.engine == "master_equation,analytic"
    table = run_sweep(spec)
    assert list(table.column("error")) == [0.0, ERROR_CODES["solver_failure"], 0.0]
    assert np.isnan(table.rows[1][1:4]).all()
    assert not np.isnan(np.array(table.rows[0] + table.rows[2])).any()


LADDER_OUTPUTS = ("n_ccw", "n_cw", "g2_ccw", "g2_cw")


@st.composite
def ladder_points(draw):
    """Cutoff-4 points from weak to strong drive, with and without dephasing,
    J or g_b: rows the ladder accepts, rows it sends to the box, and rows
    whose cw g2 is undefined."""
    kappa = draw(st.floats(1.0, 100.0))
    return SystemParams(
        kappa=kappa,
        delta=kappa * draw(st.floats(-3.0, 3.0)),
        delta_a=kappa * draw(st.floats(-3.0, 3.0)),
        j_coupling=kappa * draw(st.floats(0.0, 40.0)),
        g_a=kappa * draw(st.floats(0.05, 1.5)),
        g_b=kappa * draw(st.floats(0.0, 1.5)),
        drive=kappa * 10.0 ** draw(st.floats(-3.0, 0.0)),
        gamma_a=draw(st.floats(0.1, 10.0)),
        gamma_p=draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
    )


def master_row(p: SystemParams, outputs=LADDER_OUTPUTS):
    """The point's cutoff-4 master-equation row as a sweep decides it: (outputs, code, level)."""
    values, codes, lines = engine_rows(p, outputs)
    counts = dict(field.split(":") for field in lines["master_levels"].split(";"))
    (level,) = [level for level, count in counts.items() if count == "1"]
    return values[0].tolist(), int(codes[0]), level if level == sweep.BOX_LEVEL else int(level)


def box_row(p: SystemParams):
    """The point's outputs and code from solve_steady's cutoff-4 box, read in sweep order."""
    out = [math.nan] * len(LADDER_OUTPUTS)
    try:
        rho = solve_steady(p, 4, 4)
        for k, name in enumerate(LADDER_OUTPUTS):
            out[k] = sweep._OUTPUTS[name][1](rho)
    except BicavityError as e:
        return out, ERROR_CODES[type(e).code]
    return out, ERROR_CODES["ok"]


def same(got, want) -> bool:
    return all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, want, strict=True))


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(ladder_points())
def test_ladder_row_matches_the_box(p):
    out, code, level = master_row(p)
    want, want_code = box_row(p)
    assert code == want_code
    if level == sweep.BOX_LEVEL:
        assert same(out, want)
    else:
        assert level in (4, 5) and code == ERROR_CODES["ok"]
        for got, ref in zip(out, want, strict=True):
            assert abs(got - ref) <= sweep.LADDER_RTOL * abs(ref)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(ladder_points())
def test_accepted_level_is_within_tolerance_of_the_level_below(p):
    readers = [sweep._OUTPUTS[name][1] for name in LADDER_OUTPUTS]
    out, code, residual, level = sweep._master_row(p, 4, readers)
    assume(level != sweep.BOX_LEVEL)
    assert code == ERROR_CODES["ok"]
    rho = solve_steady(p, 4, 4, level)
    assert out == [read(rho) for read in readers] and residual == rho.residual
    below = solve_steady(p, 4, 4, level - 1)
    for got, ref in zip(out, [read(below) for read in readers], strict=True):
        assert abs(got - ref) <= sweep.LADDER_RTOL * abs(got)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_master_row_below_the_ladder_solves_the_box_once(cutoff):
    calls = []
    solve = sweep.solve_steady

    def recording(params, *cutoffs, **kwargs):
        calls.append((cutoffs, kwargs))
        return solve(params, *cutoffs, **kwargs)

    p = reference_baseline()
    readers = [sweep._OUTPUTS["g2_ccw"][1]]
    with mock.patch.object(sweep, "solve_steady", recording):
        out, code, residual, level = sweep._master_row(p, cutoff, readers)
    assert calls == [((cutoff, cutoff), {})]
    assert (code, level) == (ERROR_CODES["ok"], sweep.BOX_LEVEL)
    rho = solve_steady(p, cutoff, cutoff)
    assert out == [g2_zero(rho, "ccw")] and residual == rho.residual


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(ladder_points(), st.sampled_from([3, 4, 5]), st.sampled_from(
    [SteadyStateSolverError, DegenerateSteadyStateError, UndefinedCorrelationError]))
def test_ladder_level_that_raises_sends_the_row_to_the_box(p, failing, error):
    calls = []
    solve = sweep.solve_steady

    def failing_at_level(params, *cutoffs, **kwargs):
        calls.append((cutoffs, kwargs))
        if cutoffs[2:] == (failing,):
            raise error("forced failure")
        return solve(params, *cutoffs)

    with mock.patch.object(sweep, "solve_steady", failing_at_level):
        out, code, level = master_row(p)
    if level != sweep.BOX_LEVEL:
        # accepted at level 4 below a failing level 5, which it never solved
        assert (level, failing) == (4, 5)
        assert calls == [((4, 4, 3), {}), ((4, 4, 4), {})]
        return
    want, want_code = box_row(p)
    assert code == want_code and same(out, want)
    # every solve, capped or box, goes positionally through sweep.solve_steady
    # and the ladder stops at the failing level, or earlier at an undefined output
    capped = [c for c, _ in calls[:-1]]
    assert calls[-1] == ((4, 4), {})
    assert 1 <= len(capped) <= failing - 2
    assert capped == [(4, 4, k) for k in range(3, 3 + len(capped))]


def test_ladder_levels_are_counted_in_the_metadata():
    spec = SweepSpec(
        base=reference_baseline(),
        axes=(value_axis("drive", [0.1, 1.0, 30.0]),),
        outputs=("g2_ccw",),
    )
    drives = spec.axes[0].values
    levels = [master_row(spec.base.replace(drive=d), spec.outputs)[2] for d in drives]
    assert levels == [4, 5, sweep.BOX_LEVEL]
    table = run_sweep(spec)
    assert table.metadata["master_levels"] == "4:1;5:1;box:1"
    assert list(table.metadata)[-1] == "error_codes"
    # the levels run to one past the cutoff, inside the box
    cut5 = run_sweep(dataclasses.replace(spec, axes=(value_axis("drive", [1.0]),), cutoff=5))
    fields = dict(field.split(":") for field in cut5.metadata["master_levels"].split(";"))
    assert list(fields) == ["4", "5", "6", sweep.BOX_LEVEL]
    assert sum(map(int, fields.values())) == 1
    cut3 = run_sweep(dataclasses.replace(spec, cutoff=3))
    assert "master_levels" not in cut3.metadata  # no ladder below cutoff 4
