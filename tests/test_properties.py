"""Property checks of the affine operator table and the real-coordinate solver.

The reference is the direct construction: the Lindblad generator assembled
from Kronecker products of the full operators, and its steady state from a
dense complex solve with the trace condition in place of the first row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bicavity import (
    SystemParams,
    annihilator,
    build_space,
    emitter_excitation_projector,
    emitter_lowering,
    liouvillian,
    pauli_z,
    solve_steady,
    unvectorize,
)
from bicavity.steadystate import PSD_TOL


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


def complex_steady_state(lmat: np.ndarray, dim: int) -> np.ndarray:
    system = lmat.copy()
    system[0] = 0.0
    system[0, np.arange(dim) * (dim + 1)] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    return unvectorize(np.linalg.solve(system, rhs), dim)


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


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(points())
def test_table_matches_kronecker_generator(point):
    p, space = point
    reference = kronecker_liouvillian(p, space)
    table = liouvillian(p, space).matrix
    assert np.max(np.abs(table - reference)) <= 1e-12 * np.max(np.abs(reference))


@PROPERTY_SETTINGS
@given(points())
def test_steady_state_matches_complex_solve(point):
    p, space = point
    rho = solve_steady(p, space.n_a_max, space.n_b_max)
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
