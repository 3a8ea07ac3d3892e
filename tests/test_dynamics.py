import dataclasses
import itertools

import numpy as np
import pytest

from bicavity import (
    SystemParams,
    annihilator,
    build_space,
    reference_baseline,
)
from bicavity.dynamics import FIELDS, from_real_coordinates, operator_table
from test_properties import generator_action, kronecker_liouvillian, random_density


def total_excitation(label):
    n_a, n_b, i = label
    return n_a + n_b + (1 if i == "+" else 0)


def weighted_parts(p: SystemParams, space, coherent_only: bool = False) -> np.ndarray:
    """sum_k theta_k H_k over the table's fields: H_nh, or H if coherent_only."""
    table = operator_table(space)
    names = [name for name in FIELDS if not (coherent_only and name in table.jumps)]
    return sum(getattr(p, name) * table.nonhermitian[name] for name in names)


def test_hamiltonian_hermitian():
    rng = np.random.default_rng(7)
    space = build_space(3, 3)
    for _ in range(10):
        p = SystemParams(
            kappa=rng.uniform(0.5, 50),
            delta=rng.uniform(-50, 50),
            delta_a=rng.uniform(-50, 50),
            j_coupling=rng.uniform(0, 100),
            g_a=rng.uniform(0, 40),
            g_b=rng.uniform(0, 40),
            drive=rng.uniform(0, 5),
            gamma_a=1.0,
        )
        h = weighted_parts(p, space, coherent_only=True)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_detuning_term_diagonal():
    space = build_space(2, 2)
    p = SystemParams(kappa=1.0, delta=1.0)
    h = weighted_parts(p, space, coherent_only=True)
    diag = np.array([label[0] + label[1] for label in space.labels()], dtype=float)
    assert np.allclose(h, np.diag(diag))


def test_mode_coupling_single_photon_block():
    # restricted to {|1,0,->, |0,1,->} the coupling is a 2x2 swap with eigenvalues +-J
    space = build_space(1, 1)
    p = SystemParams(kappa=1.0, j_coupling=3.5)
    h = weighted_parts(p, space, coherent_only=True)
    idx = [space.index(1, 0, "-"), space.index(0, 1, "-")]
    block = h[np.ix_(idx, idx)]
    assert np.allclose(np.sort(np.linalg.eigvalsh(block)), [-3.5, 3.5])


def test_excitation_blocks_decouple_without_drive():
    space = build_space(2, 2)
    p = reference_baseline(drive=0.0, j_coupling=100.0, delta=3.0, delta_a=-2.0)
    h = weighted_parts(p, space, coherent_only=True)
    labels = space.labels()
    for r in range(space.dim):
        for c in range(space.dim):
            if total_excitation(labels[r]) != total_excitation(labels[c]):
                assert h[r, c] == 0.0


def test_single_excitation_block_matrix():
    space = build_space(2, 2)
    p = SystemParams(
        kappa=40.0, delta=5.0, delta_a=-3.0, j_coupling=240.0, g_a=20.0, g_b=15.0,
        gamma_a=1.0,
    )
    h = weighted_parts(p, space)
    idx = [space.index(1, 0, "-"), space.index(0, 1, "-"), space.index(0, 0, "+")]
    dp = p.delta - 0.5j * p.kappa
    dd = p.delta_a - 0.5j * p.gamma_a
    expected = np.array(
        [[dp, p.j_coupling, p.g_a],
         [p.j_coupling, dp, p.g_b],
         [p.g_a, p.g_b, dd]]
    )
    assert np.allclose(h[np.ix_(idx, idx)], expected)


def test_nonhermitian_decay_rates():
    space = build_space(2, 2)
    p = SystemParams(kappa=8.0, gamma_a=2.0, gamma_p=0.75)
    h = weighted_parts(p, space)
    anti = (h - h.conj().T) / 2.0
    for flat, (n_a, n_b, i) in enumerate(space.labels()):
        # dephasing's sigma_z' sigma_z = 1 adds gamma_p to every state
        rate = 8.0 * (n_a + n_b) + (2.0 if i == "+" else 0.0) + 0.75
        assert anti[flat, flat] == pytest.approx(-0.5j * rate)
    assert np.max(np.abs(anti - np.diag(np.diag(anti)))) == 0.0


def test_trace_preservation():
    rng = np.random.default_rng(11)
    space = build_space(2, 2)
    p = reference_baseline(j_coupling=240.0, gamma_p=3.0)
    for _ in range(10):
        rho = random_density(rng, space.dim)
        assert abs(np.trace(generator_action(p, space, rho))) < 1e-12


def test_hermiticity_preservation():
    # The product's real coordinates hold only the upper triangle of L[rho],
    # so its output is Hermitian by construction: compare it with the full
    # output of the Kronecker generator, which must be Hermitian itself.
    rng = np.random.default_rng(12)
    space = build_space(2, 2)
    p = reference_baseline(j_coupling=100.0, gamma_p=1.5)
    rho = random_density(rng, space.dim)
    out = (kronecker_liouvillian(p, space) @ rho.flatten(order="F")).reshape(rho.shape, order="F")
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert np.max(np.abs(generator_action(p, space, rho) - out)) < 1e-12


def test_vacuum_stationary_without_drive():
    space = build_space(2, 2)
    vac = np.zeros((space.dim, space.dim), dtype=complex)
    vac[space.index(0, 0, "-"), space.index(0, 0, "-")] = 1.0
    out = generator_action(SystemParams(kappa=40.0, gamma_a=1.0), space, vac)
    assert np.max(np.abs(out)) < 1e-14


def test_photon_decay_rate():
    # d<n_a>/dt = -kappa <n_a> for a bare decaying cavity
    space = build_space(2, 2)
    kappa = 7.0
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[space.index(1, 0, "-"), space.index(1, 0, "-")] = 1.0
    out = generator_action(SystemParams(kappa=kappa, gamma_a=1.0), space, rho)
    num = annihilator(space, "ccw").conj().T @ annihilator(space, "ccw")
    assert np.trace(num @ out).real == pytest.approx(-kappa, rel=1e-12)


def test_dephasing_preserves_trace_and_populations():
    space = build_space(1, 1)
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    i, j = space.index(0, 0, "-"), space.index(0, 0, "+")
    rho[i, i] = rho[j, j] = 0.5
    rho[i, j] = rho[j, i] = 0.5
    p = SystemParams(kappa=40.0, gamma_a=1.0)
    out = generator_action(p.replace(gamma_p=2.0), space, rho) - generator_action(p, space, rho)
    # populations untouched, coherence decays at 2*gamma_p under the sigma_z channel
    assert out[i, i] == pytest.approx(0.0, abs=1e-14)
    assert out[j, j] == pytest.approx(0.0, abs=1e-14)
    assert out[i, j] == pytest.approx(-2.0 * 2.0 * 0.5, rel=1e-12)


def excitations(space) -> np.ndarray:
    """k = n_a + n_b + [emitter excited] of every basis state."""
    return np.array([total_excitation(label) for label in space.labels()])


def excitation_groups(space) -> np.ndarray:
    """m = |k_i - k_j| of every vec position (i, j)."""
    k = excitations(space)
    vec = np.arange(space.dim**2)
    return np.abs(k[vec % space.dim] - k[vec // space.dim])


def twin_entries(table) -> np.ndarray:
    """Generator entries the layout leaves out: Im columns between groups m >= 1."""
    group = excitation_groups(table.space)
    rows, cols, _ = table.generator
    return np.flatnonzero((group[rows] > 0) & np.isin(cols, table.blocks.imag))


def grading_violations(table) -> int:
    """Generator entries that break the grading by excitation difference.

    Entries between groups must join neighbouring groups, and only the drive
    may contribute there.
    """
    group = excitation_groups(table.space)
    rows, cols, parts = table.generator
    across = group[rows] != group[cols]
    far = np.abs(group[rows] - group[cols]) > 1
    others = np.delete(parts, FIELDS.index("drive"), axis=0)
    return int(np.count_nonzero(far) + np.count_nonzero(others[:, across]))


# Boxes, and spaces that cap the excitation as the ladder's levels do.
CUTOFFS = [*itertools.product((1, 2, 3), repeat=2),
           (3, 3, 2), (3, 3, 3), (4, 4, 3), (4, 4, 4), (4, 4, 5)]


@pytest.mark.parametrize("cutoffs", CUTOFFS)
def test_only_the_drive_joins_neighbouring_groups(cutoffs):
    table = operator_table(build_space(*cutoffs))
    assert grading_violations(table) == 0
    # The solver's layout: group 0 holds the positions with k_i = k_j, vec
    # position 0 first; group m >= 1 holds complex slots rho_uv with
    # k_v - k_u = m, each with a Re and an Im position.
    layout = table.blocks
    dim = table.space.dim
    k = excitations(table.space)
    group = excitation_groups(table.space)
    assert np.array_equal(np.sort(layout.members(0)), np.flatnonzero(group == 0))
    assert layout.order[0] == 0
    i, j = layout.order[layout.bounds[1] :] % dim, layout.order[layout.bounds[1] :] // dim
    assert np.all(i < j)
    assert np.array_equal(layout.imag, i * dim + j)
    u, v = np.where(layout.sign > 0, i, j), np.where(layout.sign > 0, j, i)
    slot_group = np.repeat(np.arange(1, len(layout.bounds) - 1), np.diff(layout.bounds)[1:])
    assert np.array_equal(k[v] - k[u], slot_group)
    # Group 0 and the Re and Im positions of the slots cover every position once.
    positions = np.concatenate([layout.order, layout.imag])
    assert np.array_equal(np.sort(positions), np.arange(dim**2))
    # Every generator entry is in exactly one block or is a checked twin.
    index = np.concatenate([layout.fill[0], twin_entries(table)])
    assert np.array_equal(np.sort(index), np.arange(table.generator[0].size))


@pytest.mark.parametrize("cutoffs", CUTOFFS)
def test_gather_then_scatter_returns_the_coordinates(cutoffs):
    layout = operator_table(build_space(*cutoffs)).blocks
    x = np.random.default_rng(sum(cutoffs)).standard_normal(layout.order.size + layout.imag.size)
    assert np.array_equal(layout.scatter(layout.gather(x)), x)


@pytest.mark.parametrize("cutoffs", CUTOFFS)
def test_assembled_blocks_act_as_the_generator(cutoffs):
    # Each elimination step's buffer holds its blocks; together they are the
    # block-tridiagonal generator, and L[b, b-1]'s extra column starts at zero.
    table = operator_table(build_space(*cutoffs))
    layout = table.blocks
    rng = np.random.default_rng(sum(cutoffs))
    values = table.values(SystemParams(*rng.uniform(0.5, 2.0, len(FIELDS))))
    x = rng.standard_normal(table.space.dim**2)
    entries, xs, ys = layout.entries(values), layout.gather(x), layout.gather(table.matvec(values, x))
    blocks = {}
    for step in range(len(layout.bounds) - 2, 0, -1):
        assembled = layout.assemble(entries, step)
        assert not np.any(assembled[step, step - 1][:, -1])
        assembled[step, step - 1] = assembled[step, step - 1][:, :-1]
        blocks.update(assembled)
    for a, y in enumerate(ys):
        out = sum(blocks[a, b] @ xs[b] for b in range(max(a - 1, 0), min(a + 2, len(xs))))
        np.testing.assert_allclose(out.real if a == 0 else out, y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cutoffs", CUTOFFS)
def test_plan_reads_rho_and_its_largest_entry_as_the_generic_map(cutoffs):
    # The plan's index maps give from_real_coordinates bit for bit on finite
    # coordinates (zeros of either sign included), and its max |rho_ij| on any.
    space = build_space(*cutoffs)
    layout, dim = operator_table(space).blocks, space.dim
    rng = np.random.default_rng(sum(cutoffs))
    x = rng.standard_normal(dim**2) * rng.integers(0, 2, dim**2)
    x[rng.integers(0, 2, dim**2) == 1] *= -1.0
    assert layout.matrix(x).tobytes() == from_real_coordinates(x, dim).tobytes()
    for special in (np.inf, -np.inf, np.nan):
        for position in (0, 1, dim, dim**2 - 1):
            y = x.copy()
            y[position] = special
            with np.errstate(invalid="ignore"):
                expected = np.max(np.abs(from_real_coordinates(y, dim)))
                assert np.array_equal(layout.largest(y), expected, equal_nan=True)


def test_a_twin_that_breaks_complex_linearity_is_caught():
    table = operator_table(build_space(2, 1))
    rows, cols, parts = table.generator
    twin = twin_entries(table)[0]
    parts = parts.copy()
    parts[np.flatnonzero(parts[:, twin])[0], twin] *= 1.0 + 1e-9
    broken = dataclasses.replace(table)
    vars(broken)["generator"] = (rows, cols, parts)
    with pytest.raises(AssertionError):
        broken.blocks


def test_a_term_that_breaks_the_grading_is_caught():
    table = operator_table(build_space(2, 1))
    a_plus_ad = table.nonhermitian["drive"]
    # The drive's a + a' under another field's name breaks the grading.
    broken = dataclasses.replace(table, nonhermitian={**table.nonhermitian, "delta": a_plus_ad})
    assert grading_violations(broken) > 0
    # A two-photon term joins groups two apart: the layout refuses it.
    two_photon = a_plus_ad @ a_plus_ad
    broken = dataclasses.replace(table, nonhermitian={**table.nonhermitian, "delta": two_photon})
    assert grading_violations(broken) > 0
    with pytest.raises(AssertionError):
        broken.blocks
