import numpy as np
import pytest

from bicavity import (
    InvalidTruncationError,
    annihilator,
    build_space,
    emitter_excitation_projector,
    emitter_lowering,
    pauli_z,
)


@pytest.mark.parametrize("na,nb,dim", [(1, 1, 8), (2, 2, 18), (4, 4, 50), (2, 3, 24)])
def test_dimensions(na, nb, dim):
    assert build_space(na, nb).dim == dim


@pytest.mark.parametrize("na,nb", [(0, 2), (2, 0), (-1, 3)])
def test_invalid_truncation(na, nb):
    with pytest.raises(InvalidTruncationError):
        build_space(na, nb)


def test_index_round_trip():
    space = build_space(3, 2)
    seen = set()
    for n_a in range(4):
        for n_b in range(3):
            for i in ("-", "+"):
                flat = space.index(n_a, n_b, i)
                assert space.label(flat) == (n_a, n_b, i)
                seen.add(flat)
    assert seen == set(range(space.dim))


def test_index_validation():
    space = build_space(2, 2)
    with pytest.raises(IndexError):
        space.index(3, 0, "-")
    with pytest.raises(IndexError):
        space.index(0, 0, "up")
    with pytest.raises(IndexError):
        space.label(space.dim)


def test_ladder_elements():
    space = build_space(2, 2)
    a = annihilator(space, "ccw")
    assert a[space.index(0, 0, "-"), space.index(1, 0, "-")] == pytest.approx(1.0)
    assert a[space.index(1, 0, "-"), space.index(2, 0, "-")] == pytest.approx(np.sqrt(2))
    # truncation: nothing maps out of the top state
    col = space.index(2, 0, "-")
    assert np.all(a[:, col] == a[:, col])  # finite
    assert np.count_nonzero(a[:, col]) == 1


@pytest.mark.parametrize("mode,cutoff_attr", [("ccw", "n_a_max"), ("cw", "n_b_max")])
def test_commutator_on_untruncated_block(mode, cutoff_attr):
    # [a, a+] restricted below the cutoff equals the identity there.
    space = build_space(2, 2)
    a = annihilator(space, mode)
    comm = a @ a.conj().T - a.conj().T @ a
    cutoff = getattr(space, cutoff_attr)
    for flat in range(space.dim):
        n_a, n_b, i = space.label(flat)
        n = n_a if mode == "ccw" else n_b
        if n < cutoff:
            assert comm[flat, flat] == pytest.approx(1.0)
            row = comm[flat, :].copy()
            row[flat] = 0.0
            assert np.max(np.abs(row)) < 1e-14


def test_emitter_algebra():
    space = build_space(1, 1)
    sm = emitter_lowering(space)
    sp = sm.conj().T
    assert np.allclose(sm @ sp + sp @ sm, np.eye(space.dim))
    assert np.max(np.abs(sm @ sm)) == 0.0
    assert sm[space.index(0, 0, "-"), space.index(0, 0, "+")] == pytest.approx(1.0)


def test_projector_and_pauli():
    space = build_space(1, 1)
    pe = emitter_excitation_projector(space)
    sz = pauli_z(space)
    assert np.allclose(pe @ pe, pe)
    assert np.allclose(sz @ sz, np.eye(space.dim))
    assert np.allclose(sz, 2 * pe - np.eye(space.dim))


def test_factors_commute():
    space = build_space(4, 4)
    a = annihilator(space, "ccw")
    b = annihilator(space, "cw")
    sm = emitter_lowering(space)
    for x, y in [(a, b), (a, sm), (b, sm), (a, b.conj().T), (b, sm.conj().T)]:
        assert np.max(np.abs(x @ y - y @ x)) < 1e-13


def excitations(space, flat):
    n_a, n_b, i = space.label(flat)
    return n_a + n_b + (i == "+")


@pytest.mark.parametrize("na,nb,cap,dim", [
    (4, 4, 1, 4), (4, 4, 3, 16), (4, 4, 4, 25), (2, 3, 2, 9),
])
def test_capped_index_label_round_trip(na, nb, cap, dim):
    space = build_space(na, nb, cap)
    box = build_space(na, nb)
    assert space.dim == dim
    kept = [label for label in box.labels() if label[0] + label[1] + (label[2] == "+") <= cap]
    assert space.labels() == kept  # box order, kept kets only
    for flat, label in enumerate(kept):
        assert space.index(*label) == flat
        assert space.label(flat) == label
    with pytest.raises(IndexError):
        space.label(dim)
    over = next(label for label in box.labels() if label not in kept)
    with pytest.raises(IndexError, match="excitations"):
        space.index(*over)


@pytest.mark.parametrize("make", [
    lambda s: annihilator(s, "ccw"),
    lambda s: annihilator(s, "cw"),
    emitter_lowering,
    emitter_excitation_projector,
    pauli_z,
], ids=["a", "b", "sigma_minus", "projector", "pauli_z"])
@pytest.mark.parametrize("cap", [1, 3, 4, 6])
def test_capped_operators_are_box_operators_restricted(make, cap):
    box, space = build_space(4, 3), build_space(4, 3, cap)
    kept = [box.index(*label) for label in space.labels()]
    assert np.array_equal(make(space), make(box)[np.ix_(kept, kept)])
    assert space.index(0, 0, "-") == 0  # the vacuum still leads


def test_capped_lowering_keeps_the_kept_kets():
    # a'a, a'b, ... of restricted operators equal the restricted box products
    box, space = build_space(3, 3), build_space(3, 3, 3)
    kept = [box.index(*label) for label in space.labels()]
    ops = [annihilator(space, "ccw"), annihilator(space, "cw"), emitter_lowering(space)]
    box_ops = [annihilator(box, "ccw"), annihilator(box, "cw"), emitter_lowering(box)]
    for x, bx in zip(ops, box_ops):
        for y, by in zip(ops, box_ops):
            assert np.array_equal(x.conj().T @ y, (bx.conj().T @ by)[np.ix_(kept, kept)])
    assert all(excitations(space, k) <= 3 for k in range(space.dim))


@pytest.mark.parametrize("na,nb", [(2, 2), (4, 4), (2, 3)])
def test_cap_above_every_ket_is_the_box(na, nb):
    box = build_space(na, nb)
    for cap in (na + nb + 1, na + nb + 5):
        space = build_space(na, nb, cap)
        assert space == box and hash(space) == hash(box)
        assert space.max_excitation is None
        assert space.dim == box.dim and space.labels() == box.labels()
        assert np.array_equal(annihilator(space, "ccw"), annihilator(box, "ccw"))
    assert build_space(na, nb, na + nb).dim == box.dim - 1  # only |na, nb, +> goes


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_rejected(cap):
    with pytest.raises(InvalidTruncationError, match="excitation cap"):
        build_space(2, 2, cap)
