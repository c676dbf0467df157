"""One layout for every matrix family: a :class:`Rep` keeps its images as one
(n, d, d) stack with ``gens`` a view of it, a :class:`ProjectiveRep` its
matrices and a :class:`CovariantRep` its unitaries likewise.

Covers the batched conjugation and block diagonal, the shape checks, and the
reorder path of ``_unit_images`` for labels not in basis order (a JSON round
trip sorts them, so ``b10_...`` precedes ``b2_...``).
"""

import json

import numpy as np
import pytest

from crossrep.analyzer import analyze
from crossrep.crossed import build_crossed_model
from crossrep.errors import DimensionMismatch, InvariantViolation
from crossrep.examples import cute_example, weyl_pair_homogeneous
from crossrep.linalg import block_diag, random_unitary
from crossrep.reps import (
    CovariantRep,
    ProjectiveRep,
    Rep,
    _unit_images,
    decompose,
    hom_dim,
    rep_compose,
)
from crossrep.sampling import crossed_irreps, random_cyclic_action
from crossrep.serialize import rep_from_json, rep_to_json


def test_gens_is_a_read_only_view_of_the_stack():
    rep = cute_example()[1].base
    assert rep.stack.shape == (len(rep.labels), rep.dim, rep.dim)
    assert list(rep.gens) == list(rep.labels)
    for i, l in enumerate(rep.labels):
        assert np.shares_memory(rep.gens[l], rep.stack)
        assert np.array_equal(rep.gens[l], rep.stack[i])
    with pytest.raises(TypeError):
        rep.gens["x"] = np.eye(rep.dim)


def test_projective_mats_and_covariant_unitaries_are_stacks():
    cov = weyl_pair_homogeneous(2)
    n = cov.group.order
    assert cov.unitaries.shape == (n, cov.dim, cov.dim)
    proj = ProjectiveRep(cov.group, cov.unitaries, np.ones((n, n)))
    assert proj.mats is proj.stack and proj.labels == tuple(range(n))
    joint = cov.joint_rep()
    assert joint.labels == cov.base.labels + tuple(f"U[{g}]" for g in cov.group.labels)
    assert np.array_equal(joint.stack, np.concatenate([cov.base.stack, cov.unitaries]))


def test_wrong_shape_generator_names_its_label():
    with pytest.raises(DimensionMismatch, match="'B'"):
        Rep(2, {"A": np.eye(2), "B": np.eye(3), "C": np.eye(2)})
    with pytest.raises(DimensionMismatch, match="'B'"):
        Rep(2, {"A": np.eye(2), "B": np.ones(2)})
    with pytest.raises(DimensionMismatch, match="'x'"):
        Rep(2, np.zeros((2, 3, 3)), ["x", "y"])


def test_wrong_shape_or_count_of_unitaries_raises():
    act, cov = cute_example()
    good = list(cov.unitaries)
    for bad in (np.eye(cov.dim + 1), np.ones(cov.dim)):
        with pytest.raises(DimensionMismatch):
            CovariantRep(cov.base, act, [*good[:-1], bad])
    with pytest.raises(InvariantViolation):
        CovariantRep(cov.base, act, good[:-1])


def test_a_wrongly_shaped_stacked_array_still_raises():
    # a stacked array of the right (n, d, d) shape is checked once by its
    # shape; any other goes through the per-image loop and its errors
    with pytest.raises(DimensionMismatch, match="'x'"):
        Rep(2, np.zeros((2, 2, 3)), ["x", "y"])
    with pytest.raises(DimensionMismatch, match="'x'"):
        Rep(2, np.zeros((2, 1, 1), dtype=complex), ["x", "y"])
    act, cov = cute_example()
    n, d = act.group.order, cov.dim
    for shape in ((n, d + 1, d + 1), (n, d, d + 1), (n, d)):
        with pytest.raises(DimensionMismatch):
            CovariantRep(cov.base, act, np.zeros(shape, dtype=complex))
    with pytest.raises(InvariantViolation):
        CovariantRep(cov.base, act, np.zeros((n - 1, d, d), dtype=complex))
    assert np.array_equal(CovariantRep(cov.base, act, np.array(cov.unitaries)).unitaries, cov.unitaries)


def test_block_diag_of_stacks_is_blockwise(rng):
    a = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    b = rng.standard_normal((4, 1, 1))
    c = rng.standard_normal((3, 2))  # broadcast over the leading axis
    got = block_diag(a, b, c)
    assert got.shape == (4, 6, 6) and got.dtype == complex
    for i in range(4):
        assert np.array_equal(got[i], block_diag(a[i], b[i], c))
    assert block_diag().shape == (0, 0)
    with pytest.raises(DimensionMismatch):
        block_diag(np.ones(3))


def test_conjugate_is_the_per_matrix_product(rng):
    Q = random_unitary(4, rng)[:, :3]  # an isometry
    Qh = Q.conj().T
    act, cov = cute_example()

    rep = cov.base.conjugate(Q)
    assert rep.labels == cov.base.labels and rep.dim == 3
    for l, M in cov.base.gens.items():
        assert np.allclose(rep.gens[l], Qh @ M @ Q, rtol=0, atol=1e-14)

    both = cov.conjugate(Q)
    assert both.action is act and both.base.labels == cov.base.labels
    for U, V in zip(cov.unitaries, both.unitaries):
        assert np.allclose(V, Qh @ U @ Q, rtol=0, atol=1e-14)

    n = act.group.order
    proj = ProjectiveRep(act.group, cov.unitaries, np.exp(0.3j) * np.ones((n, n)))
    got = proj.conjugate(Q)
    assert isinstance(got, ProjectiveRep)
    assert got.group is act.group and got.cocycle is proj.cocycle and got.labels == tuple(range(n))
    for M, N in zip(proj.mats, got.mats):
        assert np.allclose(N, Qh @ M @ Q, rtol=0, atol=1e-14)


def _sorted_roundtrip(rep: Rep) -> Rep:
    return rep_from_json(json.loads(json.dumps(rep_to_json(rep))))


@pytest.fixture(scope="module")
def eleven_blocks():
    # twelve blocks: b10_00 and b11_.. sort before b2_00
    act = random_cyclic_action(2, [1] * 11 + [2], np.random.default_rng(1))
    return act, crossed_irreps(act)


def test_unit_images_returns_the_stack_in_basis_order(eleven_blocks):
    act, irreps = eleven_blocks
    base = irreps[-1].base
    labels = act.algebra.basis_labels()
    assert base.labels == tuple(labels)
    assert _unit_images(base, labels) is base.stack
    again = _sorted_roundtrip(base)
    assert again.labels == tuple(sorted(labels))
    assert again.labels.index("b10_00") < again.labels.index("b2_00")
    assert np.array_equal(_unit_images(again, labels), base.stack)


def test_sorted_labels_give_the_same_results(eleven_blocks, tol):
    act, irreps = eleven_blocks
    for cov in (irreps[0], irreps[-1]):
        sorted_cov = CovariantRep(_sorted_roundtrip(cov.base), act, cov.unitaries)
        for g in range(act.group.order):
            want, got = rep_compose(cov.base, act, g), rep_compose(sorted_cov.base, act, g)
            assert got.labels == sorted_cov.base.labels
            assert all(np.array_equal(got.gens[l], M) for l, M in want.gens.items())
        assert hom_dim(sorted_cov, sorted_cov, tol) == hom_dim(cov, sorted_cov, tol) == 1
        want, got = analyze(cov, tol=tol), analyze(sorted_cov, tol=tol)
        assert got.subgroup == want.subgroup and got.multiplicity == want.multiplicity
        assert np.array_equal(got.conjugator, want.conjugator)
        assert np.array_equal(got.psi.unitaries, want.psi.unitaries)

    model = build_crossed_model(act, tol).defining_covariant_rep()
    sorted_model = CovariantRep(_sorted_roundtrip(model.base), act, model.unitaries)
    want, got = decompose(model, tol=tol), decompose(sorted_model, tol=tol)
    assert [(r.dim, m) for r, m in got.components] == [(r.dim, m) for r, m in want.components]
    assert np.array_equal(got.basis_change, want.basis_change)
