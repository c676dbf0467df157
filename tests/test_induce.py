"""``induce`` against the hand-rolled block-permutation builders it replaced.

Each reference below is the explicit loop that once built its model: a block
diagonal of translates plus block-permutation unitaries.  ``induce`` must
reproduce every one of them on actions that both permute blocks and twist
them by non-trivial unitaries, and on a label action.
"""

import numpy as np
import pytest

from crossrep import induce
from crossrep.algebra import GroupAction, StarAut, restrict_action
from crossrep.analyzer import analyze, build_cyclic_irrep
from crossrep.crossed import build_crossed_model
from crossrep.errors import InvariantViolation
from crossrep.examples import (
    cute_example,
    doubled_minimal_covariant,
    first_s3_example,
    s3_label_action,
)
from crossrep.groups import Subgroup
from crossrep.linalg import orthonormal_span, scalar_quotient
from crossrep.reps import (
    CovariantRep,
    Rep,
    _composed_images,
    are_equivalent,
    defining_rep,
    rep_compose,
    regular_representation,
    trivial_covariant,
)
from crossrep.sampling import random_block_irrep, random_cyclic_action, random_s3_action

EXACT = 1e-12


def _z4_twisted():
    return random_cyclic_action(4, [2, 2, 1], np.random.default_rng(0))


def _s3_conjugated():
    return random_s3_action(np.random.default_rng(0), "conjugated")


def _action_and_rep(name):
    if name == "s3_label":
        return s3_label_action(), first_s3_example()
    act = _z4_twisted() if name == "z4_twisted" else _s3_conjugated()
    return act, random_block_irrep(act.algebra, np.random.default_rng(1), block=0)


def _block_diagonal(parts, label):
    d = parts[0].dim
    M = np.zeros((len(parts) * d, len(parts) * d), dtype=complex)
    for i, p in enumerate(parts):
        M[i * d : (i + 1) * d, i * d : (i + 1) * d] = p.gens[label]
    return M


def _reference_regular(pi, action):
    """Block i carries pi o alpha_{g_i^-1}; U_g has the identity in block (g j, j)."""
    G = action.group
    n, d = G.order, pi.dim
    twists = [rep_compose(pi, action, G.inv(i)) for i in range(n)]
    gens = {l: _block_diagonal(twists, l) for l in pi.gens}
    unitaries = []
    for g in range(n):
        U = np.zeros((n * d, n * d), dtype=complex)
        for j in range(n):
            i = G.mul(g, j)
            U[i * d : (i + 1) * d, j * d : (j + 1) * d] = np.eye(d)
        unitaries.append(U)
    return gens, unitaries


def _reference_right_shifts(G, d):
    """U_g with the identity in block (i, i g): the unitaries of the S3
    regular model and of the crossed model."""
    unitaries = []
    for g in range(G.order):
        U = np.zeros((G.order * d, G.order * d), dtype=complex)
        for i in range(G.order):
            j = G.mul(i, g)
            U[i * d : (i + 1) * d, j * d : (j + 1) * d] = np.eye(d)
        unitaries.append(U)
    return unitaries


def _reference_right_regular(pi, action):
    """Block i carries pi o alpha_{g_i}, with the right shifts."""
    translates = [rep_compose(pi, action, i) for i in range(action.group.order)]
    gens = {l: _block_diagonal(translates, l) for l in pi.gens}
    return gens, _reference_right_shifts(action.group, pi.dim)


def _reference_crossed_images(action):
    """Block i of psi(e) is alpha_{g_i}(e) on the defining space."""
    G, A = action.group, action.algebra
    D = A.defining_dim
    images = {}
    for label, e in zip(A.basis_labels(), A.basis_elements()):
        M = np.zeros((G.order * D, G.order * D), dtype=complex)
        for i in range(G.order):
            M[i * D : (i + 1) * D, i * D : (i + 1) * D] = action.apply(i, e).to_matrix()
        images[label] = M
    return images


def _reference_cyclic(pi1, V, m, action):
    """Block diagonal of pi1 o alpha_i for i < m; the generator is the block
    shift with identity blocks (i, i+1) and corner V in block (m-1, 0)."""
    n, d1 = action.group.order, pi1.dim
    translates = [rep_compose(pi1, action, i) for i in range(m)]
    gens = {l: _block_diagonal(translates, l) for l in pi1.gens}
    U = np.zeros((m * d1, m * d1), dtype=complex)
    for i in range(m - 1):
        U[i * d1 : (i + 1) * d1, (i + 1) * d1 : (i + 2) * d1] = np.eye(d1)
    U[(m - 1) * d1 : m * d1, 0:d1] = V
    return gens, [np.linalg.matrix_power(U, j) for j in range(n)]


def _assert_same(cov, gens, unitaries):
    assert list(cov.base.gens) == list(gens)
    for label, M in gens.items():
        assert np.linalg.norm(cov.base.gens[label] - M) < EXACT
    assert len(cov.unitaries) == len(unitaries)
    for U, W in zip(cov.unitaries, unitaries):
        assert np.linalg.norm(U - W) < EXACT


ACTIONS = ["z4_twisted", "s3_conjugated", "s3_label"]


def test_reference_actions_permute_and_twist():
    for make in (_z4_twisted, _s3_conjugated):
        act = make()
        nb = act.algebra.n_blocks
        assert any(a.perm != tuple(range(nb)) for a in act.auts)
        assert any(not np.allclose(u, np.eye(len(u))) for a in act.auts for u in a.unitaries)


@pytest.mark.parametrize("name", ACTIONS)
def test_regular_representation_matches_reference(name):
    act, pi = _action_and_rep(name)
    _assert_same(regular_representation(pi, act), *_reference_regular(pi, act))


@pytest.mark.parametrize("name", ACTIONS)
def test_regular_model_matches_reference(name):
    # the canonical Regular6 model of classify_s3 is this call on pi
    act, pi = _action_and_rep(name)
    G = act.group
    model = induce(
        trivial_covariant(pi, act), act, Subgroup(G, (G.identity,)), list(range(G.order))
    )
    _assert_same(model, *_reference_right_regular(pi, act))


@pytest.mark.parametrize("name", ["z4_twisted", "s3_conjugated"])
def test_crossed_model_matches_reference(name, tol):
    act, _ = _action_and_rep(name)
    model = build_crossed_model(act, tol)
    images = _reference_crossed_images(act)
    vg = _reference_right_shifts(act.group, act.algebra.defining_dim)
    assert list(model.psi_images) == list(images)
    for label, M in images.items():
        assert np.linalg.norm(model.psi_images[label] - M) < EXACT
    for V, W in zip(model.vg, vg):
        assert np.linalg.norm(V - W) < EXACT
    G = act.group
    spanning = [images[l] @ vg[g] for g in range(G.order) for l in images]
    assert model.span_dim == len(orthonormal_span(spanning, tol))
    assert model.span_dim == G.order * act.algebra.linear_dim
    x = act.algebra.random_element(np.random.default_rng(2))
    want = sum(c * images[l] for l, c in zip(images, x.coeffs()))
    assert np.linalg.norm(model.psi(x) - want) < EXACT


def _cyclic_data(act, pi1, tol):
    """The orbit length m of pi1 and a corner V with V^k = 1."""
    n = act.group.order
    orbit = (j for j in range(1, n) if are_equivalent(pi1, rep_compose(pi1, act, j), tol).equivalent)
    m = next(orbit, n)
    k = n // m
    if m == n:
        return m, k, np.eye(pi1.dim, dtype=complex)
    V0 = are_equivalent(pi1, rep_compose(pi1, act, m), tol).witness
    c = scalar_quotient(np.linalg.matrix_power(V0, k), np.eye(pi1.dim), tol)
    return m, k, np.exp(-1j * np.angle(c) / k) * V0


@pytest.mark.parametrize("block, phase", [(0, 1), (0, -1), (2, 1j)])
def test_build_cyclic_irrep_matches_reference(block, phase, tol):
    # block 0 has orbit length m = 2, block 2 is fixed (m = 1, k = 4); the
    # phase is a k-th root of unity, so phase * V is another valid corner
    act = _z4_twisted()
    pi1 = random_block_irrep(act.algebra, np.random.default_rng(3), block=block)
    m, k, V = _cyclic_data(act, pi1, tol)
    assert m == (2 if block == 0 else 1)
    V = phase * V
    built = build_cyclic_irrep(pi1, V, m, k, act, tol)
    _assert_same(built, *_reference_cyclic(pi1, V, m, act))


def test_build_cyclic_irrep_matches_reference_with_corner(tol):
    act, cov = cute_example()
    pi1 = Rep(2, {l: M[:2, :2] for l, M in cov.base.gens.items()})
    m, k, V = _cyclic_data(act, pi1, tol)
    assert (m, k) == (2, 2) and not np.allclose(V, np.eye(2))
    built = build_cyclic_irrep(pi1, V, m, k, act, tol)
    _assert_same(built, *_reference_cyclic(pi1, V, m, act))


@pytest.mark.parametrize("make", [lambda: cute_example()[1], doubled_minimal_covariant])
def test_induced_from_nontrivial_stabilizer_is_covariant(make, tol):
    cov = make()
    report = analyze(cov, seed=5, tol=tol)
    H, psi = report.subgroup, report.psi
    assert H.order > 1
    assert any(not np.allclose(U, np.eye(psi.dim)) for U in psi.unitaries)
    induced = induce(psi, cov.action, H, report.coset_reps)
    induced.validate(tol)
    assert induced.is_irreducible(tol)


def test_induce_rejects_bad_coset_data(tol):
    act, cov = cute_example()
    H = Subgroup(act.group, (0, 2))
    sub, _ = restrict_action(act, H)
    pi1 = Rep(2, {l: M[:2, :2] for l, M in cov.base.gens.items()})
    psi = CovariantRep(pi1, sub, [np.eye(2), cov.unitaries[2][:2, :2]])
    with pytest.raises(InvariantViolation):
        induce(psi, act, H, [0, 2])  # both representatives lie in H
    with pytest.raises(InvariantViolation):
        induce(trivial_covariant(pi1, act), act, H, [0, 1])  # psi is over {e}


def _rephased_identity(act, z):
    """The same action with the identity's unitaries multiplied by the phase z."""
    e = act.group.identity
    auts = list(act.auts)
    auts[e] = StarAut(act.algebra, auts[e].perm, [z * U for U in auts[e].unitaries])
    return GroupAction(act.group, act.algebra, auts)


@pytest.mark.parametrize("phase", [None, 0.3])
def test_composing_with_the_identity_equals_the_contraction(phase):
    # the stored images stand in for the contraction with alpha_e's
    # coefficient matrix wherever every g is e: validate holds alpha_e to the
    # identity map, and a rephased identity's matrix z conj(z) is off 1 in
    # the last bits, so the two agree exactly, or to the last bits
    act = _z4_twisted() if phase is None else _rephased_identity(_z4_twisted(), np.exp(1j * phase))
    pi = defining_rep(act.algebra)
    e = act.group.identity
    for gs in ([e], [e, e], [e, 1, 3], [2, e]):
        want = np.tensordot(np.array([act.aut(g).coefficient_matrix for g in gs]), pi.stack, axes=1)
        got = _composed_images(pi, act, gs)
        if phase is None or any(g != e for g in gs):
            assert np.array_equal(got, want)
        else:
            assert np.shares_memory(got, pi.stack) and np.max(np.abs(got - want)) <= 4e-16
    assert np.array_equal(rep_compose(pi, act, e).stack, pi.stack)


def test_composing_with_the_identity_hands_out_no_writable_alias():
    act = _z4_twisted()
    pi = defining_rep(act.algebra)
    e = act.group.identity
    alone = _composed_images(pi, act, [e])
    assert np.shares_memory(alone, pi.stack) and not alone.flags.writeable
    with pytest.raises(ValueError):
        rep_compose(pi, act, e).stack[0, 0, 0] = 7
    mixed = _composed_images(pi, act, [e, 1])
    assert mixed.flags.writeable and not np.shares_memory(mixed, pi.stack)
    assert pi.stack.flags.writeable
