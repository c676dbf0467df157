import re

import numpy as np
import pytest

from crossrep.algebra import LabelAction, MatAlg, StarAut, GroupAction
from crossrep.errors import (
    ActionMismatch,
    DimensionMismatch,
    InvariantViolation,
    LabelMismatch,
    NotFactorable,
    NotIrreducible,
)
from crossrep.examples import (
    cute_example,
    expermutation2_example,
    first_s3_example,
    minimal_example,
    s3_label_action,
    torus_orbit_evaluation,
)
from crossrep.groups import make_cyclic_group, S3_ETA, S3_TAU
from crossrep.linalg import block_diag, random_unitary
from crossrep.reps import (
    CovariantRep,
    ProjectiveRep,
    Rep,
    _hom,
    are_equivalent,
    commutant_basis,
    decompose,
    decompositions_match,
    defining_rep,
    direct_sum_reps,
    evaluate,
    factor_tensor,
    hom_dim,
    intertwiners,
    is_irreducible,
    regular_irreducibility_criterion,
    regular_representation,
    rep_compose,
    rep_from_images,
)
from crossrep.sampling import random_block_irrep, random_cyclic_action


def test_intertwiners_scalar_reps(tol):
    r = Rep(1, {"a": np.array([[2.0]])})
    assert len(intertwiners(r, r, tol)) == 1


def test_intertwiners_swap_example_witness(tol):
    # swapping the first two generators is implemented by diag(1,-1)
    pi = first_s3_example()
    act = s3_label_action()
    basis = intertwiners(pi, rep_compose(pi, act, S3_TAU), tol)
    assert len(basis) == 1
    T = basis[0]
    D = np.diag([1.0, -1.0]) / np.sqrt(2)
    assert min(np.linalg.norm(T - D), np.linalg.norm(T + D)) < 1e-9


def test_intertwiners_cycle_example_empty(tol):
    pi = first_s3_example()
    act = s3_label_action()
    assert intertwiners(pi, rep_compose(pi, act, S3_ETA), tol) == []


def test_intertwiners_label_mismatch(tol):
    with pytest.raises(LabelMismatch):
        intertwiners(
            Rep(1, {"a": np.eye(1)}), Rep(1, {"b": np.eye(1)}), tol
        )


def test_one_dimensional_rep_is_irreducible(tol):
    assert is_irreducible(Rep(1, {"x": np.array([[3.0 + 1j]])}), tol)


def test_commutant_of_double_is_full_2x2(tol):
    # multiplicity-two isotypic block: commutant is a full 2x2 algebra
    pi = minimal_example()
    double = direct_sum_reps([pi, pi])
    assert len(commutant_basis(double, tol)) == 4


def test_minimal_example_is_irreducible(tol):
    assert is_irreducible(minimal_example(), tol)


def test_are_equivalent_same_rep_identity_witness(tol):
    pi = minimal_example()
    eq = are_equivalent(pi, pi, tol)
    assert eq.equivalent
    assert np.linalg.norm(eq.witness - np.eye(2)) < 1e-9


def test_are_equivalent_expermutation2(tol):
    pi = expermutation2_example()
    act = s3_label_action()
    assert are_equivalent(pi, rep_compose(pi, act, S3_ETA), tol).equivalent
    assert not are_equivalent(pi, rep_compose(pi, act, S3_TAU), tol).equivalent


def test_are_equivalent_rejects_reducible(tol):
    pi = minimal_example()
    with pytest.raises(NotIrreducible):
        are_equivalent(direct_sum_reps([pi, pi]), pi, tol)


def test_are_equivalent_dim_mismatch_is_false(tol):
    a = Rep(1, {"x": np.array([[1.0]])})
    b = Rep(2, {"x": np.eye(2)})
    # b is reducible, so use two inequivalent irreducibles of equal labels
    c = Rep(1, {"x": np.array([[-1.0]])})
    assert not are_equivalent(a, c, tol).equivalent


def test_witness_conjugates_correctly(tol):
    pi = expermutation2_example()
    act = s3_label_action()
    twisted = rep_compose(pi, act, S3_ETA)
    eq = are_equivalent(pi, twisted, tol)
    for l in pi.gens:
        assert np.linalg.norm(
            eq.witness @ pi.gens[l] @ eq.witness.conj().T - twisted.gens[l]
        ) < 1e-8


def test_decompose_irreducible_input(tol):
    pi = minimal_example()
    dec = decompose(pi, seed=0, tol=tol)
    assert len(dec.components) == 1
    assert dec.components[0][1] == 1
    assert np.allclose(dec.basis_change, np.eye(2))


def test_decompose_two_inequivalent_blocks(tol):
    # the two block projections of M2 + M2 are inequivalent
    A = MatAlg([2, 2])
    pi = defining_rep(A)
    dec = decompose(pi, seed=1, tol=tol)
    assert sorted((r.dim, m) for r, m in dec.components) == [(2, 1), (2, 1)]
    assert not are_equivalent(dec.components[0][0], dec.components[1][0], tol).equivalent


def test_decompose_multiplicity_two(tol):
    pi = minimal_example()
    dec = decompose(direct_sum_reps([pi, pi]), seed=0, tol=tol)
    assert [(r.dim, m) for r, m in dec.components] == [(2, 2)]


def test_decompose_roundtrip_blockdiagonal(tol):
    pi = minimal_example()
    pi2 = expermutation2_example()
    mixed = direct_sum_reps(
        [pi, pi2, pi]
    )
    dec = decompose(mixed, seed=3, tol=tol)
    Q = dec.basis_change
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(mixed.dim)) < 1e-9
    for l, M in mixed.gens.items():
        want = np.zeros_like(M)
        pos = 0
        for rep, mult in dec.components:
            for _ in range(mult):
                want[pos : pos + rep.dim, pos : pos + rep.dim] = rep.gens[l]
                pos += rep.dim
        assert np.linalg.norm(Q.conj().T @ M @ Q - want) < 1e-7


@pytest.mark.parametrize("seed", range(10))
def test_decompose_seed_stable_content(seed, tol):
    pi = minimal_example()
    pi2 = expermutation2_example()
    mixed = direct_sum_reps([pi, pi, pi2])
    dec = decompose(mixed, seed=seed, tol=tol)
    shape = sorted((r.dim, m) for r, m in dec.components)
    assert shape == [(2, 2), (3, 1)]


def test_schur_dichotomy_random_irreducibles(rng, tol):
    A = MatAlg([2, 2, 3])
    for _ in range(8):
        r1 = random_block_irrep(A, rng)
        r2 = random_block_irrep(A, rng)
        dim = len(intertwiners(r1, r2, tol))
        assert dim in (0, 1)


def test_decompositions_match(tol):
    pi, pi2 = minimal_example(), expermutation2_example()
    d1 = decompose(direct_sum_reps([pi, pi2]), seed=0, tol=tol)
    d2 = decompose(direct_sum_reps([pi2, pi]), seed=5, tol=tol)
    d3 = decompose(direct_sum_reps([pi, pi]), seed=0, tol=tol)
    assert decompositions_match(d1, d2, tol)
    assert not decompositions_match(d1, d3, tol)


def test_regular_representation_trivial_group(tol):
    A = MatAlg([2])
    act = GroupAction(make_cyclic_group(1), A, [StarAut.identity(A)])
    pi = defining_rep(A)
    reg = regular_representation(pi, act)
    assert reg.dim == 2
    assert np.allclose(reg.unitaries[0], np.eye(2))
    for l in pi.gens:
        assert np.allclose(reg.base.gens[l], pi.gens[l])


def test_regular_representation_free_orbit_irreducible(tol):
    act, pi = torus_orbit_evaluation()
    reg = regular_representation(pi, act)
    assert reg.dim == 6
    reg.validate(tol)
    assert reg.is_irreducible(tol)


def test_regular_representation_fixed_point_reducible(tol):
    # flip of two points with a third fixed; evaluation at the fixed point
    # is invariant, so the induced representation has a nonscalar commutant
    A = MatAlg([1, 1, 1])
    flip = StarAut(A, (1, 0, 2), [np.eye(1)] * 3)
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), flip])
    pi = rep_from_images(A, lambda e: e.blocks[2])
    reg = regular_representation(pi, act)
    joint = reg.joint_rep()
    assert not is_irreducible(joint, tol)
    # oracle from the construction: rho(g) (x) V commutes, V the witness 1
    omega = np.array([[0, 1], [1, 0]], dtype=complex)  # right translation on l2(Z2)
    for M in joint.gens.values():
        assert np.linalg.norm(omega @ M - M @ omega) < 1e-9


def test_regular_criterion_examples(tol):
    act, pi = torus_orbit_evaluation()
    assert regular_irreducibility_criterion(pi, act, tol)
    # restriction of the swap example to the order-two subgroup of the swap
    from crossrep.algebra import LabelAction
    from crossrep.groups import make_cyclic_group as zn

    swap_maps = [
        {"U1": "U1", "U2": "U2", "U3": "U3"},
        {"U1": "U2", "U2": "U1", "U3": "U3"},
    ]
    z2_act = LabelAction(zn(2), swap_maps)
    pi_swap = first_s3_example()
    assert not regular_irreducibility_criterion(pi_swap, z2_act, tol)
    # reducible input fails the criterion outright
    assert not regular_irreducibility_criterion(
        direct_sum_reps([pi_swap, pi_swap]), z2_act, tol
    )


@pytest.mark.parametrize("trial", range(12))
def test_regular_criterion_matches_direct_check(trial, tol):
    rng = np.random.default_rng(500 + trial)
    n = int(rng.integers(2, 5))
    dims = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 4)))]
    act = random_cyclic_action(n, dims, rng, twist=bool(rng.integers(0, 2)))
    pi = random_block_irrep(act.algebra, rng)
    reg = regular_representation(pi, act)
    assert regular_irreducibility_criterion(pi, act, tol) == reg.is_irreducible(tol)


def test_decompose_exhausts_retries_when_gap_unreachable():
    from crossrep.errors import DecompositionFailed
    from crossrep.linalg import Tolerance

    # an eigenvalue gap this wide can never appear, so no probe splits the sum
    coarse = Tolerance(eig_sep=1e6)
    pi = minimal_example()
    with pytest.raises(DecompositionFailed):
        decompose(direct_sum_reps([pi, pi]), seed=0, tol=coarse)


def test_covariant_validate_rejects_bad_unitaries(tol):
    act, cov = cute_example()
    bad = CovariantRep(cov.base, act, [np.eye(4)] * 4)
    with pytest.raises(Exception):
        bad.validate(tol)


def test_commutant_invariant_under_group_conjugation(tol):
    # conjugation by the covariant unitaries maps the commutant of the
    # restriction into itself; verified by projecting onto its span
    act, cov = cute_example()
    basis = commutant_basis(cov.base, tol)
    flat = np.array([B.reshape(-1) for B in basis])
    for U in cov.unitaries:
        for B in basis:
            C = (U @ B @ U.conj().T).reshape(-1)
            proj = flat.conj() @ C
            residual = C - flat.T @ proj
            assert np.linalg.norm(residual) < 1e-8


def test_evaluate_is_linear_extension(rng, tol):
    A = MatAlg([2, 1])
    pi = defining_rep(A)
    x = A.random_element(rng)
    assert np.allclose(evaluate(pi, A, x), x.to_matrix())


def _weyl_lambda(q, tol):
    """The q-dimensional multiplicity factor of the Weyl pair: an irreducible
    projective representation of Z_q x Z_q with a nontrivial cocycle."""
    from crossrep.analyzer import analyze
    from crossrep.examples import weyl_pair_homogeneous

    return analyze(weyl_pair_homogeneous(q), seed=0, tol=tol).lambda_rep


def _z3_characters(ks):
    w = np.exp(2j * np.pi / 3)
    mats = [np.diag([w ** (j * k) for k in ks]) for j in range(3)]
    return ProjectiveRep(make_cyclic_group(3), mats, np.ones((3, 3)))


def _projective_pairs(rng, tol):
    lam = _weyl_lambda(3, tol)
    double = ProjectiveRep(lam.group, [block_diag(L, L) for L in lam.mats], lam.cocycle)
    return [
        (lam, lam.conjugate(random_unitary(3, rng)), 1),
        (lam, double, 2),
        (double, double.conjugate(random_unitary(6, rng)), 4),
        (_z3_characters([0, 1]), _z3_characters([1, 1, 2]), 2),
        (_z3_characters([0]), _z3_characters([1, 2]), 0),
    ]


def test_projective_hom_matches_the_intertwiner_solve(rng, tol):
    for a, b, want in _projective_pairs(rng, tol):
        count, project = _hom(a, b, tol)
        basis = intertwiners(Rep(a.dim, dict(enumerate(a.mats))), Rep(b.dim, dict(enumerate(b.mats))), tol)
        assert count == len(basis) == want
        X = rng.standard_normal((b.dim, a.dim)) + 1j * rng.standard_normal((b.dim, a.dim))
        solved = sum((np.vdot(B, X) * B for B in basis), np.zeros((b.dim, a.dim), dtype=complex))
        assert np.max(np.abs(project(X) - solved)) < 1e-10


def test_projective_hom_needs_one_cocycle(tol):
    # the q = 3 Weyl cocycle takes values off the real line, so conj moves it
    lam = _weyl_lambda(3, tol)
    moved = ProjectiveRep(lam.group, lam.mats, lam.cocycle.conj())
    with pytest.raises(ActionMismatch) as err:
        _hom(lam, moved, tol)
    # the first pair in row-major order off by more than identity_bound(1), and its residual
    gap = np.abs(lam.cocycle - moved.cocycle)
    a, b = np.argwhere(gap > tol.identity_bound(1.0))[0]
    assert f"different cocycles at pair ({a},{b}): residual {gap[a, b]:.3e} > bound 1.000e-06" in str(err.value)
    with pytest.raises(ActionMismatch):
        _hom(_z3_characters([0, 1]), lam, tol)


def test_decompose_splits_a_projective_rep_into_projective_pieces(rng, tol):
    lam = _weyl_lambda(2, tol)
    double = ProjectiveRep(lam.group, [block_diag(L, L) for L in lam.mats], lam.cocycle)
    dec = decompose(double.conjugate(random_unitary(4, rng)), seed=0, tol=tol)
    assert [(r.dim, m) for r, m in dec.components] == [(2, 2)]
    piece = dec.components[0][0]
    assert isinstance(piece, ProjectiveRep) and piece.cocycle is lam.cocycle
    piece.validate(1e-8)
    assert _hom(piece, lam, tol)[0] == 1


def _first_failing_pair(proj, threshold):
    """Reference: the pair loop of the projective relation, in order."""
    G = proj.group
    for g in range(G.order):
        for h in range(G.order):
            lhs = proj.mats[G.mul(g, h)]
            rhs = proj.cocycle[g, h] * proj.mats[g] @ proj.mats[h]
            if np.linalg.norm(lhs - rhs) > threshold * max(1, lhs.shape[0]):
                return g, h
    return None


def test_projective_validate_names_the_first_failing_pair(rng, tol):
    lam = _weyl_lambda(3, tol)
    lam.validate(1e-8)
    mats = list(lam.mats)
    mats[4] = mats[4] + 1e-4 * random_unitary(3, rng)
    bad = ProjectiveRep(lam.group, mats, lam.cocycle)
    pair = _first_failing_pair(bad, 1e-8)
    assert pair is not None and pair[0] > 0
    with pytest.raises(InvariantViolation, match=re.escape(f"pair ({pair[0]},{pair[1]})")):
        bad.validate(1e-8)


def test_projective_validate_rejects_a_cocycle_off_the_unit_circle(tol):
    lam = _weyl_lambda(3, tol)
    c = lam.cocycle.copy()
    c[2, 5] *= 1 + 1e-6
    with pytest.raises(InvariantViolation, match="modulus 1"):
        ProjectiveRep(lam.group, lam.mats, c).validate(1e-8)


def test_projective_validate_names_the_first_failing_triple():
    # zero matrices satisfy every pair relation, so only the identity decides
    K = make_cyclic_group(3)
    c = np.ones((3, 3), dtype=complex)
    c[1, 2] = 1j
    T = K.table
    triple = next(
        (g, h, k)
        for g in range(3)
        for h in range(3)
        for k in range(3)
        if abs(c[g, h] * c[T[g, h], k] - c[h, k] * c[g, T[h, k]]) > 1e-8
    )
    with pytest.raises(InvariantViolation, match=re.escape(f"({triple[0]},{triple[1]},{triple[2]})")):
        ProjectiveRep(K, [np.zeros((1, 1))] * 3, c).validate(1e-8)


def _flip():
    A = MatAlg([1, 1])
    return GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), StarAut(A, (1, 0), [np.eye(1)] * 2)])


def _trivial_on_flip_algebra():
    # the algebra of _flip under another group
    A = MatAlg([1, 1])
    return GroupAction(make_cyclic_group(1), A, [StarAut.identity(A)])


def _swap_ab():
    # Z2 swapping the labels a and b
    return LabelAction(make_cyclic_group(2), [{"a": "a", "b": "b"}, {"a": "b", "b": "a"}])


def _covariant_over(action, base):
    return CovariantRep(base, action, [np.eye(base.dim)] * action.group.order)


REFUSALS = {
    "images of two sizes": (
        lambda: rep_from_images(MatAlg([1, 1]), lambda e: np.eye(1 + int(e.blocks[1].any()))),
        DimensionMismatch, "images have inconsistent dimensions"),
    "summands with different labels": (
        lambda: direct_sum_reps([Rep(1, {"a": np.eye(1)}), Rep(1, {"b": np.eye(1)})]),
        LabelMismatch, "direct summands must share generator labels"),
    "hom_dim over two actions": (
        lambda: hom_dim(_covariant_over(_flip(), defining_rep(MatAlg([1, 1]))),
                        _covariant_over(_trivial_on_flip_algebra(), defining_rep(MatAlg([1, 1])))),
        ActionMismatch, "covariant representations over different actions"),
    "generators that are not the matrix units": (
        lambda: hom_dim(*[_covariant_over(_flip(), Rep(1, {"a": np.eye(1), "b": np.eye(1)}))] * 2),
        LabelMismatch, "representation is not labeled by the expected generators"),
    "factor_tensor of a wrongly sized W": (
        lambda: factor_tensor(np.eye(3), np.eye(2), 2), NotFactorable, "W must be 4 x 4"),
    "rep_compose of a label the action does not map": (
        lambda: rep_compose(Rep(1, {"a": np.eye(1), "c": np.eye(1)}), _swap_ab(), 1),
        LabelMismatch, "generator 'c' is not a label the action maps"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_public_refusals_raise_their_typed_error(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
