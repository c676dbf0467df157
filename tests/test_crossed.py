import numpy as np
import pytest

import crossrep.crossed
from crossrep.algebra import GroupAction, MatAlg, StarAut
from crossrep.crossed import (
    CrossedElement,
    build_crossed_model,
    crossed_adjoint,
    crossed_multiply,
    element_to_matrix,
    fixed_point_algebra,
    monomial,
    projection_matrix,
    spectral_projection,
)
from crossrep.errors import ActionMismatch, InvariantViolation
from crossrep.examples import cute_example, quantum_mq, rotation_action
from crossrep.groups import character_table, make_cyclic_group
from crossrep.linalg import block_diag, orthonormal_span
from crossrep.reps import decompose, rep_from_images
from crossrep.sampling import random_cyclic_action, random_s3_action


def _flip_action():
    A = MatAlg([1, 1])
    swap = StarAut(A, (1, 0), [np.eye(1)] * 2)
    return GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), swap])


def test_model_trivial_group():
    A = MatAlg([2, 1])
    act = GroupAction(make_cyclic_group(1), A, [StarAut.identity(A)])
    model = build_crossed_model(act)
    assert model.host_dim == 3
    assert model.span_dim == A.linear_dim


def test_model_flip_span_and_circulant_form(rng):
    act = _flip_action()
    model = build_crossed_model(act)
    assert model.span_dim == 4
    # circulant form: a + b U maps to [[a, b], [sigma(b), sigma(a)]] blockwise
    a, b = act.algebra.random_element(rng), act.algebra.random_element(rng)
    x = monomial(act, a, 0) + monomial(act, b, 1)
    M = element_to_matrix(model, x)
    sig = act.auts[1]
    assert np.allclose(M[0:2, 0:2], a.to_matrix())
    assert np.allclose(M[0:2, 2:4], b.to_matrix())
    assert np.allclose(M[2:4, 0:2], sig.apply(b).to_matrix())
    assert np.allclose(M[2:4, 2:4], sig.apply(a).to_matrix())
    # the group unitary is the shift with identity corner
    assert np.allclose(model.vg[1][0:2, 2:4], np.eye(2))
    assert np.allclose(model.vg[1][2:4, 0:2], np.eye(2))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_quantum_span_dimension(q):
    _, model, pair = quantum_mq(q)
    assert model.span_dim == q * q
    assert pair.is_irreducible()


def test_quantum_model_contains_single_irrep(tol):
    _, model, _ = quantum_mq(3)
    dec = decompose(model.defining_covariant_rep().joint_rep(), seed=2, tol=tol)
    assert [(r.dim, m) for r, m in dec.components] == [(3, 3)]


@pytest.mark.parametrize(
    "make_action",
    [
        _flip_action,
        lambda: random_cyclic_action(4, [2, 2, 1], np.random.default_rng(0)),
        lambda: random_cyclic_action(6, [2, 2], np.random.default_rng(9), twist=False),
        lambda: random_s3_action(np.random.default_rng(0), "permutation"),
        lambda: random_s3_action(np.random.default_rng(2), "inner"),
        lambda: random_s3_action(np.random.default_rng(5), "conjugated"),
    ],
    ids=["flip", "Z4[2,2,1]", "Z6[2,2] untwisted", "S3 permutation", "S3 inner", "S3 conjugated"],
)
def test_span_dim_matches_full_span_reference(make_action, tol):
    model = build_crossed_model(make_action(), tol)
    spanning = [M @ V for V in model.vg for M in model.psi_images.values()]
    assert model.span_dim == len(orthonormal_span(spanning, tol))


def test_model_rejects_unitaries_with_a_diagonal_block(monkeypatch, tol):
    # over the trivial action psi = 1_2 (x) id commutes with F (x) 1, so the
    # Fourier-conjugated model stays covariant, but its V_1 is block diagonal
    # and the span can no longer be read off the psi images alone
    A = MatAlg([1, 1])
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A)] * 2)
    F = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(A.defining_dim))
    induce = crossrep.crossed.induce
    monkeypatch.setattr(crossrep.crossed, "induce", lambda *a, **k: induce(*a, **k).conjugate(F))
    with pytest.raises(InvariantViolation, match="diagonal block"):
        build_crossed_model(act, tol)


def test_model_rejects_a_non_generator_unitary_off_by_1e_7(monkeypatch, tol):
    # V_2 of Z4 is not a generator: it is off by 1e-7, within what validate
    # allows, but the model's own relation check on the generator rows holds
    # every pair to abs_eps * host and names the first failing pair
    A = MatAlg([1, 1])
    act = GroupAction(make_cyclic_group(4), A, [StarAut.identity(A)] * 4)
    assert act.group.generators == (1,)
    induce = crossrep.crossed.induce

    def perturbed(*a, **k):
        cov = induce(*a, **k)
        U = cov.unitaries.copy()
        U[2, 0, 7] += 1e-7
        bad = type(cov)(cov.base, cov.action, U)
        bad.validate(tol)
        return bad

    monkeypatch.setattr(crossrep.crossed, "induce", perturbed)
    with pytest.raises(InvariantViolation, match=r"V_g V_h = V_gh at pair \(1,1\)"):
        build_crossed_model(act, tol)


def test_model_rejects_an_unfaithful_defining_representation(monkeypatch, tol):
    # a defining representation that annihilates block 1 of the trivial
    # action gives a covariant model whose span misses that block
    A = MatAlg([1, 1])
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A)] * 2)
    half = lambda alg: rep_from_images(alg, lambda e: block_diag(e.blocks[0], np.zeros((1, 1))))
    monkeypatch.setattr(crossrep.crossed, "defining_rep", half)
    with pytest.raises(InvariantViolation, match="span dimension 2"):
        build_crossed_model(act, tol)


def test_unit_element_is_neutral(rng):
    act = _flip_action()
    one = monomial(act, act.algebra.unit(), 0)
    x = CrossedElement(act, [act.algebra.random_element(rng) for _ in range(2)])
    lhs = crossed_multiply(one, x)
    assert all(
        np.linalg.norm((l - r).coeffs()) < 1e-12 for l, r in zip(lhs.coeffs, x.coeffs)
    )


def test_adjoint_square_for_involution(rng):
    # g of order two: (a U^g)* = alpha_g(a*) U^g, and (a U^g)*(a U^g)
    # lands at the identity with coefficient alpha_g(a* a)
    act = _flip_action()
    a = act.algebra.random_element(rng)
    x = monomial(act, a, 1)
    xs = crossed_adjoint(x)
    want = act.apply(1, a.adjoint())
    assert np.linalg.norm((xs.coeffs[1] - want).coeffs()) < 1e-12
    prod = crossed_multiply(xs, x)
    want_e = act.apply(1, a.adjoint() * a)
    assert np.linalg.norm((prod.coeffs[0] - want_e).coeffs()) < 1e-12
    assert prod.coeffs[1].norm() < 1e-12


def test_arithmetic_against_matrix_oracle(rng):
    act = random_cyclic_action(3, [1, 2], rng)
    model = build_crossed_model(act)
    for _ in range(100):
        x = CrossedElement(act, [act.algebra.random_element(rng) for _ in range(3)])
        y = CrossedElement(act, [act.algebra.random_element(rng) for _ in range(3)])
        lhs = element_to_matrix(model, crossed_multiply(x, y))
        rhs = element_to_matrix(model, x) @ element_to_matrix(model, y)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1, np.linalg.norm(rhs))
        assert np.linalg.norm(
            element_to_matrix(model, crossed_adjoint(x))
            - element_to_matrix(model, x).conj().T
        ) < 1e-9


def test_action_mismatch_raises(rng):
    a1 = _flip_action()
    a2 = rotation_action(3)
    x = CrossedElement(a1, [a1.algebra.random_element(rng) for _ in range(2)])
    y = CrossedElement(a2, [a2.algebra.random_element(rng) for _ in range(3)])
    with pytest.raises(ActionMismatch):
        crossed_multiply(x, y)


def test_model_defining_rep_is_covariant(tol):
    act = rotation_action(4)
    model = build_crossed_model(act)
    model.defining_covariant_rep().validate(tol)


def test_trivial_character_projection_is_group_average(rng, tol):
    act, _ = cute_example()
    x = act.algebra.random_element(rng)
    p = spectral_projection(act, np.ones(4), x)
    for g in range(4):
        assert np.linalg.norm((act.apply(g, p) - p).coeffs()) < 1e-9


def test_zn_projection_eigenvector_relation(rng, tol):
    act = rotation_action(5)
    ct = character_table(act.group, seed=1, tol=tol)
    x = act.algebra.random_element(rng)
    for r in range(ct.n_irreps):
        chi = ct.char_vector(r)
        px = spectral_projection(act, chi, x)
        assert np.linalg.norm(
            act.apply(1, px).coeffs() - chi[1] * px.coeffs()
        ) < 1e-8


def test_projection_sum_is_identity(rng, tol):
    act = random_cyclic_action(4, [2, 1, 1], rng)
    ct = character_table(act.group, seed=0, tol=tol)
    x = act.algebra.random_element(rng)
    total = act.algebra.zero()
    for r in range(ct.n_irreps):
        total = total + spectral_projection(act, ct.char_vector(r), x)
    assert np.linalg.norm((total - x).coeffs()) < 1e-9


def test_projections_idempotent_orthogonal_and_exhaustive(rng, tol):
    act = random_s3_action(rng, "permutation")
    ct = character_table(act.group, seed=3, tol=tol)
    mats = [projection_matrix(act, ct.char_vector(r)) for r in range(ct.n_irreps)]
    total_rank = 0
    for i, P in enumerate(mats):
        assert np.linalg.norm(P @ P - P) < 1e-8
        total_rank += int(round(np.trace(P).real))
        for j, Q in enumerate(mats):
            if i != j:
                assert np.linalg.norm(P @ Q) < 1e-8
    assert total_rank == act.algebra.linear_dim


def _projection_by_loop(action, chi):
    """Column j is (dim/|G|) sum_g conj(chi(g)) alpha_g(e_j), one element at a time."""
    G = action.group
    dim = chi[G.identity].real
    cols = []
    for e in action.algebra.basis_elements():
        out = action.algebra.zero()
        for g in range(G.order):
            out = out + (np.conj(chi[g]) * dim / G.order) * action.apply(g, e)
        cols.append(out.coeffs())
    return np.array(cols).T


@pytest.mark.parametrize(
    "make_action",
    [
        lambda: random_cyclic_action(4, [2, 2, 1], np.random.default_rng(0)),
        lambda: random_s3_action(np.random.default_rng(0), "conjugated"),
    ],
    ids=["Z4[2,2,1] twisted", "S3 conjugated"],
)
def test_projection_matrix_matches_loop_reference(make_action, rng, tol):
    act = make_action()
    ct = character_table(act.group, seed=0, tol=tol)
    x = act.algebra.random_element(rng)
    for r in range(ct.n_irreps):
        chi = ct.char_vector(r)
        want = _projection_by_loop(act, chi)
        # the sum runs in another order: equal to a few ulps of complex128
        bound = 1e-12 * max(1.0, np.linalg.norm(want))
        assert np.linalg.norm(projection_matrix(act, chi) - want) <= bound
        px = spectral_projection(act, chi, x).coeffs()
        assert np.linalg.norm(px - want @ x.coeffs()) <= bound * np.linalg.norm(x.coeffs())


def test_fixed_point_trivial_action():
    A = MatAlg([2])
    act = GroupAction(make_cyclic_group(1), A, [StarAut.identity(A)])
    basis, rep = fixed_point_algebra(act)
    assert len(basis) == A.linear_dim


def test_fixed_point_cute_example(tol):
    # invariants are the matrices [[a,b],[b,a]] duplicated over both blocks:
    # a two-dimensional algebra with characters a+b and a-b
    act, _ = cute_example()
    basis, rep = fixed_point_algebra(act, tol)
    assert len(basis) == 2
    # the inclusion sees each character once per 2x2 block
    dec = decompose(rep, seed=1, tol=tol)
    assert [(r.dim, m) for r, m in dec.components] == [(1, 2), (1, 2)]
    # evaluate both characters on the invariant with a = 2, b = 0.5
    W = np.array([[0, 1], [1, 0]], dtype=complex)
    x = act.algebra.from_coeffs(
        np.concatenate([(2 * np.eye(2) + 0.5 * W).reshape(-1)] * 2)
    )
    vals = set()
    for comp, _ in dec.components:
        # express x in the fixed basis and evaluate the character
        coeffs = np.array([np.vdot(b.coeffs(), x.coeffs()) for b in basis])
        img = sum(c * comp.gens[f"fix{i}"][0, 0] for i, c in enumerate(coeffs))
        vals.add(round(complex(img).real, 6))
    assert vals == {2.5, 1.5}


def test_fixed_point_rotation_is_constants(tol):
    act = rotation_action(4)
    basis, _ = fixed_point_algebra(act, tol)
    assert len(basis) == 1


@pytest.mark.parametrize(
    "make_action, dim", [(lambda: rotation_action(4), 1), (lambda: cute_example()[0], 2)], ids=["rotation", "cute"]
)
def test_fixed_point_rank_is_the_rounded_projection_trace(make_action, dim, monkeypatch, tol):
    # every eigenvalue of 0.4 P is 0.4, so a cut at 0.5 kept none of them and
    # returned an empty basis; tr 0.4 P = 0.4 dim is no rank
    act = make_action()  # fresh: the basis is computed once per action
    projection = crossrep.crossed.projection_matrix
    assert round(np.trace(projection(act, np.ones(act.group.order))).real) == dim
    monkeypatch.setattr(crossrep.crossed, "projection_matrix", lambda *args: 0.4 * projection(*args))
    with pytest.raises(InvariantViolation, match="projection trace"):
        fixed_point_algebra(act, tol)


def test_crossed_element_norm_and_scalar(rng):
    act = _flip_action()
    x = monomial(act, act.algebra.unit(), 1)
    assert x.norm() > 0
    y = x * 2.0
    assert abs(y.norm() - 2 * x.norm()) < 1e-12
