import re

import numpy as np
import pytest

import crossrep.analyzer
from crossrep.algebra import GroupAction, MatAlg, StarAut
from crossrep.analyzer import (
    analyze,
    build_cyclic_irrep,
    classify_s3,
    cyclic_analyze,
    factor_tensor,
    homogeneous_irreducibility,
    periodize,
)
from crossrep.errors import (
    BlockStructureViolation,
    InvariantViolation,
    NotFactorable,
    NotIrreducible,
    NotScalarPower,
)
from crossrep.examples import (
    cute_example,
    doubled_minimal_covariant,
    inner_z8_minimal,
    minimal_covariant,
    rotation_action,
    s3_label_action,
    torus_orbit_evaluation,
    weyl_pair_homogeneous,
)
from crossrep.groups import S3_TAU, FiniteGroup, make_cyclic_group, make_symmetric_group_3
from crossrep.linalg import random_unitary
from crossrep.reps import (
    CovariantRep,
    Rep,
    are_equivalent,
    decompose,
    defining_rep,
    direct_sum_reps,
    evaluate,
    induce,
    regular_representation,
    rep_compose,
    rep_from_images,
)
from crossrep.sampling import crossed_irreps, random_cyclic_action, random_s3_action


def _reconstruct_unitary(report, g):
    """Rebuild the conjugated group unitary from the reported block data."""
    m = report.index
    size = report.multiplicity * report.base_irrep.dim
    out = np.zeros((m * size, m * size), dtype=complex)
    for j in range(m):
        i = report.perms[g][j]
        out[i * size : (i + 1) * size, j * size : (j + 1) * size] = (
            report.block_unitaries[g][j]
        )
    return out


def _check_report_reconstruction(cov, report, tol):
    C = report.conjugator
    assert np.linalg.norm(C.conj().T @ C - np.eye(cov.dim)) < 1e-8
    pi1, r = report.base_irrep, report.multiplicity
    for label, M in cov.base.gens.items():
        want = np.zeros((cov.dim, cov.dim), dtype=complex)
        pos = 0
        for gi in report.coset_reps:
            tw = rep_compose(pi1, cov.action, gi).gens[label]
            blk = np.kron(np.eye(r), tw)
            want[pos : pos + blk.shape[0], pos : pos + blk.shape[0]] = blk
            pos += blk.shape[0]
        assert np.linalg.norm(C.conj().T @ M @ C - want) < 1e-7
    for g in range(cov.group.order):
        got = C.conj().T @ cov.unitaries[g] @ C
        assert np.linalg.norm(got - _reconstruct_unitary(report, g)) < 1e-7
    # the report is Ind_H^G psi, carried onto cov by the conjugator
    induced = induce(report.psi, cov.action, report.subgroup, report.coset_reps)
    for label, M in cov.base.gens.items():
        assert np.linalg.norm(C.conj().T @ M @ C - induced.base.gens[label]) < 1e-7
    for g in range(cov.group.order):
        assert np.linalg.norm(C.conj().T @ cov.unitaries[g] @ C - induced.unitaries[g]) < 1e-7


def test_analyze_regular_free_orbit(tol):
    act, pi = torus_orbit_evaluation()
    reg = regular_representation(pi, act)
    report = analyze(reg, seed=3, tol=tol)
    assert report.subgroup.members == (0,)
    assert report.index == 6
    assert report.multiplicity == 1
    _check_report_reconstruction(reg, report, tol)


def test_analyze_minimal_has_full_stabilizer(tol):
    cov = minimal_covariant()
    report = analyze(cov, seed=2, tol=tol)
    assert report.subgroup.order == 6
    assert report.index == 1
    assert report.multiplicity == 1
    _check_report_reconstruction(cov, report, tol)


def test_analyze_doubled_multiplicity_two(tol):
    cov = doubled_minimal_covariant()
    report = analyze(cov, seed=5, tol=tol)
    assert report.subgroup.order == 6
    assert report.index == 1
    assert report.multiplicity == 2
    # the multiplicity-space factor on the 3-cycle has two distinct
    # cube-root eigenvalues (the nontrivial doubling)
    lam_eta = report.lambda_rep.mats[1]
    e1, e2 = np.linalg.eigvals(lam_eta)
    ratio = e1 / e2
    assert abs(ratio**3 - 1) < 1e-8 and abs(ratio - 1) > 0.5
    report.lambda_rep.validate(1e-8)
    report.v_rep.validate(1e-8)
    _check_report_reconstruction(cov, report, tol)


def test_analyze_self_check_covers_the_unitaries(monkeypatch, tol):
    # negating one non-identity coset block of the conjugator leaves it
    # unitary and the algebra part unchanged, but flips the sign of the
    # blocks that U_g moves into or out of that coset
    original = crossrep.analyzer._mackey_orbit

    def negated(*args, **kwargs):
        orbit = original(*args, **kwargs)
        [cls] = orbit.classes
        size = cls.psi.dim
        C = cls.isometries[0].copy()
        C[:, size : 2 * size] *= -1
        return orbit._replace(classes=[cls._replace(isometries=[C])])

    _, cov = cute_example()
    assert len(analyze(cov, seed=11, tol=tol).coset_reps) == 2
    monkeypatch.setattr(crossrep.analyzer, "_mackey_orbit", negated)
    with pytest.raises(BlockStructureViolation):
        analyze(cov, seed=11, tol=tol)


def test_analyze_rejects_reducible(tol):
    A = MatAlg([1, 1, 1])
    flip = StarAut(A, (1, 0, 2), [np.eye(1)] * 3)
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), flip])
    pi = rep_from_images(A, lambda e: e.blocks[2])  # fixed by the flip
    reg = regular_representation(pi, act)
    with pytest.raises(NotIrreducible):
        analyze(reg, seed=0, tol=tol)


def _zero_on_the_algebra(act, unitaries):
    # Pi(A) = 0 and U an irreducible representation of G: a character sum
    # of 1, but zero on the crossed product
    d = len(unitaries[0])
    labels = act.algebra.basis_labels() if isinstance(act, GroupAction) else act.maps[0]
    base = Rep(d, {l: np.zeros((d, d)) for l in labels})
    return CovariantRep(base, act, unitaries)


def _z2_flip():
    A = MatAlg([1, 1])
    flip = StarAut(A, (1, 0), [np.eye(1)] * 2)
    return GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), flip])


def _s3_unitaries(eta, tau):
    # element order e, eta, eta^2, tau, eta tau, eta^2 tau
    eta2 = eta @ eta
    return [np.eye(len(eta)), eta, eta2, tau, eta @ tau, eta2 @ tau]


_SIGN = _s3_unitaries(np.eye(1), -np.eye(1))
_OMEGA = np.exp(2j * np.pi / 3)
_STANDARD = _s3_unitaries(np.diag([_OMEGA, _OMEGA**2]), np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize(
    "analyzer, make_action, unitaries",
    [
        (analyze, _z2_flip, [np.eye(1), -np.eye(1)]),
        (cyclic_analyze, _z2_flip, [np.eye(1), -np.eye(1)]),
        (classify_s3, lambda: random_s3_action(np.random.default_rng(0)), _SIGN),
        (analyze, s3_label_action, _SIGN),
        (classify_s3, s3_label_action, _SIGN),
        (classify_s3, s3_label_action, _STANDARD),
    ],
    ids=[
        "analyze",
        "cyclic_analyze",
        "classify_s3",
        "analyze label sign",
        "classify_s3 label sign",
        "classify_s3 label standard",
    ],
)
def test_analyze_rejects_zero_algebra_part(analyzer, make_action, unitaries, tol):
    with pytest.raises(InvariantViolation, match="annihilates the algebra"):
        analyzer(_zero_on_the_algebra(make_action(), unitaries), seed=0, tol=tol)


def test_ergodicity_of_group_on_commutant(tol):
    # the subspace of the restriction commutant fixed by all conjugations
    # is exactly the scalars when the covariant pair is irreducible
    from crossrep.reps import commutant_basis

    for cov in (doubled_minimal_covariant(), cute_example()[1]):
        basis = commutant_basis(cov.base, tol)
        k = len(basis)
        flat = np.array([B.reshape(-1) for B in basis])
        maps = []
        for U in cov.unitaries:
            rows = []
            for B in basis:
                C = (U @ B @ U.conj().T).reshape(-1)
                rows.append(flat.conj() @ C)
            maps.append(np.array(rows).T)
        fixed = np.hstack([M - np.eye(k) for M in maps])
        from crossrep.linalg import nullspace

        assert len(nullspace(fixed.T, tol)) == 1


def test_factor_tensor_identity_factor(rng, tol):
    V = random_unitary(3, rng)
    L = factor_tensor(np.kron(np.eye(2), V), V, 2, tol)
    assert np.linalg.norm(L - np.eye(2)) < 1e-9


def test_factor_tensor_recovers_factor(rng, tol):
    V = random_unitary(3, rng)
    X = random_unitary(4, rng)
    L = factor_tensor(np.kron(X, V), V, 4, tol)
    assert np.linalg.norm(L - X) < 1e-9


def test_factor_tensor_weyl_example(tol):
    # the 3-cycle-free Weyl pair: W = V (x) U factors against U into V
    psi = weyl_pair_homogeneous(2)
    lam = np.exp(2j * np.pi / 2)
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    V = np.diag([1.0, lam])
    zeta = 2  # index of group element (1, 0)
    L = factor_tensor(psi.unitaries[zeta], U, 2, tol)
    phase = L[np.unravel_index(np.argmax(np.abs(V)), V.shape)] / V[
        np.unravel_index(np.argmax(np.abs(V)), V.shape)
    ]
    assert np.linalg.norm(L - phase * V) < 1e-8


def test_factor_tensor_rejects_non_kronecker(rng, tol):
    V = random_unitary(2, rng)
    W = np.kron(np.eye(2), V)
    W[0, 0] += 0.1
    with pytest.raises(NotFactorable):
        factor_tensor(W, V, 2, tol)


def test_homogeneous_irreducibility_rank_one(tol):
    cov = minimal_covariant()
    # r = 1: irreducibility of the scalars is automatic
    assert homogeneous_irreducibility(cov, tol)


def test_homogeneous_irreducibility_weyl(tol):
    psi = weyl_pair_homogeneous(2)
    assert homogeneous_irreducibility(psi, tol)
    assert psi.is_irreducible(tol)


def test_homogeneous_irreducibility_trivial_factor_fails(tol):
    # two untwisted copies: the multiplicity factor is the identity family
    A = MatAlg([2])
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A)] * 2)
    base = rep_from_images(A, lambda e: np.kron(np.eye(2), e.blocks[0]))
    psi = CovariantRep(base, act, [np.eye(4, dtype=complex)] * 2)
    assert not homogeneous_irreducibility(psi, tol)
    assert not psi.is_irreducible(tol)


def test_homogeneous_irreducibility_rejects_a_moved_class(tol):
    # the Z4 generator swaps the two blocks, so it moves the class of pi1
    act, _ = cute_example()
    pi1 = rep_from_images(act.algebra, lambda e: e.blocks[0])
    psi = CovariantRep(pi1, act, [np.eye(2, dtype=complex)] * 4)
    with pytest.raises(InvariantViolation, match="fix the class"):
        homogeneous_irreducibility(psi, tol)


def test_cyclic_analyze_cute_example(tol):
    act, cov = cute_example()
    report = cyclic_analyze(cov, seed=11, tol=tol)
    assert (report.m, report.k) == (2, 2)
    assert report.base.multiplicity == 1
    assert report.eta == 2
    assert len(report.fixed_pt_irreps) == 2
    assert report.minimal_piece_is_minimal
    assert np.linalg.norm(
        np.linalg.matrix_power(report.V, report.k) - np.eye(2)
    ) < 1e-7
    # both coset translates restrict to the same two characters
    from crossrep.crossed import fixed_point_algebra

    pi1 = report.base.base_irrep
    basis, _ = fixed_point_algebra(act, tol)
    for i in range(2):
        tw = rep_compose(pi1, act, i)
        restricted = Rep(
            2, {f"fix{j}": evaluate(tw, act.algebra, b) for j, b in enumerate(basis)}
        )
        dec = decompose(restricted, seed=7, tol=tol)
        assert sorted((r.dim, m) for r, m in dec.components) == [(1, 1), (1, 1)]


def test_cyclic_analyze_regular_orbit(tol):
    act = rotation_action(3)
    pi = rep_from_images(act.algebra, lambda e: e.blocks[0])
    reg = regular_representation(pi, act)
    report = cyclic_analyze(reg, seed=1, tol=tol)
    assert (report.m, report.k, report.eta) == (3, 1, 1)
    # the whole representation restricted to the invariants is 3 copies of
    # the single fixed-point character
    from crossrep.crossed import fixed_point_algebra

    basis, _ = fixed_point_algebra(act, tol)
    gens = {
        f"fix{i}": evaluate(reg.base, act.algebra, b) for i, b in enumerate(basis)
    }
    dec = decompose(Rep(reg.dim, gens), seed=2, tol=tol)
    assert [(r.dim, m) for r, m in dec.components] == [(1, 3)]


def test_cyclic_analyze_inner_z8(tol):
    act, cov = inner_z8_minimal()
    report = cyclic_analyze(cov, seed=13, tol=tol)
    assert (report.m, report.k) == (1, 8)
    vals = sorted(np.mod(np.angle(v), 2 * np.pi) for v, _ in report.spectrum_of_V)
    assert len(vals) == 2
    # spectrum {i, exp(3 pi i/4)}: the ratio is not -1, so the two-point
    # spectrum is no coset of the order-two root group
    ratio = np.exp(1j * (vals[1] - vals[0]))
    assert abs(ratio + 1) > 0.5
    assert report.eta == 2
    for a in report.alpha_diag:
        assert a.dim == 1


def test_cyclic_analyze_rejects_non_cyclic(tol):
    cov = minimal_covariant()
    with pytest.raises(InvariantViolation):
        cyclic_analyze(cov, seed=0, tol=tol)


def test_cyclic_analyze_rejects_label_actions(tol):
    # restriction of the doubled example to the 3-cycle subgroup is a
    # label action: the fixed-point step has nothing to compute with
    from crossrep.algebra import restrict_action
    from crossrep.groups import Subgroup

    cov = doubled_minimal_covariant()
    H = Subgroup(cov.group, (0, 1, 2))
    sub, _ = restrict_action(cov.action, H)
    z3 = CovariantRep(
        cov.base, sub, [cov.unitaries[0], cov.unitaries[1], cov.unitaries[2]]
    )
    with pytest.raises(InvariantViolation):
        cyclic_analyze(z3, seed=0, tol=tol)


def test_build_cyclic_irrep_minimal_case(tol):
    act, cov = inner_z8_minimal()
    built = build_cyclic_irrep(cov.base, cov.unitaries[1], 1, 8, act, tol)
    assert are_equivalent(built.joint_rep(), cov.joint_rep(), tol).equivalent


def test_build_cyclic_irrep_cute_roundtrip(tol):
    act, cov = cute_example()
    report = cyclic_analyze(cov, seed=11, tol=tol)
    built = build_cyclic_irrep(
        report.base.base_irrep, report.V, report.m, report.k, act, tol
    )
    assert are_equivalent(built.joint_rep(), cov.joint_rep(), tol).equivalent


def test_build_cyclic_irrep_regular_case(tol):
    act = rotation_action(4)
    pi = rep_from_images(act.algebra, lambda e: e.blocks[0])
    built = build_cyclic_irrep(pi, np.eye(1), 4, 1, act, tol)
    reg = regular_representation(pi, act)
    assert are_equivalent(built.joint_rep(), reg.joint_rep(), tol).equivalent


def test_build_cyclic_irrep_precondition_failures(tol):
    act = rotation_action(4)
    pi = rep_from_images(act.algebra, lambda e: e.blocks[0])
    with pytest.raises(InvariantViolation):
        build_cyclic_irrep(pi, np.eye(1), 2, 2, act, tol)  # wrong corner power? m too small
    with pytest.raises(InvariantViolation):
        build_cyclic_irrep(pi, -np.eye(1), 4, 1, act, tol)  # V^1 != 1
    with pytest.raises(InvariantViolation):
        build_cyclic_irrep(pi, np.eye(1), 3, 1, act, tol)  # 3*1 != 4
    # every translate of the inner Z8 minimal is equivalent to it, so m = 2 is not minimal
    z8, cov = inner_z8_minimal()
    with pytest.raises(InvariantViolation, match="translate by 1 < m"):
        build_cyclic_irrep(cov.base, cov.unitaries[2], 2, 4, z8, tol)


def test_periodize_identity_case(tol):
    act, cov = inner_z8_minimal()
    per = periodize(cov.base, cov.unitaries[1], act, tol)
    assert np.linalg.norm(per.unitaries[1] - cov.unitaries[1]) < 1e-9


def test_periodize_strips_phase(tol):
    act, cov = inner_z8_minimal()
    U = np.exp(0.3j) * cov.unitaries[1]
    per = periodize(cov.base, U, act, tol)
    per.validate(tol)
    assert np.linalg.norm(
        np.linalg.matrix_power(per.unitaries[1], 8) - np.eye(2)
    ) < 1e-9


def test_periodize_rejects_nonscalar_power(tol):
    A = MatAlg([1, 1])
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A)] * 2)
    U = np.diag([1.0, np.exp(0.4j)])
    with pytest.raises(NotScalarPower):
        periodize(defining_rep(A), U, act, tol)


def test_periodize_rejects_a_cyclic_group_not_in_standard_form(tol):
    # Z4 with the element of order 2 at index 1
    perm = np.array([0, 2, 1, 3])
    table = perm[make_cyclic_group(4).table[np.ix_(perm, perm)]]
    A = MatAlg([1])
    act = GroupAction(FiniteGroup(table, identity=0), A, [StarAut.identity(A)] * 4)
    with pytest.raises(InvariantViolation, match="standard form"):
        periodize(defining_rep(A), np.eye(1), act, tol)


def test_classify_minimal(tol):
    verdict = classify_s3(minimal_covariant(), seed=1, tol=tol)
    assert verdict.case == "Minimal"
    assert verdict.multiplicity == 1


def test_classify_regular(tol):
    act, pi = torus_orbit_evaluation()
    reg = regular_representation(pi, act)
    verdict = classify_s3(reg, seed=1, tol=tol)
    assert verdict.case == "Regular6"
    assert verdict.pi1.dim == 1


def test_classify_tau_pair(tol):
    cov = doubled_minimal_covariant()
    verdict = classify_s3(cov, seed=1, tol=tol)
    assert verdict.case == "TauPair"
    assert verdict.tau_equivalent is True
    assert verdict.multiplicity == 2
    assert verdict.eta_block is not None
    # W pi1 W* = pi1 o alpha_tau
    W, pi1 = verdict.tau_witness, verdict.pi1
    twisted = rep_compose(pi1, cov.action, S3_TAU)
    for l, M in pi1.gens.items():
        assert np.linalg.norm(W @ M @ W.conj().T - twisted.gens[l]) < 1e-9


def _three_point_action() -> GroupAction:
    """Natural permutation of three points (cosets of a transposition)."""
    from crossrep.groups import s3_permutations

    G = make_symmetric_group_3()
    A = MatAlg([1, 1, 1])
    auts = []
    for g, perm in enumerate(s3_permutations()):
        mapping = [perm[j] for j in range(3)]  # alpha_g(x)_i = x_{g^{-1} i}
        auts.append(StarAut(A, mapping, [np.eye(1)] * 3))
    return GroupAction(G, A, auts)


def test_classify_eta_triple(tol):
    act = _three_point_action()
    irreps = crossed_irreps(act, seed=4, tol=tol)
    assert len(irreps) == 2 and all(cov.dim == 3 for cov in irreps)
    for cov in irreps:
        verdict = classify_s3(cov, seed=4, tol=tol)
        assert verdict.case == "EtaTriple"
        assert verdict.pi1.dim == 1


def test_classify_rejects_wrong_group(tol):
    act, cov = cute_example()
    with pytest.raises(InvariantViolation):
        classify_s3(cov, seed=0, tol=tol)


def test_classify_rejects_reducible(tol):
    act, pi = torus_orbit_evaluation()
    double = direct_sum_reps([pi, pi])
    reg = regular_representation(double, act)
    with pytest.raises(NotIrreducible):
        classify_s3(reg, seed=0, tol=tol)


def test_cyclic_multiplicity_one_sweep_small(tol):
    rng = np.random.default_rng(7)
    seen = 0
    for trial in range(3):
        n = int(rng.integers(2, 5))
        act = random_cyclic_action(n, [1, 2], rng)
        for cov in crossed_irreps(act, seed=trial, tol=tol):
            report = cyclic_analyze(cov, seed=trial, tol=tol)
            assert report.base.multiplicity == 1
            seen += 1
    assert seen >= 4


def test_psi_block_matches_corner(tol):
    # for a cyclic analysis the stabilizer block of the m-th power is the
    # corner unitary itself
    act, cov = cute_example()
    report = cyclic_analyze(cov, seed=11, tol=tol)
    psi_gen = report.base.psi.unitaries[1]  # grounded generator = sigma^m
    assert np.linalg.norm(psi_gen - report.V) < 1e-7


def test_projective_end_dim_matches_commutant(rng, tol):
    from crossrep.reps import ProjectiveRep, _hom, commutant_basis

    # the multiplicity-space family of the doubled example is irreducible;
    # the identity family on C^3 has the full 3 x 3 commutant
    lam = analyze(doubled_minimal_covariant(), seed=5, tol=tol).lambda_rep
    identity = ProjectiveRep(make_cyclic_group(4), [np.eye(3, dtype=complex)] * 4, np.ones((4, 4)))
    for proj in (lam, identity):
        expected = len(commutant_basis(Rep(proj.dim, {f"L{i}": L for i, L in enumerate(proj.mats)}), tol))
        assert _hom(proj, proj, tol)[0] == expected
    # unitaries that are no projective representation give no dimension
    mats = [np.eye(2), random_unitary(2, rng), random_unitary(2, rng)]
    bogus = ProjectiveRep(make_cyclic_group(3), mats, np.ones((3, 3)))
    with pytest.raises(InvariantViolation):
        _hom(bogus, bogus, tol)


def test_lambda_irreducibility_is_asked_of_the_projective_rep(monkeypatch, tol):
    # past the entry test, Psi (+) Psi is 1_2 (x) Psi: its Lambda is the Weyl
    # factor doubled, and the orbit's decomposition of Lambda rejects it
    psi = weyl_pair_homogeneous(2)
    double = CovariantRep(
        direct_sum_reps([psi.base, psi.base]),
        psi.action,
        [np.kron(np.eye(2), U) for U in psi.unitaries],
    )
    monkeypatch.setattr(crossrep.analyzer, "_require_irreducible", lambda Pi, tol: None)
    with pytest.raises(BlockStructureViolation, match="multiplicity space is reducible"):
        analyze(double, seed=0, tol=tol)


def test_lambda_is_decided_by_one_projective_hom(monkeypatch, tol):
    # Lambda is read once against the classes of its cocycle, by character
    # products, with no intertwiner solve
    original, asked = crossrep.reps._copies, []

    def counting(lam, *args):
        asked.append(lam)
        return original(lam, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("an intertwiner solve was made")

    monkeypatch.setattr(crossrep.reps, "_copies", counting)
    monkeypatch.setattr(crossrep.reps, "intertwiners", refuse)
    analyze(weyl_pair_homogeneous(2), seed=0, tol=tol)
    [lam] = asked
    assert lam.dim == 2 and len(lam.mats) == lam.group.order == 4


def _scalar_quotient_cocycle(K, mats, tol):
    """Reference: one scalar_quotient per pair, M_ab = c(a, b) M_a M_b."""
    from crossrep.linalg import scalar_quotient

    return np.array(
        [[scalar_quotient(mats[K.mul(a, b)], mats[a] @ mats[b], tol) for b in range(K.order)]
         for a in range(K.order)]
    )


@pytest.mark.parametrize("q", [2, 3])
def test_report_cocycles_match_the_scalar_quotient_reference(q, tol):
    report = analyze(weyl_pair_homogeneous(q), seed=0, tol=tol)
    K = report.subgroup_group
    for proj in (report.v_rep, report.lambda_rep):
        want = _scalar_quotient_cocycle(K, proj.mats, tol)
        assert np.max(np.abs(proj.cocycle - want)) < 1e-12
        proj.validate(1e-8)
    # the Weyl pair is projective, not linear: the cocycle is nontrivial
    assert np.max(np.abs(report.v_rep.cocycle - 1)) > 0.5


def test_cocycle_rejects_a_family_that_is_not_projective(rng, tol):
    from crossrep.reps import _cocycle

    K = make_cyclic_group(3)
    mats = [np.eye(2, dtype=complex), random_unitary(2, rng), random_unitary(2, rng)]
    with pytest.raises(InvariantViolation, match="not scalar multiples"):
        _cocycle(K, mats, tol)
    # a genuine representation passes, with the cocycle 1 computed or given
    Z = np.diag([1.0, np.exp(2j * np.pi / 3)])
    powers = [np.linalg.matrix_power(Z, j) for j in range(3)]
    assert np.allclose(_cocycle(K, powers, tol), 1.0)
    with pytest.raises(InvariantViolation, match="not scalar multiples"):
        _cocycle(K, powers, tol, np.full((3, 3), 1j))


def _flip():
    A = MatAlg([1, 1])
    return GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), StarAut(A, (1, 0), [np.eye(1)] * 2)])


def _first_block(action):
    return rep_from_images(action.algebra, lambda e: e.blocks[0])


REFUSALS = {
    # the regular representation of a free orbit is pi_0 + pi_1 on the algebra: dim End = 2
    "homogeneous_irreducibility of a base whose commutant is no square": (
        lambda: homogeneous_irreducibility(regular_representation(_first_block(_flip()), _flip())),
        "base commutant is not a full matrix algebra"),
    "build_cyclic_irrep with a wrongly sized corner": (
        lambda: build_cyclic_irrep(_first_block(_flip()), np.eye(2), 2, 1, _flip()),
        "corner unitary must act on the space of pi1"),
    # V = 1 conjugates pi1 onto its translate by m = 2 = 0 in Z2, and V^1 = 1
    "build_cyclic_irrep of a reducible pi1": (
        lambda: build_cyclic_irrep(defining_rep(MatAlg([1, 1])), np.eye(2), 2, 1, _flip()),
        "pi1 must be irreducible"),
    "periodize with a wrongly sized unitary": (
        lambda: periodize(_first_block(_flip()), np.eye(3), _flip()),
        "unitary must act on the space of the base rep"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_public_refusals_raise_their_typed_error(name):
    call, message = REFUSALS[name]
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        call()
