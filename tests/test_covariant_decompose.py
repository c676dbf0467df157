"""The character/averaging engine for covariant representations.

``decompose(cov)`` on a covariant representation over a ``GroupAction``
splits along averaged commutant elements and counts with character sums;
these tests hold it against the intertwiner-solve route on the joint
generating set, on inputs whose joint solve sits on both sides of
p*q = 120, where that solve used to switch from a stacked SVD to a Gram
eigendecomposition.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import crossrep.linalg
import crossrep.reps
from crossrep.algebra import GroupAction, MatAlg, StarAut
from crossrep.crossed import build_crossed_model
from crossrep.errors import DecompositionFailed, InvariantViolation
from crossrep.analyzer import classify_s3
from crossrep.cli import main
from crossrep.examples import first_s3_example, minimal_covariant, s3_label_action
from crossrep.groups import make_cyclic_group, make_symmetric_group_3
from crossrep.linalg import Tolerance, block_diag, random_unitary
from crossrep.reps import (
    CovariantRep,
    Equivalence,
    IrrepDecomposition,
    ProjectiveRep,
    Rep,
    decompose,
    decompositions_match,
    defining_rep,
    direct_sum_reps,
    hom_dim,
    hom_projection,
    intertwiners,
    is_irreducible,
    regular_representation,
)
from crossrep.sampling import (
    crossed_irreps,
    random_block_irrep,
    random_cyclic_action,
    random_s3_action,
)
from crossrep.serialize import covariant_to_json


def _doubled(cov: CovariantRep) -> CovariantRep:
    base = direct_sum_reps([cov.base, cov.base])
    return CovariantRep(base, cov.action, [block_diag(U, U) for U in cov.unitaries])


def _cyclic_model(n, blocks, seed):
    act = random_cyclic_action(n, blocks, np.random.default_rng(seed))
    return build_crossed_model(act).defining_covariant_rep()


def _s3_regular(kind, seed, block=0):
    rng = np.random.default_rng(seed)
    act = random_s3_action(rng, kind)
    return regular_representation(random_block_irrep(act.algebra, rng, block), act)


def _flip_action():
    A = MatAlg([1, 1])
    swap = StarAut(A, (1, 0), [np.eye(1)] * 2)
    return GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), swap])


def _non_unital():
    """The flip pair on C^2 plus C^2 where the algebra acts as zero and the
    group by the swap, so the second half is trivial + sign of Z2."""
    act = _flip_action()
    pi = defining_rep(act.algebra)
    zero = Rep(2, {l: np.zeros((2, 2)) for l in pi.gens})
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    U = block_diag(swap, swap)
    return CovariantRep(direct_sum_reps([pi, zero]), act, [np.eye(4), U])


# the joint commutant solve has p*q = dim^2: dims 4, 6 and 9 sit below
# the old stacked/Gram switch at p*q = 120, dims 12 and 18 above it
CASES = {
    "non-unital (4)": _non_unital,
    "Z2[1,2] model (6)": lambda: _cyclic_model(2, [1, 2], 3),
    "S3 permutation regular (6)": lambda: _s3_regular("permutation", 8),
    "Z3[1,2] model (9)": lambda: _cyclic_model(3, [1, 2], 4),
    "Z4[1,2] model (12)": lambda: _cyclic_model(4, [1, 2], 5),
    "Z3[2,2] model (12)": lambda: _cyclic_model(3, [2, 2], 6),
    "S3 permutation regular doubled (12)": lambda: _doubled(_s3_regular("permutation", 8)),
    "S3 inner regular (12)": lambda: _s3_regular("inner", 2),
    "Z6[1,2] model (18)": lambda: _cyclic_model(6, [1, 2], 7),
}


@pytest.fixture(params=sorted(CASES))
def cov(request):
    return CASES[request.param]()


def _shape(dec):
    return sorted((r.dim, m) for r, m in dec.components)


def test_covariant_and_joint_routes_agree(cov, tol):
    dec = decompose(cov, seed=1, tol=tol)
    joint = decompose(cov.joint_rep(), seed=1, tol=tol)
    assert all(isinstance(r, CovariantRep) for r, _ in dec.components)
    assert _shape(dec) == _shape(joint)
    # the same classes: compare the covariant components as joint reps
    as_joint = IrrepDecomposition(
        [(r.joint_rep(), m) for r, m in dec.components], dec.basis_change
    )
    assert decompositions_match(as_joint, joint, tol)
    assert decompositions_match(dec, decompose(cov, seed=4, tol=tol), tol)
    assert sum(m * m for _, m in dec.components) == hom_dim(cov, cov, tol)


def test_covariant_basis_change_reconstructs(cov, tol):
    dec = decompose(cov, seed=2, tol=tol)
    Q = dec.basis_change
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(cov.dim)) < 1e-9
    pairs = [(M, lambda r, l=l: r.base.gens[l]) for l, M in cov.base.gens.items()]
    pairs += [(U, lambda r, g=g: r.unitaries[g]) for g, U in enumerate(cov.unitaries)]
    for M, image in pairs:
        want = block_diag(*[image(r) for r, m in dec.components for _ in range(m)])
        assert np.linalg.norm(Q.conj().T @ M @ Q - want) < 1e-7


def test_covariant_multiset_seed_independent(cov, tol):
    shapes = {tuple(_shape(decompose(cov, seed=s, tol=tol))) for s in range(5)}
    assert len(shapes) == 1


def test_hom_dim_matches_intertwiner_count(cov, tol):
    comps = [r for r, _ in decompose(cov, seed=0, tol=tol).components]
    pairs = [(cov, cov)] + [(c, cov) for c in comps] + [(a, b) for a in comps for b in comps]
    for a, b in pairs:
        assert hom_dim(a, b, tol) == len(intertwiners(a.joint_rep(), b.joint_rep(), tol))


def test_is_irreducible_matches_joint_route(cov, tol):
    # every seeded input is reducible, every component irreducible
    comps = [r for r, _ in decompose(cov, seed=0, tol=tol).components]
    for c in [cov, *comps]:
        assert c.is_irreducible(tol) == is_irreducible(c.joint_rep(), tol)


def test_hom_oracle_routes_agree(cov, tol):
    # the solve route on the joint generating set projects onto the same
    # space as the character engine, orthogonally
    comp = decompose(cov, seed=0, tol=tol).components[0][0]
    rng = np.random.default_rng(3)
    for a, b in [(cov, cov), (comp, cov)]:
        X = rng.standard_normal((b.dim, a.dim)) + 1j * rng.standard_normal((b.dim, a.dim))
        dim, project = crossrep.reps._hom(a.joint_rep(), b.joint_rep(), tol)
        assert dim == hom_dim(a, b, tol)
        assert np.linalg.norm(project(X) - hom_projection(a, b, X)) < 1e-8 * np.linalg.norm(X)


def test_hom_projection_lands_in_hom_and_fixes_it(tol):
    cov = _cyclic_model(3, [1, 2], 4)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((cov.dim, cov.dim)) + 1j * rng.standard_normal((cov.dim, cov.dim))
    P = hom_projection(cov, cov, X)
    for M in cov.joint_rep().gens.values():
        assert np.linalg.norm(P @ M - M @ P) < 1e-10
    assert np.linalg.norm(hom_projection(cov, cov, P) - P) < 1e-10


def test_non_unital_components():
    dec = decompose(_non_unital(), seed=0)
    assert _shape(dec) == [(1, 1), (1, 1), (2, 1)]
    # the two 1-dim components are the trivial and sign pairs on which the
    # algebra acts as zero
    ones = [r for r, _ in dec.components if r.dim == 1]
    assert all(np.allclose(M, 0) for r in ones for M in r.base.gens.values())
    assert sorted(round(r.unitaries[1][0, 0].real) for r in ones) == [-1, 1]


def _non_unitary():
    """:func:`_non_unital` with U_1 = S swap S^-1 on the annihilated C^2: an
    involution, so U is a homomorphism and covariant, but not unitary."""
    cov = _non_unital()
    S = np.array([[1, 0.5], [0, 1]])
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    U = block_diag(swap, S @ swap @ np.linalg.inv(S))
    return CovariantRep(cov.base, cov.action, [np.eye(4), U])


def test_non_unitary_input_rejected(tmp_path, capsys, tol):
    cov = _non_unitary()
    checks = [cov.validate, cov.is_irreducible, lambda tol: decompose(cov, seed=0, tol=tol)]
    for check in checks:
        with pytest.raises(InvariantViolation, match=re.escape("element 1 fails U*U = 1")):
            check(tol)
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(covariant_to_json(cov)))
    assert main(["analyze", str(path)]) == 3
    assert "U*U = 1" in json.loads(capsys.readouterr().err)["error"]


def _non_covariant():
    act = _flip_action()
    reg = regular_representation(defining_rep(act.algebra), act)
    # identity unitaries are a homomorphism but do not implement the flip
    return CovariantRep(reg.base, act, [np.eye(reg.dim)] * 2)


def test_non_covariant_input_rejected():
    with pytest.raises(InvariantViolation):
        decompose(_non_covariant())


def test_non_covariant_input_gets_no_irreducibility_verdict(tol):
    with pytest.raises(InvariantViolation):
        _non_covariant().is_irreducible(tol)


def test_label_action_non_covariant_input_gets_no_irreducibility_verdict(tol):
    # identity unitaries are a homomorphism but do not permute the generators
    cov = CovariantRep(minimal_covariant().base, s3_label_action(), [np.eye(2)] * 6)
    with pytest.raises(InvariantViolation):
        cov.is_irreducible(tol)
    with pytest.raises(InvariantViolation):
        classify_s3(cov, seed=0, tol=tol)


def test_non_multiplicative_base_fails_character_sum(tol):
    cov = _cyclic_model(2, [1, 2], 3)
    gens = dict(cov.base.gens)
    gens["b1_00"] = 1.1 * gens["b1_00"]
    bent = CovariantRep(Rep(cov.dim, gens), cov.action, cov.unitaries)
    with pytest.raises(InvariantViolation):
        hom_dim(bent, bent, tol)


def test_merged_clusters_are_split_again(tol):
    # a wide eig_sep merges eigenvalues of inequivalent pieces of the
    # orbit frames' Lambda (dimension 6 and 3) into one cluster, whose
    # character sum sends it through another split
    cov = CASES["Z6[1,2] model (18)"]()
    wide = decompose(cov, seed=0, tol=Tolerance(eig_sep=0.5))
    assert _shape(wide) == _shape(decompose(cov, seed=0, tol=tol))


def test_no_eigenvalue_gap_raises():
    # the orbit frame's Lambda is read against its classes with no
    # eigenvalue gap; the classes of the inner action's stabilizer S3 are
    # split, which finds no gap above this eig_sep
    cov = _doubled(_s3_regular("inner", 2))
    with pytest.raises(DecompositionFailed, match="split by no right translation"):
        decompose(cov, seed=0, tol=Tolerance(eig_sep=1e6))
    # the generic splitter of a plain representation, on the 6-dimensional
    # twisted regular Lambda of dim End 6
    with pytest.raises(DecompositionFailed, match="no eigenvalue gap"):
        decompose(_s3_regular_projective(), seed=0, tol=Tolerance(eig_sep=1e6))


def _s3_regular_projective() -> ProjectiveRep:
    """The regular representation L_a delta_x = delta_{ax} of S3."""
    from crossrep.groups import make_symmetric_group_3

    K = make_symmetric_group_3()
    L = (K.table[:, None, :] == np.arange(6)[:, None]).astype(complex)
    return ProjectiveRep(K, L, np.ones((6, 6), dtype=complex))


def test_label_action_covariant_decomposes_like_joint_rep(tol):
    reg = regular_representation(first_s3_example(), s3_label_action())
    dec = decompose(reg, seed=0, tol=tol)
    joint = decompose(reg.joint_rep(), seed=0, tol=tol)
    assert all(isinstance(r, CovariantRep) for r, _ in dec.components)
    assert [(r.dim, m) for r, m in dec.components] == [(r.dim, m) for r, m in joint.components]
    Q = dec.basis_change
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(reg.dim)) < 1e-9


def test_rep_decomposition_certified_by_end_dim(monkeypatch, tol):
    # with every pair of leaves reported inequivalent, two copies of one
    # irreducible come back as two classes: 1 + 1 != dim End = 4
    pi = first_s3_example()
    monkeypatch.setattr(
        crossrep.reps, "covariant_equivalence", lambda *args, **kwargs: Equivalence(False, None)
    )
    with pytest.raises(InvariantViolation, match="dim End = 4"):
        decompose(direct_sum_reps([pi, pi]), seed=0, tol=tol)


def test_split_element_must_commute(monkeypatch, tol):
    # a projection that returns X unchanged gives a split element outside
    # the commutant of the 6-dimensional regular representation of S3
    hom = crossrep.reps._hom

    def unprojected(a, b, tol):
        return hom(a, b, tol)[0], lambda X: X

    monkeypatch.setattr(crossrep.reps, "_hom", unprojected)
    with pytest.raises(InvariantViolation, match="fails to commute"):
        decompose(_s3_regular_projective(), seed=0, tol=tol)


def test_unit_tables_are_cached_and_read_only():
    tables = crossrep.reps._unit_pattern((2, 1))
    assert crossrep.reps._unit_pattern((2, 1)) is tables
    assert not any(a.flags.writeable for a in tables)
    weights, transpose, diagonal = tables
    assert weights.tolist() == [0.5, 0.5, 0.5, 0.5, 1.0]
    # e^0_01 and e^0_10 sit at positions 1 and 2
    assert transpose.tolist() == [0, 2, 1, 3, 4]
    assert diagonal.tolist() == [True, False, False, True, True]


def test_crossed_irreps_makes_no_sylvester_solve(monkeypatch, tol):
    calls = []
    original = crossrep.linalg.solve_sylvester_family

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(crossrep.linalg, "solve_sylvester_family", counting)
    monkeypatch.setattr(crossrep.reps, "solve_sylvester_family", counting)
    act = random_s3_action(np.random.default_rng(2), "conjugated")
    irreps = crossed_irreps(act, seed=0, tol=tol)
    assert sum(c.dim**2 for c in irreps) == 6 * act.algebra.linear_dim
    assert calls == []


def _ladder_model(i):
    """The defining crossed-product model of action i of the benchmark's
    enumerate ladder (13 actions, host 12-36), built by its input module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_ladder_inputs", path)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return build_crossed_model(inputs.to_action(inputs.enumerate_actions(7)[i])).defining_covariant_rep()


# every input is a covariant representation over a GroupAction
FRAME_CASES = {**CASES, **{f"ladder#{i}": lambda i=i: _ladder_model(i) for i in range(13)}}


def _gauged(cov, seed):
    return cov.conjugate(random_unitary(cov.dim, np.random.default_rng(seed)))


def _assert_certified(cov, dec, tol):
    assert sum(m * m for _, m in dec.components) == hom_dim(cov, cov, tol)
    Q = dec.basis_change
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(cov.dim)) < 1e-7
    parts = [r for r, m in dec.components for _ in range(m)]
    for l, M in cov.base.gens.items():
        assert np.linalg.norm(Q.conj().T @ M @ Q - block_diag(*(r.base.gens[l] for r in parts))) < 1e-7
    for g, U in enumerate(cov.unitaries):
        assert np.linalg.norm(Q.conj().T @ U @ Q - block_diag(*(r.unitaries[g] for r in parts))) < 1e-7


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_frame_decompose_matches_the_joint_reference(name, tol):
    # the Sylvester solve on the joint generating set, in a random gauge
    cov = _gauged(FRAME_CASES[name](), 11)
    dec = decompose(cov, seed=0, tol=tol)
    as_joint = IrrepDecomposition([(r.joint_rep(), m) for r, m in dec.components], dec.basis_change)
    assert decompositions_match(as_joint, decompose(cov.joint_rep(), seed=0, tol=tol), tol)
    _assert_certified(cov, dec, tol)


def test_host_108_model_matches_the_host_size_split(tol):
    # the joint solve at host 108 needs a 108^2 x 108^2 Gram matrix, so the
    # reference is the commutant split at host size, reps._decompose
    act = random_cyclic_action(12, [3, 3, 3], np.random.default_rng(1))
    cov = _gauged(build_crossed_model(act).defining_covariant_rep(), 5)
    dec = decompose(cov, seed=0, tol=tol)
    assert decompositions_match(dec, crossrep.reps._decompose(cov, tol), tol)
    _assert_certified(cov, dec, tol)


STACKED = {
    "Z12[3,3,3] model": lambda: _cyclic_model(12, [3, 3, 3], 0),
    "S3 permutation model": lambda: build_crossed_model(
        random_s3_action(np.random.default_rng(0), "permutation")
    ).defining_covariant_rep(),
}


def _stacks(dec, tol):
    """The components of a decomposition grouped by (dimension, blocks their
    algebra part reaches): by the (orbit, dimension) they were built in."""
    stacks = {}
    for comp, _ in dec.components:
        ranks = crossrep.reps._frame_ranks(comp.base, comp.action.algebra, tol)
        stacks.setdefault((comp.dim, tuple(r > 0 for r in ranks)), []).append(comp)
    return list(stacks.values())


@pytest.mark.parametrize("name", sorted(STACKED))
def test_decompose_components_of_one_orbit_and_dimension_share_one_induced_base(name, tol):
    stacks = _stacks(decompose(STACKED[name](), seed=0, tol=tol), tol)
    assert max(len(comps) for comps in stacks) > 1
    assert all(len({id(comp.base) for comp in comps}) == 1 for comps in stacks)


@pytest.mark.parametrize("name", sorted(STACKED))
def test_decompose_induces_once_per_orbit_and_dimension(name, monkeypatch, tol):
    # one _induce_stack of all classes of an (orbit, dimension), as in
    # crossed_irreps, rather than one induction per class
    cov, calls = STACKED[name](), []  # the model is built by an induction too
    induce_stack = crossrep.reps._induce_stack

    def counting(base, unitaries, *args):
        calls.append(len(unitaries))
        return induce_stack(base, unitaries, *args)

    monkeypatch.setattr(crossrep.reps, "_induce_stack", counting)
    stacks = _stacks(decompose(cov, seed=0, tol=tol), tol)
    assert sorted(calls) == sorted(len(comps) for comps in stacks)


def _split_sizes(cov, tol):
    """The frame rank r of each orbit with r > 0, then dim(1 - Pi(1)) if > 0."""
    A = cov.action.algebra
    ranks = crossrep.reps._frame_ranks(cov.base, A, tol)
    # the smallest block of each orbit {alpha_g(k)}, in increasing order
    covered, smallest = set(), []
    for k in range(A.n_blocks):
        if k not in covered:
            covered.update(aut.perm[k] for aut in cov.action.auts)
            smallest.append(k)
    rest = cov.dim - sum(r * n for r, n in zip(ranks, A.block_dims))
    return [ranks[k] for k in smallest if ranks[k]] + ([rest] if rest else [])


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_no_host_size_split(name, monkeypatch, tol):
    # the only read-off runs on a Lambda of one orbit (or of the annihilated
    # subspace), never on the covariant input itself, and nothing is split
    # at random: no _decompose and no _pieces
    cov = FRAME_CASES[name]()
    reads, copies = [], crossrep.reps._copies

    def record(lam, *args):
        reads.append(lam)
        return copies(lam, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("a covariant input over a GroupAction was split at random")

    monkeypatch.setattr(crossrep.reps, "_copies", record)
    monkeypatch.setattr(crossrep.reps, "_decompose", refuse)
    monkeypatch.setattr(crossrep.reps, "_pieces", refuse)
    decompose(cov, seed=0, tol=tol)
    assert [lam.dim for lam in reads] == _split_sizes(cov, tol)
    assert all(type(lam) is ProjectiveRep for lam in reads)


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_the_read_off_carries_lambda_onto_copies_of_its_classes(name, monkeypatch, tol):
    # Y* Lambda_h Y is the block diagonal of m copies of each class lambda,
    # in the order of the classes, with Y unitary
    cov, seen = _gauged(FRAME_CASES[name](), 3), []
    copies = crossrep.reps._copies

    def record(lam, classes, tol):
        out = copies(lam, classes, tol)
        seen.append((lam, classes, out))
        return out

    monkeypatch.setattr(crossrep.reps, "_copies", record)
    decompose(cov, seed=0, tol=tol)
    assert seen
    for lam, classes, (present, Y) in seen:
        order = [next(i for i, cls in enumerate(classes) if cls is lam_i) for lam_i, _ in present]
        assert order == sorted(order) and all(m > 0 for _, m in present)
        assert np.linalg.norm(Y.conj().T @ Y - np.eye(lam.dim)) < 1e-12
        blocks = block_diag(*(cls.mats for cls, m in present for _ in range(m)))
        assert np.max(np.abs(Y.conj().T @ lam.mats @ Y - blocks)) < 1e-12


@pytest.mark.parametrize("group", ["Z4", "S3"])
def test_a_one_dimensional_lambda_is_copied_as_the_projection_would_copy_it(group, tol):
    # at r = 1 the copy is written down as 1: the top eigenvector of the
    # 1 x 1 projection P, which is exactly 1, array for array
    K = make_cyclic_group(4) if group == "Z4" else make_symmetric_group_3()
    classes = crossrep.reps._classes(K, np.ones((K.order, K.order), dtype=complex), tol)
    for cls in (lam for lam in classes if lam.dim == 1):
        lam = ProjectiveRep(K, cls.mats.copy(), cls.cocycle)
        present, Y = crossrep.reps._copies(lam, classes, tol)
        assert [(c is cls, m) for c, m in present] == [(True, 1)]
        P = np.einsum("hij,hab->iajb", lam.mats, cls.mats.conj()).reshape(1, 1) / K.order
        want = np.linalg.eigh((P + P.conj().T) / 2)[1]
        assert Y.dtype == want.dtype and np.array_equal(Y, want)
