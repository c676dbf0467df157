"""The analyzer on the character engine.

Over a ``GroupAction`` every irreducibility, equivalence and decomposition
decision that ``analyze``, ``cyclic_analyze``, ``classify_s3`` and
``character_table`` take is a character sum, a group-and-algebra average or,
for the fixed-point pieces of ``cyclic_analyze``, the commutant of the
corner unitary: none of them makes an intertwiner solve.  The solve route
kept for plain ``Rep`` inputs is the reference for the fixed-point pieces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossrep.analyzer
import crossrep.linalg
import crossrep.reps
from crossrep.algebra import GroupAction, MatAlg, StarAut, restrict_action
from crossrep.analyzer import analyze, classify_s3, cyclic_analyze
from crossrep.crossed import fixed_point_algebra
from crossrep.errors import CanonicalFormViolation
from crossrep.examples import (
    cute_example,
    inner_z8_minimal,
    product_cyclic_group,
    rotation_action,
    torus_orbit_action,
    torus_orbit_evaluation,
)
from crossrep.groups import (
    S3_E,
    S3_ETA,
    S3_ETA2,
    Subgroup,
    character_table,
    make_cyclic_group,
    make_symmetric_group_3,
)
from crossrep.linalg import random_unitary
from crossrep.reps import (
    CovariantRep,
    Rep,
    are_equivalent,
    decompose,
    defining_rep,
    evaluate,
    is_irreducible,
    regular_representation,
    rep_compose,
    rep_from_images,
)
from crossrep.sampling import crossed_irreps, random_cyclic_action, random_s3_action


def _on_block(cov, block):
    # tr Pi(e^k_00) > 0: the algebra part does not annihilate block k
    return np.trace(cov.base.gens[f"b{block}_00"]).real > 0.5


def _s3_irrep(kind, seed, dim, block):
    act = random_s3_action(np.random.default_rng(seed), kind)
    return next(c for c in crossed_irreps(act, seed=0) if c.dim == dim and _on_block(c, block))


def _torus_regular():
    act, pi = torus_orbit_evaluation()
    return regular_representation(pi, act)


# (analyzer, input, S3 case or None); each S3 input is a crossed irreducible
# picked by its dimension and a block it lives on, which fix its shape: the
# 2-dim block of an inner action, a 6-dim one on a 3-block orbit of 2x2
# blocks (stabilizer of order 2) and a 2-dim one on a 2-block orbit of 1x1
# blocks (stabilizer of order 3)
ANALYZER_CASES = {
    "classify_s3 Minimal": (classify_s3, lambda: _s3_irrep("inner", 2, 2, 1), "Minimal"),
    "classify_s3 EtaTriple": (classify_s3, lambda: _s3_irrep("permutation", 1, 6, 0), "EtaTriple"),
    "classify_s3 TauPair": (classify_s3, lambda: _s3_irrep("permutation", 2, 2, 0), "TauPair"),
    "classify_s3 Regular6": (classify_s3, _torus_regular, "Regular6"),
    "cyclic_analyze cute": (cyclic_analyze, lambda: cute_example()[1], None),
    "analyze S3 regular": (analyze, _torus_regular, None),
}
SOLVE_CASES = {
    **ANALYZER_CASES,
    "character_table Z8": (character_table, lambda: make_cyclic_group(8), None),
    "character_table S3": (character_table, make_symmetric_group_3, None),
    "character_table Z3xZ3": (character_table, lambda: product_cyclic_group(3), None),
}


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_no_sylvester_solve_at_representation_size(name, monkeypatch, tol):
    analyzer, make, case = SOLVE_CASES[name]
    arg = make()
    sizes = []
    original = crossrep.linalg.solve_sylvester_family

    def counting(pairs, dims=None, tol=crossrep.linalg.DEFAULT_TOL):
        pairs = list(pairs)
        sizes.append((pairs[0][0].shape[0], pairs[0][1].shape[0]) if pairs else dims)
        return original(pairs, dims, tol)

    monkeypatch.setattr(crossrep.linalg, "solve_sylvester_family", counting)
    monkeypatch.setattr(crossrep.reps, "solve_sylvester_family", counting)
    out = analyzer(arg, seed=3, tol=tol)
    if case is not None:
        assert out.case == case
    assert sizes == []


@pytest.mark.parametrize("name", [n for n in sorted(ANALYZER_CASES) if n.startswith("classify_s3")])
def test_classify_s3_draws_no_random_numbers(name, monkeypatch, tol):
    analyzer, make, case = ANALYZER_CASES[name]
    Pi = make()
    assert isinstance(Pi.action, GroupAction)

    def refuse(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(crossrep.linalg, "random_hermitian", refuse)
    monkeypatch.setattr(crossrep.reps, "random_hermitian", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert analyzer(Pi, seed=3, tol=tol).case == case


def test_eta_triple_reads_one_structure_core(monkeypatch, tol):
    # the 3-cycle restriction reuses Pi's frame, stabilizer witness and conjugator
    Pi = ANALYZER_CASES["classify_s3 EtaTriple"][1]()
    calls = {"_mackey_orbit": 0, "_block_frame": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # reference: the Z3 restriction analysed from scratch
    U_eta = Pi.unitaries[S3_ETA]
    z3_action, _ = restrict_action(Pi.action, Subgroup(Pi.group, (S3_E, S3_ETA, S3_ETA2)))
    z3_cov = CovariantRep(Pi.base, z3_action, [np.eye(Pi.dim), U_eta, U_eta @ U_eta])
    analyzer = crossrep.analyzer
    want = analyzer._cyclic_canonical_form(z3_cov, analyzer._orbit(z3_cov, 3, tol), tol)[0]

    orbit = counted("_mackey_orbit", crossrep.reps._mackey_orbit)
    frame = counted("_block_frame", crossrep.reps._block_frame)
    monkeypatch.setattr(crossrep.reps, "_block_frame", frame)
    for module in (analyzer, crossrep.reps):
        monkeypatch.setattr(module, "_mackey_orbit", orbit)
    verdict = classify_s3(Pi, seed=3, tol=tol)
    assert verdict.case == "EtaTriple" and verdict.report.index == 3
    # one frame, read for Pi; one read-off for Pi and one for its restriction
    assert calls == {"_mackey_orbit": 2, "_block_frame": 1}
    got = verdict.report
    assert got.coset_reps == want.coset_reps and got.subgroup.members == want.subgroup.members
    for a, b in [(got.conjugator, want.conjugator), (got.v_rep.mats, want.v_rep.mats),
                 (got.lambda_rep.mats, want.lambda_rep.mats), (got.psi.unitaries, want.psi.unitaries)]:
        assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-12


@pytest.mark.parametrize("name", sorted(ANALYZER_CASES))
def test_analyzer_validates_its_input_once(name, monkeypatch, tol):
    analyzer, make, _ = ANALYZER_CASES[name]
    Pi = make()
    validated = []
    original = CovariantRep.validate

    def recording(self, tol=crossrep.linalg.DEFAULT_TOL):
        # the list keeps every validated object alive, so ids stay distinct
        validated.append(self)
        return original(self, tol)

    monkeypatch.setattr(CovariantRep, "validate", recording)
    analyzer(Pi, seed=3, tol=tol)
    assert sum(cov is Pi for cov in validated) == 1
    # the trivial-subgroup representation of Pi.base is valid once Pi is
    assert sum(cov.group.order == 1 for cov in validated) == 0
    assert len({id(cov) for cov in validated}) == len(validated)


def _fixed_point_reference(report, action, tol):
    """The restriction of pi1 to the fixed-point algebra decomposed by the
    intertwiner solve, as sorted (dim, multiplicity) pairs; also checks by
    solves that every corner-eigenspace block is irreducible and that the
    blocks are pairwise inequivalent."""
    basis, _ = fixed_point_algebra(action, tol)
    pi1 = report.base.base_irrep
    images = {f"fix{i}": evaluate(pi1, action.algebra, b) for i, b in enumerate(basis)}
    dec = decompose(Rep(pi1.dim, images), seed=0, tol=tol)
    blocks = report.alpha_diag
    assert all(is_irreducible(b, tol) for b in blocks)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            assert not are_equivalent(blocks[i], blocks[j], tol).equivalent
    return sorted((r.dim, m) for r, m in dec.components)


def _rotation_regular():
    act = rotation_action(3)
    return act, regular_representation(rep_from_images(act.algebra, lambda e: e.blocks[0]), act)


def _inner_degenerate_corner():
    # Ad diag(1, 1, i) on M_3: the corner has a two-dimensional eigenspace,
    # so one fixed-point piece is two-dimensional and listed after the other
    A = MatAlg([3])
    powers = [np.linalg.matrix_power(np.diag([1, 1, 1j]), g) for g in range(4)]
    act = GroupAction(make_cyclic_group(4), A, [StarAut(A, (0,), [D]) for D in powers])
    return act, CovariantRep(defining_rep(A), act, powers)


def _crossed(n, blocks, seed, block, index):
    """The ``index``-th crossed irreducible that lives on ``block``."""
    act = random_cyclic_action(n, blocks, np.random.default_rng(seed))
    return act, [c for c in crossed_irreps(act, seed=0) if _on_block(c, block)][index]


FIXED_POINT_CASES = {
    "cute": cute_example,
    "inner_z8": inner_z8_minimal,
    "inner Z4 on M3": _inner_degenerate_corner,
    "rotation(3) regular": _rotation_regular,
    # Z6: stabilizers of order 3 (blocks 0, 1) and 6 (block 2); Z4: block 2, order 4
    **{
        f"Z6[1,1,2]#{i}": (lambda i=i: _crossed(6, [1, 1, 2], 41, 2 * (i % 2), i // 2))
        for i in range(4)
    },
    **{f"Z4[2,2,1]#{i}": (lambda i=i: _crossed(4, [2, 2, 1], 0, 2, i)) for i in range(3)},
}


@pytest.mark.parametrize("name", sorted(FIXED_POINT_CASES))
def test_fixed_point_pieces_match_decompose_reference(name, tol):
    act, cov = FIXED_POINT_CASES[name]()
    report = cyclic_analyze(cov, seed=5, tol=tol)
    got = [(r.dim, m) for r, m in report.fixed_pt_irreps]
    assert got == sorted(got)
    assert got == _fixed_point_reference(report, act, tol)
    assert len(got) == report.eta


@pytest.mark.parametrize(
    "fixed, message",
    [
        (lambda alg: alg.basis_elements(), "does not commute with the corner"),
        (lambda alg: [alg.unit()], "the corner's commutant"),
    ],
    ids=["whole algebra", "unit only"],
)
def test_fixed_point_checks_reject_a_wrong_algebra(fixed, message, monkeypatch, tol):
    _, cov = cute_example()

    def wrong(action, tol=crossrep.linalg.DEFAULT_TOL):
        return fixed(action.algebra), None

    monkeypatch.setattr(crossrep.analyzer, "fixed_point_algebra", wrong)
    with pytest.raises(CanonicalFormViolation, match=message):
        cyclic_analyze(cov, seed=11, tol=tol)


def _assert_permutes_and_twists(act):
    nb = act.algebra.n_blocks
    assert any(a.perm != tuple(range(nb)) for a in act.auts)
    assert any(
        not np.allclose(u, np.eye(len(u))) for a in act.auts for u in a.unitaries
    )


@pytest.mark.parametrize(
    "make_action",
    [
        lambda: random_cyclic_action(4, [2, 2, 1], np.random.default_rng(0)),
        lambda: random_s3_action(np.random.default_rng(0), "conjugated"),
    ],
    ids=["Z4[2,2,1] twisted", "S3 conjugated"],
)
def test_rep_compose_matches_evaluate_reference(make_action):
    act = make_action()
    _assert_permutes_and_twists(act)
    alg = act.algebra
    labels, units = alg.basis_labels(), alg.basis_elements()
    rng = np.random.default_rng(1)
    d = 5
    # a generic linear map on the matrix units, so every coefficient counts
    rep = Rep(
        d, {l: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for l in labels}
    )
    for g in range(act.group.order):
        aut = act.aut(g)
        got = rep_compose(rep, act, g)
        assert list(got.gens) == labels
        for l, e in zip(labels, units):
            want = evaluate(rep, alg, aut.apply(e))
            assert np.linalg.norm(got.gens[l] - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def _property_pool():
    """Irreducibles over cyclic, S3 and the free S3 orbit, covering stabilizer
    orders 1, 2, 3, 4 and 6, multiplicity one and two, m = 1, 2 and 4 and all
    four S3 shapes."""
    rng = np.random.default_rng(41)
    actions = {
        "Z4[2,2,1]": random_cyclic_action(4, [2, 2, 1], np.random.default_rng(0)),
        "Z4[1,1,1,1]": random_cyclic_action(4, [1, 1, 1, 1], np.random.default_rng(4)),
        "Z6[1,1,2]": random_cyclic_action(6, [1, 1, 2], rng),
        "S3-perm": random_s3_action(np.random.default_rng(0), "permutation"),
        "S3-inner": random_s3_action(np.random.default_rng(2), "inner"),
        "S3-torus": torus_orbit_action(),
    }
    return {
        f"{name}#{i}": cov
        for name, act in actions.items()
        for i, cov in enumerate(crossed_irreps(act, seed=0))
    }


POOL = _property_pool()


def _verdicts(cov, seed, tol):
    report = analyze(cov, seed, tol)
    # the subgroup itself, not only its order: H is fixed by the first block
    # the algebra restriction does not annihilate, whatever the gauge
    out = {"stabilizer": report.subgroup.members, "multiplicity": report.multiplicity}
    G = cov.group
    if G.order == 6 and G.labels == make_symmetric_group_3().labels:
        verdict = classify_s3(cov, seed, tol)
        out.update(case=verdict.case, s3_multiplicity=verdict.multiplicity)
    else:
        cyc = cyclic_analyze(cov, seed, tol)
        # the corner's eigenvalues are k-th roots of unity, e^{2 pi i j / k} as j
        roots = [round(np.angle(v) * cyc.k / (2 * np.pi)) % cyc.k for v, _ in cyc.spectrum_of_V]
        out.update(
            m=cyc.m,
            k=cyc.k,
            corner_spectrum=roots,
            alpha_diag_dims=[rep.dim for rep in cyc.alpha_diag],
        )
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(POOL)),
    w_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 10_000),
)
def test_verdicts_invariant_under_conjugation_and_seed(name, w_seed, seed):
    tol = crossrep.linalg.DEFAULT_TOL
    cov = POOL[name]
    W = random_unitary(cov.dim, np.random.default_rng(w_seed))
    assert _verdicts(cov.conjugate(W), seed, tol) == _verdicts(cov, 0, tol)


# Pi = Ind_H^G(Lambda (x) V) with Lambda an r-dimensional irreducible
# projective representation of H; S3 has trivial Schur multiplier, so
# (|H|, r) fixes the S3 shape
S3_SHAPES = {
    (6, 1): ("Minimal", 1),
    (3, 1): ("TauPair", 1),
    (6, 2): ("TauPair", 2),
    (2, 1): ("EtaTriple", 1),
    (1, 1): ("Regular6", 1),
}


def test_property_pool_covers_every_verdict(tol):
    seen = [_verdicts(cov, 0, tol) for cov in POOL.values()]
    s3 = [v for v in seen if "case" in v]
    shapes = {(len(v["stabilizer"]), v["multiplicity"]) for v in s3}
    assert shapes == set(S3_SHAPES)
    for v in s3:
        shape = (len(v["stabilizer"]), v["multiplicity"])
        assert (v["case"], v["s3_multiplicity"]) == S3_SHAPES[shape]
    assert {len(v["stabilizer"]) for v in seen} == {1, 2, 3, 4, 6}
    assert {v["multiplicity"] for v in seen} == {1, 2}
    assert {v["m"] for v in seen if "m" in v} == {1, 2, 4}
