"""Crossed-product irreducibles from Mackey's construction.

``crossed_irreps`` induces each irreducible from the stabilizer H of one
block k: Ind_H^G psi with psi_h = Lambda_h (x) V_h, for the components
Lambda of the |H|-dimensional twisted regular representation of H.  The
reference is the host-size route, the decomposition of the defining
representation of the crossed-product matrix model, kept only here.
"""

import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossrep.crossed
import crossrep.reps
import crossrep.sampling
from crossrep.algebra import GroupAction, MatAlg, StarAut, restrict_action
from crossrep.analyzer import analyze, classify_s3, cyclic_analyze, factor_tensor, homogeneous_irreducibility
from crossrep.crossed import build_crossed_model
from crossrep.errors import InvariantViolation
from crossrep.examples import product_cyclic_group, weyl_pair_homogeneous
from crossrep.groups import (
    FiniteGroup,
    Subgroup,
    character_table,
    coset_action,
    is_standard_cyclic,
    make_cyclic_group,
    make_symmetric_group_3,
    right_coset_reps,
)
from crossrep.linalg import DEFAULT_TOL, Tolerance, block_diag, random_unitary
from crossrep.reps import (
    CovariantRep,
    ProjectiveRep,
    Rep,
    _block_stabilizer,
    _classes,
    _cocycle,
    _hom,
    _orbit_blocks,
    _projective_irreps,
    _tensor_stack,
    decompose,
    direct_sum_reps,
    hom_dim,
    induce,
    is_irreducible,
)
from crossrep.sampling import crossed_irreps, random_cyclic_action, random_s3_action
from crossrep.serialize import (
    covariant_from_json,
    covariant_to_json,
    cyclic_report_to_json,
    s3_class_to_json,
    structure_report_to_json,
)


def _rephased(act, rng):
    """The same action with each block unitary times a random phase per
    group element: the automorphisms stay, the cocycle moves by a coboundary."""
    phases = np.exp(2j * np.pi * rng.random(act.group.order))
    auts = [StarAut(act.algebra, a.perm, [z * U for U in a.unitaries]) for z, a in zip(phases, act.auts)]
    return GroupAction(act.group, act.algebra, auts)


def _d4_action():
    """The dihedral group of order 8 (r^k s^e at index 4e + k) permuting four
    1x1 blocks along the right cosets of the reflection subgroup {e, s},
    and acting on a fifth, 2x2 block by conjugation with its two-dimensional
    irreducible: a non-abelian stabilizer that is not S3."""
    e, k = np.divmod(np.arange(8), 4)
    G = FiniteGroup((e[:, None] + e) % 2 * 4 + (k[:, None] + np.where(e[:, None] == 0, k, -k)) % 4, identity=0)
    H = Subgroup(G, [0, 4])
    table = coset_action(H, right_coset_reps(H))
    A = MatAlg([1, 1, 1, 1, 2])
    R, S = np.array([[0, -1], [1, 0]], dtype=complex), np.diag([1, -1]).astype(complex)
    auts = []
    for g in range(8):
        perm = [None] * 4 + [4]
        # alpha_g(f)(Hx) = f(Hxg), so source block j lands on H c_j g^{-1}
        for j, target, _ in table[G.inv(g)]:
            perm[j] = target
        rho = np.linalg.matrix_power(R, int(k[g])) @ np.linalg.matrix_power(S, int(e[g]))
        auts.append(StarAut(A, perm, [np.eye(1, dtype=complex)] * 4 + [rho]))
    return GroupAction(G, A, auts)


ACTIONS = {
    "Z2[1,1]": lambda: random_cyclic_action(2, [1, 1], np.random.default_rng(1)),
    "Z3[3,1]": lambda: random_cyclic_action(3, [3, 1], np.random.default_rng(7)),
    "Z4[2,2,1]": lambda: random_cyclic_action(4, [2, 2, 1], np.random.default_rng(0)),
    "Z4[1,1,1,1] untwisted": lambda: random_cyclic_action(
        4, [1, 1, 1, 1], np.random.default_rng(4), twist=False
    ),
    "Z6[1,1,2]": lambda: random_cyclic_action(6, [1, 1, 2], np.random.default_rng(41)),
    "Z6[2,2] untwisted": lambda: random_cyclic_action(
        6, [2, 2], np.random.default_rng(9), twist=False
    ),
    "S3 permutation": lambda: random_s3_action(np.random.default_rng(0), "permutation"),
    "S3 inner": lambda: random_s3_action(np.random.default_rng(2), "inner"),
    "S3 conjugated": lambda: random_s3_action(np.random.default_rng(5), "conjugated"),
    "Weyl q=2": lambda: weyl_pair_homogeneous(2).action,
    "Weyl q=3": lambda: weyl_pair_homogeneous(3).action,
    "Weyl q=3 rephased": lambda: _rephased(weyl_pair_homogeneous(3).action, np.random.default_rng(3)),
    "D4 reflection cosets": _d4_action,
}
WEYL = [name for name in ACTIONS if name.startswith("Weyl")]
# ACTIONS and a random cyclic and S3 set, for the order of the irreducibles
ORDER = {
    **ACTIONS,
    **{
        f"Z{n}{blocks} seed {s}": lambda n=n, blocks=blocks, s=s: random_cyclic_action(
            n, blocks, np.random.default_rng(s)
        )
        for n, blocks, s in [(8, [3], 0), (6, [1, 1, 2], 1), (5, [2, 2], 0), (7, [1, 1], 1), (8, [2, 1, 1], 2)]
    },
    **{
        f"S3 {kind} seed {s}": lambda kind=kind, s=s: random_s3_action(np.random.default_rng(s), kind)
        for kind in ("permutation", "inner", "conjugated")
        for s in (1, 3)
    },
}


def _host_model_irreps(act):
    # the commutant split at host size, not decompose's frame route, which
    # shares its Mackey read-off with crossed_irreps
    model = build_crossed_model(act).defining_covariant_rep()
    return [rep for rep, _ in crossrep.reps._decompose(model, DEFAULT_TOL).components]


def _assert_one_to_one(got, want, tol):
    counts = np.array(
        [[hom_dim(a, b, tol) if a.dim == b.dim else 0 for b in want] for a in got]
    )
    # a permutation matrix: every result matches exactly one reference irreducible
    assert counts.shape == (len(want), len(want))
    assert (counts.sum(axis=0) == 1).all() and (counts.sum(axis=1) == 1).all()


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_crossed_irreps_match_host_model_reference(name, tol):
    act = ACTIONS[name]()
    got = crossed_irreps(act, seed=0, tol=tol)
    _assert_one_to_one(got, _host_model_irreps(act), tol)
    assert [c.dim for c in got] == sorted(c.dim for c in got)


def _assert_by_position(got, want, tol):
    assert [a.dim for a in got] == [b.dim for b in want]
    assert all(hom_dim(a, b, tol) == 1 for a, b in zip(got, want))


def _model_irreps(act, seed, tol):
    model = build_crossed_model(act, tol).defining_covariant_rep()
    return [rep for rep, _ in decompose(model, seed, tol).components]


@pytest.mark.parametrize("name", sorted(ORDER))
def test_crossed_irreps_at_two_seeds_match_one_to_one(name, tol):
    # and position by position: no seed enters the order
    act = ORDER[name]()
    _assert_by_position(crossed_irreps(act, seed=0, tol=tol), crossed_irreps(act, seed=7, tol=tol), tol)


@pytest.mark.parametrize("name", sorted(ORDER))
def test_decompose_of_the_model_at_two_seeds_agrees_by_position(name, tol):
    act = ORDER[name]()
    _assert_by_position(_model_irreps(act, 0, tol), _model_irreps(act, 7, tol), tol)


@pytest.mark.parametrize("name", sorted(ORDER))
def test_crossed_irreps_agree_by_position_with_decompose_of_the_model(name, tol):
    # both order by (dimension, orbit, character of lambda)
    act = ORDER[name]()
    _assert_by_position(crossed_irreps(act, seed=0, tol=tol), _model_irreps(act, 0, tol), tol)


def _one_at_a_time(act, tol):
    """The irreducibles built one class at a time: one psi and one induce each."""
    irreps = []
    for k in _orbit_blocks(act):
        pi_k, stab = _block_stabilizer(act, k, tol)
        H, sub_action, _, coset_reps, _ = act.restriction(stab.members)
        for lam in _classes(sub_action.group, stab.cocycle, tol):
            base, unitaries = _tensor_stack(lam.mats[None], stab.V, pi_k)
            irreps.append(induce(CovariantRep(base, sub_action, unitaries[0]), act, H, coset_reps))
    return sorted(irreps, key=lambda cov: cov.dim)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(ORDER))
def test_stacked_build_matches_one_induction_per_class_array_for_array(name, seed, tol):
    act = ORDER[name]()
    got, want = crossed_irreps(act, seed=seed, tol=tol), _one_at_a_time(act, tol)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.base.labels == b.base.labels
        assert np.array_equal(a.base.stack, b.base.stack)
        assert np.array_equal(a.unitaries, b.unitaries)


@pytest.mark.parametrize("make", [
    lambda: random_cyclic_action(8, [2, 1, 1], np.random.default_rng(0)),
    lambda: random_s3_action(np.random.default_rng(0), "conjugated"),
], ids=["Z8[2,1,1] seed 0", "S3 conjugated seed 0"])
def test_every_irreducible_of_a_stacked_build_passes_the_per_irreducible_checks(make):
    # the irreducibles of one (orbit, dimension) are built and certified in
    # one stacked pass: recheck each through the public end_dim and the Wedderburn count
    act = make()
    irreps = crossed_irreps(act)
    assert all(cov.end_dim() == 1 for cov in irreps)
    assert sum(cov.dim**2 for cov in irreps) == act.group.order * act.algebra.linear_dim


def test_the_split_of_an_order_64_group_takes_several_blocks():
    # 4 rows and 4 leaves a block at |K| = 64: the multi-block path
    assert len(crossed_irreps(random_cyclic_action(64, [1], np.random.default_rng(0)))) == 64
    assert len(character_table(make_cyclic_group(64)).dims) == 64


def test_crossed_irreps_of_z128_stay_small_in_memory(tol):
    # the stabilizer is all of Z128: its dense twisted regular representation
    # alone would hold 128^3 complex entries, 32 MB
    act = random_cyclic_action(128, [2], np.random.default_rng(0))
    tracemalloc.start()
    try:
        irreps = crossed_irreps(act, tol=tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(cov.dim**2 for cov in irreps) == 128 * 4
    assert peak < 64 * 2**20


def _assert_same_classes(split, closed):
    """The closed form gives the split's classes, in its order, within 1e-12."""
    assert [lam.dim for lam in closed] == [lam.dim for lam in split]
    for a, b in zip(split, closed):
        assert np.max(np.abs(a.mats - b.mats), initial=0.0) < 1e-12
        assert np.array_equal(a.cocycle, b.cocycle)


COARSE = {
    "Z32[1] eig_sep 0.1": (32, [1], 0.1),
    "Z32[1] eig_sep 0.5": (32, [1], 0.5),
    "Z16[2] eig_sep 0.5": (16, [2], 0.5),
}


@pytest.mark.parametrize("name", sorted(COARSE))
def test_crossed_irreps_refine_a_reducible_leaf_at_a_coarse_eig_sep(name, monkeypatch):
    # at this gap, inequivalent leaves of the split share a cluster: a
    # gathered leaf (width w with w^2 <= |K|) of dim End > 1 is split again
    # along the next right translations.  The stabilizers are cyclic, so
    # crossed_irreps writes their classes down; the split is run on the
    # same (K, c) and must agree with them
    n, blocks, eig_sep = COARSE[name]
    tol = Tolerance(eig_sep=eig_sep)
    act = random_cyclic_action(n, blocks, np.random.default_rng(0))
    refined, split_leaf = [], crossrep.reps._split_leaf

    def counted(Q, *args):
        if Q.shape[1] ** 2 <= Q.shape[0]:
            refined.append(Q.shape[1])
        return split_leaf(Q, *args)

    monkeypatch.setattr(crossrep.reps, "_split_leaf", counted)
    for k in _orbit_blocks(act):
        _, stab = _block_stabilizer(act, k, tol)
        K = act.restriction(stab.members).action.group
        _assert_same_classes(_projective_irreps(K, stab.cocycle, tol), _classes(K, stab.cocycle, tol))
    monkeypatch.undo()
    assert refined
    got = crossed_irreps(act, seed=0, tol=tol)
    model = build_crossed_model(act, tol).defining_covariant_rep()
    _assert_one_to_one(got, [rep for rep, _ in decompose(model, 0, tol).components], tol)


def test_character_table_refines_a_reducible_leaf_at_a_coarse_eig_sep():
    G = make_cyclic_group(12)
    coarse, exact = character_table(G, tol=Tolerance(eig_sep=0.5)), character_table(G)
    assert coarse.dims == exact.dims == [1] * 12
    # |<chi, chi'>| is a permutation matrix: every row of one table is one row of the other
    overlap = np.abs(coarse.chars @ exact.chars.conj().T) / G.order
    assert np.allclose(overlap @ overlap.T, np.eye(12)) and np.allclose(overlap.sum(axis=0), 1)


def _weyl_cocycle(q):
    # c(x, y) = w^(b_x a_y) at x = (a_x, b_x): a bilinear 2-cocycle of
    # Z_q x Z_q, not symmetric, whose projective irreducibles form one class
    a, b = np.divmod(np.arange(q * q), q)
    return np.exp(2j * np.pi / q) ** np.outer(b, a)


SPLITS = {
    "Z8": (lambda: make_cyclic_group(8), None, [1] * 8),
    "Z3xZ3": (lambda: product_cyclic_group(3), None, [1] * 9),
    "S3": (make_symmetric_group_3, None, [1, 1, 2]),
    "Z2xZ2 Weyl": (lambda: product_cyclic_group(2), _weyl_cocycle(2), [2]),
    "Z3xZ3 Weyl": (lambda: product_cyclic_group(3), _weyl_cocycle(3), [3]),
}


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_projective_irreps_keep_inequivalent_leaves_of_equal_dimension_apart(name, tol):
    make, c, dims = SPLITS[name]
    K = make()
    irreps = _projective_irreps(K, np.ones((K.order, K.order)) if c is None else c, tol)
    assert sorted(r.dim for r in irreps) == dims
    # one irreducible per class: dim Hom is 1 on the diagonal and 0 off it
    counts = [[_hom(a, b, tol)[0] for b in irreps] for a in irreps]
    assert counts == np.eye(len(irreps), dtype=int).tolist()


def test_projective_irreps_refuse_a_leaf_whose_range_is_not_invariant(monkeypatch, tol):
    eigen_clusters = crossrep.reps._eigen_clusters
    rotated = []

    def rotate_first(H, tol):
        # mix a column of the second cluster into the first, at the first
        # split (of the whole space): an orthonormal frame whose range is no
        # longer invariant under L
        clusters = eigen_clusters(H, tol)
        if clusters is None or rotated:
            return clusters
        first = clusters[0].copy()
        first[:, 0] = (first[:, 0] + clusters[1][:, 0]) / np.sqrt(2)
        rotated.append(first)
        return [first, *clusters[1:]]

    monkeypatch.setattr(crossrep.reps, "_eigen_clusters", rotate_first)
    K = make_cyclic_group(5)
    with pytest.raises(InvariantViolation, match="not invariant under L at element") as err:
        _projective_irreps(K, np.ones((5, 5)), tol)
    # the dense reference L_a delta_x = delta_{ax} names the same element
    [Q] = rotated
    L = (K.table[:, None, :] == np.arange(5)[:, None]).astype(complex)
    residuals = np.linalg.norm(L @ Q - Q @ (Q.conj().T @ L @ Q), axis=(1, 2))
    a = int(np.argmax(residuals > tol.identity_bound(np.sqrt(Q.shape[1]))))
    assert f"at element {a}: residual {residuals[a]:.3e}" in str(err.value)


def _ladder_actions():
    """The benchmark's enumerate ladder at seeds 0, 7 and 41 with its extra
    actions, built by its numpy-only input module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_ladder_inputs", path)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return {
        f"ladder {seed} {a.name}": lambda a=a: inputs.to_action(a)
        for seed in (0, 7, 41)
        for a in inputs.enumerate_actions(seed, extra=True)
    }


def _cyclic_stabilizers(act, tol):
    """(K, c_V) of every orbit of ``act`` whose stabilizer is cyclic."""
    out = []
    for k in _orbit_blocks(act):
        _, stab = _block_stabilizer(act, k, tol)
        K = act.restriction(stab.members).action.group
        if K.cyclic_generator() is not None:
            out.append((K, stab.cocycle))
    return out


# Z1-Z16 and a ladder to 512 on a 2x2 block, whose phase-normalized V_h
# carry a non-trivial coboundary (on a 1x1 block c_V = 1)
CYCLIC_SIZES = [*range(1, 17), 30, 64, 128, 256, 512]


@pytest.mark.parametrize("n", CYCLIC_SIZES)
def test_cyclic_classes_are_the_split_classes_in_its_order(n, tol):
    [(K, c)] = _cyclic_stabilizers(random_cyclic_action(n, [2], np.random.default_rng(0)), tol)
    assert K.order == n
    _assert_same_classes(_projective_irreps(K, c, tol), _classes(K, c, tol))


@pytest.mark.parametrize("n", [2, 5, 12, 64])
def test_cyclic_classes_of_a_random_coboundary_are_the_split_classes(n, tol):
    # c(a, b) = mu_a mu_b / mu_ab with random phases mu, on a standard Z_n
    # and on Z_n with its elements listed in a shuffled order
    rng = np.random.default_rng(n)
    mu = np.exp(2j * np.pi * rng.random(n))
    for K in (make_cyclic_group(n), _shuffled_cyclic(n, rng)):
        c = np.outer(mu, mu) / mu[K.table]
        _assert_same_classes(_projective_irreps(K, c, tol), _classes(K, c, tol))


def _shuffled_cyclic(n, rng):
    """Z_n with its elements renumbered by a random permutation."""
    p = rng.permutation(n)
    table = np.empty((n, n), dtype=int)
    table[np.ix_(p, p)] = p[(np.arange(n)[:, None] + np.arange(n)) % n]
    return FiniteGroup(table)


CLASS_SOURCES = {**ORDER, **_ladder_actions()}


@pytest.mark.parametrize("name", sorted(CLASS_SOURCES))
def test_every_cyclic_stabilizer_gets_the_split_classes(name, tol):
    for K, c in _cyclic_stabilizers(CLASS_SOURCES[name](), tol):
        _assert_same_classes(_projective_irreps(K, c, tol), _classes(K, c, tol))


def test_cyclic_classes_are_refused_at_a_broken_cocycle_as_the_split_refuses(tol):
    # one entry off by a phase: the identity check both class sources share
    # refuses it first, with one message
    [(K, c)] = _cyclic_stabilizers(random_cyclic_action(8, [2], np.random.default_rng(0)), tol)
    c = c.copy()
    c[1, 1] *= 1j
    with pytest.raises(InvariantViolation, match="not scalar multiples of each other at pair") as split:
        _projective_irreps(K, c, tol)
    with pytest.raises(InvariantViolation) as closed:
        _classes(K, c, tol)
    assert str(closed.value) == str(split.value)


def test_cyclic_classes_are_orthonormal_characters_of_the_cocycle(tol):
    # |K| one-dimensional classes whose characters are orthonormal, each
    # satisfying lambda(ab) = conj(c(a, b)) lambda(a) lambda(b)
    [(K, c)] = _cyclic_stabilizers(random_cyclic_action(12, [3], np.random.default_rng(2)), tol)
    classes = _classes(K, c, tol)
    chi = np.array([lam.mats[:, 0, 0] for lam in classes])
    assert np.allclose(chi.conj() @ chi.T / K.order, np.eye(K.order), atol=1e-12)
    for lam in chi:
        assert np.max(np.abs(lam[K.table] - c.conj() * np.outer(lam, lam))) < 1e-12


def test_crossed_irreps_rejects_a_missing_cyclic_class(monkeypatch, tol):
    cyclic_classes = crossrep.reps._cyclic_classes

    def drop_last(*args, **kwargs):
        return cyclic_classes(*args, **kwargs)[:-1]

    monkeypatch.setattr(crossrep.reps, "_cyclic_classes", drop_last)
    with pytest.raises(InvariantViolation, match="dim A"):
        crossed_irreps(ACTIONS["Z4[2,2,1]"](), seed=0, tol=tol)


def test_crossed_irreps_and_character_table_draw_nothing_over_a_cyclic_group(monkeypatch, tol):
    acts = [ACTIONS[name]() for name in ("Z4[2,2,1]", "Z6[1,1,2]", "Z6[2,2] untwisted")]
    acts.append(random_cyclic_action(64, [2], np.random.default_rng(0)))

    def refuse(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for act in acts:
        assert sum(cov.dim**2 for cov in crossed_irreps(act, seed=0, tol=tol)) == (
            act.group.order * act.algebra.linear_dim
        )
    for n in (1, 8, 12):
        assert character_table(make_cyclic_group(n), tol=tol).dims == [1] * n


def _stabilizer_block(cov, tol):
    """The smallest block the algebra part does not annihilate, its
    stabilizer H, and psi read off the first of the [G:H] diagonal blocks."""
    act, G = cov.action, cov.group
    k = next(
        b
        for b in range(act.algebra.n_blocks)
        if np.trace(cov.base.gens[f"b{b}_00"]).real > 0.5
    )
    H = Subgroup(G, tuple(g for g, aut in enumerate(act.auts) if aut.perm[k] == k))
    d = cov.dim * H.order // G.order
    sub, members = restrict_action(act, H)
    base = Rep(d, {l: M[:d, :d] for l, M in cov.base.gens.items()})
    psi = CovariantRep(base, sub, [cov.unitaries[h][:d, :d] for h in members])
    psi.validate(tol)
    return k, H, psi


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_analyze_recovers_the_inducing_data(name, tol):
    act = ACTIONS[name]()
    for cov in crossed_irreps(act, seed=0, tol=tol):
        k, H, psi = _stabilizer_block(cov, tol)
        assert psi.end_dim(tol) == 1
        report = analyze(cov, seed=0, tol=tol)
        assert report.subgroup.order == H.order
        assert report.subgroup.members == H.members
        assert report.multiplicity == psi.dim // act.algebra.block_dims[k]
        assert hom_dim(report.psi, psi, tol) == 1


def test_blocks_of_dimension_12_have_distinct_unit_labels(tol):
    # b{k}_{i}{j} read e_{1,11} and e_{11,1} both as b0_111
    act = random_cyclic_action(2, [12], np.random.default_rng(0))
    assert build_crossed_model(act, tol).span_dim == 288
    assert [cov.dim for cov in crossed_irreps(act, tol=tol)] == [12, 12]


def test_crossed_irreps_never_builds_the_host_model(monkeypatch, tol):
    def refuse(*args, **kwargs):
        raise AssertionError("crossed_irreps built the host-size model")

    monkeypatch.setattr(crossrep.crossed, "build_crossed_model", refuse)
    monkeypatch.setattr(crossrep.sampling, "build_crossed_model", refuse, raising=False)
    for make in ACTIONS.values():
        act = make()
        irreps = crossed_irreps(act, seed=0, tol=tol)
        assert sum(c.dim**2 for c in irreps) == act.group.order * act.algebra.linear_dim


def test_crossed_irreps_rejects_a_reducible_induction(monkeypatch, tol):
    # only the last member of a stack of two or more is doubled, so a
    # certificate that reads stack[0] alone lets it through; Z4[2,2,1]
    # builds a stack of two irreducibles of dim 4 and one of four of dim 1
    induce_stack = crossrep.reps._induce_stack

    def doubled_last(*args, **kwargs):
        stack = induce_stack(*args, **kwargs)
        if len(stack) > 1:
            cov = stack[-1]
            base = direct_sum_reps([cov.base, cov.base])
            stack[-1] = CovariantRep(base, cov.action, [block_diag(U, U) for U in cov.unitaries])
        return stack

    monkeypatch.setattr(crossrep.reps, "_induce_stack", doubled_last)
    with pytest.raises(InvariantViolation, match="is reducible"):
        crossed_irreps(ACTIONS["Z4[2,2,1]"](), seed=0, tol=tol)


def test_crossed_irreps_rejects_a_missing_component(monkeypatch, tol):
    projective_irreps = crossrep.reps._projective_irreps

    def drop_last(*args, **kwargs):
        return projective_irreps(*args, **kwargs)[:-1]

    monkeypatch.setattr(crossrep.reps, "_projective_irreps", drop_last)
    with pytest.raises(InvariantViolation, match="dim A"):
        crossed_irreps(ACTIONS["S3 inner"](), seed=0, tol=tol)


def test_crossed_irreps_checks_the_twisted_regular_relation(monkeypatch, tol):
    block_stabilizer = crossrep.reps._block_stabilizer

    def wrong_cocycle(action, k, tol):
        # c_V with one entry off by a phase is no 2-cocycle, so the twisted
        # regular L of c_V fails its relation
        pi_k, stab = block_stabilizer(action, k, tol)
        c = stab.cocycle.copy()
        c[1, 1] *= 1j
        return pi_k, stab._replace(cocycle=c)

    monkeypatch.setattr(crossrep.reps, "_block_stabilizer", wrong_cocycle)
    with pytest.raises(InvariantViolation, match=r"not scalar multiples of each other at pair \(\d+,\d+\): residual"):
        crossed_irreps(ACTIONS["Weyl q=3"](), seed=0, tol=tol)


def test_crossed_irreps_splits_only_twisted_regular_representations(monkeypatch, tol):
    classes = crossrep.reps._classes
    seen = []

    def record(K, c, *args, **kwargs):
        seen.append((K, c))
        return classes(K, c, *args, **kwargs)

    monkeypatch.setattr(crossrep.reps, "_classes", record)
    for make in ACTIONS.values():
        act = make()
        # one class source per orbit, the classes of the twisted regular
        # representation of order |H| for its smallest block k
        orders, covered = [], set()
        for k in range(act.algebra.n_blocks):
            if k not in covered:
                covered.update(aut.perm[k] for aut in act.auts)
                orders.append(sum(aut.perm[k] == k for aut in act.auts))
        seen.clear()
        crossed_irreps(act, seed=0, tol=tol)
        assert [K.order for K, _ in seen] == orders
        assert all(np.shape(c) == (K.order, K.order) for K, c in seen)


@pytest.mark.parametrize("name", WEYL)
def test_weyl_irreducibles_carry_an_irreducible_lambda_of_inverse_cocycle(name, tol):
    act = ACTIONS[name]()
    irreps = crossed_irreps(act, seed=0, tol=tol)
    # Z_q x Z_q with the Weyl cocycle has one irreducible projective class
    assert len(irreps) == 1
    for cov in irreps:
        report = analyze(cov, seed=0, tol=tol)
        assert is_irreducible(report.lambda_rep, tol)
        assert np.max(np.abs(report.lambda_rep.cocycle - report.v_rep.cocycle.conj())) < 1e-12
        assert np.max(np.abs(report.v_rep.cocycle - 1)) > 0.5


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
def test_each_result_is_labelled_by_its_lambda_class(q, seed):
    # a Weyl-pair action in a random gauge with random phases: omega is
    # nontrivial and moved by a coboundary
    rng = np.random.default_rng(seed)
    weyl = weyl_pair_homogeneous(q).action
    W = random_unitary(q, rng)
    auts = [StarAut(weyl.algebra, a.perm, [W @ U @ W.conj().T for U in a.unitaries]) for a in weyl.auts]
    act = _rephased(GroupAction(weyl.group, weyl.algebra, auts), rng)
    tol = DEFAULT_TOL
    for cov in crossed_irreps(act, seed=0, tol=tol):
        k, H, psi = _stabilizer_block(cov, tol)
        K = psi.group
        # psi_h = Lambda_h (x) V_h with the action's own V_h
        V = [act.auts[h].unitaries[k] for h in H.members]
        r = psi.dim // act.algebra.block_dims[k]
        lam_mats = [factor_tensor(U, Vh, r, tol) for U, Vh in zip(psi.unitaries, V)]
        lam = ProjectiveRep(K, lam_mats, _cocycle(K, V, tol).conj())
        report = analyze(cov, seed=0, tol=tol)
        # the analyzer's witnesses are mu_h V_h, so mu_h times its Lambda_h pairs with V_h
        mu = [np.trace(Vh.conj().T @ Wh) / len(Vh) for Vh, Wh in zip(V, report.v_rep.mats)]
        theirs = ProjectiveRep(K, [m * L for m, L in zip(mu, report.lambda_rep.mats)], lam.cocycle)
        assert _hom(lam, theirs, tol)[0] == 1
        assert _hom(lam, lam, tol)[0] == 1


_small_actions = st.one_of(
    st.builds(
        lambda n, dims, twist, seed: random_cyclic_action(
            n, dims, np.random.default_rng(seed), twist=twist
        ),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([[1], [2], [1, 1], [1, 2], [2, 2], [1, 1, 1]]),
        st.booleans(),
        st.integers(0, 2**16),
    ),
    st.builds(
        lambda kind, seed: random_s3_action(np.random.default_rng(seed), kind),
        st.sampled_from(["permutation", "inner", "conjugated"]),
        st.integers(0, 2**16),
    ),
)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(act=_small_actions)
def test_crossed_irreps_survive_a_json_round_trip(act):
    for cov in crossed_irreps(act, seed=0):
        loaded = covariant_from_json(json.loads(json.dumps(covariant_to_json(cov))))
        assert loaded.dim == cov.dim
        assert hom_dim(cov, loaded) == 1


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(act=_small_actions)
def test_reports_of_crossed_irreps_dump_as_finite_json(act):
    for cov in crossed_irreps(act, seed=0):
        report = analyze(cov, seed=0)
        # psi is built as Lambda (x) V from the factors of the compressed stabilizer block
        C0 = report.conjugator[:, : report.multiplicity * report.base_irrep.dim]
        compressed = [C0.conj().T @ cov.unitaries[h] @ C0 for h in report.subgroup_members]
        assert np.max(np.abs(np.array(report.psi.unitaries) - compressed)) < 1e-12
        docs = [structure_report_to_json(report)]
        if is_standard_cyclic(act.group):
            docs.append(cyclic_report_to_json(cyclic_analyze(cov, seed=0)))
        else:
            docs.append(s3_class_to_json(classify_s3(cov, seed=0)))
        for doc in docs:
            json.dumps(doc, allow_nan=False)


# ---------------------------------------------------------------------------
# one class source: crossed_irreps, decompose and the analyzers read the
# classes the action keeps per orbit, and no GroupAction path draws


NO_DRAW = ["S3 permutation", "S3 inner", "S3 conjugated", "Weyl q=2", "Weyl q=3", "D4 reflection cosets"]


def _analyzed(cov, seed):
    """analyze and the CLI's analyzer dispatch on ``cov``, as JSON documents."""
    docs = [structure_report_to_json(analyze(cov, seed=seed))]
    if cov.group == make_symmetric_group_3():
        docs.append(s3_class_to_json(classify_s3(cov, seed=seed)))
    elif is_standard_cyclic(cov.group):
        docs.append(cyclic_report_to_json(cyclic_analyze(cov, seed=seed)))
    return docs


def _outputs(act, extra, seed):
    """Every GroupAction entry point on ``act``, and analyze on ``extra``."""
    irreps = crossed_irreps(act, seed=seed)
    table = character_table(act.group, seed=seed)
    dec = decompose(build_crossed_model(act).defining_covariant_rep(), seed=seed)
    docs = [_analyzed(cov, seed) for cov in [*irreps, *extra]]
    verdicts = [homogeneous_irreducibility(cov) for cov in extra]
    return irreps, table, dec, docs, verdicts


@pytest.mark.parametrize("name", NO_DRAW)
def test_no_group_action_path_draws_and_no_seed_changes_its_output(name, monkeypatch):
    # a fresh copy of the action for each seed, so that neither run reads
    # what the other left in the action's caches
    extra = [[weyl_pair_homogeneous(int(name[-1]))] if name.startswith("Weyl") else [] for _ in range(2)]
    acts = [ACTIONS[name]() for _ in range(2)]

    def refuse(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    (irreps, table, dec, docs, verdicts), again = (_outputs(a, e, s) for a, e, s in zip(acts, extra, (0, 12345)))
    assert len(irreps) == len(again[0]) and len(dec.components) == len(again[2].components)
    for a, b in zip(irreps, again[0]):
        assert np.array_equal(a.base.stack, b.base.stack) and np.array_equal(a.unitaries, b.unitaries)
    assert table.dims == again[1].dims and np.array_equal(table.chars, again[1].chars)
    for (a, m), (b, n) in zip(dec.components, again[2].components):
        assert m == n and np.array_equal(a.base.stack, b.base.stack) and np.array_equal(a.unitaries, b.unitaries)
    assert np.array_equal(dec.basis_change, again[2].basis_change)
    assert docs == again[3]
    assert verdicts == again[4] == [True] * len(extra[0])


@pytest.mark.parametrize("name", sorted(ORDER))
def test_decompose_of_the_defining_model_is_crossed_irreps_array_for_array(name, tol):
    # both build Ind_H^G(lambda (x) V) from the same class matrices lambda
    act = ORDER[name]()
    got = decompose(build_crossed_model(act, tol).defining_covariant_rep(), seed=0, tol=tol).components
    want = crossed_irreps(act, tol=tol)
    assert len(got) == len(want)
    for (a, _), b in zip(got, want):
        assert a.base.labels == b.base.labels
        assert np.array_equal(a.base.stack, b.base.stack)
        assert np.array_equal(a.unitaries, b.unitaries)


def test_analyze_psi_does_not_depend_on_the_basis_pi_is_given_in(tol):
    # psi = lambda_rep (x) v_rep from the class lambda the action keeps, so a
    # Haar-random change of basis of Pi moves only the conjugator
    Pi = weyl_pair_homogeneous(3)
    W = random_unitary(Pi.dim, np.random.default_rng(29))
    report, moved = analyze(Pi, seed=0, tol=tol), analyze(Pi.conjugate(W), seed=0, tol=tol)
    assert np.array_equal(report.psi.unitaries, moved.psi.unitaries)
    assert np.array_equal(report.psi.base.stack, moved.psi.base.stack)
    assert np.array_equal(report.lambda_rep.mats, moved.lambda_rep.mats)
    lam, V = report.lambda_rep.mats, report.v_rep.mats
    assert np.array_equal(report.psi.unitaries, np.einsum("hij,hab->hiajb", lam, V).reshape(report.psi.unitaries.shape))
    # the conjugator carrying an irreducible onto a fixed form is unique up to a phase
    C = W.conj().T @ report.conjugator
    z = np.vdot(C, moved.conjugator) / Pi.dim
    assert abs(abs(z) - 1) < 1e-9 and np.linalg.norm(moved.conjugator - z * C) < 1e-9


def test_an_induction_from_the_whole_group_reads_the_stored_images(monkeypatch, tol):
    # the one block of this conjugated S3 action is fixed by every element,
    # and its identity unitary W W* is off 1 in the last bits
    act = random_s3_action(np.random.default_rng(11), "conjugated")
    C = act.aut(act.group.identity).coefficient_matrix
    assert act.algebra.n_blocks == 1 and not np.array_equal(C, np.eye(len(C)))
    seen, composed = [], crossrep.reps._composed_images

    def record(rep, action, gs):
        images = composed(rep, action, gs)
        seen.append((tuple(gs), np.shares_memory(images, rep.stack)))
        return images

    monkeypatch.setattr(crossrep.reps, "_composed_images", record)
    crossed_irreps(act, tol=tol)
    assert seen and all(entry == ((act.group.identity,), True) for entry in seen)
