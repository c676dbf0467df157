"""Validation on a generating set.

``CovariantRep.validate``, ``GroupAction.validate`` and ``LabelAction``
check their relations only for the generators s of ``group.generators``:
U_e = 1, U_s U_h = U_sh for every h, U_s* U_s = 1 and covariance at s.
Every g is a word in the generators, so a defect at any element, generator
or not, must still be caught; and since small defects add up along a word,
the generators are held to a bound divided by the longest word, so that
every pair keeps the bound of a check over all of G x G.
"""

import math

import numpy as np
import pytest

from crossrep.algebra import GroupAction, MatAlg, StarAut
from crossrep.errors import InvariantViolation
from crossrep.examples import product_cyclic_group, s3_label_action, torus_orbit_evaluation
from crossrep.groups import (
    S3_ETA,
    S3_ETA2_TAU,
    S3_ETA_TAU,
    S3_TAU,
    FiniteGroup,
    make_cyclic_group,
    make_symmetric_group_3,
    subgroup_closure,
)
from crossrep.linalg import DEFAULT_TOL, _relation_residuals, random_unitary
from crossrep.reps import CovariantRep, Rep, defining_rep, regular_representation
from crossrep.sampling import crossed_irreps, random_cyclic_action, random_s3_action

GROUPS = {
    **{f"Z{n}": (lambda n=n: make_cyclic_group(n)) for n in range(1, 13)},
    "S3": make_symmetric_group_3,
    "Z2xZ2": lambda: product_cyclic_group(2),
    "Z3xZ3": lambda: product_cyclic_group(3),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generators_generate_the_group(name):
    G = GROUPS[name]()
    S = G.generators
    assert len(S) <= math.log2(G.order)
    assert G.identity not in S and len(set(S)) == len(S)
    if G.order > 1:
        assert subgroup_closure(G, S).members == tuple(range(G.order))
        # greedy: no generator lies in the subgroup the earlier ones generate
        for k in range(1, len(S)):
            assert S[k] not in subgroup_closure(G, S[:k]).members
    else:
        assert S == ()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_word_length_is_the_longest_shortest_word(name):
    G = GROUPS[name]()
    reached, words, length = {G.identity}, {G.identity}, 0
    while len(reached) < G.order:
        words = {int(G.table[w, s]) for w in words for s in G.generators}
        length += 1
        reached |= words
    assert G.word_length == length
    if name.startswith("Z") and "x" not in name:
        assert G.word_length == G.order - 1  # S = {1}


def test_generators_of_a_relabelled_group():
    # Z6 with the identity at index 3: the generating set avoids it
    perm = np.array([3, 0, 1, 2, 4, 5])
    table = np.empty((6, 6), dtype=int)
    for a in range(6):
        for b in range(6):
            table[perm[a], perm[b]] = perm[(a + b) % 6]
    G = FiniteGroup(table)
    assert G.identity == 3
    assert subgroup_closure(G, G.generators).order == 6 and 3 not in G.generators


def _covariant(kind):
    """A valid irreducible of dimension at least 2 over Z8 or S3."""
    if kind == "Z8":
        act = random_cyclic_action(8, [2, 2], np.random.default_rng(4))
    else:
        act = random_s3_action(np.random.default_rng(11), "inner")
    cov = max(crossed_irreps(act, seed=0), key=lambda c: c.dim)
    cov.validate(DEFAULT_TOL)
    return cov


def _non_generators(G):
    return [g for g in range(G.order) if g != G.identity and g not in G.generators]


@pytest.mark.parametrize("kind", ["Z8", "S3"])
def test_corrupted_non_generator_unitary_is_caught(kind):
    cov = _covariant(kind)
    rng = np.random.default_rng(1)
    targets = _non_generators(cov.group)
    assert targets
    for g in targets:
        U = cov.unitaries.copy()
        U[g] = U[g] @ random_unitary(cov.dim, rng)
        with pytest.raises(InvariantViolation, match="homomorphism"):
            CovariantRep(cov.base, cov.action, U).validate(DEFAULT_TOL)


@pytest.mark.parametrize("kind", ["Z8", "S3"])
def test_non_unitary_non_generator_is_caught(kind):
    cov = _covariant(kind)
    for g in _non_generators(cov.group):
        U = cov.unitaries.copy()
        U[g] = 2 * U[g]
        with pytest.raises(InvariantViolation):
            CovariantRep(cov.base, cov.action, U).validate(DEFAULT_TOL)


@pytest.mark.parametrize("kind", ["Z8", "S3"])
def test_wrong_identity_unitary_is_caught(kind):
    cov = _covariant(kind)
    e = cov.group.identity
    for wrong in (-np.eye(cov.dim), random_unitary(cov.dim, np.random.default_rng(2))):
        U = cov.unitaries.copy()
        U[e] = wrong
        with pytest.raises(InvariantViolation):
            CovariantRep(cov.base, cov.action, U).validate(DEFAULT_TOL)


def test_wrong_identity_unitary_of_the_trivial_group_is_caught():
    # no generators: only the U_e = 1 check reads anything
    act = random_cyclic_action(3, [2], np.random.default_rng(0))
    cov = crossed_irreps(act, seed=0)[0]
    bad = CovariantRep(cov.base, act.trivial_restriction, [-np.eye(cov.dim)])
    assert act.trivial_restriction.group.generators == ()
    with pytest.raises(InvariantViolation, match="identity"):
        bad.validate(DEFAULT_TOL)
    CovariantRep(cov.base, act.trivial_restriction, [np.eye(cov.dim)]).validate(DEFAULT_TOL)


def test_non_covariant_non_generator_is_caught():
    # U_g for every g is fixed by the generators: a homomorphism that implements
    # the action at the generators implements it everywhere, so a wrong
    # covariance at a non-generator is a wrong homomorphism there
    cov = _covariant("Z8")
    U = cov.unitaries.copy()
    U[3] = U[3] @ cov.base.stack[0] @ cov.base.stack[0].conj().T  # a projection: not unitary, not U_3
    with pytest.raises(InvariantViolation):
        CovariantRep(cov.base, cov.action, U).validate(DEFAULT_TOL)


@pytest.mark.parametrize("kind", ["Z8", "S3"])
def test_perturbed_non_generator_automorphism_is_caught(kind):
    cov = _covariant(kind)
    act = cov.action
    A, G = act.algebra, act.group
    rng = np.random.default_rng(3)
    for g in _non_generators(G):
        auts = list(act.auts)
        auts[g] = StarAut(A, auts[g].perm, [random_unitary(d, rng) for d in A.block_dims])
        assert not auts[g].induced_equal(act.auts[g])
        with pytest.raises(InvariantViolation, match="homomorphism"):
            GroupAction(G, A, auts)


def test_identity_that_moves_the_algebra_is_caught():
    A = MatAlg([2])
    rng = np.random.default_rng(5)
    act = random_cyclic_action(4, [2], rng)
    auts = list(act.auts)
    auts[0] = StarAut(A, (0,), [random_unitary(2, rng)])
    with pytest.raises(InvariantViolation, match="identity"):
        GroupAction(act.group, A, auts)


def test_label_maps_wrong_at_a_non_generator_are_caught():
    act = s3_label_action()
    G = act.group
    for g in _non_generators(G):
        maps = [dict(m) for m in act.maps]
        # swap two images of element g: still a bijection, no longer a homomorphism
        a, b = sorted(maps[g])[:2]
        maps[g][a], maps[g][b] = maps[g][b], maps[g][a]
        with pytest.raises(InvariantViolation, match="homomorphism"):
            type(act)(G, maps)


def test_defect_only_the_second_generator_sees_is_caught():
    # S3 on its free 6-point orbit: Pi|A is diagonal with six inequivalent
    # characters. U'_g = U_g W on the odd elements, W diagonal phases, keeps
    # U' unitary and covariant (W commutes with Pi(A)) and U_eta U'_h = U'_eta h
    # (eta keeps the parity); only the rows of tau, the second generator, see
    # that W does not commute with U_eta
    act, pi = torus_orbit_evaluation()
    cov = regular_representation(pi, act)
    cov.validate(DEFAULT_TOL)
    assert act.group.generators == (S3_ETA, S3_TAU)
    W = np.diag(np.exp(1j * np.arange(cov.dim)))
    U = cov.unitaries.copy()
    odd = [S3_TAU, S3_ETA_TAU, S3_ETA2_TAU]
    U[odd] = U[odd] @ W
    with pytest.raises(InvariantViolation, match=rf"homomorphism at \({S3_TAU},"):
        CovariantRep(cov.base, act, U).validate(DEFAULT_TOL)


def _drift(n):
    """min(h, n - h): how far h is from the identity of Z_n, either way round."""
    h = np.arange(n)
    return np.minimum(h, n - h)


@pytest.mark.parametrize("kind", ["phase", "modulus"])
def test_defect_that_adds_up_along_words_is_caught(kind):
    # Z64 on C, U_h = omega^h times a drift of delta per step: every generator
    # pair (1, h) is off by at most 2 delta, within identity_bound(1) = 1e-6,
    # but (32, 32) is off by 64 delta, which a check over all of G x G refuses
    G, delta = make_cyclic_group(64), 4e-7
    A = MatAlg([1])
    act = GroupAction(G, A, [StarAut.identity(A)] * 64)
    omega = np.exp(2j * np.pi * np.arange(64) / 64)
    drift = np.exp(1j * delta * _drift(64)) if kind == "phase" else 1 + delta * _drift(64)
    base = Rep(1, np.ones((1, 1, 1)), A.basis_labels())
    U = (omega * drift)[:, None, None]
    bound = DEFAULT_TOL.identity_bound(1)
    every_pair = _relation_residuals(U, G.table)
    assert every_pair[list(G.generators)].max() < bound < every_pair[32, 32]
    with pytest.raises(InvariantViolation):
        CovariantRep(base, act, U).validate(DEFAULT_TOL)
    CovariantRep(base, act, omega[:, None, None]).validate(DEFAULT_TOL)


def test_automorphism_defect_that_adds_up_along_words_is_caught():
    # Z64 on M2 by Ad diag(1, omega^h e^{i delta min(h, 64 - h)}): the generator
    # rows are within identity_bound(4), the pair (32, 32) is not
    G, delta = make_cyclic_group(64), 1e-6
    A = MatAlg([2])
    omega = np.exp(2j * np.pi * np.arange(64) / 64)

    def action(drift):
        return [StarAut(A, (0,), [np.diag([1, w * np.exp(1j * t)])]) for w, t in zip(omega, drift)]

    auts = action(delta * _drift(64))
    T = np.array([a.coefficient_matrix.T for a in auts])
    every_pair = _relation_residuals(T, G.table)
    bound = DEFAULT_TOL.identity_bound(A.linear_dim)
    assert every_pair[list(G.generators)].max() < bound < every_pair[32, 32]
    with pytest.raises(InvariantViolation, match="homomorphism"):
        GroupAction(G, A, auts)
    GroupAction(G, A, action(np.zeros(64)))


def test_validate_refuses_a_nan_unitary():
    # a NaN compares false with every bound, so it must be refused as not
    # within it: past validate, the character sum cannot round it
    A = MatAlg([2])
    u = np.diag([1.0, -1.0])
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), StarAut(A, [0], [u])])
    U1 = u.astype(complex)
    U1[0, 0] = np.nan
    cov = CovariantRep(defining_rep(A), act, [np.eye(2), U1])
    with pytest.raises(InvariantViolation, match=r"homomorphism at \(1,0\): residual nan"):
        cov.validate(DEFAULT_TOL)
