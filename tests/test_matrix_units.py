"""Translate stabilizers read off the action.

An irreducible representation pi of M_{n_1} + ... + M_{n_b} is a block
compression up to a unitary, so over a ``GroupAction``
``translate_stabilizer`` reads the block index k off the matrix units of pi
and returns the elements whose block permutation fixes k, each with the
action's own unitary on block k as witness; ``analyze`` takes pi1 and its
stabilizer the same way.  The character-engine route,
``covariant_equivalence`` of the trivial-subgroup representations of pi and
of each translate, is kept here as the reference.
"""

import numpy as np
import pytest

import crossrep.analyzer
import crossrep.reps
from crossrep.analyzer import analyze, cyclic_analyze
from crossrep.errors import InvariantViolation
from crossrep.examples import (
    cute_example,
    expermutation2_example,
    first_s3_example,
    inner_z8_minimal,
    minimal_example,
    s3_label_action,
    torus_orbit_evaluation,
)
from crossrep.groups import S3_E, S3_ETA, S3_ETA2, S3_TAU
from crossrep.linalg import block_diag
from crossrep.reps import (
    covariant_equivalence,
    direct_sum_reps,
    regular_representation,
    rep_compose,
    rep_from_images,
    translate_stabilizer,
    trivial_covariant,
)
from crossrep.sampling import (
    crossed_irreps,
    random_block_irrep,
    random_cyclic_action,
    random_s3_action,
)

ACTIONS = {
    "Z4[2,2,1]": lambda: random_cyclic_action(4, [2, 2, 1], np.random.default_rng(0)),
    "Z6[1,1,2]": lambda: random_cyclic_action(6, [1, 1, 2], np.random.default_rng(41)),
    "Z3[3,1]": lambda: random_cyclic_action(3, [3, 1], np.random.default_rng(7)),
    "S3 permutation": lambda: random_s3_action(np.random.default_rng(0), "permutation"),
    "S3 inner": lambda: random_s3_action(np.random.default_rng(2), "inner"),
    "S3 conjugated": lambda: random_s3_action(np.random.default_rng(5), "conjugated"),
}


def _reference(pi, act, g, tol):
    translate = trivial_covariant(rep_compose(pi, act, g), act)
    return covariant_equivalence(trivial_covariant(pi, act), translate, tol)


def _assert_witnesses(pi, act, stabilizer):
    for g, W in stabilizer.items():
        twisted = rep_compose(pi, act, g)
        for l, M in pi.gens.items():
            assert np.linalg.norm(W @ M @ W.conj().T - twisted.gens[l]) <= 1e-10


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_translate_stabilizer_matches_character_engine_reference(name, tol):
    act = ACTIONS[name]()
    alg = act.algebra
    rng = np.random.default_rng(3)
    for pi in (random_block_irrep(alg, rng, k) for k in range(alg.n_blocks) for _ in range(2)):
        stabilizer = translate_stabilizer(pi, act, tol)
        for g in range(act.group.order):
            want = _reference(pi, act, g, tol)
            assert (g in stabilizer) == want.equivalent
            if want.equivalent:
                W, R = stabilizer[g], want.witness
                phase = np.vdot(R, W) / pi.dim
                assert abs(abs(phase) - 1) <= 1e-10
                assert np.linalg.norm(W - phase * R) <= 1e-10
        _assert_witnesses(pi, act, stabilizer)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_translate_stabilizer_rejects_reducible_input(name, tol):
    act = ACTIONS[name]()
    alg = act.algebra
    rng = np.random.default_rng(8)
    pi = random_block_irrep(alg, rng, 0)
    last = alg.n_blocks - 1
    reducible = [
        direct_sum_reps([pi, random_block_irrep(alg, rng, last)]),  # frame not square
        direct_sum_reps([pi, random_block_irrep(alg, rng, 0)]),  # square, two copies
        rep_from_images(alg, lambda e: block_diag(e.blocks[0], np.zeros((1, 1)))),
    ]
    for red in reducible:
        with pytest.raises(InvariantViolation):
            translate_stabilizer(red, act, tol)


def _is_unit_multiple(W, target):
    phase = np.vdot(target, W) / np.vdot(target, target)
    return abs(abs(phase) - 1) <= 1e-10 and np.linalg.norm(W - phase * target) <= 1e-10


def test_label_action_stabilizers(tol):
    act = s3_label_action()
    first = translate_stabilizer(first_s3_example(), act, tol)
    assert sorted(first) == [S3_E, S3_TAU]
    assert _is_unit_multiple(first[S3_E], np.eye(2))
    W = first[S3_TAU]
    assert min(np.linalg.norm(W - s * np.diag([1.0, -1.0])) for s in (1, -1)) <= 1e-10
    assert sorted(translate_stabilizer(expermutation2_example(), act, tol)) == [S3_E, S3_ETA, S3_ETA2]
    assert sorted(translate_stabilizer(minimal_example(), act, tol)) == list(range(6))
    for pi in (first_s3_example(), expermutation2_example(), minimal_example()):
        _assert_witnesses(pi, act, translate_stabilizer(pi, act, tol))


def _crossed(make, dim, block):
    """The first crossed irreducible of dimension ``dim`` whose algebra part
    does not annihilate ``block``; its stabilizer is that block's."""
    return next(
        cov
        for cov in crossed_irreps(make(), seed=0)
        if cov.dim == dim and np.trace(cov.base.gens[f"b{block}_00"]).real > 0.5
    )


def _torus_regular():
    act, pi = torus_orbit_evaluation()
    return regular_representation(pi, act)


# analyze inputs over Z2, Z4, S3 and Z8, with stabilizers of order 1 to 8;
# a crossed irreducible is picked by its dimension and a block it lives on
FRAME_CASES = {
    "Z2[1,1]#0": lambda: _crossed(lambda: random_cyclic_action(2, [1, 1], np.random.default_rng(1)), 2, 0),
    "Z4 cute": lambda: cute_example()[1],
    "Z4[2,2,1]#4": lambda: _crossed(ACTIONS["Z4[2,2,1]"], 4, 0),
    "S3 regular": _torus_regular,
    "S3-inner#4": lambda: _crossed(ACTIONS["S3 inner"], 4, 1),
    "Z8 inner": lambda: inner_z8_minimal()[1],
}


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_analyze_reads_two_frames(name, monkeypatch, tol):
    # one frame of Pi|_A and one Mackey read-off of pi1's stabilizer block,
    # however large the group
    Pi = FRAME_CASES[name]()
    calls = []

    def counting(fn, dim_of):
        def wrapper(*args, **kwargs):
            calls.append(dim_of(args))
            return fn(*args, **kwargs)

        return wrapper

    frame = counting(crossrep.reps._block_frame, lambda args: args[0].dim)
    orbit = counting(crossrep.reps._mackey_orbit, lambda args: args[1].pi1.dim)
    monkeypatch.setattr(crossrep.reps, "_block_frame", frame)
    for module in (crossrep.reps, crossrep.analyzer):
        monkeypatch.setattr(module, "_mackey_orbit", orbit)
    report = analyze(Pi, seed=0, tol=tol)
    assert len(calls) == 2
    assert calls == [Pi.dim, report.base_irrep.dim]


# (analyzer, input): stabilizers of order 1, 2, 3, 6 and 8, multiplicity
# one and two
DETERMINISM_CASES = {
    "analyze S3 regular": (analyze, _torus_regular),
    "analyze S3-perm#0": (analyze, lambda: _crossed(ACTIONS["S3 permutation"], 2, 3)),
    "analyze S3-perm#3": (analyze, lambda: _crossed(ACTIONS["S3 permutation"], 6, 0)),
    "analyze S3-inner#4": (analyze, lambda: _crossed(ACTIONS["S3 inner"], 4, 1)),
    "cyclic_analyze cute": (cyclic_analyze, lambda: cute_example()[1]),
    "cyclic_analyze inner_z8": (cyclic_analyze, lambda: inner_z8_minimal()[1]),
    "cyclic_analyze Z4[2,2,1]#4": (cyclic_analyze, lambda: _crossed(ACTIONS["Z4[2,2,1]"], 4, 0)),
}


@pytest.mark.parametrize("name", sorted(DETERMINISM_CASES))
def test_analyzer_draws_no_random_numbers(name, monkeypatch, tol):
    analyzer, make = DETERMINISM_CASES[name]
    Pi = make()

    def no_rng(*args, **kwargs):
        raise AssertionError("the analyzer drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    reports = [analyzer(Pi, seed=seed, tol=tol) for seed in (0, 12345)]
    a, b = (getattr(r, "base", r) for r in reports)
    assert a.subgroup_members == b.subgroup_members
    assert np.array_equal(a.conjugator, b.conjugator)
    assert all(np.array_equal(a.psi.base.gens[l], M) for l, M in b.psi.base.gens.items())
    assert all(np.array_equal(U, V) for U, V in zip(a.psi.unitaries, b.psi.unitaries))


def test_cases_cover_stabilizer_orders_and_multiplicities(tol):
    frame = [analyze(make(), seed=0, tol=tol) for make in FRAME_CASES.values()]
    determinism = [analyze(make(), seed=0, tol=tol) for _, make in DETERMINISM_CASES.values()]
    assert {r.subgroup.order for r in frame} == {1, 2, 6, 8}
    assert {r.subgroup.order for r in determinism} == {1, 2, 3, 6, 8}
    assert {r.multiplicity for r in frame} == {r.multiplicity for r in determinism} == {1, 2}
