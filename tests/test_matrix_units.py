"""Representations of a block algebra read off their matrix units.

An irreducible representation of M_{n_1} + ... + M_{n_b} is a block
compression up to a unitary, so over a ``GroupAction`` ``rep_equivalence``
compares block indices and reads its witness off the images of the matrix
units, and ``analyze`` takes pi1 and its stabilizer from the first block
the algebra restriction does not annihilate.  The character-engine route,
``covariant_equivalence`` of the trivial-subgroup representations, is kept
here as the reference.
"""

import numpy as np
import pytest

from crossrep.analyzer import analyze, cyclic_analyze
from crossrep.errors import InvariantViolation
from crossrep.examples import cute_example, inner_z8_minimal, torus_orbit_evaluation
from crossrep.linalg import block_diag
from crossrep.reps import (
    covariant_equivalence,
    direct_sum_reps,
    regular_representation,
    rep_compose,
    rep_equivalence,
    rep_from_images,
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


def _reference(pi1, pi2, act, tol):
    return covariant_equivalence(trivial_covariant(pi1, act), trivial_covariant(pi2, act), tol)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_rep_equivalence_matches_character_engine_reference(name, tol):
    act = ACTIONS[name]()
    alg = act.algebra
    rng = np.random.default_rng(3)
    irreps = [random_block_irrep(alg, rng, k) for k in range(alg.n_blocks) for _ in range(2)]
    seen = set()
    for pi in irreps:
        for g in range(act.group.order):
            for other in (rep_compose(pi, act, g), *irreps):
                got = rep_equivalence(pi, other, act, tol)
                want = _reference(pi, other, act, tol)
                assert got.equivalent == want.equivalent
                seen.add(got.equivalent)
                if not got.equivalent:
                    assert got.witness is None
                    continue
                W, R = got.witness, want.witness
                phase = np.vdot(R, W) / pi.dim
                assert abs(abs(phase) - 1) <= 1e-10
                assert np.linalg.norm(W - phase * R) <= 1e-10
                for l, M in pi.gens.items():
                    assert np.linalg.norm(W @ M @ W.conj().T - other.gens[l]) <= 1e-10
    assert seen == {True, False}


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_rep_equivalence_rejects_reducible_input(name, tol):
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
            rep_equivalence(pi, red, act, tol)
        with pytest.raises(InvariantViolation):
            rep_equivalence(red, pi, act, tol)


def _crossed(make, index):
    return crossed_irreps(make(), seed=0)[index]


def _torus_regular():
    act, pi = torus_orbit_evaluation()
    return regular_representation(pi, act)


# (analyzer, input): stabilizers of order 1, 2, 3, 6 and 8, multiplicity
# one and two
DETERMINISM_CASES = {
    "analyze S3 regular": (analyze, _torus_regular),
    "analyze S3-perm#0": (analyze, lambda: _crossed(ACTIONS["S3 permutation"], 0)),
    "analyze S3-perm#3": (analyze, lambda: _crossed(ACTIONS["S3 permutation"], 3)),
    "analyze S3-inner#4": (analyze, lambda: _crossed(ACTIONS["S3 inner"], 4)),
    "cyclic_analyze cute": (cyclic_analyze, lambda: cute_example()[1]),
    "cyclic_analyze inner_z8": (cyclic_analyze, lambda: inner_z8_minimal()[1]),
    "cyclic_analyze Z4[2,2,1]#4": (cyclic_analyze, lambda: _crossed(ACTIONS["Z4[2,2,1]"], 4)),
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
