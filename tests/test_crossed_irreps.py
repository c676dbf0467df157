"""Crossed-product irreducibles from Mackey's construction.

``crossed_irreps`` induces each irreducible from the stabilizer H of one
block k: Ind_H^G psi for the components psi of the H-regular representation
of the block-k compression.  The reference is the host-size route, the
decomposition of the defining representation of the crossed-product matrix
model, kept only here.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossrep.crossed
import crossrep.sampling
from crossrep.algebra import restrict_action
from crossrep.analyzer import analyze
from crossrep.crossed import build_crossed_model
from crossrep.errors import InvariantViolation
from crossrep.groups import Subgroup
from crossrep.linalg import block_diag
from crossrep.reps import CovariantRep, Rep, decompose, direct_sum_reps, hom_dim
from crossrep.sampling import crossed_irreps, random_cyclic_action, random_s3_action
from crossrep.serialize import covariant_from_json, covariant_to_json

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
}


def _host_model_irreps(act):
    model = build_crossed_model(act).defining_covariant_rep()
    return [rep for rep, _ in decompose(model, seed=0).components]


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_crossed_irreps_match_host_model_reference(name, tol):
    act = ACTIONS[name]()
    got = crossed_irreps(act, seed=0, tol=tol)
    want = _host_model_irreps(act)
    counts = np.array(
        [[hom_dim(a, b, tol) if a.dim == b.dim else 0 for b in want] for a in got]
    )
    # a permutation matrix: every result matches exactly one reference irreducible
    assert counts.shape == (len(want), len(want))
    assert (counts.sum(axis=0) == 1).all() and (counts.sum(axis=1) == 1).all()
    assert [c.dim for c in got] == sorted(c.dim for c in got)


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
    induce = crossrep.sampling.induce

    def doubled(*args, **kwargs):
        cov = induce(*args, **kwargs)
        base = direct_sum_reps([cov.base, cov.base])
        return CovariantRep(base, cov.action, [block_diag(U, U) for U in cov.unitaries])

    monkeypatch.setattr(crossrep.sampling, "induce", doubled)
    with pytest.raises(InvariantViolation, match="is reducible"):
        crossed_irreps(ACTIONS["Z4[2,2,1]"](), seed=0, tol=tol)


def test_crossed_irreps_rejects_a_missing_component(monkeypatch, tol):
    decompose_ = crossrep.sampling.decompose

    def drop_last(*args, **kwargs):
        dec = decompose_(*args, **kwargs)
        dec.components = dec.components[:-1]
        return dec

    monkeypatch.setattr(crossrep.sampling, "decompose", drop_last)
    with pytest.raises(InvariantViolation, match="dim A"):
        crossed_irreps(ACTIONS["S3 inner"](), seed=0, tol=tol)


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
