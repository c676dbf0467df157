"""Crossed-product irreducibles from Mackey's construction.

``crossed_irreps`` induces each irreducible from the stabilizer H of one
block k: Ind_H^G psi with psi_h = Lambda_h (x) V_h, for the components
Lambda of the |H|-dimensional twisted regular representation of H.  The
reference is the host-size route, the decomposition of the defining
representation of the crossed-product matrix model, kept only here.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossrep.crossed
import crossrep.reps
import crossrep.sampling
from crossrep.algebra import GroupAction, StarAut, restrict_action
from crossrep.analyzer import analyze, classify_s3, cyclic_analyze, factor_tensor
from crossrep.crossed import build_crossed_model
from crossrep.errors import InvariantViolation
from crossrep.examples import weyl_pair_homogeneous
from crossrep.groups import Subgroup, is_standard_cyclic
from crossrep.linalg import DEFAULT_TOL, block_diag, random_unitary
from crossrep.reps import (
    CovariantRep,
    ProjectiveRep,
    Rep,
    _cocycle,
    _hom,
    direct_sum_reps,
    hom_dim,
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
}
WEYL = [name for name in ACTIONS if name.startswith("Weyl")]


def _host_model_irreps(act):
    # the commutant split at host size, not decompose's frame route, which
    # shares its Mackey read-off with crossed_irreps
    model = build_crossed_model(act).defining_covariant_rep()
    return [rep for rep, _ in crossrep.reps._decompose(model, 0, DEFAULT_TOL).components]


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
    induce = crossrep.reps.induce

    def doubled(*args, **kwargs):
        cov = induce(*args, **kwargs)
        base = direct_sum_reps([cov.base, cov.base])
        return CovariantRep(base, cov.action, [block_diag(U, U) for U in cov.unitaries])

    monkeypatch.setattr(crossrep.reps, "induce", doubled)
    with pytest.raises(InvariantViolation, match="is reducible"):
        crossed_irreps(ACTIONS["Z4[2,2,1]"](), seed=0, tol=tol)


def test_crossed_irreps_rejects_a_missing_component(monkeypatch, tol):
    decompose_ = crossrep.reps._decompose

    def drop_last(*args, **kwargs):
        dec = decompose_(*args, **kwargs)
        dec.components = dec.components[:-1]
        return dec

    monkeypatch.setattr(crossrep.reps, "_decompose", drop_last)
    with pytest.raises(InvariantViolation, match="dim A"):
        crossed_irreps(ACTIONS["S3 inner"](), seed=0, tol=tol)


def test_crossed_irreps_checks_the_twisted_regular_relation(monkeypatch, tol):
    twisted_regular = crossrep.reps._twisted_regular

    def wrong_cocycle(K, c):
        # L_a delta_x = conj(c(a, x)) delta_{ax} carries c, not the conj(c) claimed
        L = twisted_regular(K, c.conj())
        return ProjectiveRep(K, L.mats, c.conj())

    monkeypatch.setattr(crossrep.reps, "_twisted_regular", wrong_cocycle)
    with pytest.raises(ValueError, match="not scalar multiples"):
        crossed_irreps(ACTIONS["Weyl q=3"](), seed=0, tol=tol)


def test_crossed_irreps_splits_only_twisted_regular_representations(monkeypatch, tol):
    decompose_ = crossrep.reps._decompose
    seen = []

    def record(r, *args, **kwargs):
        seen.append(r)
        return decompose_(r, *args, **kwargs)

    monkeypatch.setattr(crossrep.reps, "_decompose", record)
    for make in ACTIONS.values():
        act = make()
        # one split per orbit, of dimension |H| for its smallest block k
        orders, covered = [], set()
        for k in range(act.algebra.n_blocks):
            if k not in covered:
                covered.update(aut.perm[k] for aut in act.auts)
                orders.append(sum(aut.perm[k] == k for aut in act.auts))
        seen.clear()
        crossed_irreps(act, seed=0, tol=tol)
        assert all(type(r) is ProjectiveRep for r in seen)
        assert [r.dim for r in seen] == orders


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
