"""The block-permutation form of a structure report is read off psi and H's
coset action.

Ind_H^G psi has, in column j of U_g, the one nonzero block psi(h) in row i,
where c_i g = h c_j.  A report's ``perms`` and ``block_unitaries`` must be
exactly what slicing the dense Ind_H^G psi finds, and ``h_is_normal`` and
``v_rep`` depend on the stabilizer H alone.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import crossrep.analyzer
from crossrep.algebra import GroupAction, MatAlg, StarAut
from crossrep.analyzer import analyze, classify_s3, cyclic_analyze
from crossrep.examples import minimal_covariant, product_cyclic_group, weyl_pair_homogeneous
from crossrep.groups import S3_E, S3_ETA, S3_ETA2, FiniteGroup, is_standard_cyclic, make_symmetric_group_3
from crossrep.linalg import random_unitary
from crossrep.reps import Rep, _block_stabilizer, _orbit_blocks, _Stabilizer, induce
from crossrep.sampling import crossed_irreps, random_s3_action


def _inputs():
    """The benchmark's numpy-only input module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_block_form_inputs", path)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _dense_block_form(induced, m):
    """The reference: per g, the row block i of the one nonzero block in each
    column block j of the dense U_g of Ind_H^G psi, and that block."""
    b = induced.dim // m
    perms, blocks = [], []
    for U in induced.unitaries:
        U = U.reshape(m, b, m, b)
        perm = np.argmax(np.linalg.norm(U, axis=(1, 3)), axis=0)
        perms.append(perm)
        blocks.append([U[i, :, j, :] for j, i in enumerate(perm)])
    return perms, blocks


def _assert_dense_slices(report, outer_action):
    m = report.index
    induced = induce(report.psi, outer_action, report.subgroup, report.coset_reps)
    perms, blocks = _dense_block_form(induced, m)
    assert len(report.perms) == len(report.block_unitaries) == outer_action.group.order
    for g in range(outer_action.group.order):
        assert np.array_equal(report.perms[g], perms[g])
        assert len(report.block_unitaries[g]) == m
        for got, want in zip(report.block_unitaries[g], blocks[g]):
            assert got.shape == want.shape and np.array_equal(got, want)
            assert not got.flags.writeable


def _structure_report(Pi):
    """(report, the action its block form is over) of the CLI's dispatch, or
    None for a TauPair, which has no report: EtaTriple's report is over the
    3-cycle subgroup's action."""
    G = Pi.group
    if G == make_symmetric_group_3():
        verdict = classify_s3(Pi, seed=0)
        if verdict.case == "EtaTriple":
            return verdict.report, Pi.action.restriction((S3_E, S3_ETA, S3_ETA2)).action
        return None if verdict.report is None else (verdict.report, Pi.action)
    if is_standard_cyclic(G):
        return cyclic_analyze(Pi, seed=0).base, Pi.action
    return analyze(Pi, seed=0), Pi.action


@pytest.mark.parametrize("seed", [1, 2])
def test_analyze_pool_block_form_equals_the_dense_slices(seed):
    inputs = _inputs()
    covs = inputs.analyze_pool(seed, inputs.load_pool())
    actions, indices = {}, set()
    for cov in covs:
        if id(cov.action) not in actions:
            actions[id(cov.action)] = inputs.to_action(cov.action)
        found = _structure_report(inputs.to_covariant(cov, actions[id(cov.action)]))
        if found is not None:
            _assert_dense_slices(*found)
            indices.add(found[0].index)
    assert {1, 2, 3} <= indices


def test_s3_minimal_and_eta_triple_block_form_equals_the_dense_slices():
    act = random_s3_action(np.random.default_rng(1), "permutation")
    cases = {}
    for Pi in [minimal_covariant(), *crossed_irreps(act)]:
        case = classify_s3(Pi, seed=0).case
        if case in ("Minimal", "EtaTriple"):
            report, outer = _structure_report(Pi)
            _assert_dense_slices(report, outer)
            cases.setdefault(case, set()).add(report.index)
    assert cases == {"Minimal": {1}, "EtaTriple": {3}}


def _z2z2_action():
    """Z2 x Z2 (index 2a + b) permuting four 2x2 blocks freely and swapping
    two 3x3 blocks by a, b acting on them by Ad diag(1, 1, -1); the whole
    action conjugated by a fixed inner automorphism."""
    A = MatAlg([2, 2, 2, 2, 3, 3])
    u = np.diag([1.0, 1.0, -1.0]).astype(complex)
    auts = []
    for g in range(4):
        a, b = divmod(g, 2)
        perm = [x ^ g for x in range(4)] + ([5, 4] if a else [4, 5])
        auts.append(StarAut(A, perm, [np.eye(2)] * 4 + [np.linalg.matrix_power(u, b)] * 2))
    rng = np.random.default_rng(11)
    beta = StarAut(A, range(6), [random_unitary(d, rng) for d in A.block_dims])
    return GroupAction(product_cyclic_group(2), A, [beta.compose(a).compose(beta.inverse()) for a in auts])


def test_generic_block_form_equals_the_dense_slices():
    act = _z2z2_action()
    reports = [analyze(Pi, seed=0) for Pi in crossed_irreps(act)]
    assert sorted((r.index, r.psi.dim) for r in reports) == [(2, 3), (2, 3), (4, 2)]
    for report in reports:
        _assert_dense_slices(report, act)
        assert report.h_is_normal


def test_one_coset_block_form_equals_the_dense_slices():
    Pi = weyl_pair_homogeneous(2)
    report = analyze(Pi, seed=0)
    assert report.index == 1 and report.psi.dim == 4
    _assert_dense_slices(report, Pi.action)


def _normal(G, members):
    H = set(members)
    return all(G.mul(G.mul(g, h), G.inv(g)) in H for g in range(G.order) for h in members)


def _dihedral_4() -> FiniteGroup:
    """The dihedral group of order 8, r^k s^e at index 4e + k."""
    e, k = np.divmod(np.arange(8), 4)
    return FiniteGroup((e[:, None] + e) % 2 * 4 + (k[:, None] + np.where(e[:, None] == 0, k, -k)) % 4, identity=0)


def _subgroups(G):
    """Every subgroup of G, by brute force over the subsets holding e."""
    others = [g for g in range(G.order) if g != G.identity]
    for n in range(len(others) + 1):
        for rest in itertools.combinations(others, n):
            members = (G.identity, *rest)
            if all(G.mul(a, b) in members for a in members for b in members):
                yield members


@pytest.mark.parametrize("group", ["S3", "D4"])
def test_h_is_normal_on_every_subgroup(group, tol):
    G = make_symmetric_group_3() if group == "S3" else _dihedral_4()
    A = MatAlg([1])
    act = GroupAction(G, A, [StarAut.identity(A)] * G.order)
    pi1 = Rep(1, np.ones((1, 1, 1)), A.basis_labels())
    verdicts = []
    for members in _subgroups(G):
        stab = _Stabilizer(act, pi1, {h: np.eye(1) for h in members}, tol)
        verdicts.append(stab.h_is_normal)
        assert stab.h_is_normal == _normal(G, members), members
    assert len(verdicts) == (6 if group == "S3" else 10) and True in verdicts and False in verdicts


@pytest.mark.parametrize("seed", [0, 1])
def test_h_is_normal_on_every_ladder_stabilizer(seed, tol):
    inputs = _inputs()
    for spec in inputs.enumerate_actions(seed, extra=True):
        act = inputs.to_action(spec)
        for k in _orbit_blocks(act):
            stab = _block_stabilizer(act, k, tol)
            assert stab.h_is_normal == _normal(act.group, stab.restriction.members), (spec.name, k)


@pytest.mark.parametrize("name", ["Z2xZ2", "S3 inner"])
def test_the_classes_of_one_stabilizer_share_one_v_rep(name, tol):
    act = _z2z2_action() if name == "Z2xZ2" else random_s3_action(np.random.default_rng(6), "inner")
    by_record = {}
    for Pi in crossed_irreps(act):
        stab = crossrep.analyzer._orbit(Pi, tol).stab
        by_record.setdefault(id(stab), (stab, []))[1].append(analyze(Pi, seed=0))
    assert any(len(reports) > 1 for _, reports in by_record.values())
    for stab, reports in by_record.values():
        for report in reports:
            assert report.v_rep is stab.v_rep and np.shares_memory(report.v_rep.mats, stab.V)
            assert all(perm.base is stab.perms for perm in report.perms)
