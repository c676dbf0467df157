"""Data that depends on the action alone is computed once per action.

The restriction to a subgroup (the subgroup, its regrounded action and
group, the coset representatives and coset table), each block's
stabilizer witnesses with their cocycle, and the fixed-point algebra are
kept on the action instance.  Reports read on a reused action must equal,
bit for bit, the reports on a freshly built copy; cached arrays are
read-only; nothing depends on which irreducible was analysed first.
"""

import numpy as np
import pytest

import crossrep.groups
from crossrep.algebra import GroupAction, MatAlg, StarAut
from crossrep.analyzer import analyze, classify_s3, cyclic_analyze
from crossrep.crossed import fixed_point_algebra
from crossrep.examples import s3_label_action, weyl_pair_homogeneous
from crossrep.groups import is_standard_cyclic, make_symmetric_group_3
from crossrep.linalg import Tolerance
from crossrep.reps import CovariantRep, _block_stabilizer
from crossrep.sampling import crossed_irreps, random_cyclic_action, random_s3_action

# each builds the same action afresh on every call
ACTIONS = {
    "Z6[2,1,1]": lambda: random_cyclic_action(6, [2, 1, 1], np.random.default_rng(3)),
    "Z4[2,2]": lambda: random_cyclic_action(4, [2, 2], np.random.default_rng(8)),
    "S3 permutation": lambda: random_s3_action(np.random.default_rng(5), "permutation"),
    "S3 inner": lambda: random_s3_action(np.random.default_rng(6), "inner"),
    "S3 conjugated": lambda: random_s3_action(np.random.default_rng(7), "conjugated"),
    "Weyl q=2": lambda: _rebuilt(weyl_pair_homogeneous(2).action),
}


def _rebuilt(act):
    return GroupAction(act.group, act.algebra, act.auts)


def _analyze(cov, seed):
    """The CLI's dispatch: S3 classification, cyclic report or generic."""
    if cov.group == make_symmetric_group_3():
        return classify_s3(cov, seed)
    if is_standard_cyclic(cov.group):
        return cyclic_analyze(cov, seed)
    return analyze(cov, seed)


def _arrays(report):
    """Every array a report shows, in a fixed order."""
    if hasattr(report, "case"):  # S3Class
        out, base = [report.conjugator], report.report
        if report.eta_block is not None:
            out.append(report.eta_block)
    elif hasattr(report, "spectrum_of_V"):  # CyclicReport
        out = [report.V, *(iso for _, iso in report.spectrum_of_V), *(r.stack for r in report.alpha_diag)]
        base = report.base
    else:
        out, base = [], report
    if base is not None:
        out += [base.conjugator, base.v_rep.mats, base.v_rep.cocycle, base.lambda_rep.mats,
                base.lambda_rep.cocycle, base.psi.unitaries, base.base_irrep.stack, *base.perms]
        out += [B for blocks in base.block_unitaries for B in blocks]
    return out


def _on(cov, action):
    return CovariantRep(cov.base, action, cov.unitaries)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_reports_on_a_reused_action_equal_those_on_a_fresh_copy(name):
    act = ACTIONS[name]()
    irreps = crossed_irreps(act, seed=0)
    # twice over on the reused action, in reverse the second time, so every
    # report after the first reads a warm cache
    reused = {i: _analyze(cov, seed=i) for i, cov in enumerate(irreps)}
    reused_again = {i: _analyze(irreps[i], seed=i) for i in reversed(range(len(irreps)))}
    for i, cov in enumerate(irreps):
        fresh = _analyze(_on(cov, ACTIONS[name]()), seed=i)
        for report in (reused[i], reused_again[i]):
            got, want = _arrays(report), _arrays(fresh)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b), name


def test_two_tolerances_get_separate_entries():
    act = ACTIONS["Z6[2,1,1]"]()
    loose, strict = Tolerance(), Tolerance(abs_eps=1e-11, rank_eps=1e-9)
    assert _block_stabilizer(act, 0, loose) is _block_stabilizer(act, 0, loose)
    assert _block_stabilizer(act, 0, strict) is not _block_stabilizer(act, 0, loose)
    assert _block_stabilizer(act, 0, Tolerance()) is _block_stabilizer(act, 0, loose)
    assert fixed_point_algebra(act, loose) is fixed_point_algebra(act, loose)
    assert fixed_point_algebra(act, strict) is not fixed_point_algebra(act, loose)


def test_cached_arrays_are_read_only():
    act = ACTIONS["Z4[2,2]"]()
    cov = crossed_irreps(act, seed=0)[-1]
    report = cyclic_analyze(cov, seed=0).base
    basis, fixed = fixed_point_algebra(act)
    found = act.restriction(report.subgroup.members)
    pi_k, stab = _block_stabilizer(act, 0, Tolerance())
    cached = [report.v_rep.mats, report.v_rep.cocycle, found.coset_table, found.action.group.table,
              act.group.table, act.group.inverse, fixed.stack, fixed.gens["fix0"], basis[0].blocks[0],
              pi_k.stack, pi_k.gens[pi_k.labels[0]], stab.V, stab.cocycle]
    for a in cached:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0
    with pytest.raises(ValueError):
        report.v_rep.mats[0, 0, 0] = 0
    assert isinstance(act.auts, tuple) and isinstance(act.group.labels, tuple)
    assert isinstance(s3_label_action().maps, tuple)


def test_two_irreducibles_of_one_action_reground_their_stabilizer_once(monkeypatch):
    # Z4 on blocks [2, 2] swapped: the two 2-dimensional translates share the
    # stabilizer {0, 2}; Z6 on [2, 1, 1] has several of each
    for name in ("Z4[2,2]", "Z6[2,1,1]"):
        act = ACTIONS[name]()
        irreps = crossed_irreps(act, seed=0)
        built = []
        original = crossrep.groups.FiniteGroup.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(crossrep.groups.FiniteGroup, "__init__", counted)
        stabilizers = {cyclic_analyze(cov, seed=0).base.subgroup.members for cov in irreps}
        first = len(built)
        for cov in irreps:
            cyclic_analyze(cov, seed=1)
        monkeypatch.undo()
        # no group is built once every stabilizer has been seen, and before
        # that at most one per stabilizer
        assert len(built) == first <= len(stabilizers), name
        assert len(irreps) > len(stabilizers)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_crossed_irreps_twice_on_one_action_matches_a_fresh_action(name):
    act = ACTIONS[name]()
    first, second = crossed_irreps(act, seed=2), crossed_irreps(act, seed=2)
    fresh = crossed_irreps(ACTIONS[name](), seed=2)
    assert [c.dim for c in first] == [c.dim for c in second] == [c.dim for c in fresh]
    for a, b, c in zip(first, second, fresh):
        for x, y, z in ((a.unitaries, b.unitaries, c.unitaries), (a.base.stack, b.base.stack, c.base.stack)):
            assert np.array_equal(x, y) and np.array_equal(x, z)


def test_restriction_is_shared_and_keyed_by_members():
    A = MatAlg([1, 1])
    flip = StarAut(A, (1, 0), [np.eye(1)] * 2)
    act = GroupAction(crossrep.groups.make_cyclic_group(4), A, [StarAut.identity(A), flip] * 2)
    found = act.restriction((2, 0))
    assert found is act.restriction([0, 2]) and found.members == (0, 2) == found.subgroup.members
    assert found.coset_reps == (0, 1) and found.action.auts == (act.auts[0], act.auts[2])
    # row g holds (i, j, h) with c_i g = h c_j
    for g in range(4):
        for i, j, h in found.coset_table[g]:
            assert act.group.mul(found.coset_reps[i], g) == act.group.mul(h, found.coset_reps[j])
    assert act.trivial_restriction is act.restriction((0,)).action
    assert make_symmetric_group_3() is make_symmetric_group_3()
