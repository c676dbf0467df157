"""Data that depends on the action alone is computed once per action.

The restriction to a subgroup (the subgroup, its regrounded action and
group, the coset representatives and coset table), each block's
stabilizer witnesses with their cocycle, the fixed-point algebra, and per
class of a stabilizer that a read-off meets psi = lambda (x) V, its
induction and what the analyzers derive from them are kept on the action
instance.  Reports read on a reused action must equal, bit for bit, the
reports on a freshly built copy; cached arrays are read-only; nothing
depends on which irreducible was analysed first; every check of the input
still runs on a warm action.
"""

import numpy as np
import pytest

import crossrep.analyzer
import crossrep.groups
from crossrep.algebra import GroupAction, MatAlg, StarAut
from crossrep.analyzer import analyze, classify_s3, cyclic_analyze
from crossrep.crossed import fixed_point_algebra
from crossrep.errors import BlockStructureViolation, CrossrepError, NotIrreducible
from crossrep.examples import s3_label_action, weyl_pair_homogeneous
from crossrep.groups import is_standard_cyclic, make_symmetric_group_3
from crossrep.linalg import Tolerance, block_diag
from crossrep.reps import (
    CovariantRep,
    _block_stabilizer,
    _orbit_blocks,
    _stabilizer_classes,
    decompose,
    direct_sum_reps,
)
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
    cyclic = cyclic_analyze(cov, seed=0)
    report = cyclic.base
    basis, fixed = fixed_point_algebra(act)
    found = act.restriction(report.subgroup.members)
    pi_k, stab = _block_stabilizer(act, 0, Tolerance())
    [(_, _, induced, _)] = crossrep.analyzer._orbit(cov, Tolerance()).classes
    cached = [report.v_rep.mats, report.v_rep.cocycle, found.coset_table, found.action.group.table,
              act.group.table, act.group.inverse, fixed.stack, fixed.gens["fix0"], basis[0].blocks[0],
              pi_k.stack, pi_k.gens[pi_k.labels[0]], stab.V, stab.cocycle,
              # the class record: psi, its induction, the induced form and the cyclic tail
              report.psi.unitaries, report.psi.base.stack, induced.unitaries, induced.base.stack,
              *report.perms, *(B for blocks in report.block_unitaries for B in blocks), cyclic.V,
              *(iso for _, iso in cyclic.spectrum_of_V), *(r.stack for r in cyclic.alpha_diag)]
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


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_crossed_irreps_looks_up_each_orbit_restriction_once(name, monkeypatch):
    # the induction reads the coset table from the restriction its caller
    # holds, so a warm crossed_irreps makes one lookup per orbit, not one
    # per (orbit, dimension)
    act = ACTIONS[name]()
    crossed_irreps(act, seed=0)
    lookups, restriction = [], type(act).restriction

    def counted(self, members):
        lookups.append(tuple(members))
        return restriction(self, members)

    monkeypatch.setattr(type(act), "restriction", counted)
    crossed_irreps(act, seed=0)
    assert len(lookups) == len(_orbit_blocks(act))


@pytest.mark.parametrize("kind, seed", [("permutation", 1), ("permutation", 2), ("inner", 6), ("conjugated", 7)])
def test_classify_s3_builds_the_classes_of_a_3_cycle_sub_stabilizer_once(monkeypatch, kind, seed):
    # EtaTriple and TauPair read an orbit of the 3-cycle subgroup whose
    # witnesses are the action's own unitaries of the block: their classes are
    # built once per (block, members, tol), so a second pass builds none
    act = random_s3_action(np.random.default_rng(seed), kind)
    irreps, calls = crossed_irreps(act, seed=0), []
    witness_classes = crossrep.analyzer._witness_classes

    def counted(*args):
        calls.append(args)
        return witness_classes(*args)

    monkeypatch.setattr(crossrep.analyzer, "_witness_classes", counted)
    first = [classify_s3(cov, seed=0) for cov in irreps]
    built = len(calls)
    second = [classify_s3(cov, seed=0) for cov in irreps]
    assert {v.case for v in first} & {"EtaTriple", "TauPair"} and 0 < built < len(irreps)
    assert len(calls) == built
    for a, b in zip(first, second):
        assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))


def test_a_sub_stabilizer_is_kept_per_block_and_rebuilt_without_one():
    # k = None stands for witnesses that depend on the input (a LabelAction)
    act = ACTIONS["S3 permutation"]()
    _, stab = _block_stabilizer(act, 0, Tolerance())
    witnesses = dict(zip(stab.members, stab.V))
    kept = crossrep.analyzer._sub_stabilizer(act, 0, witnesses, Tolerance())
    assert crossrep.analyzer._sub_stabilizer(act, 0, witnesses, Tolerance()) is kept
    assert not kept[0].V.flags.writeable and not kept[1][0].mats.flags.writeable
    fresh = crossrep.analyzer._sub_stabilizer(act, None, witnesses, Tolerance())
    assert fresh is not crossrep.analyzer._sub_stabilizer(act, None, witnesses, Tolerance())
    assert np.array_equal(fresh[1][0].mats, kept[1][0].mats)


def _counted(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that appends (name, args) to ``calls``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((name, args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_a_second_pass_builds_no_class_data(name, monkeypatch):
    # Ind(lambda (x) V), the eigenspaces of a class's matrices and the
    # fixed-point images are kept with the class: the first pass builds them,
    # the second reads them back and gives the same reports
    act = ACTIONS[name]()
    irreps, calls = crossed_irreps(act, seed=0), []
    for module, function in ((crossrep.reps, "_induced"), (crossrep.analyzer, "unitary_eigenspaces"),
                             (crossrep.analyzer, "evaluate")):
        _counted(monkeypatch, module, function, calls)
    first = [_analyze(cov, seed=0) for cov in irreps]
    built = len(calls)
    assert {"_induced"} <= {function for function, _ in calls}
    second = [_analyze(cov, seed=0) for cov in irreps]
    assert len(calls) == built
    for a, b in zip(first, second):
        assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_a_cold_analysis_builds_only_the_class_it_meets(name, monkeypatch):
    # each read-off of an irreducible on a fresh action meets one class of
    # its stabilizer and builds that one, by one _induced call
    irreps, reads, calls = crossed_irreps(ACTIONS[name](), seed=0), [], []
    _counted(monkeypatch, crossrep.analyzer, "_mackey_orbit", reads)
    _counted(monkeypatch, crossrep.reps, "_induced", calls)
    for cov in irreps:
        del reads[:], calls[:]
        _analyze(_on(cov, ACTIONS[name]()), seed=0)
        assert reads and [len(args[-1]) for _, args in calls] == [1] * len(reads)


def test_a_cold_decompose_builds_only_the_classes_present(monkeypatch):
    # Z6 on [2, 1, 1]: the sum of two inequivalent irreducibles builds two
    # of the classes of the stabilizers it meets, and a second decompose none
    act = ACTIONS["Z6[2,1,1]"]()
    irreps = crossed_irreps(ACTIONS["Z6[2,1,1]"](), seed=0)
    a, b = (_on(cov, act) for cov in (irreps[0], irreps[-1]))
    Pi = CovariantRep(direct_sum_reps([a.base, b.base]), act, block_diag(a.unitaries, b.unitaries))
    calls = []
    _counted(monkeypatch, crossrep.reps, "_induced", calls)
    first = decompose(Pi, seed=0)
    present = sum(len(args[-1]) for _, args in calls)
    available = sum(len(_stabilizer_classes(act, k, Tolerance())) for k in _orbit_blocks(act))
    assert present == len(first.components) == 2 < available
    second = decompose(Pi, seed=0)
    assert sum(len(args[-1]) for _, args in calls) == present
    assert np.array_equal(first.basis_change, second.basis_change)
    for (x, m), (y, n) in zip(first.components, second.components):
        assert m == n and np.array_equal(x.unitaries, y.unitaries)


def _outcome(analysis, cov):
    """(type, message) of the error ``analysis(cov)`` raises, or None."""
    try:
        analysis(cov, seed=0)
    except CrossrepError as error:
        return type(error), str(error)
    return None


def _negated_last_column(read_off):
    """The read-off with the last column of its one isometry negated: still
    an isometry, but one that misses Pi wherever the column meets another."""

    def negated(*args):
        orbit = read_off(*args)
        [cls] = orbit.classes
        C = cls.isometries[0].copy()
        C[:, -1] *= -1
        return orbit._replace(classes=[cls._replace(isometries=[C])])

    return negated


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_checks_of_the_input_fire_on_a_warm_action_as_on_a_fresh_one(name, monkeypatch):
    act = ACTIONS[name]()
    irreps = crossed_irreps(act, seed=0)
    for cov in irreps:
        _analyze(cov, seed=0)
    a, b = irreps[0], irreps[-1]
    perturbed = b.unitaries.copy()
    perturbed[1, 0, 0] += 1e-5
    inputs = [CovariantRep(direct_sum_reps([a.base, b.base]), act, block_diag(a.unitaries, b.unitaries)),
              CovariantRep(b.base, act, perturbed)]
    warm = [_outcome(_analyze, cov) for cov in inputs]
    assert warm == [_outcome(_analyze, _on(cov, ACTIONS[name]())) for cov in inputs]
    assert warm[0] == (NotIrreducible, "covariant representation is reducible") and warm[1] is not None
    monkeypatch.setattr(crossrep.analyzer, "_mackey_orbit", _negated_last_column(crossrep.analyzer._mackey_orbit))
    missed = [_outcome(_analyze, cov) for cov in irreps]
    assert missed == [_outcome(_analyze, _on(cov, ACTIONS[name]())) for cov in irreps]
    assert any(out is not None and out[0] is BlockStructureViolation and "is not carried" in out[1] for out in missed)
