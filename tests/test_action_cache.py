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
from crossrep.algebra import GroupAction, MatAlg, StarAut, _Restriction
from crossrep.analyzer import analyze, classify_s3, cyclic_analyze, homogeneous_irreducibility
from crossrep.crossed import fixed_point_algebra
from crossrep.errors import BlockStructureViolation, CrossrepError, NotIrreducible
from crossrep.examples import (
    doubled_minimal_covariant,
    inner_z8_minimal,
    minimal_covariant,
    s3_label_action,
    weyl_pair_homogeneous,
)
from crossrep.groups import S3_E, S3_ETA, S3_ETA2, S3_TAU, is_standard_cyclic, make_symmetric_group_3
from crossrep.linalg import Tolerance, block_diag
from crossrep.reps import (
    CovariantRep,
    Rep,
    _block_stabilizer,
    _orbit_blocks,
    _Stabilizer,
    decompose,
    direct_sum_reps,
    rep_from_images,
    translate_stabilizer,
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


def _analyze(cov, seed, tol=Tolerance()):
    """The CLI's dispatch: S3 classification, cyclic report or generic."""
    if cov.group == make_symmetric_group_3():
        return classify_s3(cov, seed, tol)
    if is_standard_cyclic(cov.group):
        return cyclic_analyze(cov, seed, tol)
    return analyze(cov, seed, tol)


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
    stab = _block_stabilizer(act, 0, Tolerance())
    pi_k = stab.pi1
    [(_, _, induced, _)] = crossrep.analyzer._orbit(cov, Tolerance()).classes
    cached = [report.v_rep.mats, report.v_rep.cocycle, found.coset_table, found.action.group.table,
              act.group.table, act.group.inverse, fixed.stack, fixed.gens["fix0"], basis[0].blocks[0],
              pi_k.stack, pi_k.gens[pi_k.labels[0]], stab.V, stab.cocycle,
              # the class record: psi, its induction, the block form read off psi and the cyclic tail
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
def test_a_warm_crossed_irreps_looks_up_no_restriction(name, monkeypatch):
    # the induction reads the coset table from the restriction that each
    # orbit's stabilizer record holds, so a warm crossed_irreps makes no
    # lookup at all, not one per orbit or per (orbit, dimension)
    act = ACTIONS[name]()
    crossed_irreps(act, seed=0)
    lookups, restriction = [], type(act).restriction

    def counted(self, members):
        lookups.append(tuple(members))
        return restriction(self, members)

    monkeypatch.setattr(type(act), "restriction", counted)
    crossed_irreps(act, seed=0)
    assert lookups == []


@pytest.mark.parametrize("kind, seed", [("permutation", 1), ("permutation", 2), ("inner", 6), ("conjugated", 7)])
def test_classify_s3_builds_the_classes_of_a_3_cycle_sub_stabilizer_once(monkeypatch, kind, seed):
    # EtaTriple and TauPair read an orbit of the 3-cycle subgroup whose
    # witnesses are the action's own unitaries of the block: its record is
    # a sub-record of block k's, kept on it, or block k's own at H = z3, so
    # a second pass builds no record and no class
    act = random_s3_action(np.random.default_rng(seed), kind)
    irreps, calls, built = crossed_irreps(act, seed=0), [], []
    _counted(monkeypatch, crossrep.reps, "_classes", calls)
    _count_records(monkeypatch, built)
    first = [classify_s3(cov, seed=0) for cov in irreps]
    counts = len(built), len(calls)
    second = [classify_s3(cov, seed=0) for cov in irreps]
    assert {v.case for v in first} & {"EtaTriple", "TauPair"} and counts[0] < len(irreps)
    assert (len(built), len(calls)) == counts
    for a, b in zip(first, second):
        assert all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))
    # each record built is a sub-record kept on block k's, built once; at
    # H = z3 (TauPair at r = 1) none is
    blocks = [_block_stabilizer(act, k, Tolerance()) for k in _orbit_blocks(act)]
    subs = [stab for block in blocks for stab in _subs(block)]
    assert bool(subs) == any(v.case == "EtaTriple" or v.multiplicity == 2 for v in first)
    assert len(built) == len(subs) and all(any(stab is sub for sub in subs) for stab in built)


def test_a_sub_record_is_read_off_its_record_and_kept_on_it():
    # every element fixes every block of an inner S3 action, so H = S3
    act = ACTIONS["S3 inner"]()
    z3 = act.restriction((S3_E, S3_ETA, S3_ETA2))
    stab = _block_stabilizer(act, 0, Tolerance())
    assert stab.restriction.members == tuple(range(6))
    assert stab.sub(stab.restriction.members) is stab
    for members, within, owner, index in (
        (z3.members, None, act, list(z3.members)),
        ((S3_E,), z3.members, z3.action, [0]),
        ((S3_E, S3_TAU), None, act, [S3_E, S3_TAU]),
    ):
        sub = stab.sub(members, within)
        assert sub is not stab and stab.sub(members, within) is sub and sub in _subs(stab)
        assert sub.restriction is owner.restriction(index) and sub.action is owner
        assert sub.pi1 is stab.pi1 and sub.tol is stab.tol
        assert np.array_equal(sub.V, stab.V[list(members)]) and not sub.V.flags.writeable
    # with ``within`` the sub-record lives in another action, even at H's own members
    whole = act.restriction(stab.restriction.members)
    sub = stab.sub(whole.members, whole.members)
    assert sub is not stab and sub.action is whole.action and sub.restriction.members == whole.members


def _count_records(monkeypatch, built):
    """Append every :class:`_Stabilizer` built from now on to ``built``."""
    init = crossrep.reps._Stabilizer.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(crossrep.reps._Stabilizer, "__init__", counted)


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
    available = sum(len(_block_stabilizer(act, k, Tolerance()).classes) for k in _orbit_blocks(act))
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


def _record_reads(monkeypatch):
    """Collect (owner, record) for every stabilizer record that a read-off or
    :func:`translate_stabilizer` reads, the owner being the action it is read
    for: the record's own, since a read-off takes the record and a frame alone."""
    reads = []
    mackey_orbit, block_stabilizer = crossrep.reps._mackey_orbit, crossrep.reps._block_stabilizer

    def read_off(stab, frame):
        reads.append((stab.action, stab))
        return mackey_orbit(stab, frame)

    def block(action, k, tol):
        stab = block_stabilizer(action, k, tol)
        reads.append((action, stab))
        return stab

    for module in (crossrep.reps, crossrep.analyzer):
        monkeypatch.setattr(module, "_mackey_orbit", read_off)
    monkeypatch.setattr(crossrep.reps, "_block_stabilizer", block)
    return reads


def _subs(stab):
    """The sub-records kept on a record, and theirs."""
    subs = [value for value in stab.__dict__.get("_memo", {}).values() if isinstance(value, _Stabilizer)]
    return subs + [deeper for sub in subs for deeper in _subs(sub)]


def _kept(action):
    """The stabilizer records an action keeps: on itself, on the actions of
    its restrictions, and on a record so kept."""
    found, owners, seen = [], [action], set()
    while owners:
        owner = owners.pop()
        for value in owner.__dict__.get("_memo", {}).values():
            if isinstance(value, _Stabilizer) and id(value) not in seen:
                seen.add(id(value))
                found.append(value)
                owners.append(value)
            elif isinstance(value, _Restriction):
                owners.append(value.action)
    return found


# with EtaTriple and TauPair irreducibles, whose read-offs meet sub-stabilizers
SUB_STABILIZERS = {
    "S3 permutation#1": lambda: random_s3_action(np.random.default_rng(1), "permutation"),
    "S3 inner#6": lambda: random_s3_action(np.random.default_rng(6), "inner"),
}
# with TauPair irreducibles whose stabilizer is the 3-cycle subgroup itself
TAU_PAIRS = {
    "S3 permutation#2": lambda: random_s3_action(np.random.default_rng(2), "permutation"),
}


@pytest.mark.parametrize("name", sorted({**ACTIONS, **SUB_STABILIZERS}))
def test_every_reader_reads_a_record_the_action_keeps(name, monkeypatch):
    # translate_stabilizer, decompose, analyze, cyclic_analyze and classify_s3,
    # sub-stabilizers included, all read a record the action keeps: block k's,
    # or one kept on it, whichever reads it first
    act = {**ACTIONS, **SUB_STABILIZERS}[name]()
    irreps = crossed_irreps(act, seed=0)
    reads = _record_reads(monkeypatch)
    for cov in irreps:
        _analyze(cov, seed=0)
        analyze(cov, seed=0)
        decompose(cov, seed=0)
    for k in _orbit_blocks(act):
        translate_stabilizer(rep_from_images(act.algebra, lambda e: e.blocks[k]), act)
    assert reads
    kept = _kept(act)
    for _, stab in reads:
        assert any(stab is record for record in kept)
    blocks = [_block_stabilizer(act, k, Tolerance()) for k in _orbit_blocks(act)]
    assert all(any(stab is block for block in blocks) or any(stab in _subs(block) for block in blocks)
               for stab in kept)
    if name in SUB_STABILIZERS:
        assert any(stab in _subs(block) for _, stab in reads for block in blocks)


@pytest.mark.parametrize("name", sorted({**ACTIONS, **SUB_STABILIZERS, **TAU_PAIRS}))
def test_no_two_kept_records_hold_one_stabilizer(name):
    # a record is (ambient action, members of H, pi1, tol): the ambient action
    # and the members name one restriction, so one TauPair read-off at H = z3
    # reads block k's record rather than keeping a second, equal one
    act = {**ACTIONS, **SUB_STABILIZERS, **TAU_PAIRS}[name]()
    for cov in crossed_irreps(act, seed=0):
        _analyze(cov, seed=0)
        analyze(cov, seed=0)
        decompose(cov, seed=0)
    kept = [(id(stab.restriction), id(stab.pi1), stab.tol) for stab in _kept(act)]
    assert kept and len(set(kept)) == len(kept)


def test_translate_stabilizer_builds_no_classes(monkeypatch):
    calls = []
    _counted(monkeypatch, crossrep.reps, "_classes", calls)
    for name in sorted(ACTIONS):
        act = ACTIONS[name]()
        for k in _orbit_blocks(act):
            assert translate_stabilizer(rep_from_images(act.algebra, lambda e: e.blocks[k]), act)
        assert _kept(act)
    assert calls == []


def _non_unital():
    """Z2 swapping two one-dimensional blocks, on C^2 plus a C^2 that the
    algebra annihilates and the swap permutes."""
    A = MatAlg([1, 1])
    act = GroupAction(crossrep.groups.make_cyclic_group(2), A,
                      [StarAut.identity(A), StarAut(A, (1, 0), [np.eye(1)] * 2)])
    pi = rep_from_images(A, lambda e: e.to_matrix())
    zero = Rep(2, np.zeros_like(pi.stack), pi.labels)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    return CovariantRep(direct_sum_reps([pi, zero]), act, [np.eye(4), block_diag(swap, swap)])


def test_a_record_whose_pi1_or_v_depend_on_the_input_is_never_kept(monkeypatch):
    # a LabelAction (at multiplicity one and two) and homogeneous_irreducibility
    # read records whose pi1 or V depend on the input: each is built for its
    # read, its sub-records are kept on it, and nothing is kept on the action
    reads = []
    for module in (crossrep.reps, crossrep.analyzer):
        _counted(monkeypatch, module, "_mackey_orbit", reads)
    inputs = [minimal_covariant(), doubled_minimal_covariant(), weyl_pair_homogeneous(2)]
    results = [classify_s3(cov, seed=0) for cov in inputs[:2]]
    assert {v.case for v in results} == {"Minimal", "TauPair"}
    assert homogeneous_irreducibility(inputs[2])
    fresh = [args[0] for _, args in reads]
    assert len(fresh) == 4 and len({id(stab) for stab in fresh}) == len(fresh)
    # the TauPair read-off at H = S3 reads a sub-record of its per-call record
    assert any(sub is stab for parent in fresh for sub in _subs(parent) for stab in fresh)
    assert _kept(inputs[0].action) == _kept(inputs[1].action) == []
    assert not any(stab is record for stab in fresh for record in _kept(inputs[2].action))
    # the report's pi1 is its record's, read-only like every record's
    assert not results[0].report.base_irrep.stack.flags.writeable


def test_the_annihilated_record_is_kept_once_per_action(monkeypatch):
    # pi1 = 0 and V_g = 1 on the subspace the algebra annihilates depend on
    # the action alone: a warm decompose builds no record and no classes
    cov = _non_unital()
    first = decompose(cov, seed=0)
    [kept] = [stab for stab in _kept(cov.action) if stab.pi1.dim == 1 and not stab.pi1.stack.any()]
    assert kept.records and kept.restriction.members == (0, 1)
    assert not kept.V.flags.writeable and not kept.pi1.stack.flags.writeable
    calls, built = [], []
    _counted(monkeypatch, crossrep.reps, "_classes", calls)
    _count_records(monkeypatch, built)
    reads = _record_reads(monkeypatch)
    again = decompose(cov, seed=0)
    assert calls == [] and built == []
    assert any(stab is kept for _, stab in reads)
    assert np.array_equal(again.basis_change, first.basis_change)
    assert all(r is s for (r, _), (s, _) in zip(again.components, first.components))


def test_one_coset_block_unitaries_are_read_only_views():
    # at H = G the one block of U_g is psi(g) itself, equal to U_g of Ind psi:
    # the report hands out views of psi's kept unitaries, not a copy of them
    Pi = weyl_pair_homogeneous(2)
    report = analyze(Pi, seed=0)
    [(_, psi, induced, _)] = crossrep.analyzer._orbit(Pi, Tolerance()).classes
    assert report.index == 1 and report.psi is psi
    for U, [block] in zip(induced.unitaries, report.block_unitaries):
        assert np.shares_memory(block, psi.unitaries) and np.array_equal(block, U)
        assert not block.flags.writeable


@pytest.mark.parametrize("name", sorted({**ACTIONS, **SUB_STABILIZERS}))
def test_no_induction_carries_a_memo(name):
    # the block form is read off psi per report: nothing is kept on Ind psi
    act = {**ACTIONS, **SUB_STABILIZERS}[name]()
    for cov in crossed_irreps(act, seed=0):
        _analyze(cov, seed=0)
        analyze(cov, seed=0)
    inductions = [cov for stab in _kept(act) for _, _, cov in stab.records.values()]
    assert inductions and all("_memo" not in cov.__dict__ for cov in inductions)


LOOSE = Tolerance(abs_eps=1e-7, rank_eps=1e-6, eig_sep=1e-4)
# the cyclic corner and fixed points (Z8 inner, Z6), the TauPair spectrum
# at |H| = 3 and 6, and the EtaTriple sub-record
TWO_TOLERANCES = {
    "Z8 inner": lambda: inner_z8_minimal()[0],
    "Z6[2,1,1]": ACTIONS["Z6[2,1,1]"],
    **SUB_STABILIZERS,
    **TAU_PAIRS,
}


def _read(cov, tol):
    """The arrays of the report on ``cov`` at ``tol``, or the (type, message)
    of its refusal."""
    try:
        return _arrays(_analyze(cov, 0, tol))
    except CrossrepError as error:
        return type(error), str(error)


def _held(records):
    """The ids of the class records (lambda, psi, Ind psi) that ``records``
    keep and of every value memoized on their lambda and psi."""
    held = set()
    for stab in records:
        for lam, psi, induced in stab.records.values():
            held |= {id(lam), id(psi), id(induced)}
            held |= {id(value) for owner in (lam, psi) for value in owner.__dict__.get("_memo", {}).values()}
    return held


@pytest.mark.parametrize("name", sorted(TWO_TOLERANCES))
def test_one_action_at_two_tolerances_reads_one_record_per_tolerance(name):
    # every irreducible analysed at the default and at a loosened tolerance in
    # turn, on one action: each tolerance reads its own block records,
    # sub-records, class records and memos, and gets the reports (or the
    # refusal) of a fresh action at that tolerance.  On Z8 the drift
    # U_j -> e^{ij eps} U_j is refused at the default and accepted loosened
    make = TWO_TOLERANCES[name]
    act, tols = make(), (Tolerance(), LOOSE)
    inputs = crossed_irreps(act, seed=0)
    if name == "Z8 inner":
        drift = np.exp(5e-8j * np.arange(8))[:, None, None]
        inputs.append(CovariantRep(inputs[0].base, act, inputs[0].unitaries * drift))
    reads = {tol: [] for tol in tols}
    for cov in inputs:
        for tol in tols:
            reads[tol].append(_read(cov, tol))
    for tol in tols:
        for got, want in zip(reads[tol], [_read(_on(cov, make()), tol) for cov in inputs]):
            assert type(got) is type(want) and len(got) == len(want)
            if isinstance(got, tuple):
                assert got == want
            else:
                assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))
    if name == "Z8 inner":
        assert [type(reads[tol][-1]) for tol in tols] == [tuple, list]
    kept = {tol: [stab for stab in _kept(act) if stab.tol == tol] for tol in tols}
    assert sum(map(len, kept.values())) == len(_kept(act))
    for tol in tols:
        blocks = [_block_stabilizer(act, k, tol) for k in _orbit_blocks(act)]
        # the sub-records are read at their record's tolerance
        assert all(sub.tol is block.tol for block in blocks for sub in _subs(block))
        assert all(any(stab is block or stab in _subs(block) for block in blocks) for stab in kept[tol])
    held = [_held(kept[tol]) for tol in tols]
    assert all(held) and not held[0] & held[1]
    # a memo is keyed by what it holds alone: its psi or lambda fixes the record
    keys = [{key for stab in kept[tol] for record in stab.records.values() for owner in record[:2]
             for key in owner.__dict__.get("_memo", {})} for tol in tols]
    assert keys[0] == keys[1]
    if not name.startswith("S3"):
        assert keys[0] == {"corner", "fixed_points"}
        return
    cases = {_analyze(cov, 0).case for cov in inputs}
    assert cases & {"TauPair", "EtaTriple"}
    assert ("spectrum" in keys[0]) == ("TauPair" in cases)
    # EtaTriple reads its corner off a sub-record of the 3-cycle subgroup
    assert ("corner" in keys[0]) == ("EtaTriple" in cases)
    if "EtaTriple" in cases:
        assert all(any(_subs(_block_stabilizer(act, k, tol)) for k in _orbit_blocks(act)) for tol in tols)
