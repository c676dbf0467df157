"""The blocked split of the twisted regular representation against two
references.

``reps._projective_irreps`` checks the 2-cocycle identity over blocks of
rows, splits the whole space once along Y + Y* for a fixed element
Y = sum_b z_b R_b of the span of the right translations, then splits the
leaves that are still reducible along the compressions of single R_b,
round by round, and gathers and checks the leaves of a round over blocks
of leaves of one width.  The first reference, ``_loop_split``, is the same
split written as one pass per row a, Y built one row at a time, one gather
per leaf and one row at a time for each R_b Q.  On every input both must
agree:

- where the identity fails, both name the same first pair (a, h) with the
  same residual, since blocks of rows keep the row-major order;
- where exactly one leaf's range is not invariant, both name the same
  element with the same residual, wherever that leaf sits in its block;
- otherwise both return the same classes in the same order, their
  matrices within 1e-12.

Where several leaves fail, the leaf named may differ: the blocked code
checks every leaf's invariance before any leaf's dim End, in width order,
and the loop checks each leaf in turn.  Such inputs are only required to
be refused.

The second reference, ``_random_split``, is the split this one replaced:
along the eigenspaces of a random element of L's commutant drawn from a
seed, reducible leaves refined by ``reps._pieces``.  It shares no split
code with the first, so it is an independent check that the classes are
the same, by character within 1e-12 and in the same order, and that the
identity check refuses the same inputs with the same message.
"""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crossrep.reps
from crossrep.errors import DecompositionFailed, InvariantViolation
from crossrep.examples import product_cyclic_group
from crossrep.groups import FiniteGroup, make_cyclic_group, make_symmetric_group_3
from crossrep.linalg import DEFAULT_TOL, Tolerance, _require
from crossrep.reps import (ProjectiveRep, _block, _blocks, _character_dim, _character_dims, _hom, _pieces,
                           _projective_irreps, _sum_dim)

TOL = DEFAULT_TOL


def _z2_z4() -> FiniteGroup:
    a, b = np.divmod(np.arange(8), 4)
    return FiniteGroup((a[:, None] + a) % 2 * 4 + (b[:, None] + b) % 4, identity=0)


GROUPS = {
    "Z5": lambda: make_cyclic_group(5),
    "Z8": lambda: make_cyclic_group(8),
    "Z12": lambda: make_cyclic_group(12),
    "S3": make_symmetric_group_3,
    "Z3xZ3": lambda: product_cyclic_group(3),
    "Z2xZ4": _z2_z4,
    # 4 rows and 4 leaves a block: the path with more than one block
    "Z64": lambda: make_cyclic_group(64),
}


def _weyl(q):
    a, b = np.divmod(np.arange(q * q), q)
    return np.exp(2j * np.pi / q) ** np.outer(b, a)


def _row_identity(K, c, tol):
    """The 2-cocycle identity of c, one pass per row a."""
    n = K.order
    for a, row in enumerate(K.table):
        defects = np.abs(c[a][:, None] * c[row] - c * c[a][K.table])
        _require(np.linalg.norm(defects, axis=1), tol.identity_bound(np.sqrt(n)),
                 f"matrices are not scalar multiples of each other at pair ({a},{{}})")


def _classes_of(K, leaves, tol):
    """One leaf per class, in the order of the dimension and then the
    character on the ``rank_eps`` grid."""
    chi = np.array([np.trace(mats, axis1=1, axis2=2) for mats in leaves])
    means = chi.conj() @ chi.T / K.order
    dims, bounds = _character_dims(means, np.abs(chi) @ np.abs(chi).T / K.order, tol)
    kept, table = [], dims.tolist()
    for i in range(len(leaves)):
        first = next((j for j in kept if table[j][i] in (1, -1)), None)
        if first is None:
            kept.append(i)
        elif table[first][i] < 0:
            _sum_dim(means[first, i], bounds[first, i])

    def key(mats):
        x = np.trace(mats, axis1=1, axis2=2) / tol.rank_eps
        return len(mats[0]), *np.rint(np.column_stack([x.real, x.imag])).ravel().tolist()

    return sorted((leaves[i] for i in kept), key=key)


def _gather(K, c, Q):
    """lambda_a = Q* L_a Q, one row a at a time: (L_a Q)[ax] = c(a, x) Q[x]."""
    n = K.order
    LQ = np.zeros((n, n, Q.shape[1]), dtype=complex)
    for a in range(n):
        LQ[a, K.table[a]] = c[a][:, None] * Q
    return LQ, Q.conj().T @ LQ


def _loop_children(K, c, Q, b, tol):
    """The children of leaf Q at the first right translation from b on that
    splits it, R_b Q one row y = x b at a time; R_e is a scalar."""
    n = K.order
    for b in range(b, n):
        if b == K.identity:
            continue
        RQ = np.empty_like(Q)
        for y in range(n):
            x = K.table[y, K.inverse[b]]
            RQ[y] = c[x, b] * Q[x]
        M = Q.conj().T @ RQ
        for H in (M + M.conj().T, 1j * (M - M.conj().T)):
            clusters = crossrep.reps._eigen_clusters(H, tol)
            if clusters is not None:
                return [(Q @ V, b) for V in clusters]
    raise DecompositionFailed(f"a reducible split leaf of width {Q.shape[1]} is split by no right translation")


def _loop_first_split(K, c, tol):
    """The leaves of the first split, along Y + Y* for Y = sum_b z_b R_b,
    z_b = exp(2 pi i frac(b phi)) with phi the golden ratio, Y built one
    row y at a time: (R_b)[y, y b^-1] = c(y b^-1, b) over the b != e.  The
    whole space when Y + Y* is one cluster."""
    n, phi = K.order, (1 + np.sqrt(5)) / 2
    b = np.array([b for b in range(n) if b != K.identity], dtype=int)
    z = np.exp(2j * np.pi * (b * phi % 1))
    Y = np.zeros((n, n), dtype=complex)
    for y in range(n):
        x = K.table[y, K.inverse[b]]
        Y[y, x] = z * c[x, b]
    clusters = crossrep.reps._eigen_clusters(Y + Y.conj().T, tol)
    return [(Q, 0) for Q in clusters] if clusters is not None else [(np.eye(n, dtype=complex), 0)]


def _loop_split(K, c, tol):
    """``_projective_irreps`` as one pass per row, a first split built one
    row at a time, one gather per leaf and one row at a time for each right
    translation."""
    n = K.order
    _row_identity(K, c, tol)
    pending, leaves = _loop_first_split(K, c, tol), []
    while pending:
        # the leaves of a round narrow enough to gather, in width order
        lams = {}
        for i in sorted(range(len(pending)), key=lambda i: pending[i][0].shape[1]):
            Q = pending[i][0]
            if Q.shape[1] ** 2 > n:
                continue
            LQ, lam = _gather(K, c, Q)
            _require(np.linalg.norm(LQ - Q @ lam, axis=(1, 2)), tol.identity_bound(np.sqrt(Q.shape[1])),
                     "split leaf is not invariant under L at element {}")
            lams[i] = lam
        ends = {i: _character_dim(np.abs(np.trace(lams[i], axis1=1, axis2=2)) ** 2, tol) for i in sorted(lams)}
        children = []
        for i, (Q, b) in enumerate(pending):
            if ends.get(i) == 1:
                leaves.append(lams[i])
            else:
                children += _loop_children(K, c, Q, b, tol)
        pending = children
    return [ProjectiveRep(K, mats, c.conj()) for mats in _classes_of(K, leaves, tol)]


def _random_split(K, c, seed, tol):
    """The seeded split along a random element Y = sum_b z_b R_b of L's
    commutant, reseeded while a cluster is wider than sqrt|K|, its
    reducible leaves refined by ``reps._pieces``."""
    n = K.order
    _row_identity(K, c, tol)
    source = K.table[K.inverse]
    weights = np.take_along_axis(c, source, axis=1)
    for attempt in range(5):
        rng = np.random.default_rng(seed + attempt)
        YT = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[source] * weights
        clusters = crossrep.reps._eigen_clusters(YT.T + YT.conj(), tol) or [np.eye(n)]
        if all(Q.shape[1] ** 2 <= n for Q in clusters):
            break
    else:
        raise DecompositionFailed("a split cluster is wider than sqrt|K| after 5 reseeded retries: too large to gather")
    leaves = []
    for Q in clusters:
        LQ = weights[..., None] * Q[source]
        lam = Q.conj().T @ LQ
        _require(np.linalg.norm(LQ - Q @ lam, axis=(1, 2)), tol.identity_bound(np.sqrt(Q.shape[1])),
                 "split leaf is not invariant under L at element {}")
        if _character_dim(np.abs(np.trace(lam, axis1=1, axis2=2)) ** 2, tol) == 1:
            leaves.append(lam)
        else:
            leaf = ProjectiveRep(K, lam, c.conj())
            leaves += [piece.mats for piece, _ in _pieces(leaf, _hom(leaf, leaf, tol), tol)]
    return [ProjectiveRep(K, mats, c.conj()) for mats in _classes_of(K, leaves, tol)]


def _outcome(split, *args):
    try:
        return split(*args), None
    except (InvariantViolation, DecompositionFailed) as err:
        return None, f"{type(err).__name__}: {err}"


def _assert_same(K, c, tol=TOL, several=False):
    """The blocked split and the loop refuse with one message, or return
    the same classes.  With ``several`` leaves not invariant, each may name
    a different one."""
    ref, ref_error = _outcome(_loop_split, K, c, tol)
    new, new_error = _outcome(_projective_irreps, K, c, tol)
    if new_error != ref_error:
        assert "not invariant under L" in str(ref_error) and "not invariant under L" in str(new_error)
        assert several, (ref_error, new_error)
        return ref_error
    if ref_error is None:
        assert [r.dim for r in new] == [r.dim for r in ref]
        for a, b in zip(new, ref):
            np.testing.assert_allclose(a.mats, b.mats, rtol=0, atol=1e-12)
    return ref_error


def _cocycle(K, kind, rng):
    """A 2-cocycle of K: trivial, a coboundary mu_a mu_b / mu_ab, or the
    Weyl cocycle of Z3 x Z3, whose one class has dimension 3."""
    if kind == "weyl":
        return _weyl(3)
    if kind == "trivial":
        return np.ones((K.order, K.order), dtype=complex)
    mu = np.exp(2j * np.pi * rng.random(K.order))
    return mu[:, None] * mu[None, :] / mu[K.table]


CASES = [(g, kind) for g in GROUPS for kind in ("trivial", "coboundary")] + [("Z3xZ3", "weyl")]


@pytest.mark.parametrize("group, kind", CASES)
@pytest.mark.parametrize("eig_sep", [1e-6, 0.5])
def test_the_blocked_split_returns_what_the_loops_return(group, kind, eig_sep):
    # at eig_sep 0.5 inequivalent classes share clusters, so gathered
    # leaves of dim End > 1 are split again
    K = GROUPS[group]()
    assert _assert_same(K, _cocycle(K, kind, np.random.default_rng(7)), Tolerance(eig_sep=eig_sep)) is None


@pytest.mark.parametrize("group, kind", CASES)
@pytest.mark.parametrize("seed", [0, 7])
def test_the_split_finds_the_classes_of_the_random_split_in_its_order(group, kind, seed):
    K = GROUPS[group]()
    c = _cocycle(K, kind, np.random.default_rng(seed))
    new, ref = _projective_irreps(K, c, TOL), _random_split(K, c, seed, TOL)
    assert [r.dim for r in new] == [r.dim for r in ref]
    for a, b in zip(new, ref):
        np.testing.assert_allclose(np.trace(a.mats, axis1=1, axis2=2), np.trace(b.mats, axis1=1, axis2=2),
                                   rtol=0, atol=1e-12)
        assert np.array_equal(a.cocycle, b.cocycle)


@pytest.mark.parametrize("group, kind", CASES)
@pytest.mark.parametrize("corrupt", ["far", "near"])
def test_a_broken_cocycle_is_named_at_the_pair_the_row_loop_names(group, kind, corrupt):
    # one entry off by a phase breaks the identity at several pairs, far
    # past the bound or within a factor of a few of it
    K = GROUPS[group]()
    rng = np.random.default_rng([K.order, len(kind)])
    for _ in range(4):
        c = _cocycle(K, kind, rng)
        a, b = rng.integers(K.order, size=2)
        c[a, b] *= np.exp(1j * (rng.uniform(0.1, 6.0) if corrupt == "far" else 10 ** rng.uniform(-7, -5)))
        error = _assert_same(K, c)
        if corrupt == "far":
            assert "scalar multiples of each other at pair" in error
        if error is not None and "scalar multiples" in error:
            # the random split refuses it at its own row loop, with the same message
            assert _outcome(_random_split, K, c, 0, TOL)[1] == error


def _rotate(picks):
    """An ``_eigen_clusters`` that, at the split of the whole space, mixes
    column 0 of the next cluster into column 0 of each picked cluster,
    (w, k) picking the k-th last cluster of width w: an orthonormal frame
    whose range is no longer invariant, one failing leaf per pick."""
    eigen_clusters = crossrep.reps._eigen_clusters
    done = []

    def rotated(H, tol):
        clusters = eigen_clusters(H, tol)
        if clusters is None or done:
            return clusters
        done.append(True)
        clusters = [Q.copy() for Q in clusters]
        widths = [Q.shape[1] for Q in clusters]
        for w, back in picks:
            i = [j for j, width in enumerate(widths) if width == w][-1 - back]
            other = clusters[(i + 1) % len(clusters)][:, 0]
            clusters[i][:, 0] = (clusters[i][:, 0] + other) / np.sqrt(2)
        return clusters

    return rotated


@pytest.mark.parametrize(
    "group, kind, pick",
    [
        # a failing leaf in the middle of the one block of eight width-1
        # leaves, and the first of them
        ("Z8", "trivial", (1, 4)),
        ("Z8", "trivial", (1, 7)),
        ("Z12", "coboundary", (1, 5)),
        ("Z2xZ4", "coboundary", (1, 2)),
        ("Z5", "trivial", (1, 0)),
        # the last width-2 leaf of S3, checked after the block of its two
        # width-1 leaves, and the first of those
        ("S3", "trivial", (2, 0)),
        ("S3", "coboundary", (1, 1)),
        ("Z3xZ3", "weyl", (3, 0)),
        # the second leaf of the fifth of 16 blocks of width-1 leaves, and the
        # last leaf of all
        ("Z64", "trivial", (1, 46)),
        ("Z64", "coboundary", (1, 0)),
    ],
)
def test_one_leaf_that_is_not_invariant_is_named_as_the_leaf_loop_names_it(monkeypatch, group, kind, pick):
    K = GROUPS[group]()
    c = _cocycle(K, kind, np.random.default_rng(1))
    # each split gets a fresh hook, so each rotates its own split of the whole space
    monkeypatch.setattr(crossrep.reps, "_eigen_clusters", _rotate([pick]))
    ref, ref_error = _outcome(_loop_split, K, c, TOL)
    monkeypatch.setattr(crossrep.reps, "_eigen_clusters", _rotate([pick]))
    new, new_error = _outcome(_projective_irreps, K, c, TOL)
    assert "not invariant under L at element" in ref_error
    assert new_error == ref_error


@pytest.mark.parametrize(
    "group, kind, widths",
    [("Z8", "trivial", [1] * 8), ("Z12", "coboundary", [1] * 12), ("Z2xZ4", "coboundary", [1] * 8),
     ("Z5", "trivial", [1] * 5), ("S3", "trivial", [1, 1, 2, 2]), ("S3", "coboundary", [1, 1, 2, 2]),
     ("Z3xZ3", "weyl", [3, 3, 3]), ("Z64", "trivial", [1] * 64), ("Z64", "coboundary", [1] * 64)],
)
def test_the_rotated_leaves_above_sit_where_their_cases_say(monkeypatch, group, kind, widths):
    # the cluster widths of the split of the whole space and the blocks
    # that the single-leaf cases rely on: one block of each width below
    # |K| = 64, and blocks of four leaves at 64
    K, seen = GROUPS[group](), []
    eigen_clusters = crossrep.reps._eigen_clusters

    def record(H, tol):
        clusters = eigen_clusters(H, tol)
        if clusters is not None and not seen:
            seen.append(sorted(Q.shape[1] for Q in clusters))
        return clusters

    monkeypatch.setattr(crossrep.reps, "_eigen_clusters", record)
    _projective_irreps(K, _cocycle(K, kind, np.random.default_rng(1)), TOL)
    assert seen == [widths]
    for w in set(widths):
        count = widths.count(w)
        blocks = _blocks(count, K.order)
        assert blocks == ([slice(s, min(s + 4, count)) for s in range(0, count, 4)] if K.order == 64
                          else [slice(0, count)])


def test_a_block_of_one_item_is_read_without_a_leading_axis():
    # every block is a slice; from |K| = 128 on each holds one item
    assert _blocks(3, 128) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert _blocks(5, 64) == [slice(0, 4), slice(4, 5)]
    a = np.arange(12).reshape(3, 4)
    assert _block(a, slice(1, 2)).shape == (4,)
    assert _block(a, slice(0, 2)).shape == (2, 4)


def test_character_keys_of_a_strided_stack_are_the_keys_of_its_rows():
    # a Fortran-ordered stack, whose rows are not contiguous, against the per-row
    # (real, imaginary) pairs of the reference's key
    chi = 1.5 * np.exp(2j * np.pi * np.arange(24).reshape(6, 4) / 7).T
    want = []
    for dim, row in zip([1, 1, 2, 2], chi / TOL.rank_eps):
        want.append((dim, *np.rint(np.column_stack([row.real, row.imag])).ravel().tolist()))
    assert crossrep.reps._character_keys([1, 1, 2, 2], chi, TOL) == want


@pytest.mark.parametrize(
    "group, picks",
    [("Z8", [(1, 0), (1, 1)]), ("S3", [(2, 0), (1, 0)]), ("Z64", [(1, 0), (1, 30)])],
)
def test_several_failing_leaves_are_refused(monkeypatch, group, picks):
    K = GROUPS[group]()
    monkeypatch.setattr(crossrep.reps, "_eigen_clusters", _rotate(picks))
    with pytest.raises(InvariantViolation, match="not invariant under L at element"):
        _projective_irreps(K, np.ones((K.order, K.order)), TOL)


@pytest.mark.parametrize("n", [128, 256])
def test_the_blocks_keep_the_split_within_32_n_squared_entries(n):
    # one row and one leaf a block from |K| = 128 on: the largest arrays are
    # (|K|, |K|), never a block of |K|^3 entries (32 MiB of gathers at 128)
    K, c = make_cyclic_group(n), np.ones((n, n))
    tracemalloc.start()
    try:
        irreps = _projective_irreps(K, c, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(irreps) == n
    assert peak <= 32 * n * n * 16, f"peak {peak / 2**20:.2f} MiB"


def _dihedral(m) -> FiniteGroup:
    """The dihedral group of order 2m, r^k s^e at index e m + k."""
    e, k = np.divmod(np.arange(2 * m), m)
    return FiniteGroup((e[:, None] + e) % 2 * m + (k[:, None] + np.where(e[:, None] == 0, k, -k)) % m, identity=0)


def _ladder_s3_inner():
    """(K, c_V) of the stabilizers of the S3-inner actions of the benchmark
    ladder at seed 0, read from its numpy-only input module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_split_ladder_inputs", path)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    out = {}
    for a in inputs.enumerate_actions(0, extra=True):
        if a.name.startswith("S3-inner"):
            act = inputs.to_action(a)
            for k in crossrep.reps._orbit_blocks(act):
                stab = crossrep.reps._block_stabilizer(act, k, TOL)
                out[f"{a.name} block {k}"] = (stab.restriction.action.group, stab.cocycle)
    return out


S3_INNER = _ladder_s3_inner()


def _trivial(K):
    return K, np.ones((K.order, K.order), dtype=complex)


ONE_SPLIT = {
    "D4": lambda: _trivial(_dihedral(4)),
    "D32": lambda: _trivial(_dihedral(32)),
    "S3": lambda: _trivial(make_symmetric_group_3()),
    "Z3xZ3 weyl": lambda: (product_cyclic_group(3), _weyl(3)),
    "Z8xZ8 weyl": lambda: (product_cyclic_group(8), _weyl(8)),
}


def _counted(monkeypatch):
    """The H of every call of ``_eigen_clusters`` from here on."""
    calls, eigen_clusters = [], crossrep.reps._eigen_clusters

    def counted(H, tol):
        calls.append(H)
        return eigen_clusters(H, tol)

    monkeypatch.setattr(crossrep.reps, "_eigen_clusters", counted)
    return calls


def test_the_ladder_has_four_s3_inner_stabilizers():
    assert len(S3_INNER) == 4 and all(K.order == 6 for K, _ in S3_INNER.values())


@pytest.mark.parametrize("name", [*ONE_SPLIT, *S3_INNER])
def test_the_first_split_is_the_only_eigensolve(monkeypatch, name):
    # the fixed element Y + Y* leaves no reducible leaf at the default
    # tolerance, so no right translation is tried
    K, c = ONE_SPLIT[name]() if name in ONE_SPLIT else S3_INNER[name]
    calls = _counted(monkeypatch)
    irreps = _projective_irreps(K, c, TOL)
    assert [H.shape for H in calls] == [(K.order, K.order)]
    assert sum(lam.dim ** 2 for lam in irreps) == K.order


def _assert_same_characters(got, want):
    """The same classes in the same order, by character within 1e-12."""
    assert [lam.dim for lam in got] == [lam.dim for lam in want]
    for a, b in zip(got, want):
        np.testing.assert_allclose(np.trace(a.mats, axis1=1, axis2=2), np.trace(b.mats, axis1=1, axis2=2),
                                   rtol=0, atol=1e-12)
        assert np.array_equal(a.cocycle, b.cocycle)


@pytest.mark.parametrize("m", [16, 32])
def test_a_coarse_eig_sep_splits_again_along_the_translations_to_the_same_classes(monkeypatch, m):
    # at eig_sep 0.5 classes share clusters of Y + Y*, and the leaves that
    # are still reducible are split along single right translations
    K, c = _trivial(_dihedral(m))
    want = _projective_irreps(K, c, TOL)
    calls = _counted(monkeypatch)
    _assert_same_characters(_projective_irreps(K, c, Tolerance(eig_sep=0.5)), want)
    assert len(calls) > 1


@pytest.mark.parametrize("name", ["D4", "D32", "S3", "S3 coboundary", "Z2xZ4 coboundary", "Z3xZ3 weyl"])
def test_the_translations_alone_find_the_classes_when_the_first_split_splits_nothing(monkeypatch, name):
    # a first split that returns the whole space as one cluster: the
    # translations then split everything from the whole space down, which
    # shows that the fallback is complete on its own
    if name in ONE_SPLIT:
        K, c = ONE_SPLIT[name]()
    else:
        group, kind = name.split()
        K = GROUPS[group]()
        c = _cocycle(K, kind, np.random.default_rng(3))
    want = _projective_irreps(K, c, TOL)
    calls, eigen_clusters = [], crossrep.reps._eigen_clusters

    def whole_first(H, tol):
        calls.append(H)
        return None if len(calls) == 1 else eigen_clusters(H, tol)

    monkeypatch.setattr(crossrep.reps, "_eigen_clusters", whole_first)
    _assert_same_characters(_projective_irreps(K, c, TOL), want)
    assert len(calls) > 1
