import tracemalloc

import numpy as np
import pytest

from crossrep.errors import InvariantViolation, SchemaError
from crossrep.examples import product_cyclic_group
from crossrep.groups import (
    FiniteGroup,
    S3_E,
    S3_ETA,
    S3_ETA2,
    S3_TAU,
    Subgroup,
    character_table,
    is_standard_cyclic,
    make_cyclic_group,
    make_symmetric_group_3,
    right_coset_reps,
    subgroup_closure,
)
from crossrep.reps import Rep, decompose
from crossrep.serialize import group_from_json


def test_trivial_group():
    G = make_cyclic_group(1)
    assert G.order == 1 and G.identity == 0


def test_z2_table():
    G = make_cyclic_group(2)
    assert G.table.tolist() == [[0, 1], [1, 0]]


def test_standard_cyclic_is_the_table_of_make_cyclic_group():
    assert all(is_standard_cyclic(make_cyclic_group(n)) for n in range(1, 7))
    # Z4 with the element of order 2 at index 1 is cyclic, but not standard
    perm = np.array([0, 2, 1, 3])
    z4 = FiniteGroup(perm[make_cyclic_group(4).table[np.ix_(perm, perm)]], identity=0)
    assert z4.cyclic_generator() is not None
    for G in (z4, product_cyclic_group(2), make_symmetric_group_3()):
        assert not is_standard_cyclic(G)


def test_z4_inverse():
    assert make_cyclic_group(4).inv(1) == 3


def test_s3_generator_relations():
    G = make_symmetric_group_3()
    assert G.mul(S3_TAU, S3_TAU) == S3_E
    assert G.power(S3_ETA, 3) == S3_E
    assert G.mul(G.mul(S3_TAU, S3_ETA), S3_TAU) == S3_ETA2


def test_s3_not_abelian_z_cyclic():
    assert not make_symmetric_group_3().is_abelian()
    assert make_cyclic_group(6).cyclic_generator() == 1
    assert make_symmetric_group_3().cyclic_generator() is None


def test_bad_tables_rejected():
    with pytest.raises(InvariantViolation):
        FiniteGroup([[0, 0], [1, 1]])  # not a Latin square
    # Latin square that is not associative (order-5 quasigroup)
    q = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(InvariantViolation):
        FiniteGroup(q)


def test_duplicate_labels_rejected():
    # a covariant representation names its unitaries U[label]
    with pytest.raises(InvariantViolation, match="^group labels must be distinct$"):
        FiniteGroup([[0, 1], [1, 0]], labels=["x", "x"])


@pytest.mark.parametrize("labels", [["x", "x"], "ab", ["a"], ["a", "b", "c"], ["a", 1], [0, 1]])
def test_group_from_json_refuses_labels_that_are_not_distinct_strings(labels):
    doc = {"table": [[0, 1], [1, 0]], "identity": 0, "labels": labels}
    with pytest.raises(SchemaError, match=r"^labels must be a list of 2 distinct strings$"):
        group_from_json(doc)


def test_subgroup_validation():
    G = make_cyclic_group(4)
    with pytest.raises(InvariantViolation):
        Subgroup(G, (0, 1))  # not closed


def test_subgroup_with_inverses_but_not_closed_is_rejected():
    # {0, 1, 3} holds the identity and every inverse, but 1 + 1 = 2 is missing
    with pytest.raises(InvariantViolation, match="not closed"):
        Subgroup(make_cyclic_group(4), (0, 1, 3))
    assert Subgroup(make_cyclic_group(4), (0, 2)).members == (0, 2)


def test_non_associative_loop_with_inverses_is_rejected():
    # a Latin square with identity 0 in which every element is its own
    # inverse; of order 5 it cannot be a group, and row 0 is associative
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvariantViolation, match="not associative"):
        FiniteGroup(loop)


def _direct_product(T1, T2):
    n2 = len(T2)
    return (T1[:, None, :, None] * n2 + T2[None, :, None, :]).reshape(len(T1) * n2, -1)


def _dihedral_4():
    # the symmetries of a square as permutations of its corners, identity first
    r, f = (1, 2, 3, 0), (0, 3, 2, 1)
    perms = [(0, 1, 2, 3)]
    for p in perms:
        for s in (r, f):
            q = tuple(p[s[i]] for i in range(4))
            if q not in perms:
                perms.append(q)
    return np.array([[perms.index(tuple(p[q[i]] for i in range(4))) for q in perms] for p in perms])


def _switched(T, rng):
    """T with two nonzero symbols a, b exchanged along one cycle of their
    cells (row to the b in that row, column to the a in that column) that
    avoids row 0 and column 0, when the drawn one does: again a Latin square
    with identity 0, and the cells holding 0 do not move."""
    n = len(T)
    a, b = (int(v) for v in rng.choice(np.arange(1, n), 2, replace=False))
    x, y = (int(v) for v in rng.choice(np.argwhere(T == a)))
    cycle = []
    while (x, y) not in cycle:
        cycle.append((x, y))
        y = int(np.flatnonzero(T[x] == b)[0])
        cycle.append((x, y))
        x = int(np.flatnonzero(T[:, y] == a)[0])
    if any(0 in cell for cell in cycle):
        return T
    out = T.copy()
    for cell in cycle:
        out[cell] = a + b - T[cell]
    return out


def test_lights_test_refuses_exactly_the_non_associative_loops():
    # loops of order 6-8: group tables with the identity row and column kept
    # and up to three symbol-cycle switches inside them, against the O(n^3)
    # reference (g_x g_y) g_z = g_x (g_y g_z) over every triple
    z = lambda n: np.array(make_cyclic_group(n).table)
    groups = [z(6), np.array(make_symmetric_group_3().table), z(7), z(8), _direct_product(z(2), z(4)),
              _direct_product(z(2), _direct_product(z(2), z(2))), _dihedral_4()]
    rng = np.random.default_rng(0)
    seen = {True: 0, False: 0}
    for _ in range(400):
        T = groups[int(rng.integers(len(groups)))]
        for _ in range(int(rng.integers(4))):
            T = _switched(T, rng)
        associative = np.array_equal(T[T], T[:, T])
        seen[associative] += 1
        if associative:
            assert FiniteGroup(T).order == len(T)
        else:
            with pytest.raises(InvariantViolation, match="not associative"):
                FiniteGroup(T)
    assert min(seen.values()) >= 50, seen


def test_associativity_check_needs_no_cubic_array():
    tracemalloc.start()
    try:
        make_cyclic_group(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an n^3 index array alone is 256^3 * 8 bytes = 134 MB
    assert peak < 16e6


def test_subgroup_closure_eta():
    G = make_symmetric_group_3()
    H = subgroup_closure(G, [S3_ETA])
    assert H.members == (S3_E, S3_ETA, S3_ETA2)
    assert right_coset_reps(H) == [S3_E, S3_TAU]


def test_subgroup_closure_trivial():
    G = make_symmetric_group_3()
    H = subgroup_closure(G, [S3_E])
    assert H.members == (S3_E,)
    assert right_coset_reps(H) == list(range(6))


def test_subgroup_closure_z4():
    G = make_cyclic_group(4)
    H = subgroup_closure(G, [2])
    assert H.members == (0, 2)
    assert right_coset_reps(H) == [0, 1]


@pytest.mark.parametrize(
    "group,gens",
    [
        (make_symmetric_group_3(), [S3_TAU]),
        (make_symmetric_group_3(), [S3_ETA, S3_TAU]),
        (make_cyclic_group(12), [8]),
        (make_cyclic_group(12), [9, 6]),
    ],
)
def test_coset_reps_tile_the_group(group, gens):
    H = subgroup_closure(group, gens)
    reps = right_coset_reps(H)
    assert len(reps) * H.order == group.order
    seen = set()
    for g in reps:
        coset = {group.mul(h, g) for h in H.members}
        assert not (coset & seen)
        seen |= coset
    assert seen == set(range(group.order))
    assert reps[0] == group.identity


def test_subgroup_as_group_regrounds_z2():
    G = make_cyclic_group(4)
    K, members = subgroup_closure(G, [2]).as_group()
    assert members == [0, 2]
    assert K.table.tolist() == [[0, 1], [1, 0]]


def test_character_table_z3_fourier_oracle(tol):
    # oracle: the characters of Z_3 are k -> w^(jk)
    ct = character_table(make_cyclic_group(3), seed=5, tol=tol)
    w = np.exp(2j * np.pi / 3)
    oracle = {tuple(np.round([w ** (j * k) for k in range(3)], 8)) for j in range(3)}
    got = {tuple(np.round(ct.char_vector(r), 8)) for r in range(ct.n_irreps)}
    assert got == oracle


def test_character_table_s3_oracle(tol):
    # hard-coded table: classes {e}, {eta, eta^2}, {tau, eta tau, eta^2 tau}
    ct = character_table(make_symmetric_group_3(), seed=5, tol=tol)
    assert ct.dims == [1, 1, 2]
    assert [c for c in ct.classes] == [(0,), (1, 2), (3, 4, 5)]
    oracle = {(1, 1, 1), (1, 1, -1), (2, -1, 0)}
    got = {
        tuple(int(round(z.real)) for z in ct.chars[r])
        for r in range(ct.n_irreps)
    }
    assert got == oracle
    assert np.max(np.abs(ct.chars.imag)) < 1e-8


def test_character_table_trivial_group(tol):
    ct = character_table(make_cyclic_group(1), seed=0, tol=tol)
    assert ct.dims == [1]
    assert abs(ct.chars[0, 0] - 1) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("seed", [0, 99])
def test_character_table_invariants_cyclic(n, seed, tol):
    ct = character_table(make_cyclic_group(n), seed=seed, tol=tol)
    ct.validate(1e-8)
    assert sorted(ct.dims) == [1] * n


@pytest.mark.parametrize("seed", [0, 99])
def test_character_table_invariants_s3(seed, tol):
    character_table(make_symmetric_group_3(), seed=seed, tol=tol).validate(1e-8)


def test_character_table_seed_independent_content(tol):
    a = character_table(make_symmetric_group_3(), seed=1, tol=tol)
    b = character_table(make_symmetric_group_3(), seed=2, tol=tol)
    assert np.allclose(a.chars, b.chars, atol=1e-7)


@pytest.mark.parametrize(
    "G",
    [make_cyclic_group(8), make_symmetric_group_3(), product_cyclic_group(2), product_cyclic_group(3),
     make_cyclic_group(12), product_cyclic_group(4)],
    ids=["Z8", "S3", "Z2xZ2", "Z3xZ3", "Z12", "Z4xZ4"],
)
def test_character_table_at_two_seeds_agrees_to_rounding(G, tol):
    a, b = character_table(G, seed=0, tol=tol), character_table(G, seed=7, tol=tol)
    assert a.dims == b.dims
    assert np.max(np.abs(a.chars - b.chars)) < 1e-12
    # the rows come in the order of the irreducibles, which is the order of
    # (dimension, characters over the classes) on the rank_eps grid
    grid = np.rint(a.chars / tol.rank_eps)
    keys = [(d, *np.column_stack([row.real, row.imag]).ravel()) for d, row in zip(a.dims, grid)]
    assert keys == sorted(keys)


def test_character_table_row_orthogonality_values(tol):
    # explicit statement: sum_r chi_r(g) conj(chi_r(h)) = |G|/C(g) on a class
    ct = character_table(make_symmetric_group_3(), seed=3, tol=tol)
    G = ct.group
    for g in range(6):
        for h in range(6):
            s = sum(ct.value(r, g) * np.conj(ct.value(r, h)) for r in range(3))
            same = ct.class_of[g] == ct.class_of[h]
            want = 6 / len(ct.classes[ct.class_of[g]]) if same else 0.0
            assert abs(s - want) < 1e-8


def test_validate_rejects_corrupted_table(tol):
    ct = character_table(make_symmetric_group_3(), seed=3, tol=tol)
    ct.chars = ct.chars.copy()
    ct.chars[0, 1] += 0.5
    with pytest.raises(InvariantViolation):
        ct.validate(1e-8)


def _left_regular_characters(G, seed, tol):
    """(dim, multiplicity, per-element character) of every component of the
    left regular representation as a plain Rep, decomposed by the
    intertwiner solve."""
    n = G.order
    gens = {}
    for g in range(n):
        M = np.zeros((n, n), dtype=complex)
        for j in range(n):
            M[G.mul(g, j), j] = 1.0
        gens[G.labels[g]] = M
    dec = decompose(Rep(n, gens), seed, tol)
    return [
        (irrep.dim, mult, np.array([np.trace(irrep.gens[G.labels[g]]) for g in range(n)]))
        for irrep, mult in dec.components
    ]


@pytest.mark.parametrize(
    "G",
    [make_cyclic_group(4), make_cyclic_group(8), make_symmetric_group_3(),
     product_cyclic_group(2), product_cyclic_group(3)],
    ids=["Z4", "Z8", "S3", "Z2xZ2", "Z3xZ3"],
)
@pytest.mark.parametrize("seed", [0, 99])
def test_character_table_matches_left_regular_reference(G, seed, tol):
    reference = _left_regular_characters(G, seed, tol)
    ct = character_table(G, seed=seed, tol=tol)
    assert all(mult == dim for dim, mult, _ in reference)
    assert sorted(dim for dim, _, _ in reference) == ct.dims
    rows = [ct.char_vector(r) for r in range(ct.n_irreps)]
    for _, _, chi in reference:
        assert sum(np.max(np.abs(row - chi)) < 1e-8 for row in rows) == 1
