import tracemalloc

import numpy as np
import pytest

from crossrep.errors import DimensionMismatch, InvariantViolation, NotFactorable, NotUnitary
from crossrep.linalg import (
    _cluster_unit_circle,
    Tolerance,
    _require,
    block_diag,
    nullspace,
    orthonormal_span,
    phase_normalize,
    random_unitary,
    scalar_quotient,
    solve_sylvester_family,
    unitary_eigenspaces,
)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=-1.0)
    with pytest.raises(ValueError):
        Tolerance(abs_eps=1e-3, eig_sep=1e-6)
    # non-finite values, abs_eps >= 1 and rank_eps >= 1/2 decide nothing
    inf, nan = float("inf"), float("nan")
    for kwargs in ({"abs_eps": nan}, {"rank_eps": nan}, {"eig_sep": nan}, {"rank_eps": inf}, {"eig_sep": inf},
                   {"abs_eps": inf, "eig_sep": inf}, {"rank_eps": 0.5}, {"rank_eps": 1e300},
                   {"abs_eps": 1.0, "eig_sep": 2.0}, {"abs_eps": 1e200, "eig_sep": 1e300}):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)
    # the edges of the domain, and the largest values the tests use
    for kwargs in ({"rank_eps": 0.4999}, {"abs_eps": 0.999, "eig_sep": 1.0}, {"abs_eps": 0.5, "eig_sep": 1.0},
                   {"eig_sep": 1e6}, {"eig_sep": 1e300}, {"abs_eps": 1e-7, "rank_eps": 1e-6, "eig_sep": 1e-4}):
        Tolerance(**kwargs)


def test_nullspace_identity_is_trivial(tol):
    assert nullspace(np.eye(3), tol) == []


def test_nullspace_zero_matrix_is_everything(tol):
    basis = nullspace(np.zeros((2, 2)), tol)
    assert len(basis) == 2
    G = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.allclose(G, np.eye(2))


def test_orthonormal_span_treats_a_family_within_abs_eps_as_zero(tol):
    # the zero rule of nullspace: the span used to keep one direction here
    assert orthonormal_span([1e-12 * np.eye(2)], tol) == []
    assert len(nullspace(1e-12 * np.eye(2), tol)) == 2
    assert len(orthonormal_span([1e-6 * np.eye(2), 2e-6 * np.eye(2)], tol)) == 1


def test_nullspace_rank_one(tol):
    # [[1,1],[1,1]] v = 0 has the single solution line through (1,-1)/sqrt(2)
    basis = nullspace([[1, 1], [1, 1]], tol)
    assert len(basis) == 1
    v = basis[0]
    assert abs(abs(np.vdot(v, np.array([1, -1]) / np.sqrt(2))) - 1) < 1e-12


def test_nullspace_of_a_tall_matrix_allocates_no_left_factor(rng, tol):
    # a 4000 x 4000 complex U would take 256 MB, 40x the input
    tall = rng.standard_normal((4000, 90)) + 1j * rng.standard_normal((4000, 90))
    M = tall @ rng.standard_normal((90, 100))  # rank 90
    tracemalloc.start()
    try:
        basis = nullspace(M, tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * M.nbytes
    assert len(basis) == 10
    assert max(np.linalg.norm(M @ v) for v in basis) < 1e-9 * np.linalg.norm(M)


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (2, 6)])
def test_nullspace_adjoint_dimension_count(shape, rng, tol):
    rows, cols = shape
    # force some rank deficiency via a low-rank factor
    r = min(rows, cols) - 1
    M = (rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))) @ (
        rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))
    )
    n1 = len(nullspace(M, tol))
    n2 = len(nullspace(M.conj().T, tol))
    assert n1 - n2 == cols - rows


def test_nullspace_residual_bound(rng, tol):
    M = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    for v in nullspace(M, tol):
        assert np.linalg.norm(M @ v) <= tol.abs_eps * np.linalg.norm(M)


def test_block_diag_places_rectangular_blocks():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3j], [4.0]])
    want = np.array([[1, 2, 0], [0, 0, 3j], [0, 0, 4]], dtype=complex)
    got = block_diag(a, b)
    assert got.dtype == complex and np.array_equal(got, want)
    assert block_diag().shape == (0, 0)


def test_unitary_eigenspaces_diagonal(tol):
    es = unitary_eigenspaces(np.diag([1.0, -1.0]), tol)
    assert len(es) == 2
    vals = sorted(np.round(v.real) for v, _ in es)
    assert vals == [-1, 1]
    for _, iso in es:
        assert iso.shape == (2, 1)


def test_unitary_eigenspaces_identity_single_cluster(tol):
    es = unitary_eigenspaces(np.eye(4), tol)
    assert len(es) == 1
    val, iso = es[0]
    assert abs(val - 1) < 1e-12 and iso.shape == (4, 4)


def test_unitary_eigenspaces_cyclic_shift(tol):
    # Fourier oracle: F* S F is diagonal with the cube roots of unity
    S = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        S[i, (i + 1) % 3] = 1
    w = np.exp(2j * np.pi / 3)
    F = np.array([[w ** (i * k) for k in range(3)] for i in range(3)]) / np.sqrt(3)
    oracle = sorted(np.round(np.angle(np.diag(F.conj().T @ S @ F)), 9))
    es = unitary_eigenspaces(S, tol)
    got = sorted(np.round(np.angle(v), 9) for v, _ in es)
    assert np.allclose(got, oracle)


def test_unitary_eigenspaces_merges_close_values():
    tol = Tolerance(eig_sep=1e-3)
    U = np.diag([1.0, np.exp(1e-4j), np.exp(1j)])
    es = unitary_eigenspaces(U, tol)
    assert sorted(iso.shape[1] for _, iso in es) == [1, 2]


def _loop_clusters(eigs, gap):
    """The one-index-at-a-time loop that _cluster_unit_circle replaced, kept as its reference."""
    angles = np.mod(np.angle(eigs), 2 * np.pi)
    clusters = []
    for idx in np.argsort(angles, kind="stable"):
        if clusters and angles[idx] - angles[clusters[-1][-1]] < gap:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    if len(clusters) > 1:
        first, last = clusters[0], clusters[-1]
        if angles[first[0]] + 2 * np.pi - angles[last[-1]] < gap:
            clusters[0] = last + first
            clusters.pop()
    return clusters


@pytest.mark.parametrize("seed", range(30))
def test_cluster_unit_circle_matches_the_loop_reference(seed):
    rng = np.random.default_rng(seed)
    gap = 10.0 ** rng.uniform(-4, -1)
    # clusters of spread about a gap around random centres and around angle 0,
    # with -gap/4 and gap/4 (the last two) one cluster across the wrap
    centres = np.append(0.0, rng.uniform(-np.pi, np.pi, rng.integers(1, 6)))
    angles = np.concatenate([c + gap * rng.uniform(-2, 2, rng.integers(1, 5)) for c in centres] + [[-gap / 4, gap / 4]])
    eigs = np.exp(1j * angles)
    got = _cluster_unit_circle(eigs, gap)
    assert got == _loop_clusters(eigs, gap)
    assert all(type(i) is int for cluster in got for i in cluster)
    assert any({len(angles) - 2, len(angles) - 1} <= set(cluster) for cluster in got)


def test_unitary_eigenspaces_wraparound_cluster():
    tol = Tolerance(eig_sep=1e-3)
    U = np.diag([np.exp(-5e-5j), np.exp(5e-5j), 1j])
    es = unitary_eigenspaces(U, tol)
    assert sorted(iso.shape[1] for _, iso in es) == [1, 2]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_unitary_eigenspaces_reassembly(n, rng, tol):
    U = random_unitary(n, rng)
    acc = sum(v * (iso @ iso.conj().T) for v, iso in unitary_eigenspaces(U, tol))
    assert np.linalg.norm(acc - U) < 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_unitary_eigenspaces_fix_the_phase_of_one_dimensional_eigenspaces(seed, tol):
    # simple eigenvalues next to a repeated one, and a perturbation of V by
    # exp(i 1e-15 H) that no eigenvalue gap notices
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    angles = np.append(rng.uniform(-np.pi, np.pi, size=n - 2), [0.5, 0.5])
    W = random_unitary(n, rng)
    V = W @ np.diag(np.exp(1j * angles)) @ W.conj().T
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    evals, Q = np.linalg.eigh((Z + Z.conj().T) / 2)
    nearby = V @ Q @ np.diag(np.exp(1e-15j * evals)) @ Q.conj().T
    spaces, moved = unitary_eigenspaces(V, tol), unitary_eigenspaces(nearby, tol)
    assert [iso.shape for _, iso in spaces] == [iso.shape for _, iso in moved]
    columns = [(iso, other) for (_, iso), (_, other) in zip(spaces, moved) if iso.shape[1] == 1]
    assert len(columns) == n - 2
    for iso, other in columns:
        moduli = np.abs(iso[:, 0])
        pivot = iso[int(np.argmax(moduli >= (1 - tol.rank_eps) * moduli.max())), 0]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-15 * abs(pivot)
        assert np.abs(iso - other).max() < 1e-12


def test_unitary_eigenspaces_rejects_nonunitary(tol):
    with pytest.raises(NotUnitary):
        unitary_eigenspaces(np.array([[1.0, 1.0], [0.0, 1.0]]), tol)


def test_sylvester_scalar_pair(tol):
    basis = solve_sylvester_family([(np.array([[2.0]]), np.array([[2.0]]))], tol=tol)
    assert len(basis) == 1
    assert abs(abs(basis[0][0, 0]) - 1) < 1e-12


def test_sylvester_pauli_pair_brute_force(tol):
    # oracle: enumerate T over the matrix-unit basis and row-reduce the
    # constraint T sz = sx T; the 4x4 system has rank 2, so dim = 2
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    rows = []
    for a in range(2):
        for b in range(2):
            T = np.zeros((2, 2), dtype=complex)
            T[a, b] = 1
            rows.append((T @ sz - sx @ T).reshape(-1))
    oracle_dim = 4 - np.linalg.matrix_rank(np.array(rows).T)
    assert oracle_dim == 2
    basis = solve_sylvester_family([(sx, sz)], tol=tol)
    assert len(basis) == oracle_dim
    for T in basis:
        assert np.linalg.norm(T @ sz - sx @ T) < 1e-9


def test_sylvester_empty_family_needs_dims(tol):
    with pytest.raises(DimensionMismatch):
        solve_sylvester_family([], tol=tol)
    basis = solve_sylvester_family([], dims=(2, 2), tol=tol)
    assert len(basis) == 4


def test_sylvester_dimension_mismatch(tol):
    with pytest.raises(DimensionMismatch):
        solve_sylvester_family(
            [(np.eye(2), np.eye(2)), (np.eye(3), np.eye(2))], tol=tol
        )


def test_sylvester_residual_property(rng, tol):
    for _ in range(5):
        p, q = rng.integers(2, 5, size=2)
        pairs = []
        for _ in range(3):
            L = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
            R = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            pairs.append((L, R))
        for T in solve_sylvester_family(pairs, tol=tol):
            for L, R in pairs:
                bound = 1e-8 * (
                    np.linalg.norm(T) * np.linalg.norm(R)
                    + np.linalg.norm(L) * np.linalg.norm(T)
                )
                assert np.linalg.norm(T @ R - L @ T) <= bound


def test_sylvester_gram_path_commutant_of_unitary(rng, tol):
    # p*q = 441, above the old stacked/Gram switch at 120; the commutant of
    # one unitary with distinct eigenvalues has dimension 21 (all diagonal
    # in its eigenbasis)
    U = random_unitary(21, rng)
    basis = solve_sylvester_family([(U, U)], tol=tol)
    assert len(basis) == 21
    for T in basis:
        assert np.linalg.norm(T @ U - U @ T) < 1e-7


def _stacked_dim(pairs, tol):
    """Reference: the nullspace of the stacked constraints R_i^T (x) 1 - 1 (x) L_i."""
    p, q = pairs[0][0].shape[0], pairs[0][1].shape[0]
    K = np.vstack([np.kron(R.T, np.eye(p)) - np.kron(np.eye(q), L) for L, R in pairs])
    return len(nullspace(K, tol))


def _gauged_sum(irreps, mults, scale, rng):
    """(+)_i pi_i^{m_i} at ``scale`` in a random unitary gauge, as a list of
    generator matrices; each pi_i is a list of matrices."""
    mats = [block_diag(*(pi[j] for pi, m in zip(irreps, mults) for _ in range(m))) for j in range(len(irreps[0]))]
    U = random_unitary(len(mats[0]), rng)
    return [scale * U @ M @ U.conj().T for M in mats]


def test_sylvester_dimension_across_the_size_range(rng, tol):
    # Hom((+)_i pi_i^{m_i}, (+)_i pi_i^{m'_i}) has dimension sum_i m_i m'_i;
    # p*q runs from 1 past the old stacked/Gram switch at 120 to 200
    cases = [(np.array([1]), np.array([1]), np.array([1]))]
    while len(cases) < 60:
        k = rng.integers(1, 4)
        dims, m, m2 = rng.integers(1, 5, size=k), rng.integers(0, 4, size=k), rng.integers(0, 4, size=k)
        if 0 < (dims @ m) * (dims @ m2) <= 200:
            cases.append((dims, m, m2))
    sizes = []
    for dims, m, m2 in cases:
        gens = rng.integers(1, 4)
        irreps = [[rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(gens)] for d in dims]
        scale = 10.0 ** rng.uniform(-3, 3)
        A, B = _gauged_sum(irreps, m, scale, rng), _gauged_sum(irreps, m2, scale, rng)
        pairs = [pair for X, Y in zip(A, B) for pair in ((Y, X), (Y.conj().T, X.conj().T))]
        basis = solve_sylvester_family(pairs, tol=tol)
        case = f"dims {dims}, m {m}, m' {m2}, scale {scale:.1e}"
        assert len(basis) == m @ m2 == _stacked_dim(pairs, tol), case
        for T in basis:
            assert max(np.linalg.norm(T @ X - Y @ T) for X, Y in zip(A, B)) <= 1e-8 * scale, case
        sizes.append(int(dims @ m) * int(dims @ m2))
    assert min(sizes) == 1 and max(sizes) > 120 and any(60 < s <= 120 for s in sizes)


@pytest.mark.parametrize("p", [10, 11, 12])
def test_sylvester_near_degenerate_diagonal(p, tol):
    # diag(0..p-1) against the same with 1e-6 added to its first entry: the
    # 1e-6 residual is far above rank_eps * sigma_max, so the (0, 0)
    # direction is no solution at any size
    a = np.arange(p, dtype=complex)
    b = a.copy()
    b[0] += 1e-6
    pairs = [(np.diag(a), np.diag(b))]
    assert len(solve_sylvester_family(pairs, tol=tol)) == p - 1 == _stacked_dim(pairs, tol)


def test_sylvester_system_zero_at_tolerance_is_solved_by_everything(tol):
    # a largest singular value below abs_eps makes every T a solution
    basis = solve_sylvester_family([(np.array([[1e-10]]), np.array([[0.0]]))], tol=tol)
    assert len(basis) == 1 and abs(abs(basis[0][0, 0]) - 1) < 1e-12


def test_sylvester_zero_dimensional_system(tol):
    assert solve_sylvester_family([(np.zeros((0, 0)), np.eye(2))], tol=tol) == []


def test_orthonormal_span(rng, tol):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    basis = orthonormal_span([A, 2 * A, 1j * A], tol)
    assert len(basis) == 1


def test_phase_normalize():
    M = np.array([[0.1, -2j], [0.5, 0]])
    N = phase_normalize(M)
    idx = np.unravel_index(np.argmax(np.abs(N)), N.shape)
    assert N[idx].imag == pytest.approx(0.0, abs=1e-15)
    assert N[idx].real > 0


def test_phase_normalize_is_tie_stable(tol):
    # two entries of equal modulus up to rounding: whichever is larger by
    # 1e-16, the pivot is the first of them in row-major order
    a, b = np.exp(0.3j), np.exp(1.1j)
    up = np.nextafter(1.0, 2.0)
    first_larger = np.array([[a * up, b], [0.5, 0.1j]])
    second_larger = np.array([[a, b * up], [0.5, 0.1j]])
    assert abs(abs(first_larger[0, 0]) - abs(second_larger[0, 1])) <= 1e-15
    N1, N2 = phase_normalize(first_larger, tol), phase_normalize(second_larger, tol)
    assert np.linalg.norm(N1 - N2) <= 1e-15
    assert N1[0, 0].real > 0 and N1[0, 0].imag == pytest.approx(0.0, abs=1e-15)


def test_scalar_quotient(rng, tol):
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = scalar_quotient((2 - 1j) * B, B, tol)
    assert abs(c - (2 - 1j)) < 1e-10
    with pytest.raises(ValueError):
        scalar_quotient(B + np.eye(3), B, tol)


def test_sylvester_scalar_family_is_decided_from_n_alone(tol, monkeypatch):
    # every pair (c 1, c 1) shifts to (0, 0): N = 0 decides that all p*q =
    # 1296 directions solve, with no eigensolve of N
    from crossrep.reps import Rep, intertwiners

    pi = Rep(36, {"x": 2 * np.eye(36), "y": 1j * np.eye(36)})
    pairs = [(M, M) for X in pi.stack for M in (X, X.conj().T)]
    want = _stacked_dim(pairs, tol)
    monkeypatch.setattr(np.linalg, "eigh", None)
    basis = intertwiners(pi, pi, tol)
    assert len(basis) == want == 36 * 36
    assert all(T.shape == (36, 36) for T in basis) and np.array_equal(basis[37], np.eye(36 * 36)[37].reshape(36, 36))


def test_sylvester_shift_keeps_the_solution_space(rng, tol):
    # a family with a large scalar part: T R_i - L_i T is unchanged by it
    for shift in (0.0, 1e3, 1e3j):
        U = random_unitary(6, rng)
        D = U @ np.diag([1, 1, 2, 3, 3, 3]).astype(complex) @ U.conj().T
        pairs = [(D + shift * np.eye(6), D + shift * np.eye(6))]
        basis = solve_sylvester_family(pairs, tol=tol)
        assert len(basis) == 4 + 1 + 9 == _stacked_dim(pairs, tol)
        for T in basis:
            assert np.linalg.norm(T @ D - D @ T) < 1e-8 * (1 + abs(shift))


@pytest.mark.parametrize("M", [np.zeros((3, 200)), np.full((3, 200), 1e-12)], ids=["zero", "below-abs_eps"])
def test_nullspace_of_everything_holds_one_identity(M, tol):
    # the basis vectors are rows of one identity, not views that each keep
    # an identity of their own alive (200 of them would be 128 MB)
    tracemalloc.start()
    try:
        basis = nullspace(M, tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == 200 and np.array_equal(np.array(basis), np.eye(200))
    assert peak < 3 * np.eye(200, dtype=complex).nbytes


def test_require_passes_within_the_bound():
    _require(np.array([[0.0, 1.0], [1.0, 0.5]]), 1.0, "never raised")
    _require(0.0, 0.0, "never raised")
    _require(np.zeros((0, 3)), 1.0, "never raised")


def test_require_names_the_first_failing_index_in_row_major_order():
    residuals = np.zeros((3, 4))
    residuals[2, 0] = 5.0
    residuals[1, 3] = 2.0
    with pytest.raises(InvariantViolation, match=r"^fails at \(1,3\): residual 2\.000e\+00 > bound 1\.000e\+00$"):
        _require(residuals, 1.0, "fails at ({},{})")


def test_require_relabels_the_first_axis_by_names():
    residuals = np.array([[0.0, 0.0], [0.0, 3e-6]])
    with pytest.raises(InvariantViolation, match=r"^pair \(7,1\): residual 3\.000e-06 > bound 1\.000e-06$"):
        _require(residuals, 1e-6, "pair ({},{})", names=[4, 7])
    with pytest.raises(InvariantViolation, match=r"^generator 'b': residual"):
        _require(np.array([0.0, 1.0]), 0.5, "generator {!r}", names=("a", "b"))


def test_require_reads_a_zero_dimensional_residual_with_its_error_type():
    with pytest.raises(NotFactorable, match=r"^not a product: residual 1\.500e-03 > bound 1\.000e-03$"):
        _require(np.float64(1.5e-3), 1e-3, "not a product", NotFactorable)
    # a message without a placeholder ignores the index of an array
    with pytest.raises(NotFactorable, match=r"^not a product: residual 2\.000e\+00"):
        _require(np.array([0.0, 2.0]), 1.0, "not a product", NotFactorable)


def test_require_broadcasts_an_array_bound():
    residuals = np.array([[1.0, 1.0], [1.0, 1.0]])
    # the bound of each column: only the second column fails, first in row 0
    with pytest.raises(InvariantViolation, match=r"^\(0,1\): residual 1\.000e\+00 > bound 5\.000e-01$"):
        _require(residuals, np.array([2.0, 0.5]), "({},{})")
    # an array bound against a scalar residual names the bound's index
    with pytest.raises(InvariantViolation, match=r"^at 2: residual 1\.000e\+00 > bound 1\.000e-01$"):
        _require(1.0, np.array([3.0, 2.0, 0.1]), "at {}")


def test_require_refuses_a_nan_residual():
    # NaN compares false with every bound, so "not within" refuses it
    with pytest.raises(InvariantViolation, match=r"^at 1: residual nan > bound 1\.000e\+00$"):
        _require(np.array([0.0, np.nan, 2.0]), 1.0, "at {}")
