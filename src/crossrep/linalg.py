"""Dense complex linear algebra primitives with one explicit tolerance policy.

Matrices are plain complex ``numpy`` arrays (row-major); every decision that
involves rounding (rank, eigenvalue clustering, unitarity) goes through a
:class:`Tolerance` passed explicitly.  All functions are pure and never
mutate their arguments.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NotUnitary

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "nullspace",
    "block_diag",
    "unitary_eigenspaces",
    "solve_sylvester_family",
    "orthonormal_span",
    "phase_normalize",
    "scalar_quotient",
    "random_unitary",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by every decision in the package.

    abs_eps   absolute comparison threshold for matrix identities
    rank_eps  relative singular-value cutoff for rank decisions
    eig_sep   gap below which eigenvalues, on the line or the unit circle, are one cluster

    Every numerical tolerance in the package is one of these or is derived
    from them by :meth:`identity_bound` or :meth:`reconstruction_bound`.
    """

    abs_eps: float = 1e-9
    rank_eps: float = 1e-8
    eig_sep: float = 1e-6

    def __post_init__(self):
        if not (self.abs_eps > 0 and self.rank_eps > 0 and self.eig_sep > 0):
            raise ValueError("tolerances must be strictly positive")
        if not self.abs_eps < self.eig_sep:
            raise ValueError("abs_eps must be smaller than eig_sep")

    def identity_bound(self, scale: float | np.ndarray) -> float | np.ndarray:
        """Largest residual accepted for a matrix identity at magnitude ``scale`` (elementwise)."""
        return 1e3 * self.abs_eps * np.maximum(1.0, scale)

    def reconstruction_bound(self, scale: float | np.ndarray) -> float | np.ndarray:
        """The bound of acceptance criterion 7 (every report reconstructs its
        input), ``identity_bound(scale) / 10``, 1e-7 max(1, scale) at the
        default ``abs_eps``: the largest residual accepted where a canonical
        form must reconstruct its input, as a Kronecker factor, a carried
        block form, V^k = 1 or the covariance of a corner."""
        return self.identity_bound(scale) / 10


DEFAULT_TOL = Tolerance()


def _require(residuals, bound, message: str, error=InvariantViolation, names=None):
    """Raise ``error`` unless every residual is within ``bound``, which
    broadcasts against them.  The first residual above it (or NaN), in
    row-major order, is named: ``message`` is formatted with its index, the
    first axis relabelled by ``names`` when given, and followed by
    ``: residual <r> > bound <b>``."""
    within = residuals <= bound
    # two scalars compare to one bool, which needs no array reduction
    if np.count_nonzero(within) == within.size if isinstance(within, np.ndarray) else within:
        return
    over = ~np.asarray(within)
    index = tuple(int(i) for i in np.argwhere(over)[0])
    r = np.broadcast_to(residuals, over.shape)[index]
    b = np.broadcast_to(bound, over.shape)[index]
    if names is not None and index:
        index = (names[index[0]], *index[1:])
    raise error(f"{message.format(*index)}: residual {r:.3e} > bound {b:.3e}")


def _integer(value, bound: float, what: str, unit: str, scale: str) -> int:
    """A scalar rounded to a nonnegative integer within ``bound``, else (also
    when NaN or infinite) :class:`InvariantViolation` naming the value, its
    distance to the integer and the bound, ``rank_eps*<scale>``."""
    finite = cmath.isfinite(value)  # a bound read off an infinite scale is infinite too
    count = round(value.real) if finite else 0
    distance = abs(value - count)
    if not (finite and count >= 0 and distance <= bound):
        raise InvariantViolation(f"{what} {value:.12g} is not a {unit}: {distance:.3e} from {count}, "
                                 f"bound rank_eps*{scale} = {bound:.3e}")
    return count


def _cuts(values: np.ndarray, gap: float) -> np.ndarray:
    """The positions in the sorted ``values`` where a cluster starts: a
    cluster ends where the gap to the next value reaches ``gap``."""
    return np.flatnonzero(values[1:] - values[:-1] >= gap) + 1


def _rank(s: np.ndarray, tol: Tolerance) -> int:
    """The number of descending singular values ``s`` above ``rank_eps``
    times the largest, or none when the largest is at most ``abs_eps``."""
    if s.size == 0 or s[0] <= tol.abs_eps:
        return 0
    return int(np.count_nonzero(s > tol.rank_eps * s[0]))


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array without copying when possible."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def nullspace(M, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the right nullspace of ``M``.

    Rank is decided by :func:`_rank`; a matrix of rank 0 (largest singular
    value at most ``abs_eps``) has the standard basis as its nullspace basis.
    """
    M = as_matrix(M)
    rows, cols = M.shape
    # only a wide M needs the rows of vh beyond its rank; U is never read
    _, s, vh = np.linalg.svd(M, full_matrices=rows < cols)
    rank = _rank(s, tol)
    return [vh[j].conj() for j in range(rank, cols)] if rank else list(np.eye(cols, dtype=complex))


def block_diag(*blocks) -> np.ndarray:
    """Complex block-diagonal matrix with the given matrices as its blocks;
    stacks of matrices broadcast over their leading axes."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    if any(b.ndim < 2 for b in blocks):
        raise DimensionMismatch("block_diag needs matrices or stacks of matrices")
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    out = np.zeros(lead + tuple(sum(b.shape[i] for b in blocks) for i in (-2, -1)), dtype=complex)
    r = c = 0
    for b in blocks:
        out[..., r : r + b.shape[-2], c : c + b.shape[-1]] = b
        r, c = r + b.shape[-2], c + b.shape[-1]
    return out


def _cluster_unit_circle(eigs: np.ndarray, gap: float) -> list[list[int]]:
    """Group indices of unit-modulus eigenvalues whose angular distance < gap."""
    angles = np.mod(np.angle(eigs), 2 * np.pi)
    order = np.argsort(angles, kind="stable")
    clusters = [cluster.tolist() for cluster in np.split(order, _cuts(angles[order], gap))]
    # the circle wraps: the last cluster may continue into the first
    if len(clusters) > 1 and angles[order[0]] + 2 * np.pi - angles[order[-1]] < gap:
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


def unitary_eigenspaces(
    U, tol: Tolerance = DEFAULT_TOL
) -> list[tuple[complex, np.ndarray]]:
    """Clustered spectral decomposition of a unitary matrix.

    Returns ``[(lambda_c, Q_c), ...]`` where each ``Q_c`` has orthonormal
    columns spanning the eigenspace of the cluster around ``lambda_c``; a
    one-column ``Q_c`` is :func:`phase_normalize` d, so it does not depend
    on rounding in the eigensolver.
    Eigenvalues closer than ``tol.eig_sep`` on the unit circle are merged.
    Clusters are ordered by the angle of their eigenvalue, counted from
    ``-tol.eig_sep``: a cluster at 1 comes first whichever side of the
    real axis rounding puts it on.

    Raises :class:`NotUnitary` when ``||U*U - 1|| > abs_eps`` (scaled by dim).
    """
    U = as_matrix(U)
    n = U.shape[0]
    if U.shape[0] != U.shape[1]:
        raise DimensionMismatch("unitary_eigenspaces needs a square matrix")
    I = np.eye(n)
    _require(np.linalg.norm(U.conj().T @ U - I), tol.abs_eps * max(1.0, np.sqrt(n)),
             "matrix is not unitary, ||U*U - 1||", NotUnitary)
    if n == 0:
        return []
    # U is normal, so for a point zeta of the circle off its spectrum the
    # Cayley transform H = i(1+V)^-1(1-V) of V = -conj(zeta) U is Hermitian,
    # with U's eigenvectors and eigenvalues tan(phi/2) for the eigenvalues
    # e^{i phi} of V: a one-to-one image of the spectrum, so eigenvalues at
    # angular distance d stay at distance >= d/2.  The angles +-arccos of
    # the eigenvalues of (U+U*)/2 contain the spectrum, so the middle of
    # their widest gap is at least pi/2n from it.
    cosines = np.linalg.eigvalsh((U + U.conj().T) / 2)
    half = np.arccos(np.clip(cosines, -1.0, 1.0))
    angles = np.sort(np.concatenate([half, -half]))
    gaps = np.append(angles[1:], angles[0] + 2 * np.pi) - angles
    i = int(np.argmax(gaps))
    V = -np.exp(-1j * (angles[i] + gaps[i] / 2)) * U
    H = 1j * np.linalg.solve(I + V, I - V)
    _, Q = np.linalg.eigh((H + H.conj().T) / 2)
    # Rayleigh quotients q* U q of the eigenvectors
    eigs = np.einsum("ij,ij->j", Q.conj(), U @ Q)
    out = []
    for cluster in _cluster_unit_circle(eigs, tol.eig_sep):
        val = eigs[cluster].sum()
        basis = Q[:, sorted(cluster)]
        # a one-dimensional eigenspace has one basis up to a phase: fix it
        out.append((complex(val / abs(val)), phase_normalize(basis, tol) if len(cluster) == 1 else basis))
    out.sort(key=lambda pair: np.mod(np.angle(pair[0]) + tol.eig_sep, 2 * np.pi))
    return out


def solve_sylvester_family(
    pairs,
    dims: tuple[int, int] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Orthonormal basis (Frobenius) of ``{T : T R_i = L_i T for all i}``.

    ``pairs`` is a sequence of ``(L_i, R_i)``; every ``L_i`` must be p x p
    and every ``R_i`` q x q, and the solutions T are p x q.  For an empty
    family ``dims=(p, q)`` must be given and the full matrix-unit basis is
    returned.

    Rank is decided as :func:`nullspace` decides it for the stacked
    constraints K: T -> (T R_i - L_i T)_i, at ``rank_eps`` times the
    largest singular value of K, or ``abs_eps`` for that value itself.
    When every T solves, the basis is the matrix units E_ij, i outer.
    """
    pairs = [(as_matrix(L), as_matrix(R)) for L, R in pairs]
    if not pairs:
        if dims is None:
            raise DimensionMismatch("empty constraint family needs explicit dims")
        return _matrix_units(*dims)
    p = pairs[0][0].shape[0]
    q = pairs[0][1].shape[0]
    for L, R in pairs:
        if L.shape != (p, p) or R.shape != (q, q):
            raise DimensionMismatch(
                f"all L must be {p}x{p} and all R {q}x{q}, got {L.shape} and {R.shape}"
            )
    if dims is not None and dims != (p, q):
        raise DimensionMismatch(f"declared dims {dims} do not match pairs ({p},{q})")

    n, pq = len(pairs), p * q
    if pq == 0:
        return []
    Ls, Rs = np.array([L for L, _ in pairs]), np.array([R for _, R in pairs])
    # T R_i - L_i T is unchanged when L_i and R_i shift by one scalar mu_i;
    # mu_i = (tr L_i + tr R_i) / (p + q) minimizes ||L_i - mu_i||^2 + ||R_i - mu_i||^2,
    # so the noise bound below follows K_i, not the scalar part of the pair
    mu = (np.trace(Ls, axis1=1, axis2=2) + np.trace(Rs, axis1=1, axis2=2)) / (p + q)
    Ls = Ls - mu[:, None, None] * np.eye(p)
    Rs = Rs - mu[:, None, None] * np.eye(q)
    # N = sum_i K_i* K_i for K_i = R_i^T (x) 1 - 1 (x) L_i on the column-major
    # vec(T), so that vec(T R) = (R^T (x) 1) vec(T): N = A (x) 1 + 1 (x) B - C - C*
    # with A = sum_i conj(R_i) R_i^T, B = sum_i L_i* L_i, C = sum_i conj(R_i) (x) L_i
    N = (Rs.conj().reshape(n, q * q).T @ Ls.reshape(n, p * p)).reshape(q, q, p, p)
    N = np.negative(N.transpose(0, 2, 1, 3), order="C").reshape(pq, pq)
    N += N.conj().T
    N4 = N.reshape(q, p, q, p)  # einsum returns writable views of its diagonals
    np.einsum("abcb->acb", N4)[...] += np.einsum("iab,icb->ac", Rs.conj(), Rs)[:, :, None]
    np.einsum("abad->abd", N4)[...] += np.einsum("iba,ibc->ac", Ls.conj(), Ls)
    # N and its eigenvalues are accurate to eps pq sum_i (|L_i| + |R_i|)^2
    scale = np.linalg.norm(Ls, axis=(1, 2)) + np.linalg.norm(Rs, axis=(1, 2))
    noise = np.finfo(float).eps * pq * np.sum(scale**2)
    # sigma_max(K)^2 <= tr N = sum_i ||K_i||^2: within abs_eps^2, every T
    # solves, decided without an eigensolve (a scalar family has N = 0)
    if np.trace(N).real + noise <= tol.abs_eps**2:
        return _matrix_units(p, q)
    evals, evecs = np.linalg.eigh(N)
    del N, N4
    # the eigenvectors up to the noise, or up to rank_eps^2 times the top
    # eigenvalue, are candidates, decided by their exact residuals T R_i - L_i T
    V = evecs[:, evals <= max(tol.rank_eps**2 * evals[-1], noise)]
    Ts = V.T.reshape(-1, q, p).transpose(0, 2, 1)
    G = np.zeros((V.shape[1],) * 2, dtype=complex)
    for L, R in zip(Ls, Rs):
        E = (Ts @ R - L @ Ts).reshape(len(Ts), pq)
        G += E.conj() @ E.T
    resid, W = np.linalg.eigh(G)
    # sigma_max(K)^2 is the top eigenvalue of N, unless that is noise as well,
    # when every direction is a candidate; at most abs_eps, every T solves
    top = resid[-1] if V.shape[1] == pq else evals[-1]
    if top <= tol.abs_eps**2:
        return _matrix_units(p, q)
    return [v.reshape((p, q), order="F") for v in (V @ W[:, resid <= tol.rank_eps**2 * top]).T]


def _matrix_units(p: int, q: int) -> list[np.ndarray]:
    """The p x q matrix units E_ij, i outer: an orthonormal basis of every T."""
    return list(np.eye(p * q, dtype=complex).reshape(p * q, p, q))


def _relation_residuals(M, table, c=None, rows=None) -> np.ndarray:
    """R[i, h] = ||M[gh] - c(g, h) M[g] M[h]|| (Frobenius) for g = rows[i]
    over a Cayley table, every g unless ``rows`` is given and c = 1 unless
    given: one batched product per row g, O(|G| d^2) memory.
    :func:`_require` with ``names=rows`` names the first failing pair."""
    M = np.asarray(M)
    rows = range(len(table)) if rows is None else rows
    R = np.empty((len(rows), len(table)))
    for i, g in enumerate(rows):
        D = M[g] @ M if c is None else c[g][:, None, None] * (M[g] @ M)
        D -= M[table[g]]
        R[i] = np.linalg.norm(D, axis=(1, 2))
    return R


def orthonormal_span(mats, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of the linear span of ``mats``, of the
    dimension :func:`_rank` decides: none when the family is within ``abs_eps`` of 0."""
    mats = [as_matrix(m) for m in mats]
    if not mats:
        return []
    shape = mats[0].shape
    stacked = np.array([m.reshape(-1) for m in mats])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    return [vh[j].conj().reshape(shape) for j in range(_rank(s, tol))]


def phase_normalize(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Rescale by a unit scalar so the pivot entry is real positive.

    The pivot is the first entry, in row-major order, whose modulus is
    within ``rank_eps`` (relative) of the largest, so rounding noise between
    entries of tied modulus cannot move it.
    """
    M = as_matrix(M)
    moduli = np.abs(M).reshape(-1)
    top = moduli.max()
    if top == 0:
        return M.copy()
    pivot = M.reshape(-1)[int(np.argmax(moduli >= (1 - tol.rank_eps) * top))]
    return M * (abs(pivot) / pivot)


def scalar_quotient(A, B, tol: Tolerance = DEFAULT_TOL) -> complex:
    """The scalar c with ``A == c * B``, read off the largest entry of B.

    Validated entrywise; raises ValueError when A is not a scalar multiple
    of B within ``abs_eps`` relative to the scale of A.
    """
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatch("scalar_quotient needs equal shapes")
    idx = np.unravel_index(int(np.argmax(np.abs(B))), B.shape)
    if abs(B[idx]) == 0:
        raise ValueError("cannot divide by the zero matrix")
    c = complex(A[idx] / B[idx])
    if np.linalg.norm(A - c * B) > tol.identity_bound(np.linalg.norm(A)):
        raise ValueError("matrices are not scalar multiples of each other")
    return c


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
