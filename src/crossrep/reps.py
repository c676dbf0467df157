"""Intertwiners, commutants, equivalence, decomposition, regular representations.

A representation is stored as the matrix images of a labeled generator
set.  Every intertwiner computation first closes the generator set under
adjoints: a one-sided relation against unitary generators does not imply
the adjoint relation for a non-invertible intertwiner.

Every Hom question (irreducibility, equivalence and its witness, dim End,
the splitting in :func:`decompose`) goes through one private oracle,
``_hom(a, b, tol)``, which returns dim Hom(a, b) and the orthogonal
projection onto Hom(a, b).  For covariant representations over a
:class:`GroupAction` it is the character engine: Hom dimensions are
character inner products (:func:`hom_dim`) and Hom spaces are ranges of a
group-and-algebra average (:func:`hom_projection`), so neither needs a
Sylvester solve.  For a :class:`Rep`, or a covariant representation over a
:class:`LabelAction` through its joint generating set, it is one
intertwiner solve.  For a :class:`ProjectiveRep` of a group K it is the
projective character engine: dim Hom = |K|^-1 sum_h conj(tr L1_h) tr L2_h
and P(X) = |K|^-1 sum_h L2_h X L1_h*, for two families with one cocycle.
A representation of the algebra alone enters the character engine as a
covariant representation over the trivial subgroup
(:func:`trivial_covariant`).
Its translate stabilizer is read off the action instead
(:func:`translate_stabilizer`): up to a unitary, an irreducible of
M_{n_1} + ... + M_{n_b} is the compression to one block k, so the
stabilizer is {g : alpha_g fixes k}, implemented by U^g_k.

Every block-permutation model is an induced representation Ind_H^G psi
(:func:`induce`): the regular representation is the case H = {e}.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AlgElement, GroupAction, LabelAction, MatAlg
from .errors import (
    ActionMismatch,
    DecompositionFailed,
    DimensionMismatch,
    InvariantViolation,
    LabelMismatch,
    NotIrreducible,
)
from .groups import FiniteGroup, Subgroup, coset_action
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _relation_residuals,
    as_matrix,
    block_diag,
    phase_normalize,
    random_hermitian,
    solve_sylvester_family,
)

__all__ = [
    "Rep",
    "ProjectiveRep",
    "CovariantRep",
    "IrrepDecomposition",
    "Equivalence",
    "defining_rep",
    "rep_from_images",
    "evaluate",
    "rep_compose",
    "direct_sum_reps",
    "intertwiners",
    "commutant_basis",
    "is_irreducible",
    "are_equivalent",
    "covariant_character",
    "hom_dim",
    "hom_projection",
    "covariant_equivalence",
    "trivial_covariant",
    "rep_end_dim",
    "translate_stabilizer",
    "decompose",
    "decompositions_match",
    "induce",
    "regular_representation",
    "regular_irreducibility_criterion",
]


class Rep:
    """Matrix images of a *-closed generating set, keyed by label."""

    def __init__(self, dim: int, gens):
        self.dim = int(dim)
        self.gens = {}
        for label, M in gens.items():
            M = as_matrix(M)
            if M.shape != (self.dim, self.dim):
                raise DimensionMismatch(f"generator {label!r} is not {dim}x{dim}")
            self.gens[label] = M

    def conjugate(self, Q) -> "Rep":
        """The representation x -> Q* pi(x) Q for an isometry or unitary Q."""
        Q = as_matrix(Q)
        return Rep(Q.shape[1], {l: Q.conj().T @ M @ Q for l, M in self.gens.items()})

    def __repr__(self):
        return f"Rep(dim={self.dim}, gens={list(self.gens)!r})"


class ProjectiveRep(Rep):
    """Unitaries multiplying up to a scalar: ``mats[gh] = c(g,h) mats[g] mats[h]``.

    A :class:`Rep` with generator g = ``mats[g]``: :func:`_hom` reads its Hom
    spaces, :func:`decompose` splits it, and its pieces keep the cocycle.
    """

    def __init__(self, group: FiniteGroup, mats, cocycle):
        super().__init__(np.shape(mats[0])[0], dict(enumerate(mats)))
        self.group = group
        self.mats = list(self.gens.values())
        self.cocycle = np.asarray(cocycle)

    def conjugate(self, Q) -> "ProjectiveRep":
        return ProjectiveRep(self.group, list(super().conjugate(Q).gens.values()), self.cocycle)

    def validate(self, threshold: float = 1e-8):
        T, c = self.group.table, self.cocycle
        if np.max(np.abs(np.abs(c) - 1.0)) > threshold:
            raise InvariantViolation("cocycle values must have modulus 1")
        bad = np.argwhere(_relation_residuals(self.mats, T, c) > threshold * max(1, self.dim))
        if len(bad):
            g, h = bad[0]
            raise InvariantViolation(f"projective relation fails at pair ({g},{h})")
        # row g: c(g, h) c(gh, k) - c(h, k) c(g, hk) over every (h, k)
        for g in range(len(T)):
            bad = np.argwhere(np.abs(c[g][:, None] * c[T[g]] - c * c[g][T]) > threshold)
            if len(bad):
                h, k = bad[0]
                raise InvariantViolation(f"2-cocycle identity fails at ({g},{h},{k})")


def _cocycle(K: FiniteGroup, mats, tol: Tolerance, c=None) -> np.ndarray:
    """The 2-cocycle M_ab = c(a, b) M_a M_b of a projective unitary family,
    c(a, b) = tr((M_a M_b)* M_ab) / d unless ``c`` is given, checked one
    batch per a against the bound and ValueError of :func:`scalar_quotient`."""
    M = np.array(mats)
    if c is None:
        c = np.array([np.einsum("bij,bij->b", (M[a] @ M).conj(), M[row]) for a, row in enumerate(K.table)])
        c /= M.shape[1]
    norms = np.linalg.norm(M, axis=(1, 2))
    if np.any(_relation_residuals(M, K.table, c) > tol.identity_bound(norms[K.table])):
        raise ValueError("matrices are not scalar multiples of each other")
    return c


def _twisted_regular(K: FiniteGroup, c) -> ProjectiveRep:
    """The twisted regular representation L_a delta_x = c(a, x) delta_{ax}
    of K, which carries the cocycle conj(c)."""
    L = c[:, None, :] * (K.table[:, None, :] == np.arange(K.order)[:, None])
    return ProjectiveRep(K, L, c.conj())


def defining_rep(algebra: MatAlg) -> Rep:
    """The block-diagonal inclusion of the algebra, one generator per matrix unit."""
    gens = {
        label: e.to_matrix()
        for label, e in zip(algebra.basis_labels(), algebra.basis_elements())
    }
    return Rep(algebra.defining_dim, gens)


def rep_from_images(algebra: MatAlg, image_of) -> Rep:
    """Build a basis-labeled representation from a map on algebra elements."""
    images = {
        label: image_of(e)
        for label, e in zip(algebra.basis_labels(), algebra.basis_elements())
    }
    dims = {M.shape[0] for M in images.values()}
    if len(dims) != 1:
        raise DimensionMismatch("images have inconsistent dimensions")
    return Rep(dims.pop(), images)


def evaluate(rep: Rep, algebra: MatAlg, x: AlgElement) -> np.ndarray:
    """Extend a basis-labeled representation linearly to an arbitrary element."""
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for label, coeff in zip(algebra.basis_labels(), x.coeffs()):
        if coeff != 0:
            out += coeff * rep.gens[label]
    return out


def rep_compose(rep: Rep, action, g: int) -> Rep:
    """The representation ``x -> rep(alpha_g(x))``.

    For a :class:`GroupAction` the rep must be labeled by the algebra's
    matrix-unit basis, and the images are one contraction of the generator
    stack with the coefficient matrix of alpha_g; for a :class:`LabelAction`
    the generator labels are permuted.
    """
    if isinstance(action, GroupAction):
        labels = action.algebra.basis_labels()
        units = np.array([rep.gens[l] for l in labels])
        images = np.tensordot(action.aut(g).coefficient_matrix, units, axes=1)
        return Rep(rep.dim, dict(zip(labels, images)))
    if isinstance(action, LabelAction):
        return Rep(rep.dim, {l: rep.gens[action.map_label(g, l)] for l in rep.gens})
    raise TypeError(f"unsupported action type {type(action)!r}")


def _covariance_residuals(U, pi: Rep, action, g: int) -> np.ndarray:
    """||U pi(x) U* - pi(alpha_g(x))|| over the generators x of ``pi``, in
    label order: U implements alpha_g on ``pi`` when every one vanishes."""
    twisted = rep_compose(pi, action, g).gens
    M = np.array(list(pi.gens.values()))
    return np.linalg.norm(U @ M @ U.conj().T - np.array([twisted[l] for l in pi.gens]), axis=(1, 2))


def direct_sum_reps(parts: list[Rep]) -> Rep:
    """Block-diagonal direct sum; all parts must share generator labels."""
    labels = list(parts[0].gens)
    for p in parts:
        if list(p.gens) != labels:
            raise LabelMismatch("direct summands must share generator labels")
    dim = sum(p.dim for p in parts)
    gens = {}
    for l in labels:
        M = np.zeros((dim, dim), dtype=complex)
        pos = 0
        for p in parts:
            M[pos : pos + p.dim, pos : pos + p.dim] = p.gens[l]
            pos += p.dim
        gens[l] = M
    return Rep(dim, gens)


def intertwiners(r1: Rep, r2: Rep, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of ``{T : T r1(x) = r2(x) T}`` over the *-closure."""
    if set(r1.gens) != set(r2.gens):
        raise LabelMismatch("representations do not share generator labels")
    labels = sorted(r1.gens)
    pairs = []
    for l in labels:
        A, B = r1.gens[l], r2.gens[l]
        pairs.append((B, A))
        pairs.append((B.conj().T, A.conj().T))
    return solve_sylvester_family(pairs, dims=(r2.dim, r1.dim), tol=tol)


def commutant_basis(r: Rep, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    return intertwiners(r, r, tol)


def is_irreducible(r: Rep, tol: Tolerance = DEFAULT_TOL) -> bool:
    return _hom(r, r, tol)[0] == 1


Equivalence = namedtuple("Equivalence", ["equivalent", "witness"])


def _unitarize(T: np.ndarray, tol: Tolerance) -> np.ndarray:
    lam = np.trace(T.conj().T @ T).real / T.shape[1]
    U = T / np.sqrt(lam)
    return phase_normalize(U, tol)


def are_equivalent(r1: Rep, r2: Rep, tol: Tolerance = DEFAULT_TOL) -> Equivalence:
    """Unitary equivalence test for two irreducible representations.

    Returns ``(equivalent, witness)``; the witness W satisfies
    ``W r1(x) W* = r2(x)`` and is normalized by :func:`phase_normalize`, so
    its first entry of largest modulus is real positive.  Raises :class:`NotIrreducible` on reducible input.
    """
    for name, r in (("first", r1), ("second", r2)):
        if not is_irreducible(r, tol):
            raise NotIrreducible(f"{name} representation is reducible")
    return covariant_equivalence(r1, r2, tol)


@dataclass
class IrrepDecomposition:
    """Irreducible components with multiplicities and the conjugating unitary.

    ``basis_change`` is a unitary Q with ``Q* pi(x) Q`` block diagonal,
    blocks ordered class by class, each class repeated multiplicity times,
    every copy exactly equal to the class representative.  Components are
    :class:`CovariantRep` s when a covariant representation was decomposed
    and :class:`Rep` s otherwise.
    """

    components: list[tuple[Rep | CovariantRep, int]]
    basis_change: np.ndarray

    @property
    def total_dim(self) -> int:
        return sum(r.dim * m for r, m in self.components)


def _eigen_clusters(H: np.ndarray, tol: Tolerance):
    """Orthonormal bases of the eigenspaces of a Hermitian matrix, merging
    eigenvalues closer than eig_sep; None when everything is one cluster."""
    evals, evecs = np.linalg.eigh(H)
    groups = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[groups[-1][-1]] < tol.eig_sep:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) < 2:
        return None
    return [evecs[:, g] for g in groups]


def _pieces(r, hom, seed: int, tol: Tolerance):
    """Depth-first refinement into irreducible (rep, isometry) leaves.

    ``hom`` is ``_hom(r, r)``; dim End = 1 marks a leaf.  Otherwise r is
    split along the eigenvalue clusters of the commutant projection of a
    random Hermitian matrix, reseeded up to 5 times when it fails to
    separate, and each cluster is refined again.
    """
    end_dim, project = hom
    if end_dim == 1:
        return [(r, np.eye(r.dim, dtype=complex))]
    gens = np.array(list((r.joint_rep() if isinstance(r, CovariantRep) else r).gens.values()))
    for attempt in range(5):
        rng = np.random.default_rng(seed + attempt)
        H = project(random_hermitian(r.dim, rng))
        H = (H + H.conj().T) / 2
        # the eigenspaces of H are invariant only if H is in the commutant
        bound = tol.identity_bound(r.dim * np.linalg.norm(H))
        if np.any(np.linalg.norm(H @ gens - gens @ H, axis=(1, 2)) > bound):
            raise InvariantViolation("projected element fails to commute with a generator")
        isometries = _eigen_clusters(H, tol)
        if isometries is not None:
            break
    else:
        raise DecompositionFailed(
            "no eigenvalue gap above eig_sep after 5 reseeded retries"
        )
    leaves = []
    for Q in isometries:
        sub = r.conjugate(Q)
        for piece, iso in _pieces(sub, _hom(sub, sub, tol), seed, tol):
            leaves.append((piece, Q @ iso))
    return leaves


def _collect(leaves, witness) -> IrrepDecomposition:
    """Group irreducible (rep, isometry) leaves into equivalence classes.

    ``witness(a, b)`` is a unitary W with ``W a W* = b``, or None when the
    two are inequivalent.  Classes are ordered by (dimension, first
    occurrence).
    """
    classes: list[tuple] = []
    for piece, iso in leaves:
        for rep, isos in classes:
            W = witness(rep, piece)
            if W is not None:
                # W (class rep) W* = piece, so iso @ W carries the class rep exactly
                isos.append(iso @ W)
                break
        else:
            classes.append((piece, [iso]))
    classes.sort(key=lambda cls: cls[0].dim)
    components = [(rep, len(isos)) for rep, isos in classes]
    basis_change = np.hstack([iso for _, isos in classes for iso in isos])
    return IrrepDecomposition(components, basis_change)


def _decompose(r, seed: int, tol: Tolerance) -> IrrepDecomposition:
    """:func:`decompose` without validating a covariant input."""
    hom = _hom(r, r, tol)
    leaves = _pieces(r, hom, seed, tol)
    dec = _collect(leaves, lambda a, b: covariant_equivalence(a, b, tol, seed).witness)
    # dim End = sum of squared multiplicities, an exact check on the clustering
    if sum(m * m for _, m in dec.components) != hom[0]:
        raise InvariantViolation(
            f"multiplicities {[m for _, m in dec.components]} do not match dim End = {hom[0]}"
        )
    return dec


def decompose(r, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> IrrepDecomposition:
    """Decompose into irreducibles by random commutant splitting.

    The input is a :class:`Rep` or a :class:`CovariantRep` over either
    action type; a covariant input is validated once.  Every Hom space is
    read through one oracle, :func:`_hom`: the input is split along the
    eigenspaces of the commutant projection P(X) of a random Hermitian X,
    a piece with dim End > 1 is split again, and leaves are matched by
    dim Hom and carried onto each other by the unitarized P12(X) of
    :func:`covariant_equivalence`.  The squared multiplicities must sum to
    dim End of the input, else :class:`InvariantViolation`.  Components
    have the input's type.

    Components are grouped by unitary equivalence and ordered by
    (dimension, first occurrence); the multiset of components is
    independent of the seed, only the basis_change varies.
    """
    if isinstance(r, CovariantRep):
        r.validate(tol)
    return _decompose(r, seed, tol)


def decompositions_match(
    d1: IrrepDecomposition, d2: IrrepDecomposition, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Equality of decompositions as multisets of equivalence classes.

    Components are irreducible, so two are equivalent when dim Hom = 1.
    """

    def same(a, b) -> bool:
        return a.dim == b.dim and _hom(a, b, tol)[0] == 1

    if d1.total_dim != d2.total_dim:
        return False
    remaining = list(range(len(d2.components)))
    for rep1, m1 in d1.components:
        found = None
        for j in remaining:
            rep2, m2 = d2.components[j]
            if m1 == m2 and same(rep1, rep2):
                found = j
                break
        if found is None:
            return False
        remaining.remove(found)
    return not remaining


class CovariantRep:
    """A representation of an algebra together with implementing unitaries.

    ``unitaries[g]`` is the image of the canonical unitary of group element
    g; they form a homomorphism and conjugate the base representation
    according to the action.
    """

    def __init__(self, base: Rep, action, unitaries):
        self.base = base
        self.action = action
        self.unitaries = [as_matrix(U) for U in unitaries]
        if len(self.unitaries) != action.group.order:
            raise InvariantViolation("need one unitary per group element")
        for U in self.unitaries:
            if U.shape != (base.dim, base.dim):
                raise DimensionMismatch("unitary does not act on the base space")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def group(self):
        return self.action.group

    def joint_rep(self) -> Rep:
        """Algebra generators and group unitaries as one generating set."""
        gens = dict(self.base.gens)
        for g in range(self.group.order):
            gens[f"U[{self.group.labels[g]}]"] = self.unitaries[g]
        return Rep(self.dim, gens)

    def conjugate(self, Q) -> "CovariantRep":
        """The covariant representation Q* Pi Q on the range of an isometry Q
        whose range is invariant (or a unitary Q)."""
        Q = as_matrix(Q)
        Qh = Q.conj().T
        return CovariantRep(self.base.conjugate(Q), self.action, [Qh @ U @ Q for U in self.unitaries])

    def validate(self, tol: Tolerance = DEFAULT_TOL):
        """Check U_g U_h = U_gh, U_g* U_g = 1 and covariance within
        ``identity_bound(dim)``, naming the first failing pair, element or generator."""
        U = np.array(self.unitaries)
        bound = tol.identity_bound(self.dim)
        bad = np.argwhere(_relation_residuals(U, self.group.table) > bound)
        if len(bad):
            g, h = bad[0]
            raise InvariantViolation(f"unitaries fail homomorphism at ({g},{h})")
        defects = np.linalg.norm(U.conj().transpose(0, 2, 1) @ U - np.eye(self.dim), axis=(1, 2))
        bad = np.flatnonzero(defects > bound)
        if len(bad):
            raise InvariantViolation(f"the unitary of element {bad[0]} fails U*U = 1")
        for g in range(len(U)):
            bad = np.flatnonzero(_covariance_residuals(U[g], self.base, self.action, g) > bound)
            if len(bad):
                label = list(self.base.gens)[bad[0]]
                raise InvariantViolation(f"covariance fails at element {g} on generator {label!r}")

    def end_dim(self, tol: Tolerance = DEFAULT_TOL) -> int:
        """dim End(self), for a representation already known to be valid:
        the dimension :func:`_hom` reads, over a :class:`GroupAction` an exact
        character sum with no rank decision."""
        return _hom(self, self, tol)[0]

    def is_irreducible(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """:meth:`validate`, then :meth:`end_dim` == 1, over either action type."""
        self.validate(tol)
        return self.end_dim(tol) == 1


@lru_cache(maxsize=None)
def _unit_pattern(block_dims: tuple[int, ...]):
    """For the matrix units e^k_ij in basis order: the weights 1/n_k, the
    position of e^k_ji, and the mask of the diagonal units e^k_ii.  Cached
    per block-dims tuple, so the arrays are read-only."""
    weights, transpose, diagonal = [], [], []
    pos = 0
    for n in block_dims:
        for i in range(n):
            for j in range(n):
                weights.append(1.0 / n)
                transpose.append(pos + j * n + i)
                diagonal.append(i == j)
        pos += n * n
    tables = np.array(weights), np.array(transpose), np.array(diagonal)
    for a in tables:
        a.setflags(write=False)
    return tables


def _common_algebra(cov1: CovariantRep, cov2: CovariantRep) -> MatAlg:
    for cov in (cov1, cov2):
        if not isinstance(cov.action, GroupAction):
            raise TypeError(
                "the character engine needs a GroupAction; decompose, covariant_equivalence "
                "and end_dim also take a LabelAction"
            )
    if cov1.action.algebra != cov2.action.algebra or cov1.group != cov2.group:
        raise ActionMismatch("covariant representations over different actions")
    return cov1.action.algebra


def _unit_images(cov: CovariantRep, labels) -> np.ndarray:
    if set(cov.base.gens) != set(labels):
        raise LabelMismatch("base representation is not labeled by the algebra's matrix units")
    return np.array([cov.base.gens[l] for l in labels])


def covariant_character(cov: CovariantRep) -> np.ndarray:
    """The character chi(g, e^k_ij) = tr(U_g pi(e^k_ij)) of a covariant rep.

    Row g holds chi(g, .) on the matrix units in ``basis_labels()`` order,
    followed by tr(U_g (1 - pi(1))), the character of the subspace the
    algebra annihilates (zero when pi is unital).
    """
    labels = cov.action.algebra.basis_labels()
    units = _unit_images(cov, labels)
    U = np.array(cov.unitaries)
    # tr(U_g pi(e)) = sum_ab U_g[a, b] pi(e)[b, a]
    chi = U.reshape(len(U), -1) @ units.transpose(0, 2, 1).reshape(len(units), -1).T
    _, _, diagonal = _unit_pattern(cov.action.algebra.block_dims)
    rest = np.trace(U, axis1=1, axis2=2) - chi[:, diagonal].sum(axis=1)
    return np.column_stack([chi, rest])


def hom_dim(cov1: CovariantRep, cov2: CovariantRep, tol: Tolerance = DEFAULT_TOL) -> int:
    """dim Hom(Pi1, Pi2) as a character inner product, with no linear solve:

        |G|^-1 sum_g [ sum_k n_k^-1 sum_ij chi2(g, e^k_ij) conj(chi1(g, e^k_ij))
                       + chi2(g, 1 - pi2(1)) conj(chi1(g, 1 - pi1(1))) ],

    the trace of :func:`hom_projection`, rounded by :func:`_character_dim`.
    """
    weights = np.append(_unit_pattern(_common_algebra(cov1, cov2).block_dims)[0], 1.0)
    chi1 = covariant_character(cov1)
    chi2 = chi1 if cov2 is cov1 else covariant_character(cov2)
    return _character_dim(weights * chi2 * chi1.conj(), tol)


def _character_dim(terms: np.ndarray, tol: Tolerance) -> int:
    """The character sum |G|^-1 sum of ``terms``, one row per group element,
    rounded to a dimension within ``rank_eps`` of the mean of |terms|;
    :class:`InvariantViolation` when it is not near a nonnegative integer."""
    total = terms.sum() / len(terms)
    count = round(total.real)
    scale = np.abs(terms).sum() / len(terms)
    if count < 0 or abs(total - count) > tol.rank_eps * max(1.0, scale):
        raise InvariantViolation(f"character sum {total:.6g} is not a dimension")
    return count


def hom_projection(cov1: CovariantRep, cov2: CovariantRep, X) -> np.ndarray:
    """Orthogonal (Frobenius) projection of a dim2 x dim1 matrix onto Hom(Pi1, Pi2):

        P12(X) = |G|^-1 sum_g U2_g [ sum_k n_k^-1 sum_ij pi2(e^k_ij) X pi1(e^k_ji)
                                     + (1 - pi2(1)) X (1 - pi1(1)) ] U1_g*.

    The bracket projects onto the algebra intertwiners, the group average
    onto the unitary intertwiners, and the two commute because U_g
    normalizes pi(A).  Costs O((|G| + dim A) d^3).
    """
    alg = _common_algebra(cov1, cov2)
    weights, transpose, diagonal = _unit_pattern(alg.block_dims)
    labels = alg.basis_labels()
    units1, units2 = _unit_images(cov1, labels), _unit_images(cov2, labels)
    X = as_matrix(X)
    Y = np.tensordot(weights, units2 @ X @ units1[transpose], axes=1)
    rest1 = np.eye(cov1.dim) - units1[diagonal].sum(axis=0)
    rest2 = np.eye(cov2.dim) - units2[diagonal].sum(axis=0)
    Y += rest2 @ X @ rest1
    U1, U2 = np.array(cov1.unitaries), np.array(cov2.unitaries)
    return (U2 @ Y @ U1.conj().transpose(0, 2, 1)).mean(axis=0)


def _hom(a, b, tol: Tolerance):
    """The one Hom oracle: (dim Hom(a, b), P) with P(X) the orthogonal
    (Frobenius) projection of a ``b.dim`` x ``a.dim`` matrix onto Hom(a, b).

    Covariant representations over a :class:`GroupAction` are read by the
    character engine, :func:`hom_dim` with :func:`hom_projection`, and need
    no solve.  A :class:`Rep`, or a covariant representation over a
    :class:`LabelAction` through its :meth:`~CovariantRep.joint_rep`, takes
    one :func:`intertwiners` solve, and P(X) = sum_B <B, X> B over its
    orthonormal basis.  Two :class:`ProjectiveRep` s with one cocycle are
    read by projective characters, with P(X) = |K|^-1 sum_h L2_h X L1_h*;
    different cocycles raise :class:`ActionMismatch`.
    """
    if isinstance(a, ProjectiveRep):
        c1, c2 = a.cocycle, b.cocycle
        if c1 is not c2 and not (
            c1.shape == c2.shape and np.allclose(c1, c2, rtol=0, atol=tol.identity_bound(1.0))
        ):
            raise ActionMismatch("projective representations with different cocycles")
        L1, L2 = np.array(a.mats), np.array(b.mats)
        count = _character_dim(np.trace(L2, axis1=1, axis2=2) * np.trace(L1, axis1=1, axis2=2).conj(), tol)
        L1h = L1.conj().transpose(0, 2, 1)
        return count, lambda X: (L2 @ as_matrix(X) @ L1h).mean(axis=0)
    if isinstance(a, CovariantRep):
        if isinstance(a.action, GroupAction):
            return hom_dim(a, b, tol), lambda X: hom_projection(a, b, X)
        a, b = a.joint_rep(), b.joint_rep()
    basis = intertwiners(a, b, tol)

    def project(X):
        X = as_matrix(X)
        return sum((np.vdot(B, X) * B for B in basis), np.zeros((b.dim, a.dim), dtype=complex))

    return len(basis), project


def covariant_equivalence(cov1, cov2, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> Equivalence:
    """Unitary equivalence of two representations known to be irreducible.

    ``cov1`` and ``cov2`` are both :class:`CovariantRep` s, over either
    action type, or both :class:`Rep` s.  The verdict is dim Hom = 1 as
    :func:`_hom` reads it (a character sum over a :class:`GroupAction`, one
    intertwiner solve otherwise) and the witness is the unitarized
    projection P12(X) of a random X drawn from ``seed``.  The witness W
    satisfies ``W Pi1 W* = Pi2``.  Neither input is re-tested for
    irreducibility.
    """
    if cov1.dim != cov2.dim:
        return Equivalence(False, None)
    count, project = _hom(cov1, cov2, tol)
    if count == 0:
        return Equivalence(False, None)
    if count > 1:
        raise InvariantViolation("intertwiner space of irreducibles has dim > 1")
    rng = np.random.default_rng(seed)
    shape = (cov2.dim, cov1.dim)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Equivalence(True, _unitarize(project(X), tol))


def trivial_covariant(pi: Rep, action) -> CovariantRep:
    """``pi`` as a covariant representation over the trivial subgroup, U_e = 1.

    Its Hom spaces are those of representations of the algebra alone: over
    a :class:`GroupAction` the character engine decides the irreducibility
    of ``pi`` (``pi`` must then be labeled by the matrix units), and over a
    :class:`LabelAction` the joint generating set only gains U_e = 1, which
    leaves every intertwiner space unchanged.  Over either action type it
    is the trivial psi that :func:`induce` turns into the regular
    representation.
    """
    return CovariantRep(pi, action.trivial_restriction, [np.eye(pi.dim, dtype=complex)])


def rep_end_dim(pi: Rep, action, tol: Tolerance = DEFAULT_TOL) -> int:
    """dim End(pi) for a representation of the algebra an action acts on:
    :meth:`CovariantRep.end_dim` of its :func:`trivial_covariant`."""
    return trivial_covariant(pi, action).end_dim(tol)


def _block_frame(pi: Rep, algebra: MatAlg, tol: Tolerance):
    """Read a representation of a :class:`MatAlg` off its matrix units.

    Returns (k, r, C): k is the first block ``pi`` does not annihilate,
    r = tr pi(e^k_00) is rounded to an integer within ``rank_eps``, and
    column j n_k + i of C is pi(e^k_i0) w_j for an orthonormal basis w_j of
    the range of pi(e^k_00).  C is an isometry with C* pi(x) C = 1_r (x) x_k.
    """
    labels = algebra.basis_labels()
    if set(pi.gens) != set(labels):
        raise LabelMismatch("representation is not labeled by the algebra's matrix units")
    pos = 0  # position of e^k_00 in basis order
    for k, n in enumerate(algebra.block_dims):
        P = pi.gens[labels[pos]]
        trace = np.trace(P).real
        r = round(trace)
        if r < 0 or abs(trace - r) > tol.rank_eps * max(1, pi.dim):
            raise InvariantViolation(f"tr pi(e^{k}_00) = {trace:.6g} is not a rank")
        if r > 0:
            break
        pos += n * n
    else:
        raise InvariantViolation("the representation annihilates the algebra")
    w = np.linalg.eigh((P + P.conj().T) / 2)[1][:, -r:]
    # e^k_i0 sits i n_k places after e^k_00
    columns = np.array([pi.gens[labels[pos + i * n]] @ w for i in range(n)])
    return k, r, columns.transpose(1, 2, 0).reshape(pi.dim, r * n)


def translate_stabilizer(pi: Rep, action, tol: Tolerance = DEFAULT_TOL) -> dict[int, np.ndarray]:
    """The elements g whose translate ``pi o alpha_g`` is equivalent to the
    irreducible ``pi``, mapped to witnesses W with ``W pi W* = pi o alpha_g``.

    Over a :class:`GroupAction` ``pi`` is the compression to one block k up
    to its :func:`_block_frame` C: g qualifies when alpha_g fixes block k,
    with W = C U^g_k C* (phase-normalized) from the action's unitary on that
    block; a frame that is not one square copy (reducible input) raises
    :class:`InvariantViolation`.  Over a :class:`LabelAction` each translate
    is compared by :func:`covariant_equivalence` of the trivial covariants.
    """
    if not isinstance(action, GroupAction):
        base = trivial_covariant(pi, action)
        eqs = [
            covariant_equivalence(base, trivial_covariant(rep_compose(pi, action, g), action), tol)
            for g in range(action.group.order)
        ]
        return {g: eq.witness for g, eq in enumerate(eqs) if eq.equivalent}
    k, r, C = _block_frame(pi, action.algebra, tol)
    if r != 1 or C.shape[0] != C.shape[1]:
        raise InvariantViolation("reducible input: its matrix-unit frame is not one square copy")
    fixing = [g for g, aut in enumerate(action.auts) if aut.perm[k] == k]
    return {
        g: phase_normalize(C @ action.auts[g].unitaries[k] @ C.conj().T, tol) for g in fixing
    }


def _tensor_psi(lam, V, pi1: Rep, action) -> CovariantRep:
    """The stabilizer block of the structure theorem, psi_h = Lambda_h (x) V_h
    on 1_r (x) pi1, over the restricted ``action`` of H; ``lam`` and ``V``
    are stacks over the members of H."""
    lam, units = np.asarray(lam), np.array(list(pi1.gens.values()))
    d = lam.shape[1] * pi1.dim
    base = np.einsum("ij,lab->liajb", np.eye(lam.shape[1]), units).reshape(-1, d, d)
    unitaries = np.einsum("hij,hab->hiajb", lam, np.asarray(V)).reshape(-1, d, d)
    return CovariantRep(Rep(d, dict(zip(pi1.gens, base))), action, unitaries)


def induce(psi: CovariantRep, action, subgroup: Subgroup, coset_reps) -> CovariantRep:
    """The induced covariant representation Ind_H^G psi.

    ``psi`` is covariant over ``restrict_action(action, subgroup)`` and
    ``coset_reps`` c_0, ..., c_{m-1} represent the right cosets H c_i.  The
    result acts on m copies of the space of ``psi``: block i of the algebra
    carries ``psi.base o alpha_{c_i}``, and block (i, j) of U_g is psi(h)
    when c_i g = h c_j, every other block zero.
    """
    if psi.group.order != subgroup.order:
        raise InvariantViolation("psi is not a representation of the subgroup")
    d, m = psi.dim, len(coset_reps)
    # restrict_action regrounds the subgroup in ascending member order
    position = {h: k for k, h in enumerate(subgroup.members)}
    blocks = [rep_compose(psi.base, action, c) for c in coset_reps]
    gens = {l: block_diag(*(b.gens[l] for b in blocks)) for l in psi.base.gens}
    unitaries = []
    for triples in coset_action(subgroup, coset_reps):
        U = np.zeros((m * d, m * d), dtype=complex)
        for i, j, h in triples:
            U[i * d : (i + 1) * d, j * d : (j + 1) * d] = psi.unitaries[position[h]]
        unitaries.append(U)
    return CovariantRep(Rep(m * d, gens), action, unitaries)


def regular_representation(pi: Rep, action) -> CovariantRep:
    """The covariant representation induced from ``pi`` by translation.

    :func:`induce` over the trivial subgroup with coset representatives
    g_i^{-1}: block i carries ``pi`` composed with the inverse translate
    alpha_{g_i^{-1}}, and U_g is the left regular permutation of the blocks.
    """
    G = action.group
    trivial = Subgroup(G, (G.identity,))
    inverses = [G.inv(i) for i in range(G.order)]
    return induce(trivial_covariant(pi, action), action, trivial, inverses)


def regular_irreducibility_criterion(pi: Rep, action, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the induced regular representation is irreducible.

    True exactly when ``pi`` is irreducible and no nontrivial group element
    carries ``pi`` to an equivalent representation.
    """
    if rep_end_dim(pi, action, tol) != 1:
        return False
    return len(translate_stabilizer(pi, action, tol)) == 1
