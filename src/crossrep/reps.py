"""Intertwiners, commutants, equivalence, decomposition, regular representations.

A representation is stored as the matrix images of a labeled generator
set in one complex (n, d, d) stack, as are the matrices of a projective
representation and the unitaries of a covariant one.  Every intertwiner
computation first closes the generator set under adjoints: a one-sided
relation against unitary generators does not imply the adjoint relation for
a non-invertible intertwiner.

Every Hom question goes through one private oracle, ``_hom(a, b, tol)``:
character sums over a :class:`GroupAction` (:func:`hom_dim`) or for a
:class:`ProjectiveRep`, one intertwiner solve otherwise.  The structure
theorem is read off in one place, ``_mackey_orbit``: an irreducible of
M_{n_1} + ... + M_{n_b} is the compression to one block k up to a unitary,
its stabilizer is {g : alpha_g fixes k} (:func:`translate_stabilizer`), and
a covariant representation over the orbit of k is a sum of
Ind_H^G(Lambda (x) V) (:func:`induce`).  :func:`decompose`, the analyzer
and ``crossed_irreps`` all go through it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .algebra import AlgElement, GroupAction, LabelAction, MatAlg
from .errors import (
    ActionMismatch,
    BlockStructureViolation,
    DecompositionFailed,
    DimensionMismatch,
    InvariantViolation,
    LabelMismatch,
    NotFactorable,
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
    """Matrix images of a *-closed generating set: ``stack[i]`` is the image
    of ``labels[i]`` and ``gens`` the read-only label -> image view of it.

    ``gens`` maps labels to images, or with ``labels`` given it is the
    (n, dim, dim) stack of their images.
    """

    def __init__(self, dim: int, gens, labels=None):
        self.dim = int(dim)
        if labels is None:
            labels, gens = tuple(gens), list(gens.values())
        self.labels = tuple(labels)
        for label, M in zip(self.labels, gens):
            if np.shape(M) != (self.dim, self.dim):
                raise DimensionMismatch(f"generator {label!r} is not {dim}x{dim}")
        self.stack = np.asarray(gens, dtype=complex).reshape(len(self.labels), self.dim, self.dim)
        self.gens = MappingProxyType(dict(zip(self.labels, self.stack)))

    def conjugate(self, Q) -> "Rep":
        """The representation x -> Q* pi(x) Q for an isometry or unitary Q."""
        Q = as_matrix(Q)
        return Rep(Q.shape[1], Q.conj().T @ self.stack @ Q, self.labels)

    def __repr__(self):
        return f"Rep(dim={self.dim}, gens={list(self.gens)!r})"


class ProjectiveRep(Rep):
    """Unitaries multiplying up to a scalar: ``mats[gh] = c(g,h) mats[g] mats[h]``.

    A :class:`Rep` with generator g = ``mats[g]``: :func:`_hom` reads its Hom
    spaces, :func:`decompose` splits it, and its pieces keep the cocycle.
    """

    def __init__(self, group: FiniteGroup, mats, cocycle):
        super().__init__(np.shape(mats[0])[0], mats, range(len(mats)))
        self.group = group
        self.mats = self.stack
        self.cocycle = np.asarray(cocycle)

    def conjugate(self, Q) -> "ProjectiveRep":
        return ProjectiveRep(self.group, super().conjugate(Q).stack, self.cocycle)

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
    M = np.asarray(mats)
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


def _monomial_residuals(M, table: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`_relation_residuals` of a family M_a delta_x = d(a, x) delta_{ax}
    from the one nonzero entry d(a, x) of each column, O(|K|^3) scalars:
    (M_a M_b) delta_x = d(a, bx) d(b, x) delta_{abx}."""
    n = len(table)
    d = np.asarray(M)[np.arange(n)[:, None], table, np.arange(n)]
    return np.array([np.linalg.norm(d[row] - c[a][:, None] * d[a][table] * d, axis=1) for a, row in enumerate(table)])


def defining_rep(algebra: MatAlg) -> Rep:
    """The block-diagonal inclusion of the algebra, one generator per matrix unit."""
    return rep_from_images(algebra, AlgElement.to_matrix)


def rep_from_images(algebra: MatAlg, image_of) -> Rep:
    """Build a basis-labeled representation from a map on algebra elements."""
    images = [image_of(e) for e in algebra.basis_elements()]
    dims = {np.shape(M)[0] for M in images}
    if len(dims) != 1:
        raise DimensionMismatch("images have inconsistent dimensions")
    return Rep(dims.pop(), images, algebra.basis_labels())


def evaluate(rep: Rep, algebra: MatAlg, x: AlgElement) -> np.ndarray:
    """Extend a basis-labeled representation linearly to an arbitrary element,
    one contraction of its coefficients with the matrix-unit images."""
    return np.tensordot(x.coeffs(), _unit_images(rep, algebra.basis_labels()), axes=1)


def rep_compose(rep: Rep, action, g: int) -> Rep:
    """The representation ``x -> rep(alpha_g(x))``.

    For a :class:`GroupAction` the rep must be labeled by the algebra's
    matrix-unit basis, and the images are one contraction of the generator
    stack with the coefficient matrix of alpha_g; for a :class:`LabelAction`
    the generator labels are permuted.
    """
    if isinstance(action, GroupAction):
        labels = action.algebra.basis_labels()
        images = np.tensordot(action.aut(g).coefficient_matrix, _unit_images(rep, labels), axes=1)
        return Rep(rep.dim, images, labels)
    if isinstance(action, LabelAction):
        return Rep(rep.dim, _unit_images(rep, [action.map_label(g, l) for l in rep.labels]), rep.labels)
    raise TypeError(f"unsupported action type {type(action)!r}")


def _covariance_residuals(U, pi: Rep, action, g: int) -> np.ndarray:
    """||U pi(x) U* - pi(alpha_g(x))|| over the generators x of ``pi``, in
    label order: U implements alpha_g on ``pi`` when every one vanishes."""
    twisted = _unit_images(rep_compose(pi, action, g), pi.labels)
    return np.linalg.norm(U @ pi.stack @ U.conj().T - twisted, axis=(1, 2))


def direct_sum_reps(parts: list[Rep]) -> Rep:
    """Block-diagonal direct sum; all parts must share generator labels."""
    labels = parts[0].labels
    if any(p.labels != labels for p in parts):
        raise LabelMismatch("direct summands must share generator labels")
    return Rep(sum(p.dim for p in parts), block_diag(*(p.stack for p in parts)), labels)


def intertwiners(r1: Rep, r2: Rep, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of ``{T : T r1(x) = r2(x) T}`` over the *-closure."""
    if set(r1.gens) != set(r2.gens):
        raise LabelMismatch("representations do not share generator labels")
    labels = sorted(r1.gens)
    pairs = []
    for A, B in zip(_unit_images(r1, labels), _unit_images(r2, labels)):
        pairs += [(B, A), (B.conj().T, A.conj().T)]
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
    every copy exactly equal to the class representative.  Components have
    the input's type; over a :class:`GroupAction` they are ordered by
    (dimension, orbit, Lambda class), otherwise by (dimension, first occurrence).
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
    # a cluster ends where the gap to the next eigenvalue reaches eig_sep
    cuts = np.flatnonzero(np.diff(evals) >= tol.eig_sep) + 1
    return np.split(evecs, cuts, axis=1) if len(cuts) else None


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
    gens = (r.joint_rep() if isinstance(r, CovariantRep) else r).stack
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


def _collect(leaves, witness) -> list[tuple]:
    """Group irreducible (rep, isometry) leaves into (class representative,
    [isometry per copy]) classes, in order of first occurrence; ``witness(a, b)``
    is a unitary W with ``W a W* = b``, or None when they are inequivalent."""
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
    return classes


def _assemble(classes, end_dim: int) -> IrrepDecomposition:
    """(class representative, [isometry per copy]) classes, stably ordered
    by dimension; their squared multiplicities must sum to ``end_dim``."""
    classes.sort(key=lambda cls: cls[0].dim)
    multiplicities = [len(isos) for _, isos in classes]
    if sum(m * m for m in multiplicities) != end_dim:
        raise InvariantViolation(f"multiplicities {multiplicities} do not match dim End = {end_dim}")
    basis_change = np.hstack([Q for _, isos in classes for Q in isos])
    return IrrepDecomposition([(rep, len(isos)) for rep, isos in classes], basis_change)


def _decompose(r, seed: int, tol: Tolerance) -> IrrepDecomposition:
    """:func:`decompose` by random commutant splitting, without validating
    a covariant input."""
    hom = _hom(r, r, tol)
    classes = _collect(_pieces(r, hom, seed, tol), lambda a, b: covariant_equivalence(a, b, tol, seed).witness)
    return _assemble(classes, hom[0])


def decompose(r, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> IrrepDecomposition:
    """Decompose into irreducibles; a covariant input is validated once.

    A covariant Pi over a :class:`GroupAction` is read off its matrix-unit
    frames (:func:`_orbit_frames`): per orbit of blocks, the r-dimensional
    Lambda with C* Pi(U_h) C = Lambda_h (x) V_h on the frame C is split, and
    each copy of a class lambda is a copy of Ind_H^G(lambda (x) V); the
    basis change must carry Pi onto the components, ordered by (dimension,
    orbit, Lambda class).  Any other input is split along the eigenspaces
    of the commutant projection of a random Hermitian X (:func:`_hom`),
    pieces with dim End > 1 again, and leaves are matched by
    :func:`covariant_equivalence`, ordered by (dimension, first occurrence).
    Either way the squared multiplicities must sum to dim End, else
    :class:`InvariantViolation`; the multiset of components does not
    depend on the seed.
    """
    if isinstance(r, CovariantRep):
        r.validate(tol)
    if not isinstance(r, CovariantRep) or not isinstance(r.action, GroupAction):
        return _decompose(r, seed, tol)
    end_dim = hom_dim(r, r, tol)
    classes, covered = [], 0
    for pi1, witnesses, C in _orbit_frames(r, tol):
        orbit = _mackey_orbit(r.action, pi1, witnesses, (r, C), seed, tol)
        covered += C.shape[1] * len(orbit.coset_reps)
        classes += [(cls.induced, cls.isometries) for cls in orbit.classes]
    # sum r n_k [G:H] + dim(1 - Pi(1)) = dim Pi, sum m^2 = dim End Pi, and Pi carried
    if covered != r.dim:
        raise InvariantViolation(f"orbit frames cover {covered} of {r.dim} dimensions")
    dec = _assemble(classes, end_dim)
    _check_carried(r, dec.basis_change, [rep for rep, isos in classes for _ in isos], "basis change")
    return dec


def decompositions_match(
    d1: IrrepDecomposition, d2: IrrepDecomposition, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Equality of decompositions as multisets of equivalence classes.

    Components are irreducible, so two are equivalent when dim Hom = 1.
    """
    if d1.total_dim != d2.total_dim:
        return False
    remaining = list(d2.components)
    for rep1, m1 in d1.components:
        same = (c for c in remaining if c[1] == m1 and c[0].dim == rep1.dim and _hom(rep1, c[0], tol)[0] == 1)
        found = next(same, None)
        if found is None:
            return False
        remaining.remove(found)
    return not remaining


class CovariantRep:
    """A representation of an algebra together with implementing unitaries.

    ``unitaries``, one (|G|, dim, dim) stack, holds at g the image of the
    canonical unitary of group element g; they form a homomorphism and
    conjugate the base representation according to the action.
    """

    def __init__(self, base: Rep, action, unitaries):
        self.base = base
        self.action = action
        if len(unitaries) != action.group.order:
            raise InvariantViolation("need one unitary per group element")
        if any(np.shape(U) != (base.dim, base.dim) for U in unitaries):
            raise DimensionMismatch("unitary does not act on the base space")
        self.unitaries = np.asarray(unitaries, dtype=complex)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def group(self):
        return self.action.group

    def joint_rep(self) -> Rep:
        """Algebra generators and group unitaries as one generating set."""
        labels = self.base.labels + tuple(f"U[{label}]" for label in self.group.labels)
        return Rep(self.dim, np.concatenate([self.base.stack, self.unitaries]), labels)

    def conjugate(self, Q) -> "CovariantRep":
        """The covariant representation Q* Pi Q on the range of an isometry Q
        whose range is invariant (or a unitary Q)."""
        Q = as_matrix(Q)
        return CovariantRep(self.base.conjugate(Q), self.action, Q.conj().T @ self.unitaries @ Q)

    def validate(self, tol: Tolerance = DEFAULT_TOL):
        """Check U_e = 1, and U_s U_h = U_sh, U_s* U_s = 1 and covariance for
        the generators s in ``group.generators`` and every h, naming the first
        failing pair, element or generator.  Every g is a word s_1 ... s_l in
        the generators, so by induction on l U is then a unitary homomorphism
        implementing the action on all of G.

        Along a word, defects of size beta at the generators add up, to first
        order, to at most (2l - 1) beta in U_g U_h = U_gh, (3l - 2) beta in
        U_g* U_g = 1 and l (w + 2p) beta in covariance, where w is the
        action's :attr:`~crossrep.algebra.GroupAction.coefficient_spread` and
        p the largest norm of a generator of the base.  So the generators are
        held to ``identity_bound(dim)`` divided by L max(3, w + 2p), L the
        group's :attr:`~crossrep.groups.FiniteGroup.word_length`, and every
        pair (g, h) stays within ``identity_bound(dim)``."""
        G, U = self.group, self.unitaries
        S = list(G.generators)
        p = float(np.linalg.norm(self.base.stack, axis=(1, 2)).max(initial=0.0))
        spread = max(3.0, self.action.coefficient_spread + 2 * p)
        bound = tol.identity_bound(self.dim) / (max(1, G.word_length) * spread)
        if np.linalg.norm(U[G.identity] - np.eye(self.dim)) > bound:
            raise InvariantViolation(f"the unitary of the identity element {G.identity} is not 1")
        bad = np.argwhere(_relation_residuals(U, G.table, rows=S) > bound)
        if len(bad):
            i, h = bad[0]
            raise InvariantViolation(f"unitaries fail homomorphism at ({S[i]},{h})")
        defects = np.linalg.norm(U[S].conj().transpose(0, 2, 1) @ U[S] - np.eye(self.dim), axis=(1, 2))
        bad = np.flatnonzero(defects > bound)
        if len(bad):
            raise InvariantViolation(f"the unitary of element {S[bad[0]]} fails U*U = 1")
        for s in S:
            bad = np.flatnonzero(_covariance_residuals(U[s], self.base, self.action, s) > bound)
            if len(bad):
                label = self.base.labels[bad[0]]
                raise InvariantViolation(f"covariance fails at element {s} on generator {label!r}")

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


def _unit_images(rep: Rep, labels) -> np.ndarray:
    """The images of ``labels`` as one stack: the stored stack when they are
    in ``rep``'s own label order, reordered otherwise."""
    labels = tuple(labels)
    if labels == rep.labels:
        return rep.stack
    if len(labels) != len(rep.labels) or set(labels) != set(rep.labels):
        raise LabelMismatch("representation is not labeled by the expected generators")
    return np.array([rep.gens[l] for l in labels])


def covariant_character(cov: CovariantRep) -> np.ndarray:
    """The character chi(g, e^k_ij) = tr(U_g pi(e^k_ij)) of a covariant rep.

    Row g holds chi(g, .) on the matrix units in ``basis_labels()`` order,
    followed by tr(U_g (1 - pi(1))), the character of the subspace the
    algebra annihilates (zero when pi is unital).
    """
    labels = cov.action.algebra.basis_labels()
    units = _unit_images(cov.base, labels)
    U = cov.unitaries
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
    units1, units2 = _unit_images(cov1.base, labels), _unit_images(cov2.base, labels)
    X = as_matrix(X)
    Y = np.tensordot(weights, units2 @ X @ units1[transpose], axes=1)
    rest1 = np.eye(cov1.dim) - units1[diagonal].sum(axis=0)
    rest2 = np.eye(cov2.dim) - units2[diagonal].sum(axis=0)
    Y += rest2 @ X @ rest1
    return (cov2.unitaries @ Y @ cov1.unitaries.conj().transpose(0, 2, 1)).mean(axis=0)


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
        L1, L2 = a.mats, b.mats
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


def _ranks(P: np.ndarray, tol: Tolerance) -> list[int]:
    """The ranks tr P of a stack of projections, each rounded to an integer
    within ``rank_eps`` of their dimension, else :class:`InvariantViolation`."""
    traces = np.trace(P, axis1=1, axis2=2).real
    ranks = np.round(traces).astype(int)
    bad = np.flatnonzero((ranks < 0) | (np.abs(traces - ranks) > tol.rank_eps * max(1, P.shape[1])))
    if len(bad):
        raise InvariantViolation(f"projection trace {traces[bad[0]]:.6g} is not a rank")
    return ranks.tolist()


def _frame_ranks(pi: Rep, algebra: MatAlg, tol: Tolerance) -> list[int]:
    """r_k = tr pi(e^k_00) for every block k, by :func:`_ranks`."""
    starts = np.cumsum([0, *(n * n for n in algebra.block_dims[:-1])])
    return _ranks(_unit_images(pi, algebra.basis_labels())[starts], tol)


def _block_frame(pi: Rep, algebra: MatAlg, k: int, r: int) -> np.ndarray:
    """The matrix-unit frame C of a representation of a :class:`MatAlg` at
    block k of rank r = tr pi(e^k_00) > 0: column j n_k + i is
    pi(e^k_i0) w_j for an orthonormal basis w_j of the range of pi(e^k_00),
    so C* pi(x) C = 1_r (x) x_k and C C* = pi(1_k)."""
    units = _unit_images(pi, algebra.basis_labels())
    n = algebra.block_dims[k]
    pos = sum(d * d for d in algebra.block_dims[:k])  # position of e^k_00 in basis order
    P = units[pos]
    w = np.linalg.eigh((P + P.conj().T) / 2)[1][:, -r:]
    # e^k_i0 sits i n_k places after e^k_00
    columns = units[pos : pos + n * n : n] @ w
    return columns.transpose(1, 2, 0).reshape(pi.dim, r * n)


_Witnesses = namedtuple("_Witnesses", ["members", "V", "cocycle"])


def _witness_stack(action, witnesses: dict, tol: Tolerance) -> _Witnesses:
    """A stabilizer H's witnesses {h: V_h} stacked over the sorted members of
    H, with their cocycle c_V (:func:`_cocycle`)."""
    members = tuple(sorted(witnesses))
    V = np.array([witnesses[h] for h in members])
    return _Witnesses(members, V, _cocycle(action.restriction(members).action.group, V, tol))


def _block_stabilizer(action: GroupAction, k: int, tol: Tolerance) -> tuple[Rep, _Witnesses]:
    """The compression pi_k to block k and the :func:`_witness_stack` of its
    stabilizer {h : alpha_h fixes block k}, witnessed by the action's own
    unitaries U^h_k, phase-normalized.  They depend on the action alone, so
    they are computed once per (k, tol) and their arrays are read-only."""

    def build():
        units = rep_from_images(action.algebra, lambda e: e.blocks[k]).stack
        units.setflags(write=False)
        pi_k = Rep(units.shape[1], units, action.algebra.basis_labels())
        stab = _witness_stack(
            action,
            {g: phase_normalize(aut.unitaries[k], tol) for g, aut in enumerate(action.auts) if aut.perm[k] == k},
            tol,
        )
        for a in stab[1:]:
            a.setflags(write=False)
        return pi_k, stab

    return action._once(("block_stabilizer", k, tol), build)


def translate_stabilizer(pi: Rep, action, tol: Tolerance = DEFAULT_TOL) -> dict[int, np.ndarray]:
    """The elements g whose translate ``pi o alpha_g`` is equivalent to the
    irreducible ``pi``, mapped to witnesses W with ``W pi W* = pi o alpha_g``.

    Over a :class:`GroupAction` ``pi`` is the compression to one block k up
    to its :func:`_block_frame` C, and W = C U^g_k C* for the g fixing k; a
    frame that is not one square copy (reducible input) raises
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
    ranks = _frame_ranks(pi, action.algebra, tol)
    k = int(np.argmax(ranks))
    if sum(ranks) != 1 or pi.dim != action.algebra.block_dims[k]:
        raise InvariantViolation("reducible input: its matrix-unit frame is not one square copy")
    C = _block_frame(pi, action.algebra, k, 1)
    stab = _block_stabilizer(action, k, tol)[1]
    return {g: phase_normalize(C @ V @ C.conj().T, tol) for g, V in zip(stab.members, stab.V)}


def _tensor_psi(lam, V, pi1: Rep, action) -> CovariantRep:
    """The stabilizer block of the structure theorem, psi_h = Lambda_h (x) V_h
    on 1_r (x) pi1, over the restricted ``action`` of H; ``lam`` and ``V``
    are stacks over the members of H."""
    lam = np.asarray(lam)
    d = lam.shape[1] * pi1.dim
    base = np.einsum("ij,lab->liajb", np.eye(lam.shape[1]), pi1.stack).reshape(-1, d, d)
    unitaries = np.einsum("hij,hab->hiajb", lam, np.asarray(V)).reshape(-1, d, d)
    return CovariantRep(Rep(d, base, pi1.labels), action, unitaries)


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
    d, m, labels = psi.dim, len(coset_reps), psi.base.labels
    blocks = [_unit_images(rep_compose(psi.base, action, c), labels) for c in coset_reps]
    # (g, i) -> (j, h) with c_i g = h c_j, kept by the restriction for its own
    # representatives; restrict_action regrounds the subgroup in ascending
    # member order, so h is psi's element searchsorted(h)
    found = action.restriction(subgroup.members)
    reps = tuple(int(c) for c in coset_reps)
    table = found.coset_table if reps == found.coset_reps else np.array(coset_action(subgroup, reps))
    i, j, h = table.transpose(2, 0, 1)
    U = np.zeros((action.group.order, m, d, m, d), dtype=complex)
    U[np.arange(len(U))[:, None], i, :, j, :] = psi.unitaries[np.searchsorted(subgroup.members, h)]
    return CovariantRep(Rep(m * d, block_diag(*blocks), labels), action, U.reshape(-1, m * d, m * d))


# spec-pinned reconstruction threshold
_BLOCK_TOL = 1e-7


def factor_tensor(W, V, r: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The r x r unitary L with ``W = kron(L, V)``, for a known unitary V.

    Read from the block pattern of ``W (1 (x) V)*``: each d x d block of
    that product is a scalar multiple of the identity, and the scalars
    assemble L.  Stacks of W and V factor pairwise in one batch.  Raises
    :class:`NotFactorable` when a residual exceeds the 1e-7 threshold.
    """
    W, V = np.asarray(W, dtype=complex), np.asarray(V, dtype=complex)
    d = V.shape[-1]
    if W.shape[-2:] != (r * d, r * d):
        raise NotFactorable(f"W must be {r * d} x {r * d}")
    # block (i, j) of W (1 (x) V)* is W_ij V*, whose trace over d is L_ij
    L = np.einsum("...iajb,...ab->...ij", W.reshape(*W.shape[:-2], r, d, r, d), V.conj()) / d
    kron = np.einsum("...ij,...ab->...iajb", L, V).reshape(W.shape)
    scale = np.maximum(1.0, np.linalg.norm(W, axis=(-2, -1)))
    if np.any(np.linalg.norm(W - kron, axis=(-2, -1)) > _BLOCK_TOL * scale):
        raise NotFactorable("operator is not a Kronecker multiple of V")
    defect = np.swapaxes(L.conj(), -2, -1) @ L - np.eye(r)
    if np.any(np.linalg.norm(defect, axis=(-2, -1)) > _BLOCK_TOL * max(1, r)):
        raise NotFactorable("extracted factor is not unitary")
    return L


def _check_carried(Pi: CovariantRep, C, parts: list[CovariantRep], what: str):
    """Raise unless C* Pi C equals the block diagonal of ``parts`` on every
    generator and every group unitary, to the reconstruction threshold,
    naming the first miss."""
    Ch = C.conj().T
    bound = _BLOCK_TOL * max(1.0, float(Pi.dim))
    labels = Pi.base.labels
    for names, mats, wanted in (
        ([f"generator {l!r}" for l in labels], Pi.base.stack,
         block_diag(*(_unit_images(p.base, labels) for p in parts))),
        ([f"unitary {g}" for g in Pi.group.labels], Pi.unitaries, block_diag(*(p.unitaries for p in parts))),
    ):
        bad = np.flatnonzero(np.linalg.norm(Ch @ mats @ C - wanted, axis=(1, 2)) > bound)
        if len(bad):
            raise BlockStructureViolation(f"{what}: {names[bad[0]]} is not carried")


_Orbit = namedtuple(
    "_Orbit", ["subgroup", "action", "members", "V", "cocycle", "coset_reps", "coset_table", "pi", "lam", "classes"]
)
_Class = namedtuple("_Class", ["lam", "psi", "induced", "isometries"])


def _mackey_orbit(action, pi1: Rep, witnesses: _Witnesses, frame, seed: int, tol: Tolerance) -> _Orbit:
    """Mackey's read-off over one orbit (the little-group method with multipliers).

    ``witnesses`` (:func:`_witness_stack`) holds for each h of the stabilizer
    H of ``pi1`` a V_h with V_h pi1 V_h* = pi1 o alpha_h, and their cocycle
    c_V; H, its action and its cosets are read from ``action.restriction``.
    Each irreducible lambda in
    Lambda, of cocycle conj(c_V), gives one class Ind_H^G(lambda (x) V).  With
    ``frame`` None Lambda is the twisted regular L_a delta_x = c_V(a, x) delta_{ax};
    for ``frame`` (Pi, C), C* Pi(x) C = 1_r (x) pi1(x), it is the :func:`factor_tensor`
    of C* Pi(U_h) C against V_h, and each copy Q of a class gives the isometry
    [U_c* C (Q (x) 1)] over the coset representatives c, carrying Pi onto its Ind.
    """
    H, sub_action, members, coset_reps, coset_table = action.restriction(witnesses.members)
    K, V, c_V = sub_action.group, witnesses.V, witnesses.cocycle
    if frame is None:
        # L carries conj(c_V); each L_a is monomial, so its relation is read
        # entrywise against the bound of _cocycle
        lam = _twisted_regular(K, c_V)
        norms = np.linalg.norm(lam.mats, axis=(1, 2))
        if np.any(_monomial_residuals(lam.mats, K.table, lam.cocycle) > tol.identity_bound(norms[K.table])):
            raise ValueError("matrices are not scalar multiples of each other")
    else:
        Pi, C = frame
        compressed = C.conj().T @ Pi.unitaries[list(members)] @ C
        lam_mats = factor_tensor(compressed, V, C.shape[1] // pi1.dim, tol)
        # C* Pi(U_h) C = Lambda_h (x) V_h is a genuine representation, so Lambda carries conj(c_V)
        lam = ProjectiveRep(K, lam_mats, _cocycle(K, lam_mats, tol, c_V.conj()))
    dec, pos, classes = _decompose(lam, seed, tol), 0, []
    for rep, m in dec.components:
        psi = _tensor_psi(rep.mats, V, pi1, sub_action)
        isometries = []
        for _ in range(m if frame is not None else 0):
            W = C @ np.kron(dec.basis_change[:, pos : pos + rep.dim], np.eye(pi1.dim))
            isometries.append(np.hstack([Pi.unitaries[c].conj().T @ W for c in coset_reps]))
            pos += rep.dim
        classes.append(_Class(rep, psi, induce(psi, action, H, coset_reps), isometries))
    return _Orbit(H, sub_action, members, V, c_V, coset_reps, coset_table, pi1, lam, classes)


def _orbit_blocks(action: GroupAction) -> list[int]:
    """The smallest block k of each orbit {alpha_g(k)}: no alpha_g moves k lower."""
    return [k for k in range(action.algebra.n_blocks) if min(aut.perm[k] for aut in action.auts) == k]


def _orbit_frames(Pi: CovariantRep, tol: Tolerance) -> list[tuple]:
    """(pi1, witnesses, C) of :func:`_mackey_orbit` for Pi over a :class:`GroupAction`:
    pi_k and its :func:`_block_frame` per orbit whose smallest block k has r_k > 0,
    then pi1 = 0, V_g = 1 at the range of 1 - Pi(1), which U commutes with."""
    action, A = Pi.action, Pi.action.algebra
    labels = A.basis_labels()
    ranks = _frame_ranks(Pi.base, A, tol)
    frames = [
        (*_block_stabilizer(action, k, tol), _block_frame(Pi.base, A, k, ranks[k]))
        for k in _orbit_blocks(action)
        if ranks[k]
    ]
    rest = np.eye(Pi.dim) - _unit_images(Pi.base, labels)[_unit_pattern(A.block_dims)[2]].sum(axis=0)
    [a] = _ranks(rest[None], tol)
    if a:
        B = np.linalg.eigh((rest + rest.conj().T) / 2)[1][:, -a:]
        zero = Rep(1, np.zeros((len(labels), 1, 1)), labels)
        frames.append((zero, _witness_stack(action, {g: np.eye(1) for g in range(Pi.group.order)}, tol), B))
    return frames


def regular_representation(pi: Rep, action) -> CovariantRep:
    """The covariant representation induced from ``pi`` by translation.

    :func:`induce` over the trivial subgroup with coset representatives
    g_i^{-1}: block i carries ``pi`` composed with the inverse translate
    alpha_{g_i^{-1}}, and U_g is the left regular permutation of the blocks.
    """
    G = action.group
    trivial = action.restriction((G.identity,)).subgroup
    return induce(trivial_covariant(pi, action), action, trivial, G.inverse)


def regular_irreducibility_criterion(pi: Rep, action, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the induced regular representation is irreducible.

    True exactly when ``pi`` is irreducible and no nontrivial group element
    carries ``pi`` to an equivalent representation.
    """
    if rep_end_dim(pi, action, tol) != 1:
        return False
    return len(translate_stabilizer(pi, action, tol)) == 1
