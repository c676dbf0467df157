"""Intertwiners, commutants, equivalence, decomposition, regular representations.

A representation is stored as the matrix images of a labeled generator
set in one complex (n, d, d) stack, as are the matrices of a projective
representation and the unitaries of a covariant one.  Every intertwiner
computation first closes the generator set under adjoints: a one-sided
relation against unitary generators does not imply the adjoint relation for
a non-invertible intertwiner.

Every Hom question goes through one private oracle, ``_hom(a, b, tol)``:
character sums over a :class:`GroupAction` (:func:`hom_dim`) or for a
:class:`ProjectiveRep`, one intertwiner solve otherwise.

What the structure theorem attaches to a stabilizer H is one record,
``_Stabilizer``: the action and tolerance it is read at, pi1, H with its
cosets, the witnesses V_h, their cocycle c_V, the classes lambda of H with
cocycle conj(c_V) and per class met its Ind_H^G(lambda (x) V).  An action
keeps the record of each block, and a record keeps the sub-stabilizers
``classify_s3`` reads off it (``_Stabilizer.sub``).  The theorem is read
off in one place, ``_mackey_orbit``, a function of a record and a frame
(Pi, C) alone, as are the class records and inductions it reads
(``_class_records``, ``_induced``): nothing the record holds is passed
beside it, and ``_orbit_frames`` yields one (record, frame) per orbit.  An
irreducible of M_{n_1} + ... + M_{n_b} is the compression to one block k
up to a unitary, its stabilizer is {g : alpha_g fixes k}
(:func:`translate_stabilizer`), and a covariant representation
over the orbit of k is a sum of Ind_H^G(lambda (x) V) over the classes
lambda in Lambda, read against the record's classes by Serre's explicit
projections (``_copies``).  :func:`decompose` and the analyzer go through
it.  The construction runs forward in one place too, ``_orbit_irreps``:
over the orbit of block k, one Ind_H^G(lambda (x) V) per class lambda, each
certified by dim End = 1 (``_end_dims``).  ``crossed_irreps`` is a loop of
it over the orbits, and ``character_table`` reads its classes from the same
source with the trivial cocycle.  That source is one dispatch,
``_classes``, a function of (H, cocycle, tolerance) alone: a cyclic H has
one-dimensional classes, written down in closed form by
``_cyclic_classes``; any other H is split from its twisted regular
representation by ``_projective_irreps``, once along a fixed combination of
its right translations and then, where that leaves a reducible leaf, along
their compressions.  Neither draws a random number, so both directions
build their Ind_H^G(lambda (x) V) from the same lambda matrices, in
``_induced``: one stacked :func:`induce` per (orbit, dimension).  A plain
:class:`Rep` is split, and any equivalence witnessed, along fixed matrices
(``_probes``): nothing is random.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from types import MappingProxyType

import numpy as np

from .algebra import AlgElement, GroupAction, LabelAction, MatAlg, _once
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
    _cuts,
    _integer,
    _relation_residuals,
    _require,
    as_matrix,
    block_diag,
    phase_normalize,
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
    of ``labels[i]`` and ``gens`` the read-only label -> image view of it,
    built on first use.

    ``gens`` maps labels to images, or with ``labels`` given it is the
    (n, dim, dim) stack of their images.
    """

    def __init__(self, dim: int, gens, labels=None):
        self.dim = int(dim)
        if labels is None:
            labels, gens = tuple(gens), list(gens.values())
        self.labels = tuple(labels)
        shape = (len(self.labels), self.dim, self.dim)
        # a stacked array is checked once by its shape, anything else image by image
        if not (isinstance(gens, np.ndarray) and gens.shape == shape):
            for label, M in zip(self.labels, gens):
                if np.shape(M) != (self.dim, self.dim):
                    raise DimensionMismatch(f"generator {label!r} is not {dim}x{dim}")
        self.stack = np.asarray(gens, dtype=complex).reshape(shape)

    @cached_property
    def gens(self):
        return MappingProxyType(dict(zip(self.labels, self.stack)))

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

    @cached_property
    def _character(self) -> np.ndarray:
        """tr mats[g] for every g, computed on first use: a class kept by an
        action is read against many Lambda."""
        return np.trace(self.mats, axis1=1, axis2=2)

    def validate(self, threshold: float = DEFAULT_TOL.rank_eps):
        T, c = self.group.table, self.cocycle
        _require(np.abs(np.abs(c) - 1.0), threshold, "cocycle values must have modulus 1 at ({},{})")
        _require(_relation_residuals(self.mats, T, c), threshold * max(1, self.dim),
                 "projective relation fails at pair ({},{})")
        n = len(T)
        for rows in _blocks(n, n):
            _require(_cocycle_defects(c, T, rows).reshape(-1, n, n), threshold,
                     "2-cocycle identity fails at ({},{},{})", names=np.arange(n)[rows])


def _cocycle_defects(c, table, rows: slice) -> np.ndarray:
    """The defects |c(g, h) c(gh, k) - c(h, k) c(g, hk)| of the 2-cocycle
    identity of c over a Cayley table, for the rows g of one
    :func:`_blocks` block and every (h, k), shaped as :func:`_block` reads
    the block: (rows, |K|, |K|), or (|K|, |K|) for one row."""
    cg = _block(c, rows)
    # in place, two fresh arrays a block rather than five (a tenth of the page
    # faults at |K| = 256), each product in its written operand order: numpy's
    # complex product is not bitwise commutative
    defects, ghk = c[_block(table, rows)], cg[..., table]
    np.multiply(cg[..., None], defects, out=defects)
    np.multiply(c, ghk, out=ghk)
    defects -= ghk
    return np.abs(defects)


def _cocycle(K: FiniteGroup, mats, tol: Tolerance, c=None) -> np.ndarray:
    """The 2-cocycle M_ab = c(a, b) M_a M_b of a projective unitary family,
    c(a, b) = tr((M_a M_b)* M_ab) / d unless ``c`` is given, checked one
    batch per a at ``identity_bound(|M_ab|)``, naming the first failing pair."""
    M = np.asarray(mats)
    if c is None:
        c = np.array([np.einsum("bij,bij->b", (M[a] @ M).conj(), M[row]) for a, row in enumerate(K.table)])
        c /= M.shape[1]
    norms = np.linalg.norm(M, axis=(1, 2))
    _require(_relation_residuals(M, K.table, c), tol.identity_bound(norms[K.table]),
             "matrices are not scalar multiples of each other at pair ({},{})")
    return c


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
    the generator labels are permuted.  The result keeps ``rep``'s label
    order.
    """
    return Rep(rep.dim, _composed_images(rep, action, [g])[0], rep.labels)


def _composed_images(rep: Rep, action, gs) -> np.ndarray:
    """The generator images of ``x -> rep(alpha_g(x))`` for each g in ``gs``,
    in ``rep``'s label order: one new, writable (len(gs), n, dim, dim)
    stack, over a :class:`GroupAction` one contraction with the
    (len(gs), N, N) stack of the coefficient matrices of the alpha_g, N
    the number of matrix units, for every g alike (the identity included,
    whose contraction equals the stored images when alpha_e is exactly the
    identity map, and to the last bits when its unitaries are a phase)."""
    if isinstance(action, GroupAction):
        basis = tuple(action.algebra.basis_labels())
        N = len(basis)
        coefficients = np.array([action.aut(g).coefficient_matrix for g in gs]).reshape(len(gs), N, N)
        return _relabelled(np.tensordot(coefficients, _unit_images(rep, basis), axes=1), basis, rep.labels)
    if isinstance(action, LabelAction):
        return np.array([_unit_images(rep, [action.map_label(g, l) for l in rep.labels]) for g in gs])
    raise TypeError(f"unsupported action type {type(action)!r}")


def _covariance_residuals(U, pi: Rep, action, gs) -> np.ndarray:
    """||U_g pi(x) U_g* - pi(alpha_g(x))|| for each g in ``gs``, U_g the
    matching matrix of the stack ``U``, over the generators x of ``pi``: one
    row per g, in label order, from one :func:`_composed_images`.  U_g
    implements alpha_g on ``pi`` when its row vanishes."""
    twisted = _composed_images(pi, action, gs)
    return np.array([np.linalg.norm(u @ pi.stack @ u.conj().T - t, axis=(1, 2)) for u, t in zip(U, twisted)])


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
    (dimension, orbit, character of lambda), otherwise by (dimension, first occurrence).
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
    cuts = _cuts(evals, tol.eig_sep).tolist()
    return [evecs[:, a:b] for a, b in zip([0, *cuts], [*cuts, len(evals)])] if cuts else None


_BLOCK_ENTRIES = 1 << 14


def _blocks(count: int, n: int) -> list[slice]:
    """``range(count)`` in consecutive slices of max(1, 2^14 // n^2) items,
    sized from the order n of a group alone: a block of rows (or leaves) of
    (n, n) arrays then holds about 2^14 entries (per unit of leaf width),
    one block for n <= 8 and one item a block from n = 128 on."""
    size = max(1, _BLOCK_ENTRIES // (n * n))
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _block(a, block: slice):
    """The items ``block`` of ``a``; a block of one item is that item, read
    without a leading axis as a loop over items reads it: with the axis, a
    first crossed_irreps over Z128 takes nine times the page faults and
    a third more time."""
    return a[block.start] if block.stop - block.start == 1 else a[block]


def _character_keys(dims, chi: np.ndarray, tol: Tolerance) -> list[tuple]:
    """The one order of projective irreducibles of one cocycle, as sort keys
    of the irreducibles with these dimensions and rows of characters: the
    dimension, then chi(h) = tr lambda_h, real and imaginary part, over the
    elements h in index order on the ``rank_eps`` grid.  Characters are
    constant on classes, so this is the order over classes by their
    smallest member."""
    # a complex row viewed as floats is its (real, imaginary) pairs in order
    grid = np.rint(np.ascontiguousarray(chi / tol.rank_eps).view(float)).tolist()
    return [(dim, *row) for dim, row in zip(dims, grid)]


def _require_cocycle(K: FiniteGroup, c, tol: Tolerance):
    """The 2-cocycle identity of c at (a, b, x) over every x, which is the
    relation L_ab = conj(c)(a, b) L_a L_b of the twisted regular
    representation L_a delta_x = c(a, x) delta_{ax}: one row norm over x
    per pair (a, b) at the ``identity_bound(sqrt|K|)`` of :func:`_cocycle`,
    over blocks of rows a, naming the first failing pair."""
    n = K.order
    for rows in _blocks(n, n):
        # held until the next block is computed: freed before it, the pages of
        # every row are returned and faulted in again (20 times the faults at |K| = 256)
        defects = _cocycle_defects(c, K.table, rows)
        _require(np.linalg.norm(defects, axis=-1).reshape(-1, n), tol.identity_bound(np.sqrt(n)),
                 "matrices are not scalar multiples of each other at pair ({},{})", names=np.arange(n)[rows])


def _classes(K: FiniteGroup, c, tol: Tolerance) -> list[ProjectiveRep]:
    """One irreducible per class of projective representations of K with
    cocycle conj(c), in :func:`_character_keys` order, a function of (K, c,
    tol) alone: written down by :func:`_cyclic_classes` when K is cyclic,
    split from the twisted regular representation along a fixed
    combination of its right translations, then along their compressions,
    by :func:`_projective_irreps` otherwise.  Neither draws a
    random number."""
    g = K.cyclic_generator()
    return _projective_irreps(K, c, tol) if g is None else _cyclic_classes(K, c, g, tol)


def _cyclic_classes(K: FiniteGroup, c, g: int, tol: Tolerance) -> list[ProjectiveRep]:
    """The |K| classes of projective representations of a cyclic K = <g> of
    order m with cocycle conj(c), in closed form: every 2-cocycle of a cyclic
    group is a coboundary (Karpilovsky 1985), so they are one-dimensional.

    Given the 2-cocycle identity (certified below), the relation
    lambda(ab) = conj(c(a, b)) lambda(a) lambda(b) along the powers of g and
    the wrap g^m = e give nu(g^k) = c(e, e) exp(i (sum_{j<k} theta_j
    - k Theta / m)), theta_j = -arg c(g^j, g) and Theta = sum_j theta_j, and
    the classes lambda_j(g^k) = nu(g^k) omega^(jk mod m), omega = exp(2 pi
    i / m).  The phases are summed as angles, not multiplied up as a
    running product, whose rounding grows m times over.  lambda_0 is
    certified on all |K|^2 pairs at ``identity_bound(1)``; the lambda_j
    = lambda_0 chi_j then have distinct characters, and m classes of
    dimension 1 give sum d^2 = |K|, so the list is complete.  No random
    number is drawn.

    The O(|K|^3) identity check runs only where lambda_0 misses the
    tighter :meth:`~crossrep.linalg.Tolerance.certificate_bound`, which
    implies it and lambda_0's own check.  There the identity check runs
    first and lambda_0's check second, and the closed form is computed
    without floating-point warnings, so what is accepted, and every
    refusal, is decided by those two checks alone."""
    m, T = K.order, K.table
    powers = [K.identity]
    for _ in range(m - 1):
        powers.append(int(T[powers[-1], g]))
    k = np.arange(m)
    # a c that fails the identity check may hold inf or nan; it is refused below
    with np.errstate(all="ignore"):
        theta = -np.angle(c[powers, g])
        sums = np.concatenate([[0.0], np.cumsum(theta[:-1])])  # sum_{j<k} theta_j
        nu = c[K.identity, K.identity] * np.exp(1j * (sums - k * theta.sum() / m))
        # chi[j, g^k] = lambda_j(g^k), omega^(jk) read from the m exact roots
        chi = np.empty((m, m), dtype=complex)
        chi[:, powers] = nu * np.exp(2j * np.pi * k / m)[np.outer(k, k) % m]
        lam0, cocycle = chi[0], c.conj()
        residuals = np.abs(lam0[T] - cocycle * np.outer(lam0, lam0))
    if not np.all(residuals <= tol.certificate_bound(abs(nu[0]))):
        _require_cocycle(K, c, tol)
        _require(residuals, tol.identity_bound(1.0), "closed-form class fails the projective relation at pair ({},{})")
    del residuals  # |K|^2 floats, not held while the classes are built
    keys = _character_keys([1] * m, chi, tol)
    mats = chi[sorted(range(m), key=keys.__getitem__), :, None, None]
    return [ProjectiveRep(K, lam, cocycle) for lam in mats]


# the golden ratio, whose multiples spread evenly mod 1 (Weyl 1916): the
# phases of the first split of _projective_irreps and of the first _probes
_GOLDEN = (1 + 5**0.5) / 2


def _projective_irreps(K: FiniteGroup, c, tol: Tolerance) -> list[ProjectiveRep]:
    """One irreducible per class of projective representations of K with
    cocycle conj(c), split from the twisted regular representation
    L_a delta_x = c(a, x) delta_{ax} without forming it, with no random draw.

    L's relation L_ab = conj(c)(a, b) L_a L_b is the 2-cocycle identity of
    c at (a, b, x) over every x, checked by :func:`_require_cocycle`.  At
    (a, x, b) it makes the right translations R_b delta_x = c(x, b)
    delta_{xb} commute with L, and they span L's commutant (Karpilovsky
    1985).  One generic element of a commutant splits a representation
    into irreducible blocks (Murota, Kanno, Kojima & Kojima 2010), so the
    whole space is split once along the eigenspaces
    (:func:`_eigen_clusters`) of Y + Y*, for the fixed Y = sum_{b != e}
    z_b R_b with z_b = exp(2 pi i frac(b phi)), phi the golden ratio and b
    the element index; R_e = c(e, e) 1 is a scalar.  The compressions
    Q* R_b Q span End_L of any invariant leaf Q, so they certify what Y
    leaves reducible: such a leaf, or the whole space when Y + Y* is one
    cluster, is split along the eigenspaces of Q* (R_b + R_b*) Q, or of
    Q* i(R_b - R_b*) Q when that is one cluster, for the b != e in element
    order from the one that split its parent (:func:`_split_leaf`), and a
    leaf that none of them splits is irreducible.  No irreducible of K has
    dimension above sqrt|K|, so only leaves of width w with w^2 <= |K|
    are gathered, lambda_a = Q* L_a Q read from the permuted rows (L_a
    Q)[ax] = c(a, x) Q[x]: one whose range is not invariant raises
    :class:`InvariantViolation` naming a, and one with dim End = |K|^-1
    sum_a |tr lambda_a|^2 = 1 is kept; the others are split again.  A
    reducible leaf that no compression splits at ``eig_sep`` raises
    :class:`DecompositionFailed` naming its width.  Characters separate the
    classes (Cheng 2015): a leaf is kept unless its character inner product
    with a kept one is 1, the inner products of every pair of leaves read
    from one product and rounded by :func:`_character_dims`; kept ones come
    in :func:`_character_keys` order, read from the same characters.

    Each step is a fixed number of array passes over the :func:`_blocks` of
    |K|: the identity is checked over blocks of rows a, Y is one dense
    (|K|, |K|) array written at its entries (y, y b^-1), which are
    distinct over every b, and one eigensolve, and each round of
    splits gathers and checks its leaves over blocks of leaves of one
    width, narrowest first, and rounds their dim End in one
    :func:`_end_dims`.  One failure is named as a loop over the rows, then
    over the leaves, would name it, with the same residual.  Where several
    leaves fail, the one named may differ from such a loop's: invariance is
    checked for every leaf of a round before any leaf's dim End, and in
    width order.
    """
    n, T = K.order, K.table
    _require_cocycle(K, c, tol)
    # source[a, y] = a^-1 y and weights[a, y] = c(a, a^-1 y): row y of L_a;
    # before[i, y] = y b^-1 and right[i, y] = c(y b^-1, b): row y of R_b for
    # the i-th b != e, since R_e = c(e, e) 1 is a scalar and splits nothing
    source, cocycle = T[K.inverse], c.conj()
    weights = c[np.arange(n)[:, None], source]
    translations = np.flatnonzero(np.arange(n) != K.identity)
    before = T[:, K.inverse[translations]].T
    right = c[before, translations[:, None]]
    # Y = sum_b z_b R_b at its entries (y, y b^-1), distinct over every b != e
    Y = np.zeros((n, n), dtype=complex)
    Y[np.arange(n), before] = np.exp(2j * np.pi * (translations * _GOLDEN % 1))[:, None] * right
    clusters = _eigen_clusters(Y + Y.conj().T, tol) or [np.eye(n, dtype=complex)]
    pending, leaves, characters = [(Q, 0) for Q in clusters], [], []
    while pending:
        gathered = [i for i, (Q, _) in enumerate(pending) if Q.shape[1] ** 2 <= n]
        lams, chi = _gather_leaves([pending[i][0] for i in gathered], source, weights, tol)
        irreducible = set()
        for i, mats, row, end in zip(gathered, lams, chi, _end_dims(chi, 1.0, tol).tolist()):
            if end == 1:
                irreducible.add(i)
                leaves.append(mats)
                characters.append(row)
        pending = [child for i, (Q, b) in enumerate(pending) if i not in irreducible
                   for child in _split_leaf(Q, b, before, right, tol)]
    # every pair of leaf characters in one product: means[j, i] = <chi_j, chi_i>
    chi = np.array(characters)
    means = chi.conj() @ chi.T / n
    dims, bounds = _character_dims(means, np.abs(chi) @ np.abs(chi).T / n, tol)
    kept, table = [], dims.tolist()
    for i in range(len(leaves)):
        # the pairs with kept leaves are decided up to the first match; the
        # first of them that is no dimension is refused
        first = next((j for j in kept if table[j][i] in (1, -1)), None)
        if first is None:
            kept.append(i)
        elif table[first][i] < 0:
            _sum_dim(means[first, i], bounds[first, i])
    keys = _character_keys([len(leaves[i][0]) for i in kept], chi[kept], tol)
    return [ProjectiveRep(K, leaves[i], cocycle) for _, i in sorted(zip(keys, kept))]


def _gather_leaves(frames, source, weights, tol: Tolerance):
    """The leaves lambda_a = Q* L_a Q of the frames Q of a round of
    :func:`_projective_irreps`, over blocks of frames of one width,
    narrowest first: the list of (|K|, w, w) stacks, in the order of
    ``frames``, and their characters.  A frame whose range is not
    invariant under L raises :class:`InvariantViolation` naming a."""
    n = len(source)
    widths = np.array([Q.shape[1] for Q in frames], dtype=int)
    lams, chi = [None] * len(frames), np.empty((len(frames), n), dtype=complex)
    for w in sorted(set(widths.tolist())):
        same = np.flatnonzero(widths == w)
        frames_w = [frames[i] for i in same]
        for block in _blocks(len(same), n):
            members, Q = same[block], np.array(_block(frames_w, block))
            # LQ[l, a] = L_a Q_l and lam[l, a] = Q_l* L_a Q_l for the leaves l of the block
            LQ = weights[..., None] * np.take(Q, source, axis=-2)
            lam = Q.conj().swapaxes(-2, -1)[..., None, :, :] @ LQ
            # Q_l lam[l, a] for every a in one product per leaf: rows (a, j) of lam^T times Q^T
            lead = lam.shape[:-3]
            Qlam = (lam.swapaxes(-2, -1).reshape(*lead, n * w, w) @ Q.swapaxes(-2, -1)).reshape(*lead, n, w, n)
            residuals = np.linalg.norm(LQ - Qlam.swapaxes(-2, -1), axis=(-2, -1))
            _require(residuals.reshape(-1, n), tol.identity_bound(np.sqrt(w)),
                     "split leaf is not invariant under L at element {1}")
            lam = lam.reshape(-1, n, w, w)
            chi[members] = np.trace(lam, axis1=2, axis2=3)
            for i, mats in zip(members, lam):
                lams[i] = mats
    return lams, chi


def _split_leaf(Q: np.ndarray, start: int, before, right, tol: Tolerance) -> list[tuple]:
    """The children (Q V, i) of a leaf Q of :func:`_projective_irreps`, V
    the :func:`_eigen_clusters` of Q* (R_b + R_b*) Q, or of Q* i(R_b - R_b*)
    Q when that is one cluster, at the first right translation b, the i-th
    of ``before`` and ``right``, from the ``start``-th on that splits Q;
    (R_b Q)[y] = c(y b^-1, b) Q[y b^-1] is a gather of |K| w entries.
    :class:`DecompositionFailed` when none does."""
    for i in range(start, len(before)):
        M = Q.conj().T @ (right[i][:, None] * Q[before[i]])
        for H in (M + M.conj().T, 1j * (M - M.conj().T)):
            clusters = _eigen_clusters(H, tol)
            if clusters is not None:
                return [(Q @ V, i) for V in clusters]
    raise DecompositionFailed(f"a reducible split leaf of width {Q.shape[1]} is split by no right translation")


def _probes(m: int, n: int, split: bool = False):
    """The fixed m x n matrices a witness or a split is read along: Z_ab =
    exp(2 pi i frac((a n + b + 1) phi)), then the matrix units E_ab in
    row-major order, which span every Hom space.  A split reads X + X*
    (``split``, m = n), whose Hermitian parts E_ab + E_ba and i(E_ab - E_ba)
    span the Hermitian ones: E_ab for a <= b, each followed by i E_ab when a
    < b.  What is left out repeats a probe read before it up to sign, or is
    i(E_aa - E_aa) = 0, so it is never the first to split."""
    yield np.exp(2j * np.pi * (np.arange(1, m * n + 1) * _GOLDEN % 1)).reshape(m, n)
    for a, b in np.ndindex(m, n):
        if split and a > b:
            continue
        E = np.zeros((m, n), dtype=complex)
        E[a, b] = 1
        yield E
        if split and a < b:
            yield 1j * E


def _pieces(r, hom, tol: Tolerance):
    """Depth-first refinement into irreducible (rep, isometry) leaves.

    ``hom`` is ``_hom(r, r)``; dim End = 1 marks a leaf.  Otherwise r is
    split along the eigenvalue clusters of P(X + X*), P the orthogonal
    projection onto the commutant, for the first of the 1 + n^2 split
    :func:`_probes` X that separates them, and each cluster is refined
    again; a reducible r that none splits raises :class:`DecompositionFailed`.
    """
    end_dim, project = hom
    if end_dim == 1:
        return [(r, np.eye(r.dim, dtype=complex))]
    gens = r.joint_rep() if isinstance(r, CovariantRep) else r
    for X in _probes(r.dim, r.dim, split=True):
        H = project(X + X.conj().T)
        H = (H + H.conj().T) / 2
        # the eigenspaces of H are invariant only if H is in the commutant
        _require(np.linalg.norm(H @ gens.stack - gens.stack @ H, axis=(1, 2)),
                 tol.identity_bound(r.dim * np.linalg.norm(H)),
                 "projected element fails to commute with a generator, {!r}", names=gens.labels)
        isometries = _eigen_clusters(H, tol)
        if isometries is not None:
            break
    else:
        raise DecompositionFailed("no eigenvalue gap above eig_sep along any probe of the commutant")
    leaves = []
    for Q in isometries:
        sub = r.conjugate(Q)
        for piece, iso in _pieces(sub, _hom(sub, sub, tol), tol):
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


def _decompose(r, tol: Tolerance) -> IrrepDecomposition:
    """:func:`decompose` by commutant splitting, without validating a
    covariant input."""
    hom = _hom(r, r, tol)
    classes = _collect(_pieces(r, hom, tol), lambda a, b: covariant_equivalence(a, b, tol).witness)
    return _assemble(classes, hom[0])


def decompose(r, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> IrrepDecomposition:
    """Decompose into irreducibles; a covariant input is validated once.

    A covariant Pi over a :class:`GroupAction` is read off its matrix-unit
    frames (:func:`_orbit_frames`): per orbit of blocks, the r-dimensional
    Lambda with C* Pi(U_h) C = Lambda_h (x) V_h on the frame C is read
    against the classes of the stabilizer record the action keeps for the
    orbit (:class:`_Stabilizer`, :func:`_copies`), and each copy of a class
    lambda is a copy of Ind_H^G(lambda (x) V), built from the class's own
    matrices and kept in the record (:func:`_class_records`, read-only), so
    the components are those of ``crossed_irreps``, array for array; the basis
    change must carry Pi onto the components, ordered by (dimension, orbit,
    character of lambda).  Any other input is split along the eigenspaces
    of the commutant projections of fixed probes (``_pieces``), pieces with
    dim End > 1 again, and leaves are matched by
    :func:`covariant_equivalence`, ordered by (dimension, first
    occurrence).  Either way the squared multiplicities must sum to dim
    End, else :class:`InvariantViolation`.  No random number is drawn and
    ``seed`` is not read; a component of dimension d >= 2 is in the basis
    ``eigh`` picks for its eigenspace.
    """
    if isinstance(r, CovariantRep):
        r.validate(tol)
    if not isinstance(r, CovariantRep) or not isinstance(r.action, GroupAction):
        return _decompose(r, tol)
    end_dim = hom_dim(r, r, tol)
    classes, covered = [], 0
    for stab, C in _orbit_frames(r, tol):
        orbit = _mackey_orbit(stab, (r, C))
        covered += C.shape[1] * len(stab.restriction.coset_reps)
        classes += [(cls.induced, cls.isometries) for cls in orbit.classes]
    # sum r n_k [G:H] + dim(1 - Pi(1)) = dim Pi, sum m^2 = dim End Pi, and Pi carried
    if covered != r.dim:
        raise InvariantViolation(f"orbit frames cover {covered} of {r.dim} dimensions")
    dec = _assemble(classes, end_dim)
    _check_carried(r, dec.basis_change, [rep for rep, isos in classes for _ in isos], "basis change", tol)
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
        if not (isinstance(unitaries, np.ndarray) and unitaries.shape == (action.group.order, base.dim, base.dim)):
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
        _require(np.linalg.norm(U[G.identity] - np.eye(self.dim)), bound,
                 f"the unitary of the identity element {G.identity} is not 1")
        _require(_relation_residuals(U, G.table, rows=S), bound, "unitaries fail homomorphism at ({},{})", names=S)
        _require(np.linalg.norm(U[S].conj().transpose(0, 2, 1) @ U[S] - np.eye(self.dim), axis=(1, 2)), bound,
                 "the unitary of element {} fails U*U = 1", names=S)
        for s, row in zip(S, _covariance_residuals(U[S], self.base, self.action, S)):
            _require(row, bound, f"covariance fails at element {s} on generator {{!r}}", names=self.base.labels)

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
    return _relabelled(rep.stack, rep.labels, labels)


def _relabelled(images: np.ndarray, have: tuple, labels) -> np.ndarray:
    """The images of ``labels`` from ``images``, whose axis -3 holds the
    images of the labels ``have``: ``images`` itself when the orders agree,
    reordered otherwise."""
    labels = tuple(labels)
    if labels == have:
        return images
    if len(labels) != len(have) or set(labels) != set(have):
        raise LabelMismatch("representation is not labeled by the expected generators")
    index = {label: i for i, label in enumerate(have)}
    return images[..., [index[label] for label in labels], :, :]


def covariant_character(cov: CovariantRep) -> np.ndarray:
    """The character chi(g, e^k_ij) = tr(U_g pi(e^k_ij)) of a covariant rep.

    Row g holds chi(g, .) on the matrix units in ``basis_labels()`` order,
    followed by tr(U_g (1 - pi(1))), the character of the subspace the
    algebra annihilates (zero when pi is unital).  The one-member case of
    the stacked ``_characters``, which ``_orbit_irreps`` reads for every
    irreducible of one (orbit, dimension) at once.
    """
    return _characters(cov.base, cov.unitaries[None], cov.action.algebra)[0]


def _characters(base: Rep, U: np.ndarray, algebra: MatAlg) -> np.ndarray:
    """:func:`covariant_character` of T covariant representations that share
    ``base``, from their (T, |G|, d, d) stack ``U`` of unitaries, in one
    product: a (T, |G|, units + 1) array."""
    units = _unit_images(base, algebra.basis_labels())
    # tr(U_g pi(e)) = sum_ab U_g[a, b] pi(e)[b, a]
    chi = U.reshape(-1, U[0, 0].size) @ units.transpose(0, 2, 1).reshape(len(units), -1).T
    chi = chi.reshape(*U.shape[:2], len(units))
    _, _, diagonal = _unit_pattern(algebra.block_dims)
    rest = np.trace(U, axis1=2, axis2=3) - chi[..., diagonal].sum(axis=-1)
    return np.concatenate([chi, rest[..., None]], axis=-1)


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
    rounded by :func:`_integer` to a dimension within ``rank_eps`` of the mean of |terms|."""
    bound = tol.rank_eps * max(1.0, np.abs(terms).sum() / len(terms))
    return _sum_dim(terms.sum() / len(terms), bound)


def _sum_dim(mean, bound: float) -> int:
    """One character sum rounded to a dimension within ``bound`` by :func:`_integer`."""
    return _integer(mean, bound, "character sum", "dimension", "scale")


def _character_dims(means: np.ndarray, scales: np.ndarray, tol: Tolerance):
    """Many character sums at once, rounded by the rule of :func:`_character_dim`:
    ``means[i]`` is a sum |G|^-1 sum of terms and ``scales[i]`` the mean of
    their moduli.  Returns (dims, bounds); a sum that is no dimension within
    its bound reads -1 in dims, and ``_sum_dim(means[i], bounds[i])`` names it."""
    bounds = tol.rank_eps * np.maximum(1.0, scales)
    counts = np.rint(means.real)
    with np.errstate(invalid="ignore"):  # an infinite sum is a NaN distance, which fails its bound
        within = (counts >= 0) & (np.abs(means - counts) <= bounds)
    return np.where(within, counts, -1).astype(int), bounds


def _end_dims(chi: np.ndarray, weights, tol: Tolerance, reducible: str | None = None) -> np.ndarray:
    """dim End of each member t of a stack from its characters chi[t, g, ...]:
    the sums |G|^-1 sum_g sum_u w_u |chi(g, u)|^2 with ``weights`` w, rounded
    by :func:`_character_dims`.  The first sum that is no dimension is named
    by :func:`_sum_dim`.  With ``reducible`` every sum must be 1: the first
    that is not is named by :func:`_sum_dim` if it is no dimension, else
    :class:`InvariantViolation` with the message ``reducible``."""
    ends = (weights * np.abs(chi) ** 2).sum(axis=tuple(range(1, chi.ndim))) / chi.shape[1]
    dims, bounds = _character_dims(ends, ends, tol)
    misses = np.flatnonzero(dims < 0 if reducible is None else dims != 1)
    if misses.size:
        _sum_dim(ends[misses[0]], bounds[misses[0]])  # raises unless the sum is a dimension
        raise InvariantViolation(reducible)
    return dims


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
        if c1 is not c2:
            if c1.shape != c2.shape:
                raise ActionMismatch("projective representations with different cocycles")
            _require(np.abs(c1 - c2), tol.identity_bound(1.0),
                     "projective representations with different cocycles at pair ({},{})", ActionMismatch)
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
    projection P12(X) of the first of the :func:`_probes` X with
    ||P12(X)|| > abs_eps (P12(i X) = i P12(X), so no i E_ab is read), so
    of the one basis matrix of Hom, phase normalized.  The witness W
    satisfies ``W Pi1 W* = Pi2``.  Neither input is re-tested for
    irreducibility; ``seed`` is not read.
    """
    if cov1.dim != cov2.dim:
        return Equivalence(False, None)
    count, project = _hom(cov1, cov2, tol)
    if count == 0:
        return Equivalence(False, None)
    if count > 1:
        raise InvariantViolation("intertwiner space of irreducibles has dim > 1")
    T = next((P for P in map(project, _probes(cov2.dim, cov1.dim)) if np.linalg.norm(P) > tol.abs_eps), None)
    if T is None:
        raise InvariantViolation("no probe has a projection onto the one-dimensional Hom above abs_eps")
    return Equivalence(True, phase_normalize(T / np.sqrt(np.trace(T.conj().T @ T).real / T.shape[1]), tol))


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
    """The ranks tr P of a stack of projections, each rounded by
    :func:`_integer` within ``rank_eps`` of their dimension."""
    bound = tol.rank_eps * max(1, P.shape[1])
    traces = np.trace(P, axis1=1, axis2=2).real.tolist()
    return [_integer(t, bound, "projection trace", "rank", "dim") for t in traces]


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


class _Stabilizer:
    """What the structure theorem attaches to the stabilizer H of one orbit
    in ``action``, read at ``tol``: ``pi1``, the witnesses V_h with V_h pi1
    V_h* = pi1 o alpha_h stacked over the sorted members of H (``V``), their
    cocycle c_V (:func:`_cocycle`), H's ``restriction`` (subgroup,
    regrounded action, members, cosets and coset table), its ``classes`` of
    cocycle conj(c_V) from :func:`_classes`, built on first read, and the
    ``records`` class
    index -> (lambda, psi, Ind_H^G psi) that :func:`_class_records` fills;
    pi1, V, c_V and the classes are read-only.  What the structure report
    reads off H alone is built on first read too: the coset permutations
    ``perms``, ``h_is_normal`` and ``v_rep``, the projective
    representation V of cocycle c_V.  A record owns what is derived from
    it, its :meth:`sub` records included: the action keeps block k's
    record (:func:`_block_stabilizer`) and the annihilated subspace's
    (:func:`_orbit_frames`) with everything derived from them, and a record
    whose pi1 or V depend on the input (a :class:`LabelAction` frame,
    ``homogeneous_irreducibility``) is built per call and dies with what
    it derived."""

    def __init__(self, action, pi1: Rep, witnesses: dict, tol: Tolerance):
        members = tuple(sorted(witnesses))
        self.action, self.pi1, self.tol = action, pi1, tol
        self.restriction = action.restriction(members)
        self.V = np.array([witnesses[h] for h in members])
        self.cocycle = _cocycle(self.restriction.action.group, self.V, tol)
        self.records = {}
        for a in (pi1.stack, self.V, self.cocycle):
            a.setflags(write=False)

    @cached_property
    def classes(self) -> list[ProjectiveRep]:
        classes = _classes(self.restriction.action.group, self.cocycle, self.tol)
        for lam in classes:
            lam.mats.setflags(write=False)
            lam.cocycle.setflags(write=False)
        return classes

    def sub(self, members: tuple, within: tuple | None = None) -> "_Stabilizer":
        """The record of pi1 with the witnesses V_h for the sorted
        ``members`` h of H, over ``action.restriction(within).action`` when
        ``within`` is given (h is then its element ``within.index(h)``),
        built once and kept on this record; this record itself at H's own
        members and no ``within``."""
        if within is None and members == self.restriction.members:
            return self

        def build():
            V = dict(zip(self.restriction.members, self.V))
            action = self.action if within is None else self.action.restriction(within).action
            index = members if within is None else [within.index(h) for h in members]
            return _Stabilizer(action, self.pi1, {i: V[h] for i, h in zip(index, members)}, self.tol)

        return _once(self, (members, within), build)

    @cached_property
    def perms(self) -> np.ndarray:
        """Row g sends j to the i with c_i g in H c_j; read-only."""
        perms = np.argsort(self.restriction.coset_table[:, :, 1], axis=1)
        perms.setflags(write=False)
        return perms

    @cached_property
    def h_is_normal(self) -> bool:
        """Whether H is normal: each g with c_0 g in H = H c_0 fixes every coset."""
        identity = np.arange(len(self.restriction.coset_reps))
        return all(perm[0] != 0 or np.array_equal(perm, identity) for perm in self.perms)

    @cached_property
    def v_rep(self) -> ProjectiveRep:
        return ProjectiveRep(self.restriction.action.group, self.V, self.cocycle)


def _block_stabilizer(action: GroupAction, k: int, tol: Tolerance) -> _Stabilizer:
    """The :class:`_Stabilizer` of block k: the compression pi_k and the
    stabilizer {h : alpha_h fixes block k}, witnessed by the action's own
    unitaries U^h_k, phase-normalized.  Kept on the action per (k, tol)."""

    def build():
        pi_k = rep_from_images(action.algebra, lambda e: e.blocks[k])
        witnesses = {g: phase_normalize(aut.unitaries[k], tol) for g, aut in enumerate(action.auts) if aut.perm[k] == k}
        return _Stabilizer(action, pi_k, witnesses, tol)

    return _once(action, ("stabilizer", k, tol), build)


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
    stab = _block_stabilizer(action, k, tol)
    return {g: phase_normalize(C @ V @ C.conj().T, tol) for g, V in zip(stab.restriction.members, stab.V)}


def _tensor_stack(lams, V, pi1: Rep) -> tuple[Rep, np.ndarray]:
    """The stabilizer blocks of the structure theorem for T classes of one
    dimension r at once: the shared base 1_r (x) pi1 and the (T, |H|, d, d)
    stack psi_h = Lambda_h (x) V_h, from the (T, |H|, r, r) stack ``lams``
    and the stack ``V`` over the members of H."""
    lams = np.asarray(lams)
    r = lams.shape[2]
    d = r * pi1.dim
    base = np.einsum("ij,lab->liajb", np.eye(r), pi1.stack).reshape(-1, d, d)
    unitaries = np.einsum("thij,hab->thiajb", lams, np.asarray(V)).reshape(len(lams), -1, d, d)
    return Rep(d, base, pi1.labels), unitaries


def induce(psi: CovariantRep, action, subgroup: Subgroup, coset_reps) -> CovariantRep:
    """The induced covariant representation Ind_H^G psi.

    ``psi`` is covariant over ``restrict_action(action, subgroup)`` and
    ``coset_reps`` c_0, ..., c_{m-1} represent the right cosets H c_i.  The
    result acts on m copies of the space of ``psi``: block i of the algebra
    carries ``psi.base o alpha_{c_i}``, and block (i, j) of U_g is psi(h)
    when c_i g = h c_j, every other block zero.  The one-psi case of
    ``_induce_stack``, which ``_induced`` calls once per (orbit, dimension)
    for both ``_orbit_irreps`` and ``_mackey_orbit``, here run on copies
    of psi's arrays: the result shares no memory with ``psi``, even at
    H = G, and its unitaries are writable.
    """
    if psi.group.order != subgroup.order:
        raise InvariantViolation("psi is not a representation of the subgroup")
    # the restriction keeps the coset table of its own representatives only
    found = action.restriction(subgroup.members)
    reps = tuple(int(c) for c in coset_reps)
    if reps != found.coset_reps:
        found = found._replace(coset_reps=reps, coset_table=np.array(coset_action(subgroup, reps)))
    base = Rep(psi.dim, psi.base.stack.copy(), psi.base.labels)
    return _induce_stack(base, psi.unitaries[None].copy(), action, found)[0]


def _induce_stack(base: Rep, unitaries: np.ndarray, action, restriction) -> list[CovariantRep]:
    """:func:`induce` of T psi's that share ``base``, from their (T, |H|, d, d)
    stack of unitaries, over the cosets and coset table of ``restriction``
    (:meth:`~crossrep.algebra.GroupAction.restriction`), in a fixed number
    of array passes: the block images base o alpha_{c_i} of every coset
    are one contraction (:func:`_composed_images`) and fill the block
    diagonal in one assignment, the coset table is read once, and every
    U_g of the stack is filled in one assignment.  The T results share one
    read-only induced base.  From H = G over the one coset of the identity,
    Ind psi is psi over ``action``: then the results are views of
    ``base.stack``, read-only, and of their rows of ``unitaries``."""
    coset_reps, d, labels = restriction.coset_reps, base.dim, base.labels
    if coset_reps == (action.group.identity,):
        stack = base.stack.view()
        stack.setflags(write=False)
        induced = Rep(d, stack, labels)
        return [CovariantRep(induced, action, u) for u in unitaries]
    m = len(coset_reps)
    images = _composed_images(base, action, coset_reps)
    # (g, i) -> (j, h) with c_i g = h c_j; restrict_action regrounds the
    # subgroup in ascending member order, so h is psi's element searchsorted(h)
    i, j, h = restriction.coset_table.transpose(2, 0, 1)
    T, n, cosets = len(unitaries), action.group.order, np.arange(m)
    U = np.zeros((T, n, m * d, m * d), dtype=complex)
    psi = unitaries[:, np.searchsorted(restriction.members, h)]
    U.reshape(T, n, m, d, m, d)[np.arange(T)[:, None, None], np.arange(n)[:, None], i, :, j, :] = psi
    stack = np.zeros((len(labels), m * d, m * d), dtype=complex)
    stack.reshape(-1, m, d, m, d)[:, cosets, :, cosets, :] = images
    stack.setflags(write=False)  # shared by the whole stack
    induced = Rep(m * d, stack, labels)
    return [CovariantRep(induced, action, u) for u in U]


def _induced(stab: _Stabilizer, lams):
    """Ind_H^G(lambda (x) V) for the classes ``lams`` of H in
    :func:`_character_keys` order, a function of the record ``stab`` and
    the classes alone: over ``stab.action`` and the cosets of its
    ``restriction``, with its pi1 and V, one stack per dimension r.  Yields
    the shared base 1_r (x) pi1, the psi stack lambda (x) V of one
    :func:`_tensor_stack` and that stack's inductions from one
    :func:`_induce_stack`."""
    for _, same in groupby(lams, lambda lam: lam.dim):
        base, psis = _tensor_stack([lam.mats for lam in same], stab.V, stab.pi1)
        yield base, psis, _induce_stack(base, psis, stab.action, stab.restriction)


def factor_tensor(W, V, r: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The exactly unitary r x r L with ``W = kron(L, V)``, for a known unitary V.

    Read from the block pattern of ``W (1 (x) V)*``: each d x d block of
    that product is a scalar multiple of the identity, and the scalars
    assemble L.  Stacks of W and V factor pairwise in one batch.  Raises
    :class:`NotFactorable` when the Kronecker residual exceeds
    ``tol.reconstruction_bound(|W|)`` or the unitarity defect of L exceeds
    ``tol.reconstruction_bound(r)``; otherwise returns the nearest unitary
    to L, so no check downstream sees the defect the policy accepted.
    """
    W, V = np.asarray(W, dtype=complex), np.asarray(V, dtype=complex)
    d = V.shape[-1]
    if W.shape[-2:] != (r * d, r * d):
        raise NotFactorable(f"W must be {r * d} x {r * d}")
    # block (i, j) of W (1 (x) V)* is W_ij V*, whose trace over d is L_ij
    L = np.einsum("...iajb,...ab->...ij", W.reshape(*W.shape[:-2], r, d, r, d), V.conj()) / d
    kron = np.einsum("...ij,...ab->...iajb", L, V).reshape(W.shape)
    _require(np.linalg.norm(W - kron, axis=(-2, -1)), tol.reconstruction_bound(np.linalg.norm(W, axis=(-2, -1))),
             "operator is not a Kronecker multiple of V", NotFactorable)
    defect = np.swapaxes(L.conj(), -2, -1) @ L - np.eye(r)
    _require(np.linalg.norm(defect, axis=(-2, -1)), tol.reconstruction_bound(r),
             "extracted factor is not unitary", NotFactorable)
    u, _, vh = np.linalg.svd(L)
    return u @ vh


def _check_carried(Pi: CovariantRep, C, parts: list[CovariantRep], what: str, tol: Tolerance):
    """Raise unless C* Pi C equals the block diagonal of ``parts`` on every
    generator and every group unitary, to ``tol.reconstruction_bound(dim Pi)``,
    naming the first miss."""
    Ch = C.conj().T
    labels = Pi.base.labels
    for names, mats, wanted in (
        ([f"generator {l!r}" for l in labels], Pi.base.stack,
         block_diag(*(_unit_images(p.base, labels) for p in parts))),
        ([f"unitary {g}" for g in Pi.group.labels], Pi.unitaries, block_diag(*(p.unitaries for p in parts))),
    ):
        _require(np.linalg.norm(Ch @ mats @ C - wanted, axis=(1, 2)), tol.reconstruction_bound(Pi.dim),
                 f"{what}: {{}} is not carried", BlockStructureViolation, names)


_Orbit = namedtuple("_Orbit", ["stab", "lam", "classes"])
_Class = namedtuple("_Class", ["lam", "psi", "induced", "isometries"])


def _copies(lam: ProjectiveRep, classes, tol: Tolerance) -> tuple[list[tuple], np.ndarray]:
    """Lambda read against the classes of its cocycle by Serre's explicit
    projections (Serre, *Linear Representations of Finite Groups*, 2.7):
    the pairs (i, m) of the classes lambda = ``classes[i]`` with m > 0, in
    ascending i, and the r x r unitary whose columns are their copies, the
    copies of a class adjacent.

    The multiplicities m = <chi_lambda, chi_Lambda> of every class are one
    product, rounded by :func:`_character_dims`.  conj(lambda) (x) Lambda is
    a genuine representation, so P = |K|^-1 sum_h Lambda_h (x) conj(lambda_h)
    is the projection onto the W with Lambda_h W = W lambda_h, of trace m;
    its top m eigenvectors, read as r x d matrices W_j, are orthogonal
    intertwiners with W_j* W_j = 1/d, so the copies are the isometries
    sqrt(d) W_j (at r = 1 the one copy is 1, written down without P),
    held to ``identity_bound(r)`` on Lambda_h W = W lambda_h.
    sum m d = r and sum m^2 = dim End Lambda, else :class:`InvariantViolation`."""
    L, n, r = lam.mats, len(lam.mats), lam.dim
    # <chi, chi_Lambda> for the character of every class, then for chi_Lambda itself (dim End Lambda)
    chi = np.array([cls._character for cls in classes] + [lam._character])
    means = chi.conj() @ chi[-1] / n
    dims, bounds = _character_dims(means, np.abs(chi) @ np.abs(chi[-1]) / n, tol)
    misses = np.flatnonzero(dims < 0)
    if misses.size:
        _sum_dim(means[misses[0]], bounds[misses[0]])  # raises: the sum is no dimension
    *mults, end_dim = dims.tolist()
    present, copies = [], []
    for i, (cls, m) in enumerate(zip(classes, mults)):
        if m == 0:
            continue
        d = cls.dim
        if r == 1:
            # then d = m = 1, and the eigenvector of the 1 x 1 P is exactly 1
            W = np.ones((1, 1, 1), dtype=complex)
        else:
            P = np.einsum("hij,hab->iajb", L, cls.mats.conj()).reshape(r * d, r * d) / n
            W = np.sqrt(d) * np.linalg.eigh((P + P.conj().T) / 2)[1][:, -m:].T.reshape(m, r, d)
        _require(np.linalg.norm(L @ W[:, None] - W[:, None] @ cls.mats, axis=(-2, -1)), tol.identity_bound(r),
                 f"copy {{}} of a class of dim {d} fails Lambda_h W = W lambda_h at h = {{}}")
        present.append((i, m))
        copies.extend(W)
    covered = sum(classes[i].dim * m for i, m in present)
    if covered != r:
        raise InvariantViolation(f"the classes in Lambda cover {covered} of r = {r} dimensions")
    if sum(m * m for _, m in present) != end_dim:
        raise InvariantViolation(f"multiplicities {[m for _, m in present]} do not match dim End = {end_dim}")
    return present, np.concatenate(copies, axis=1)


def _mackey_orbit(stab: _Stabilizer, frame) -> _Orbit:
    """Mackey's read-off over one orbit (the little-group method with multipliers).

    A function of the record and the frame alone.  ``stab``
    (:class:`_Stabilizer`) holds the action, pi1, the stabilizer H of pi1
    with its restriction, a V_h with V_h pi1 V_h* = pi1 o alpha_h for each
    h in H, their cocycle c_V, H's classes of cocycle conj(c_V) and the
    tolerance every decision here is made at.  With ``frame`` (Pi, C),
    C* Pi(x) C = 1_r (x) pi1(x), Lambda is the
    :func:`factor_tensor` of C* Pi(U_h) C against V_h, of cocycle
    conj(c_V), read against the classes by :func:`_copies`.  Each class
    lambda in Lambda gives one Ind_H^G(lambda (x) V), built from the
    class's own matrices and kept in ``stab.records``
    (:func:`_class_records`), and each copy Q of it the isometry
    [U_c* C (Q (x) 1)] over the coset representatives c, carrying Pi onto
    its Ind.  Everything read from the frame is read on every call.  No
    random number is drawn.
    """
    classes, tol = stab.classes, stab.tol
    members, coset_reps = stab.restriction.members, stab.restriction.coset_reps
    K, V, c_V, pi1 = stab.restriction.action.group, stab.V, stab.cocycle, stab.pi1
    Pi, C = frame
    compressed = C.conj().T @ Pi.unitaries[list(members)] @ C
    lam_mats = factor_tensor(compressed, V, C.shape[1] // pi1.dim, tol)
    # C* Pi(U_h) C = Lambda_h (x) V_h is a genuine representation, so Lambda carries conj(c_V)
    lam = ProjectiveRep(K, lam_mats, _cocycle(K, lam_mats, tol, c_V.conj()))
    present, Y = _copies(lam, classes, tol)
    D, r, p = C.shape[0], lam.dim, pi1.dim
    # carried[:, c, j, b] = U_c* C (Y (x) 1) at column (j, b), for every coset representative c in one product
    W = np.einsum("xib,ij->xjb", C.reshape(D, r, p), Y).reshape(D, r * p)
    carried = (Pi.unitaries[list(coset_reps)].conj().transpose(0, 2, 1) @ W).reshape(-1, D, r, p).transpose(1, 0, 2, 3)
    parts, pos = [], 0
    for i, m in present:
        # each copy's columns, side by side over the coset representatives
        d = classes[i].dim
        starts = range(pos, pos + m * d, d)
        parts.append([carried[:, :, q : q + d].reshape(D, -1) for q in starts])
        pos = starts.stop
    records = _class_records(stab, [i for i, _ in present])
    return _Orbit(stab, lam, [_Class(*record, isometries) for record, isometries in zip(records, parts)])


def _class_records(stab: _Stabilizer, indices) -> list[tuple]:
    """(lambda, psi, Ind_H^G psi) for the classes lambda = ``stab.classes[i]``,
    i in ``indices``, with psi = lambda (x) V: what the structure theorem
    attaches to a class, a function of the stabilizer record and the class
    index alone.  They are kept in ``stab.records`` per class index, so as
    long as the record lives: the classes not yet kept are built by one
    :func:`_induced`, and their arrays are read-only."""
    kept = stab.records
    missing = [i for i in indices if i not in kept]
    if missing:
        built = _induced(stab, [stab.classes[i] for i in missing])
        pairs = [(CovariantRep(base, stab.restriction.action, psi), cov)
                 for base, psis, stack in built for psi, cov in zip(psis, stack)]
        for i, (psi, cov) in zip(missing, pairs):
            for a in (psi.base.stack, psi.unitaries, cov.unitaries):
                a.setflags(write=False)
            kept[i] = (stab.classes[i], psi, cov)
    return [kept[i] for i in indices]


def _orbit_blocks(action: GroupAction) -> list[int]:
    """The smallest block k of each orbit {alpha_g(k)}: no alpha_g moves k lower."""
    return [k for k in range(action.algebra.n_blocks) if min(aut.perm[k] for aut in action.auts) == k]


def _orbit_irreps(action: GroupAction, k: int, tol: Tolerance) -> list[CovariantRep]:
    """Every irreducible over the orbit of block k, built and certified:
    Mackey's construction with multipliers read forward.

    With H = {g : alpha_g fixes k} and V_h = U^h_k of cocycle c_V (block
    k's :class:`_Stabilizer`), one Ind_H^G(lambda (x) V) on 1 (x) pi_k per
    class of irreducible lambda of H with cocycle conj(c_V), from
    :func:`_classes` (in closed form for a cyclic H, split otherwise; the
    same arrays as the record's ``classes``, since neither draws), built by
    :func:`_induced`, one stack per dimension.  The classes are built on
    every call, not read from the record: reading them doubles
    ``enumerate_irreps`` throughput, but reads as +4-6% ``peak_rss_mb``
    while the benchmark worker keeps one latency per item (ROADMAP 1a).
    Each member is certified by dim End = 1, the character sum of
    :meth:`CovariantRep.end_dim` read by :func:`_end_dims` for the members
    that share a base in one product, :class:`InvariantViolation` naming
    the dimension of the first that fails.  c_V passes one cocycle residual
    check, so the results are covariant and not re-validated.  In
    :func:`_character_keys` order, dimension first.
    """
    stab = _block_stabilizer(action, k, tol)
    weights = np.append(_unit_pattern(action.algebra.block_dims)[0], 1.0)
    lams = _classes(stab.restriction.action.group, stab.cocycle, tol)
    irreps = [cov for _, _, stack in _induced(stab, lams) for cov in stack]
    for _, shared in groupby(irreps, lambda cov: id(cov.base)):
        shared = list(shared)
        chi = _characters(shared[0].base, np.array([cov.unitaries for cov in shared]), action.algebra)
        # dim End = |G|^-1 sum_g [sum_k n_k^-1 sum_ij |chi(g, e^k_ij)|^2 + |chi(g, 1 - pi(1))|^2];
        # members that share a base share its dimension
        _end_dims(chi, weights, tol, f"an induced representation of dim {shared[0].dim} is reducible")
    return irreps


def _orbit_frames(Pi: CovariantRep, tol: Tolerance) -> list[tuple]:
    """The (stab, C) that :func:`_mackey_orbit` reads off, one per orbit of
    Pi over a :class:`GroupAction`: block k's :class:`_Stabilizer` and Pi's
    :func:`_block_frame` at k, per orbit whose smallest block k has r_k > 0,
    then the record of pi1 = 0 and V_g = 1 over G, which depend on the
    action alone and are kept on it per tol, with the range of 1 - Pi(1),
    which U commutes with."""
    action, A = Pi.action, Pi.action.algebra
    labels = A.basis_labels()
    ranks = _frame_ranks(Pi.base, A, tol)
    frames = [(_block_stabilizer(action, k, tol), _block_frame(Pi.base, A, k, ranks[k]))
              for k in _orbit_blocks(action) if ranks[k]]
    rest = np.eye(Pi.dim) - _unit_images(Pi.base, labels)[_unit_pattern(A.block_dims)[2]].sum(axis=0)
    [a] = _ranks(rest[None], tol)
    if a:
        B = np.linalg.eigh((rest + rest.conj().T) / 2)[1][:, -a:]
        zero = Rep(1, np.zeros((len(labels), 1, 1)), labels)
        witnesses = {g: np.eye(1) for g in range(Pi.group.order)}
        frames.append((_once(action, ("annihilated", tol), lambda: _Stabilizer(action, zero, witnesses, tol)), B))
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
