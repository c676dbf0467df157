"""Crossed-product matrix model, twisted element arithmetic, spectral projections.

The model realizes the crossed product concretely as the defining
representation induced from the trivial subgroup: the algebra embeds as a
block diagonal of its translates and each group element becomes a block
permutation unitary, so every abstract identity can be checked against
ordinary matrix arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgElement, GroupAction, _once
from .errors import ActionMismatch, InvariantViolation
from .linalg import DEFAULT_TOL, Tolerance, _relation_residuals, _require, orthonormal_span
from .reps import CovariantRep, Rep, _ranks, defining_rep, evaluate, induce, trivial_covariant

__all__ = [
    "CrossedElement",
    "CrossedModel",
    "build_crossed_model",
    "crossed_multiply",
    "crossed_adjoint",
    "monomial",
    "element_to_matrix",
    "spectral_projection",
    "projection_matrix",
    "fixed_point_algebra",
]


class CrossedElement:
    """A finite sum ``sum_g a_g U^g`` stored as one coefficient per element."""

    __slots__ = ("action", "coeffs")

    def __init__(self, action: GroupAction, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != action.group.order:
            raise InvariantViolation("need one coefficient per group element")
        for c in coeffs:
            if c.parent != action.algebra:
                raise ActionMismatch("coefficient from a different algebra")
        self.action = action
        self.coeffs = coeffs

    @classmethod
    def zero(cls, action: GroupAction) -> "CrossedElement":
        return cls(action, [action.algebra.zero() for _ in range(action.group.order)])

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        return CrossedElement(
            self.action, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other):
        if isinstance(other, CrossedElement):
            return crossed_multiply(self, other)
        return CrossedElement(self.action, [other * c for c in self.coeffs])

    def adjoint(self) -> "CrossedElement":
        return crossed_adjoint(self)

    def norm(self) -> float:
        return float(np.sqrt(sum(c.norm() ** 2 for c in self.coeffs)))

    def _check(self, other: "CrossedElement"):
        if other.action is not self.action and (
            other.action.group != self.action.group
            or other.action.algebra != self.action.algebra
        ):
            raise ActionMismatch("crossed elements over different actions")


def monomial(action: GroupAction, a: AlgElement, g: int) -> CrossedElement:
    """The single-term element ``a U^g``."""
    x = CrossedElement.zero(action)
    x.coeffs[g] = a
    return x


def crossed_multiply(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    """Twisted convolution: ``(a U^g)(b U^h) = a alpha_g(b) U^{gh}``."""
    x._check(y)
    G = x.action.group
    out = CrossedElement.zero(x.action)
    for g in range(G.order):
        a = x.coeffs[g]
        if a.norm() == 0:
            continue
        for h in range(G.order):
            b = y.coeffs[h]
            if b.norm() == 0:
                continue
            gh = G.mul(g, h)
            out.coeffs[gh] = out.coeffs[gh] + a * x.action.apply(g, b)
    return out


def crossed_adjoint(x: CrossedElement) -> CrossedElement:
    """Twisted involution: ``(a U^g)* = alpha_{g^{-1}}(a*) U^{g^{-1}}``."""
    G = x.action.group
    out = CrossedElement.zero(x.action)
    for g in range(G.order):
        ginv = G.inv(g)
        out.coeffs[ginv] = x.action.apply(ginv, x.coeffs[g].adjoint())
    return out


@dataclass
class CrossedModel:
    """Concrete matrix realization of a crossed product.

    The defining representation induced from the trivial subgroup: the
    algebra embeds block-diagonally through its translates and the group
    acts by block permutations on ``|G|`` copies of the defining space.
    ``span_dim`` is the dimension of the span of the ``psi(a) V_g``, which
    is |G| * dim(A) for a faithful model; it is read as |G| times the rank
    of the ``psi`` images, since no ``V_g`` with g != e has a diagonal block.
    ``defining`` is that representation; ``psi_images`` and ``vg`` are views of it.
    """

    defining: CovariantRep
    span_dim: int

    @property
    def action(self) -> GroupAction:
        return self.defining.action

    @property
    def host_dim(self) -> int:
        return self.defining.dim

    @property
    def psi_images(self):
        return self.defining.base.gens

    @property
    def vg(self) -> np.ndarray:
        return self.defining.unitaries

    def psi(self, x: AlgElement) -> np.ndarray:
        """Embed an algebra element, block i carrying its g_i-translate."""
        return evaluate(self.defining.base, self.action.algebra, x)

    def defining_covariant_rep(self) -> CovariantRep:
        return self.defining


def build_crossed_model(action: GroupAction, tol: Tolerance = DEFAULT_TOL) -> CrossedModel:
    """Construct the block-permutation matrix model of ``A x| G``.

    :func:`induce` of the defining representation over the trivial
    subgroup, with the group's own index order as coset representatives
    (identity first): ``V_g`` sends copy i to the copy indexed by ``g_i g``.
    """
    G = action.group
    A = action.algebra
    n = G.order
    trivial = action.restriction((G.identity,)).subgroup
    cov = induce(trivial_covariant(defining_rep(A), action), action, trivial, list(range(n)))
    host, vg = cov.dim, cov.unitaries

    # model invariants: validate, V_g V_h = V_gh to abs_eps * host for permutations, a faithful span.
    # The V_g are unitary, so as in GroupAction.validate defects at the generator
    # rows add up to at most 2L - 1 times along a word: every pair keeps abs_eps * host
    cov.validate(tol)
    S = list(G.generators)
    bound = tol.abs_eps * host / max(1, 2 * G.word_length - 1)
    _require(_relation_residuals(vg, G.table, rows=S), bound,
             "model unitaries fail V_g V_h = V_gh at pair ({},{})", names=S)
    # <psi(a) V_g, psi(b) V_h> = tr(psi(a* b) V_{h g^-1}) and psi is block
    # diagonal, so once V_g has no diagonal block for g != e the Gram matrix
    # of {psi(e_l) V_g} is block diagonal in g with |G| copies of the Gram
    # matrix of {psi(e_l)}
    d = A.defining_dim
    diagonals = np.linalg.norm(vg.reshape(n, n, d, n, d).diagonal(axis1=1, axis2=3).reshape(n, -1), axis=1)
    diagonals[G.identity] = 0.0  # V_e = 1 is all diagonal
    _require(diagonals, tol.abs_eps, "model unitary V_{} has a nonzero diagonal block")
    model = CrossedModel(cov, n * len(orthonormal_span(list(cov.base.stack), tol)))
    if model.span_dim != n * A.linear_dim:
        raise InvariantViolation(
            f"span dimension {model.span_dim} != |G| dim(A) = {n * A.linear_dim}"
        )
    return model


def element_to_matrix(model: CrossedModel, x: CrossedElement) -> np.ndarray:
    """Image of a crossed element under the model, ``sum_g psi(a_g) V_g``."""
    if x.action.group != model.action.group or x.action.algebra != model.action.algebra:
        raise ActionMismatch("element belongs to a different crossed product")
    out = np.zeros((model.host_dim, model.host_dim), dtype=complex)
    for g in range(model.action.group.order):
        if x.coeffs[g].norm() > 0:
            out += model.psi(x.coeffs[g]) @ model.vg[g]
    return out


def spectral_projection(action: GroupAction, chi, x: AlgElement) -> AlgElement:
    """Character-averaged projection onto a spectral subspace.

    ``chi`` is the character of one irrep, indexed by group element; the
    projection is ``(dim/|G|) sum_g conj(chi(g)) alpha_g(x)`` and the
    trivial character yields the group average into the fixed-point algebra.
    """
    return action.algebra.from_coeffs(projection_matrix(action, chi) @ x.coeffs())


def projection_matrix(action: GroupAction, chi) -> np.ndarray:
    """The projection as a d x d matrix on the coefficient space of A:
    ``(dim/|G|) sum_g conj(chi(g)) M_g^T`` with ``M_g`` the coefficient
    matrix of alpha_g, whose row i is alpha_g(e_i)."""
    chi = np.asarray(chi, dtype=complex)
    G = action.group
    if chi.shape != (G.order,):
        raise InvariantViolation("character must have one value per group element")
    weights = np.conj(chi) * chi[G.identity].real / G.order
    return np.tensordot(weights, np.array([a.coefficient_matrix.T for a in action.auts]), axes=1)


def fixed_point_algebra(
    action: GroupAction, tol: Tolerance = DEFAULT_TOL
) -> tuple[tuple[AlgElement, ...], Rep]:
    """Basis of the fixed-point subalgebra and its defining inclusion.

    The basis spans ``{x : alpha_g(x) = x for all g}``, computed as the
    range of the trivial-character projection P: the eigenvectors of its
    tr P largest eigenvalues, with tr P rounded by ``reps._ranks`` (else
    :class:`InvariantViolation` naming the projection trace).  The
    returned representation packages the basis images on the defining
    space so the decomposition engine can enumerate the irreducibles.
    Both depend on the action alone: they are computed once per ``tol``
    and shared, with read-only arrays.
    """

    def build():
        P = projection_matrix(action, np.ones(action.group.order))
        # alpha_g preserves the Frobenius inner product, so P is an orthogonal
        # projection of rank tr P, and its range is read off the eigenvectors
        # of its tr P largest eigenvalues (eigh sorts them in ascending order)
        [rank] = _ranks(P[None], tol)
        evecs = np.linalg.eigh((P + P.conj().T) / 2)[1]
        basis = tuple(action.algebra.from_coeffs(evecs[:, j]) for j in range(len(P) - rank, len(P)))
        d = action.algebra.defining_dim
        images = np.array([b.to_matrix() for b in basis]).reshape(-1, d, d)
        for a in (images, *(block for b in basis for block in b.blocks)):
            a.setflags(write=False)
        return basis, Rep(d, images, [f"fix{i}" for i in range(len(basis))])

    return _once(action, ("fixed_point_algebra", tol), build)
