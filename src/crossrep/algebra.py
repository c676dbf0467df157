"""Block matrix C*-algebras, their *-automorphisms, and finite group actions.

An algebra is a direct sum of full complex matrix blocks; elements are
tuples of blocks.  A *-automorphism is stored in permutation + unitary
normal form: it permutes blocks of equal size and conjugates by a unitary
inside each target block.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, LabelMismatch
from .groups import FiniteGroup, Subgroup, coset_action, make_cyclic_group, right_coset_reps
from .linalg import DEFAULT_TOL, Tolerance, _relation_residuals, _require, block_diag

__all__ = [
    "MatAlg",
    "AlgElement",
    "StarAut",
    "GroupAction",
    "LabelAction",
    "restrict_action",
]


@lru_cache(maxsize=None)
def _basis_labels(block_dims: tuple[int, ...]) -> tuple[str, ...]:
    # b{k}_{i}{j} is unique up to n_k = 11; at 12 e_{1,11} and e_{11,1} would both be b0_111
    return tuple(
        f"b{k}_{i}_{j}" if d > 11 else f"b{k}_{i}{j}"
        for k, d in enumerate(block_dims) for i in range(d) for j in range(d)
    )


@dataclass(frozen=True)
class MatAlg:
    """Direct sum of full matrix algebras with the given block dimensions."""

    block_dims: tuple[int, ...]

    def __init__(self, block_dims):
        dims = tuple(int(d) for d in block_dims)
        if not dims or any(d < 1 for d in dims):
            raise InvariantViolation("block dimensions must be positive and nonempty")
        object.__setattr__(self, "block_dims", dims)

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def defining_dim(self) -> int:
        """Dimension of the defining representation space, sum of n_k."""
        return sum(self.block_dims)

    @property
    def linear_dim(self) -> int:
        """Linear dimension as a vector space, sum of n_k^2."""
        return sum(d * d for d in self.block_dims)

    def zero(self) -> "AlgElement":
        return AlgElement(self, [np.zeros((d, d), dtype=complex) for d in self.block_dims])

    def unit(self) -> "AlgElement":
        return AlgElement(self, [np.eye(d, dtype=complex) for d in self.block_dims])

    def basis_labels(self) -> list[str]:
        """Deterministic labels for the matrix-unit basis (a fresh list)."""
        return list(_basis_labels(self.block_dims))

    def basis_elements(self) -> list["AlgElement"]:
        """Matrix units in the same order as :meth:`basis_labels`."""
        out = []
        for k, d in enumerate(self.block_dims):
            for i in range(d):
                for j in range(d):
                    x = self.zero()
                    x.blocks[k][i, j] = 1.0
                    out.append(x)
        return out

    def from_coeffs(self, vec) -> "AlgElement":
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (self.linear_dim,):
            raise DimensionMismatch("coefficient vector has wrong length")
        blocks, pos = [], 0
        for d in self.block_dims:
            blocks.append(vec[pos : pos + d * d].reshape(d, d))
            pos += d * d
        return AlgElement(self, blocks)

    def random_element(self, rng: np.random.Generator) -> "AlgElement":
        blocks = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in self.block_dims
        ]
        return AlgElement(self, blocks)


class AlgElement:
    """An element of a :class:`MatAlg`, stored as one matrix per block."""

    __slots__ = ("parent", "blocks")

    def __init__(self, parent: MatAlg, blocks):
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        if len(blocks) != parent.n_blocks or any(
            b.shape != (d, d) for b, d in zip(blocks, parent.block_dims)
        ):
            raise DimensionMismatch("block shapes do not match the algebra")
        self.parent = parent
        self.blocks = blocks

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        return AlgElement(self.parent, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        return AlgElement(self.parent, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return AlgElement(
                self.parent, [a @ b for a, b in zip(self.blocks, other.blocks)]
            )
        return AlgElement(self.parent, [other * b for b in self.blocks])

    def __rmul__(self, scalar):
        return AlgElement(self.parent, [scalar * b for b in self.blocks])

    def adjoint(self) -> "AlgElement":
        return AlgElement(self.parent, [b.conj().T for b in self.blocks])

    def coeffs(self) -> np.ndarray:
        """Coefficients over the matrix-unit basis, blocks flattened row-major."""
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    def to_matrix(self) -> np.ndarray:
        """Block-diagonal embedding on the defining representation space."""
        return block_diag(*self.blocks)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs()))

    def _check(self, other: "AlgElement"):
        if other.parent != self.parent:
            raise DimensionMismatch("elements of different algebras")

    def __repr__(self):
        return f"AlgElement(dims={self.parent.block_dims})"


class StarAut:
    """A *-automorphism in block-permutation + unitary normal form.

    ``perm`` sends source block j to target block ``perm[j]``;
    ``unitaries[i]`` acts inside target block i.  The action is
    ``alpha(x)_i = U_i x_{perm^{-1}(i)} U_i*``.
    """

    def __init__(self, parent: MatAlg, perm, unitaries, tol: Tolerance = DEFAULT_TOL):
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(parent.n_blocks)):
            raise InvariantViolation("perm is not a permutation of the blocks")
        for j, i in enumerate(perm):
            if parent.block_dims[j] != parent.block_dims[i]:
                raise InvariantViolation("perm maps blocks of unequal dimension")
        unitaries = [np.asarray(u, dtype=complex) for u in unitaries]
        if len(unitaries) != parent.n_blocks:
            raise DimensionMismatch(f"need one unitary per block, got {len(unitaries)} for {parent.n_blocks}")
        for i, u in enumerate(unitaries):
            d = parent.block_dims[i]
            if u.shape != (d, d):
                raise DimensionMismatch("unitary shape does not match target block")
            _require(np.linalg.norm(u.conj().T @ u - np.eye(d)), tol.abs_eps * max(1, d),
                     f"block unitary fails the unitarity check at block {i}")
        self.parent = parent
        self.perm = perm
        self.inv_perm = tuple(np.argsort(perm))
        self.unitaries = unitaries

    @classmethod
    def identity(cls, parent: MatAlg) -> "StarAut":
        return cls(
            parent,
            range(parent.n_blocks),
            [np.eye(d, dtype=complex) for d in parent.block_dims],
        )

    def apply(self, x: AlgElement) -> AlgElement:
        if x.parent != self.parent:
            raise DimensionMismatch("element from a different algebra")
        blocks = [
            self.unitaries[i] @ x.blocks[self.inv_perm[i]] @ self.unitaries[i].conj().T
            for i in range(self.parent.n_blocks)
        ]
        return AlgElement(self.parent, blocks)

    @cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """Row i holds the coefficients of alpha(e_i) over the matrix-unit basis,
        so a basis-labeled representation composes with alpha by one tensordot.
        The matrix units E of source block j go to U_i E U_i* in target block
        i = perm[j] and to zero elsewhere: one stacked product per block, the
        arithmetic of :meth:`apply` on each unit."""
        dims = self.parent.block_dims
        starts = np.cumsum([0, *(d * d for d in dims)]).tolist()
        C = np.zeros((starts[-1], starts[-1]), dtype=complex)
        for j, i in enumerate(self.perm):
            d, U = dims[j], self.unitaries[i]
            units = np.eye(d * d, dtype=complex).reshape(-1, d, d)
            C[starts[j] : starts[j + 1], starts[i] : starts[i + 1]] = (U @ units @ U.conj().T).reshape(d * d, -1)
        return C

    def compose(self, other: "StarAut") -> "StarAut":
        """self after other."""
        perm = tuple(self.perm[other.perm[j]] for j in range(self.parent.n_blocks))
        unitaries = [
            self.unitaries[i] @ other.unitaries[self.inv_perm[i]]
            for i in range(self.parent.n_blocks)
        ]
        return StarAut(self.parent, perm, unitaries)

    def inverse(self) -> "StarAut":
        perm = self.inv_perm
        unitaries = [self.unitaries[self.perm[i]].conj().T for i in range(self.parent.n_blocks)]
        return StarAut(self.parent, perm, unitaries)

    def induced_equal(self, other: "StarAut", tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether both define the same map on the algebra.

        Compared on matrix units; the stored unitaries may differ by a
        phase per block without changing the map.
        """
        delta = self.coefficient_matrix - other.coefficient_matrix
        return bool(np.all(np.linalg.norm(delta, axis=1) <= tol.identity_bound(1.0)))

    def is_identity_map(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.induced_equal(StarAut.identity(self.parent), tol)


_Restriction = namedtuple("_Restriction", ["subgroup", "action", "members", "coset_reps", "coset_table"])
_Restriction.__doc__ = """What an action restricts to on a subgroup H: H itself, the action of H
regrounded as a group (``members[i]`` is the parent index of its element
i), the right coset representatives of :func:`right_coset_reps` and their
:func:`coset_action` as one read-only (|G|, m, 3) array: row g holds the
triples (i, j, h) with c_i g = h c_j."""


def _once(owner, key, build):
    """``build()``, computed on the first call with ``key`` for ``owner`` and
    kept on it, so it lives and dies with ``owner``.  A build that raises
    keeps nothing, so its checks run again on the next call."""
    memo = owner.__dict__.setdefault("_memo", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


class _Action:
    """What :class:`GroupAction` and :class:`LabelAction` share: a group, and
    the data that depends on the action alone, computed once per instance.

    An action is immutable after construction, so such data never goes
    stale; it is computed on first use, its arrays are read-only and it is
    shared by every caller.
    """

    def _once(self, key, build):
        """``build()``, computed on the first call with ``key`` and kept."""
        return _once(self, key, build)

    def restriction(self, members) -> _Restriction:
        """The restriction to the subgroup with these members (see
        :func:`restrict_action`), with its right cosets."""
        members = tuple(sorted(int(m) for m in members))
        return self._once(("restriction", members), lambda: self._restrict(members))

    def _restrict(self, members) -> _Restriction:
        H = Subgroup(self.group, members)
        K, members = H.as_group()
        reps = tuple(right_coset_reps(H))
        table = np.array(coset_action(H, reps))
        table.setflags(write=False)
        return _Restriction(H, self._regrounded(K, members), tuple(members), reps, table)

    @property
    def trivial_restriction(self):
        """The action of the trivial subgroup, shared by every representation
        of the algebra alone that enters the character engine."""
        return self.restriction((self.group.identity,)).action


class GroupAction(_Action):
    """A finite group acting on a block algebra by *-automorphisms.

    Validates that the identity acts trivially and that composition of the
    induced maps follows the Cayley table (stored unitaries are only
    determined up to a block phase, so the check is on induced maps).
    ``auts`` is a tuple: the action is immutable.
    """

    def __init__(self, group: FiniteGroup, algebra: MatAlg, auts, tol: Tolerance = DEFAULT_TOL, validate: bool = True):
        auts = tuple(auts)
        if len(auts) != group.order:
            raise InvariantViolation("need one automorphism per group element")
        for a in auts:
            if a.parent != algebra:
                raise InvariantViolation("automorphism acts on a different algebra")
        self.group = group
        self.algebra = algebra
        self.auts = auts
        if validate:
            self.validate(tol)

    def aut(self, g: int) -> StarAut:
        return self.auts[g]

    def apply(self, g: int, x: AlgElement) -> AlgElement:
        return self.auts[g].apply(x)

    def _regrounded(self, K: FiniteGroup, members) -> "GroupAction":
        return GroupAction(K, self.algebra, [self.auts[m] for m in members], validate=False)

    @cached_property
    def coefficient_spread(self) -> float:
        """The largest l1 norm of the coefficients of alpha_g(e) over the
        matrix units e, over every g: the most a defect at each matrix unit can
        add up to on an image alpha_g(e)."""
        return float(max(np.abs(a.coefficient_matrix).sum(axis=1).max() for a in self.auts))

    def validate(self, tol: Tolerance = DEFAULT_TOL):
        """Check that the identity acts trivially and T_s T_h = T_sh for the
        coefficient matrices T of the generators s in ``group.generators``
        and every h, naming the first failing pair.  Every g is a word
        s_1 ... s_l in the generators, so by induction on l T_g T_h = T_gh
        then holds on all of G.  The T are unitary, so defects of size beta at
        the generators add up to at most (2l - 1) beta along a word: the
        generators are held to ``identity_bound(dim A)`` divided by 2L - 1, L
        the group's :attr:`~crossrep.groups.FiniteGroup.word_length`, and
        every pair (g, h) stays within ``identity_bound(dim A)``."""
        G = self.group
        S = list(G.generators)
        d = self.algebra.linear_dim
        # alpha_g alpha_h has row matrix images[h] @ images[g], so T_gh = T_g T_h for the transposes
        transposed = np.array([a.coefficient_matrix.T for a in self.auts])
        bound = tol.identity_bound(d) / max(1, 2 * G.word_length - 1)
        _require(np.linalg.norm(transposed[G.identity] - np.eye(d)), bound, "identity element does not act trivially")
        _require(_relation_residuals(transposed, G.table, rows=S), bound,
                 "action is not a homomorphism at pair ({},{})", names=S)


def _cyclic_action(sigma: StarAut, n: int) -> GroupAction:
    """Z_n acting by the powers of ``sigma``, whose order must divide n:
    element j acts by sigma^j."""
    auts = [StarAut.identity(sigma.parent)]
    for _ in range(n - 1):
        auts.append(sigma.compose(auts[-1]))
    return GroupAction(make_cyclic_group(n), sigma.parent, auts)


class LabelAction(_Action):
    """A group acting by permuting the labels of an abstract generator set.

    Used for algebras given only through generator images (free-group
    style examples): element g sends generator label l to ``maps[g][l]``.
    The maps must multiply like the group, which is checked on the
    generators of ``group.generators`` as :meth:`GroupAction.validate` is,
    exactly: permutation matrices multiply without rounding.  Each alpha_g
    sends a label to one label, so :attr:`coefficient_spread` is 1.
    """

    coefficient_spread = 1.0

    def __init__(self, group: FiniteGroup, maps):
        maps = [dict(m) for m in maps]
        if len(maps) != group.order:
            raise InvariantViolation("need one label map per group element")
        labels = list(maps[group.identity])
        for g, m in enumerate(maps):
            if set(m) != set(labels) or set(m.values()) != set(labels):
                raise InvariantViolation("label maps must be bijections on one label set")
        # the label maps as permutation matrices, which multiply like the group
        perms = np.array([np.eye(len(labels))[:, [labels.index(m[l]) for l in labels]] for m in maps])
        if np.any(perms[group.identity] != np.eye(len(labels))):
            raise InvariantViolation("identity element must fix every label")
        S = list(group.generators)
        _require(_relation_residuals(perms, group.table, rows=S), 0.0,
                 "label maps are not a homomorphism at ({},{})", names=S)
        self.group = group
        self.maps = tuple(maps)

    def map_label(self, g: int, label: str) -> str:
        if label not in self.maps[g]:
            raise LabelMismatch(f"generator {label!r} is not a label the action maps")
        return self.maps[g][label]

    def _regrounded(self, K: FiniteGroup, members) -> "LabelAction":
        return LabelAction(K, [self.maps[m] for m in members])


def restrict_action(action, subgroup: Subgroup):
    """Reground an action on a subgroup as an action of the subgroup itself.

    Returns ``(restricted_action, members)`` where ``members[i]`` is the
    parent-group index of element i of the regrounded group; the restricted
    action is built once per action and subgroup and shared.
    """
    if not isinstance(action, _Action):
        raise TypeError(f"unsupported action type {type(action)!r}")
    found = action.restriction(subgroup.members)
    return found.action, list(found.members)
