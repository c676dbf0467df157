"""Finite groups given by Cayley tables, subgroups, cosets and character tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import DecompositionFailed, InvariantViolation
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "make_cyclic_group",
    "is_standard_cyclic",
    "make_symmetric_group_3",
    "subgroup_closure",
    "right_coset_reps",
    "coset_action",
    "CharacterTable",
    "character_table",
]


class FiniteGroup:
    """A finite group as an index set {0..n-1} with a Cayley table.

    ``table[i, j]`` is the index of ``g_i * g_j``.  Construction validates
    the Latin-square property, associativity, and the identity/inverse data.
    A group is immutable: its table and inverses are read-only copies and its
    labels a tuple, so data derived from it can be computed once and shared.
    """

    def __init__(self, table, identity=None, labels=None):
        table = np.array(table, dtype=int)
        n = table.shape[0]
        if table.shape != (n, n):
            raise InvariantViolation("Cayley table must be square")
        rng = np.arange(n)
        if not np.all(np.sort(table, axis=1) == rng[None, :]):
            raise InvariantViolation("Cayley table rows are not permutations")
        if not np.all(np.sort(table, axis=0) == rng[:, None]):
            raise InvariantViolation("Cayley table columns are not permutations")
        # associativity, one i at a time: (g_i g_j) g_k == g_i (g_j g_k)
        for row in table:
            if not np.array_equal(table[row], row[table]):
                raise InvariantViolation("Cayley table is not associative")
        if identity is None:
            hits = [i for i in range(n) if np.all(table[i] == rng)]
            if not hits:
                raise InvariantViolation("no identity element")
            identity = hits[0]
        if not (np.all(table[identity] == rng) and np.all(table[:, identity] == rng)):
            raise InvariantViolation("declared identity is not neutral")
        # each row of a Latin square holds the identity exactly once
        inverse = np.argmax(table == identity, axis=1)
        missing = np.flatnonzero(table[inverse, rng] != identity)
        if len(missing):
            raise InvariantViolation(f"element {missing[0]} has no two-sided inverse")
        for a in (table, inverse):
            a.setflags(write=False)
        self.order = n
        self.table = table
        self.identity = int(identity)
        self.inverse = inverse
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise InvariantViolation("label count does not match group order")

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set S, greedy in index order: an element joins S when
        it lies outside the subgroup the earlier ones generate, so each one at
        least doubles that subgroup and |S| <= log2 |G|.  Empty for |G| = 1."""
        gens, members = [], {self.identity}
        for g in range(self.order):
            if g not in members:
                gens.append(g)
                members = set(subgroup_closure(self, gens).members)
        return tuple(gens)

    @cached_property
    def word_length(self) -> int:
        """The largest, over g, of the length of the shortest word
        s_1 ... s_l = g in :attr:`generators`: the depth of a breadth-first
        walk by right multiplication from the identity.  0 for |G| = 1."""
        gens, seen, frontier, depth = list(self.generators), {self.identity}, [self.identity], 0
        while len(seen) < self.order:
            frontier = [y for y in dict.fromkeys(self.table[frontier][:, gens].ravel().tolist()) if y not in seen]
            seen.update(frontier)
            depth += 1
        return depth

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(i), -k)
        out = self.identity
        for _ in range(k):
            out = self.mul(out, i)
        return out

    def element_order(self, i: int) -> int:
        k, g = 1, i
        while g != self.identity:
            g = self.mul(g, i)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def cyclic_generator(self) -> int | None:
        """An element of full order, or None when the group is not cyclic."""
        for i in range(self.order):
            if self.element_order(i) == self.order:
                return i
        return None

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Conjugacy classes ordered by their smallest member."""
        seen = set()
        classes = []
        for i in range(self.order):
            if i in seen:
                continue
            orbit = {self.mul(self.mul(g, i), self.inv(g)) for g in range(self.order)}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda c: c[0])
        return classes

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and np.array_equal(self.table, other.table)
        )

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by the sorted index list of its members."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(self.members))
        object.__setattr__(self, "members", members)
        if self.parent.identity not in members:
            raise InvariantViolation("subgroup must contain the identity")
        # a subset of a finite group closed under the product holds the inverses
        m = np.array(members, dtype=int)
        if not np.isin(self.parent.table[np.ix_(m, m)], m).all():
            raise InvariantViolation("subgroup is not closed under the table")

    @property
    def order(self) -> int:
        return len(self.members)

    def as_group(self) -> tuple[FiniteGroup, list[int]]:
        """Reground as a standalone group; also returns the member list.

        Members are kept in ascending index order, so a subgroup
        {0, m, 2m, ...} of Z_n regrounds exactly onto Z_{n/m}.
        """
        members = list(self.members)
        pos = np.empty(self.parent.order, dtype=int)
        pos[members] = np.arange(len(members))
        table = pos[self.parent.table[np.ix_(members, members)]]
        labels = [self.parent.labels[g] for g in members]
        return FiniteGroup(table, identity=pos[self.parent.identity], labels=labels), members


def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def make_cyclic_group(n: int) -> FiniteGroup:
    """Z_n with table (i + j) mod n."""
    if n < 1:
        raise ValueError("group order must be at least 1")
    return FiniteGroup(_cyclic_table(n), identity=0)


def is_standard_cyclic(G: FiniteGroup) -> bool:
    """Whether G is Z_n in standard form, the table of :func:`make_cyclic_group`."""
    return np.array_equal(G.table, _cyclic_table(G.order))


def _perm_compose(p, q):
    """(p q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


# permutations of {0,1,2}; eta is the 3-cycle 0->1->2->0, tau swaps 0 and 1
_S3_PERMS = None


def _s3_perms():
    global _S3_PERMS
    if _S3_PERMS is None:
        e = (0, 1, 2)
        eta = (1, 2, 0)
        tau = (1, 0, 2)
        eta2 = _perm_compose(eta, eta)
        _S3_PERMS = [
            e,
            eta,
            eta2,
            tau,
            _perm_compose(eta, tau),
            _perm_compose(eta2, tau),
        ]
    return _S3_PERMS


# fixed element indices of make_symmetric_group_3()
S3_E, S3_ETA, S3_ETA2, S3_TAU, S3_ETA_TAU, S3_ETA2_TAU = range(6)
S3_LABELS = ["e", "eta", "eta^2", "tau", "eta*tau", "eta^2*tau"]


def s3_permutations() -> list[tuple[int, ...]]:
    """The underlying point permutations, indexed like make_symmetric_group_3()."""
    return list(_s3_perms())


@cache
def make_symmetric_group_3() -> FiniteGroup:
    """The permutation group on three points, generated by tau and eta.

    Elements are ordered e, eta, eta^2, tau, eta*tau, eta^2*tau; the
    generators satisfy tau^2 = eta^3 = e and tau eta tau = eta^2.  Every
    call returns the one shared (immutable) instance.
    """
    perms = _s3_perms()
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_perm_compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup(table, identity=0, labels=S3_LABELS)


def subgroup_closure(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing ``gens``: the words in ``gens``,
    read off by right multiplication from the identity, which in a finite
    group hold the inverses too (s^-1 is a power of s)."""
    gens = [int(g) for g in gens]
    if not gens:
        raise ValueError("generator list must be nonempty")
    members = {G.identity}
    frontier = [G.identity]
    while frontier:
        for y in G.table[frontier.pop(), gens].tolist():
            if y not in members:
                members.add(y)
                frontier.append(y)
    return Subgroup(G, tuple(sorted(members)))


def right_coset_reps(H: Subgroup) -> list[int]:
    """Representatives of the right cosets Hg, identity first.

    Each non-identity coset is represented by its smallest element index;
    the representatives tile the parent group.
    """
    G = H.parent
    # column g of the H rows of the table is the coset Hg
    firsts = set(G.table[list(H.members)].min(axis=0).tolist())
    firsts.discard(H.members[0])
    return [G.identity] + sorted(firsts)


def coset_action(H: Subgroup, coset_reps) -> list[list[tuple[int, int, int]]]:
    """Right multiplication permuting the right cosets H c_j.

    Entry g lists, for each i, the triple (i, j, h) with c_i g = h c_j and h
    in H.  Raises :class:`InvariantViolation` when the representatives do
    not tile the group.
    """
    G = H.parent
    coset_of = {G.mul(h, c): (j, h) for j, c in enumerate(coset_reps) for h in H.members}
    if len(coset_of) != G.order or len(coset_reps) * H.order != G.order:
        raise InvariantViolation("coset representatives do not tile the group")
    return [
        [(i, *coset_of[G.mul(c, g)]) for i, c in enumerate(coset_reps)]
        for g in range(G.order)
    ]


@dataclass
class CharacterTable:
    """Irreducible characters of a finite group, one row per irrep.

    ``chars[r, c]`` is the value of character r on conjugacy class c;
    ``dims[r]`` is the dimension of irrep r.  Rows are ordered by
    (dimension, lexicographic rounded character vector).
    """

    group: FiniteGroup
    classes: list[tuple[int, ...]]
    chars: np.ndarray
    dims: list[int]
    class_of: np.ndarray = field(init=False)

    def __post_init__(self):
        class_of = np.empty(self.group.order, dtype=int)
        for c, cls in enumerate(self.classes):
            for g in cls:
                class_of[g] = c
        self.class_of = class_of

    @property
    def n_irreps(self) -> int:
        return len(self.dims)

    def value(self, r: int, g: int) -> complex:
        return complex(self.chars[r, self.class_of[g]])

    def char_vector(self, r: int) -> np.ndarray:
        """Character values of irrep r indexed by group element."""
        return self.chars[r, self.class_of]

    def validate(self, tol: float = 1e-8):
        G = self.group
        if sum(d * d for d in self.dims) != G.order:
            raise InvariantViolation("sum of squared dimensions != |G|")
        sizes = np.array([len(c) for c in self.classes])
        # column orthogonality: sum_r chi_r(g) conj(chi_r(h))
        for cg in range(len(self.classes)):
            for ch in range(len(self.classes)):
                s = np.sum(self.chars[:, cg] * np.conj(self.chars[:, ch]))
                want = G.order / sizes[cg] if cg == ch else 0.0
                if abs(s - want) > tol * G.order:
                    raise InvariantViolation("character orthogonality fails")
        dims = np.array(self.dims)
        for c in range(len(self.classes)):
            if self.classes[c][0] == G.identity and len(self.classes[c]) == 1:
                continue
            if abs(np.sum(self.chars[:, c] * dims)) > tol * G.order:
                raise InvariantViolation("off-identity column sum does not vanish")


def character_table(
    G: FiniteGroup, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> CharacterTable:
    """Character table computed by decomposing the regular representation.

    The regular representation is the twisted regular representation with
    the trivial cocycle, which the projective character engine decomposes.
    Each irrep appears in it with multiplicity equal to its dimension;
    characters are read off as traces of the irreducible components.
    """
    # deferred: reps imports this module
    from .reps import _twisted_regular, decompose

    regular = _twisted_regular(G, np.ones((G.order, G.order)))
    classes = G.conjugacy_classes()
    last_err = None
    for attempt in range(3):
        try:
            dec = decompose(regular, seed + 17 * attempt, tol)
            rows = []
            for irrep, mult in dec.components:
                dim = irrep.dim
                if mult != dim:
                    raise InvariantViolation(
                        f"regular multiplicity {mult} != dimension {dim}"
                    )
                per_element = np.trace(irrep.mats, axis1=1, axis2=2)
                per_class = []
                for cls in classes:
                    vals = per_element[list(cls)]
                    if np.max(np.abs(vals - vals[0])) > 1e-7 * max(1, dim):
                        raise InvariantViolation("character not constant on a class")
                    per_class.append(np.mean(vals))
                rows.append((dim, np.array(per_class)))
            rows.sort(
                key=lambda r: (
                    r[0],
                    tuple(
                        (round(z.real, 8) + 0.0, round(z.imag, 8) + 0.0) for z in r[1]
                    ),
                )
            )
            table = CharacterTable(
                group=G,
                classes=classes,
                chars=np.array([r[1] for r in rows]),
                dims=[r[0] for r in rows],
            )
            table.validate()
            return table
        except (InvariantViolation, DecompositionFailed) as err:  # retry reseeded
            last_err = err
    raise DecompositionFailed(f"character table failed after retries: {last_err}")
