"""Finite groups given by Cayley tables, subgroups, cosets and character tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import InvariantViolation
from .linalg import DEFAULT_TOL, Tolerance, _require

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
    the Latin-square property, the identity and associativity.
    A group is immutable: its table and inverses are read-only copies and its
    labels a tuple, so data derived from it can be computed once and shared.

    ``generators`` is a generating set S, greedy in index order: an element
    joins S when it lies outside the subgroup the earlier ones generate, so
    each one at least doubles that subgroup and |S| <= log2 |G|.  Empty for
    |G| = 1.
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
        if identity is None:
            hits = [i for i in range(n) if np.all(table[i] == rng)]
            if not hits:
                raise InvariantViolation("no identity element")
            identity = hits[0]
        if not (np.all(table[identity] == rng) and np.all(table[:, identity] == rng)):
            raise InvariantViolation("declared identity is not neutral")
        identity = int(identity)
        gens, members = [], {identity}
        for g in range(n):
            if g not in members:
                gens.append(g)
                members = _words(table, identity, gens)
        # Light's test: the left nucleus {s : (s x) y = s (x y) for all x, y}
        # holds the identity and is closed under products, so it is all of G
        # once it holds the generators; row s reads (s x) y = s (x y) at once
        for s in gens:
            if not np.array_equal(table[table[s]], table[s][table]):
                raise InvariantViolation("Cayley table is not associative")
        # each row of a Latin square holds the identity exactly once, and in
        # a group that one-sided inverse is two-sided
        inverse = np.argmax(table == identity, axis=1)
        for a in (table, inverse):
            a.setflags(write=False)
        self.order = n
        self.table = table
        self.identity = identity
        self.inverse = inverse
        self.generators = tuple(gens)
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise InvariantViolation("label count does not match group order")
        if len(set(self.labels)) != n:
            raise InvariantViolation("group labels must be distinct")

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


# permutations of {0,1,2} in the order e, eta, eta^2, tau, eta*tau, eta^2*tau:
# eta is the 3-cycle 0->1->2->0, tau swaps 0 and 1
_S3_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1))


# fixed element indices of make_symmetric_group_3()
S3_E, S3_ETA, S3_ETA2, S3_TAU, S3_ETA_TAU, S3_ETA2_TAU = range(6)
S3_LABELS = ["e", "eta", "eta^2", "tau", "eta*tau", "eta^2*tau"]


def s3_permutations() -> list[tuple[int, ...]]:
    """The underlying point permutations, indexed like make_symmetric_group_3()."""
    return list(_S3_PERMS)


@cache
def make_symmetric_group_3() -> FiniteGroup:
    """The permutation group on three points, generated by tau and eta.

    Elements are ordered e, eta, eta^2, tau, eta*tau, eta^2*tau; the
    generators satisfy tau^2 = eta^3 = e and tau eta tau = eta^2.  Every
    call returns the one shared (immutable) instance.
    """
    index = {p: i for i, p in enumerate(_S3_PERMS)}
    table = [[index[_perm_compose(p, q)] for q in _S3_PERMS] for p in _S3_PERMS]
    return FiniteGroup(table, identity=0, labels=S3_LABELS)


def _words(table: np.ndarray, identity: int, gens: list[int]) -> set[int]:
    """The words in ``gens``, read off a Cayley table by right
    multiplication from the identity."""
    members, frontier = {identity}, [identity]
    while frontier:
        for y in table[frontier.pop(), gens].tolist():
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def subgroup_closure(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing ``gens``: the words in ``gens``,
    which in a finite group hold the inverses too (s^-1 is a power of s)."""
    gens = [int(g) for g in gens]
    if not gens:
        raise ValueError("generator list must be nonempty")
    return Subgroup(G, tuple(sorted(_words(G.table, G.identity, gens))))


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

    def validate(self, tol: float = DEFAULT_TOL.rank_eps):
        G = self.group
        if sum(d * d for d in self.dims) != G.order:
            raise InvariantViolation("sum of squared dimensions != |G|")
        sizes = np.array([len(c) for c in self.classes])
        # column orthogonality: sum_r chi_r(g) conj(chi_r(h)) = |G| / |class of g| or 0
        gram = self.chars.T @ self.chars.conj()
        _require(np.abs(gram - np.diag(G.order / sizes)), tol * G.order,
                 "character orthogonality fails at classes ({},{})")
        # the regular character sum_r dim_r chi_r vanishes off the identity class
        sums = np.abs(np.array(self.dims) @ self.chars)
        sums[self.class_of[G.identity]] = 0.0
        _require(sums, tol * G.order, "off-identity column sum does not vanish at class {}")


def character_table(
    G: FiniteGroup, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> CharacterTable:
    """Character table read from the irreducibles of the regular representation,
    one per class (``reps._classes`` with the trivial cocycle: written down
    for a cyclic G, split from the regular representation along its right
    translations otherwise), in its order.  No random number is drawn;
    ``seed`` is kept for compatibility and not read.

    Characters are their traces, which must be constant on each conjugacy
    class; :meth:`CharacterTable.validate` certifies sum dim^2 = |G| and
    orthogonality.  Either failure raises :class:`InvariantViolation`.
    """
    # deferred: reps imports this module
    from .reps import _classes

    classes = G.conjugacy_classes()
    irreps = _classes(G, np.ones((G.order, G.order)), tol)
    chars = []
    for irrep in irreps:
        chi = np.trace(irrep.mats, axis1=1, axis2=2)
        for cls in classes:
            _require(np.abs(chi[list(cls)] - chi[cls[0]]), tol.reconstruction_bound(irrep.dim),
                     "character not constant on a class at element {}", names=cls)
        chars.append([chi[list(cls)].mean() for cls in classes])
    table = CharacterTable(group=G, classes=classes, chars=np.array(chars), dims=[irrep.dim for irrep in irreps])
    table.validate(tol.rank_eps)
    return table
