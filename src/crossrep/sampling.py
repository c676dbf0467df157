"""Randomized actions, representations, and crossed-product irreducibles.

Used by the property sweeps: every generator produces exact group actions
(homomorphism relations hold to rounding, not approximately), so failures
in downstream identities point at the code under test, not the fixtures.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .algebra import GroupAction, MatAlg, StarAut, _cyclic_action
from .errors import InvariantViolation
from .groups import Subgroup, coset_action, make_symmetric_group_3, right_coset_reps
from .linalg import DEFAULT_TOL, Tolerance, block_diag, random_unitary
from .reps import (CovariantRep, Rep, _block_stabilizer, _characters, _character_dims, _induce_stack, _orbit_blocks,
                   _projective_irreps, _sum_dim, _tensor_stack, _unit_pattern, rep_from_images)

__all__ = [
    "random_cyclic_action",
    "random_s3_action",
    "random_block_irrep",
    "crossed_irreps",
]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def random_cyclic_action(
    n: int, block_dims, rng: np.random.Generator, twist: bool = True
) -> GroupAction:
    """A random order-n automorphism, presented as a Z_n action.

    Blocks of equal dimension are permuted along cycles whose lengths
    divide n; with ``twist`` the cycle holonomies are random unitaries
    whose (n/L)-th power is 1, so the induced map has order dividing n
    while individual powers conjugate nontrivially.
    """
    A = MatAlg(block_dims)
    nb = A.n_blocks
    perm = [None] * nb
    unitaries = [None] * nb
    by_dim: dict[int, list[int]] = {}
    for i, d in enumerate(A.block_dims):
        by_dim.setdefault(d, []).append(i)
    for d, idxs in by_dim.items():
        idxs = list(rng.permutation(idxvals := idxs))
        while idxs:
            fits = [L for L in _divisors(n) if L <= len(idxs)]
            L = int(rng.choice(fits))
            cycle, idxs = idxs[:L], idxs[L:]
            for j in range(L):
                perm[cycle[j]] = cycle[(j + 1) % L]
            if twist:
                mids = [random_unitary(d, rng) for _ in range(L - 1)]
                for j in range(1, L):
                    unitaries[cycle[j]] = mids[j - 1]
                # cycle holonomy Z with Z^(n/L) = 1 keeps the order at n
                Q = random_unitary(d, rng)
                roots = np.exp(2j * np.pi * rng.integers(0, n // L, size=d) / (n // L))
                Z = Q @ np.diag(roots) @ Q.conj().T
                acc = np.eye(d, dtype=complex)
                for U in reversed(mids):
                    acc = acc @ U
                unitaries[cycle[0]] = Z @ acc.conj().T
            else:
                for j in range(L):
                    unitaries[cycle[j]] = np.eye(d, dtype=complex)
    return _cyclic_action(StarAut(A, perm, unitaries), n)


def _s3_irrep_mats(kind: str):
    w = np.exp(2j * np.pi / 3)
    if kind == "trivial":
        eta, tau = np.eye(1, dtype=complex), np.eye(1, dtype=complex)
    elif kind == "sign":
        eta, tau = np.eye(1, dtype=complex), -np.eye(1, dtype=complex)
    else:  # standard two-dimensional irrep
        eta = np.diag([w, w**2])
        tau = np.array([[0, 1], [1, 0]], dtype=complex)
    return eta, tau


def _s3_rep_on(dim: int, rng: np.random.Generator):
    """A genuine unitary representation of the 3-letter group on C^dim."""
    parts = []
    left = dim
    while left > 0:
        opts = ["trivial", "sign"] + (["standard"] if left >= 2 else [])
        kind = str(rng.choice(opts))
        parts.append(kind)
        left -= 2 if kind == "standard" else 1
    G = make_symmetric_group_3()
    eta = block_diag(*[_s3_irrep_mats(k)[0] for k in parts])
    tau = block_diag(*[_s3_irrep_mats(k)[1] for k in parts])
    Q = random_unitary(dim, rng)
    eta, tau = Q @ eta @ Q.conj().T, Q @ tau @ Q.conj().T
    mats = [np.eye(dim, dtype=complex), eta, eta @ eta, tau, eta @ tau, eta @ eta @ tau]
    return mats


def random_s3_action(rng: np.random.Generator, kind: str | None = None) -> GroupAction:
    """A random honest action of the 3-letter permutation group.

    ``permutation`` permutes identical blocks along cosets of a subgroup;
    ``inner`` conjugates single blocks by a unitary representation;
    ``conjugated`` is a permutation action twisted by a fixed unitary.
    """
    G = make_symmetric_group_3()
    if kind is None:
        kind = str(rng.choice(["permutation", "inner", "conjugated"]))
    if kind == "inner":
        dims = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        A = MatAlg(dims)
        reps = [_s3_rep_on(d, rng) for d in dims]
        auts = [
            StarAut(A, range(A.n_blocks), [reps[b][g] for b in range(A.n_blocks)])
            for g in range(6)
        ]
        return GroupAction(G, A, auts)

    # orbit sizes are the subgroup indices: 1, 2, 3 or 6
    subgroup_members = {1: list(range(6)), 2: [0, 1, 2], 3: [0, 3], 6: [0]}
    n_orbits = int(rng.integers(1, 3))
    blocks, orbits = [], []
    for _ in range(n_orbits):
        size = int(rng.choice(list(subgroup_members)))
        d = int(rng.integers(1, 3))
        # one block per right coset H c_j of the stabilizer subgroup H
        H = Subgroup(G, subgroup_members[size])
        orbits.append((len(blocks), coset_action(H, right_coset_reps(H))))
        blocks.extend([d] * size)
    A = MatAlg(blocks)
    auts = []
    for g in range(6):
        perm = [None] * A.n_blocks
        for start, table in orbits:
            # alpha_g(f)(Hx) = f(Hxg), so source block j lands on H c_j g^{-1}
            for j, target, _ in table[G.inv(g)]:
                perm[start + j] = start + target
        auts.append(
            StarAut(A, perm, [np.eye(A.block_dims[i], dtype=complex) for i in range(A.n_blocks)])
        )
    act = GroupAction(G, A, auts)
    if kind == "conjugated":
        W = [random_unitary(d, rng) for d in A.block_dims]
        twisted = []
        for g in range(6):
            p = act.auts[g].perm
            inv = act.auts[g].inv_perm
            us = [W[i] @ W[inv[i]].conj().T for i in range(A.n_blocks)]
            twisted.append(StarAut(A, p, us))
        act = GroupAction(G, A, twisted)
    return act


def random_block_irrep(
    algebra: MatAlg, rng: np.random.Generator, block: int | None = None
) -> Rep:
    """An irreducible representation: one block compression, randomly rotated."""
    if block is None:
        block = int(rng.integers(0, algebra.n_blocks))
    d = algebra.block_dims[block]
    Q = random_unitary(d, rng)
    return rep_from_images(algebra, lambda e: Q @ e.blocks[block] @ Q.conj().T)


def _require_irreducible(stack: list[CovariantRep], tol: Tolerance):
    """Raise :class:`InvariantViolation` unless dim End = 1 on every member
    of ``stack``, by the character sum of :meth:`CovariantRep.end_dim`,
    read for the members that share a base in one product."""
    A = stack[0].action.algebra
    weights = np.append(_unit_pattern(A.block_dims)[0], 1.0)
    for _, shared in groupby(stack, lambda cov: id(cov.base)):
        shared = list(shared)
        chi = _characters(shared[0].base, np.array([cov.unitaries for cov in shared]), A)
        # dim End = |G|^-1 sum_g [sum_k n_k^-1 sum_ij |chi(g, e^k_ij)|^2 + |chi(g, 1 - pi(1))|^2]
        means = (weights * np.abs(chi) ** 2).sum(axis=(1, 2)) / chi.shape[1]
        dims, bounds = _character_dims(means, means, tol)
        misses = np.flatnonzero(dims != 1)
        if misses.size:
            _sum_dim(means[misses[0]], bounds[misses[0]])  # names a sum that is no dimension
            raise InvariantViolation(f"an induced representation of dim {shared[misses[0]].dim} is reducible")


def crossed_irreps(
    action: GroupAction,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[CovariantRep]:
    """Every irreducible covariant representation of the crossed product.

    Mackey's construction with multipliers, one orbit of blocks at a time:
    with k the smallest block of the orbit, H = {g : alpha_g fixes k} and
    V_h = U^h_k of cocycle c_V, the irreducibles over the orbit are
    Ind_H^G(lambda (x) V) on 1 (x) pi_k, one per class of irreducible lambda
    of H with cocycle conj(c_V) (``reps._projective_irreps``, which splits
    the twisted regular representation block by block, one block when
    |H| <= 8).  The classes of one dimension r are built in one stacked
    pass: the base 1_r (x) pi_k once, every lambda (x) V in one product and
    every induction in one ``reps._induce_stack``, which composes the base
    with every coset representative in one contraction and fills every U_g
    of the stack in one assignment.  Certified by dim End = 1 on each
    result, the character sum of ``end_dim`` read for a whole stack at
    once, and by the Wedderburn count sum dim^2 = |G| dim A,
    :class:`InvariantViolation` otherwise; c_V passes one cocycle residual
    check, so the results are covariant and not re-validated.  Ordered with
    no seed by dimension, then orbit (smallest block first), then the
    character of lambda, as :func:`~crossrep.reps.decompose` orders the
    crossed model's defining representation.
    """
    G, A = action.group, action.algebra
    irreps = []
    for k in _orbit_blocks(action):
        pi_k, stab = _block_stabilizer(action, k, tol)
        H, sub_action, _, coset_reps, _ = action.restriction(stab.members)
        # the classes come in _character_keys order, dimension first
        for _, same in groupby(_projective_irreps(sub_action.group, stab.cocycle, seed, tol), lambda lam: lam.dim):
            base, unitaries = _tensor_stack([lam.mats for lam in same], stab.V, pi_k)
            stack = _induce_stack(base, unitaries, action, H, coset_reps)
            _require_irreducible(stack, tol)
            irreps += stack
    irreps.sort(key=lambda cov: cov.dim)
    if sum(cov.dim**2 for cov in irreps) != G.order * A.linear_dim:
        raise InvariantViolation("irreducible dimensions fail sum dim^2 = |G| dim A")
    return irreps
