"""Randomized actions, representations, and crossed-product irreducibles.

Used by the property sweeps: every generator produces exact group actions
(homomorphism relations hold to rounding, not approximately), so failures
in downstream identities point at the code under test, not the fixtures.
"""

from __future__ import annotations

import numpy as np

from .algebra import GroupAction, MatAlg, StarAut
from .errors import InvariantViolation
from .groups import make_cyclic_group, make_symmetric_group_3
from .linalg import DEFAULT_TOL, Tolerance, block_diag, random_unitary
from .reps import CovariantRep, Rep, _block_stabilizer, _mackey_orbit, _orbit_blocks, rep_from_images

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
    sigma = StarAut(A, perm, unitaries)
    auts = [StarAut.identity(A)]
    for _ in range(n - 1):
        auts.append(sigma.compose(auts[-1]))
    return GroupAction(make_cyclic_group(n), A, auts)


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
    sizes = [1, 2, 3, 6]
    subgroup_members = {1: list(range(6)), 2: [0, 1, 2], 3: [0, 3], 6: [0]}
    n_orbits = int(rng.integers(1, 3))
    blocks, orbits = [], []
    for _ in range(n_orbits):
        size = int(rng.choice(sizes))
        d = int(rng.integers(1, 3))
        # coset space of the stabilizer subgroup
        members = subgroup_members[size]
        cosets = []
        seen = set()
        for g in range(6):
            cs = frozenset(G.mul(h, g) for h in members)
            if cs not in seen:
                seen.add(cs)
                cosets.append(cs)
        start = len(blocks)
        blocks.extend([d] * size)
        orbits.append((start, cosets))
    A = MatAlg(blocks)
    auts = []
    for g in range(6):
        ginv = G.inv(g)
        perm = [None] * A.n_blocks
        for start, cosets in orbits:
            for j, cs in enumerate(cosets):
                # alpha_g(f)(Hx) = f(Hxg), so source block j lands on Hx g^{-1}
                target = frozenset(G.mul(x, ginv) for x in cs)
                perm[start + j] = start + cosets.index(target)
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


def crossed_irreps(
    action: GroupAction,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[CovariantRep]:
    """Every irreducible covariant representation of the crossed product.

    Mackey's construction with multipliers, one orbit of blocks at a time:
    with k the smallest block of the orbit, H = {g : alpha_g fixes k} and
    V_h = U^h_k of cocycle c_V, the irreducibles over the orbit are
    Ind_H^G(Lambda (x) V) on 1 (x) pi_k, one per irreducible Lambda of H with
    cocycle conj(c_V) in the |H|-dimensional twisted regular representation
    L_a delta_x = c_V(a, x) delta_{ax} (the read-off that ``decompose`` and
    the analyzer share).  Certified by ``end_dim() == 1`` on each result and
    by the Wedderburn count sum dim^2 = |G| dim A, :class:`InvariantViolation`
    otherwise; L passes one cocycle residual check, so the results are
    covariant and not re-validated.  Ordered by dimension, stably, then by
    orbit (smallest block first), then in ``decompose``'s order of the Lambda.
    """
    G, A = action.group, action.algebra
    blocks = _orbit_blocks(action)
    orbits = [_mackey_orbit(action, *_block_stabilizer(action, k, tol), None, seed, tol) for k in blocks]
    irreps = sorted((cls.induced for orbit in orbits for cls in orbit.classes), key=lambda cov: cov.dim)
    for cov in irreps:
        if cov.end_dim(tol) != 1:
            raise InvariantViolation(f"an induced representation of dim {cov.dim} is reducible")
    if sum(cov.dim**2 for cov in irreps) != G.order * A.linear_dim:
        raise InvariantViolation("irreducible dimensions fail sum dim^2 = |G| dim A")
    return irreps
