"""Benchmark inputs, generated from a seed with numpy alone.

Nothing here calls into ``crossrep`` except :func:`to_action` and
:func:`to_covariant`, which hand finished matrices to the package's public
constructors.  The inputs are therefore identical on every commit that runs
the same benchmark code, and :func:`digest` hashes them so that a comparison
of two commits can prove it.

Seeds change only unitary gauges and conjugations: the block structure,
the group and every holonomy spectrum are fixed, so the golden verdicts
(irreducible dimensions, stabilizers, multiplicities, S3 cases) do not
depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent / "data"

S3_LABELS = ["e", "eta", "eta^2", "tau", "eta*tau", "eta^2*tau"]


@dataclass
class ActionSpec:
    """A finite group acting on a block algebra, as plain arrays.

    ``auts[g] = (perm, unitaries)`` in the package's normal form: source
    block j goes to target block ``perm[j]`` and ``unitaries[i]`` acts in
    target block i.
    """

    name: str
    table: np.ndarray
    labels: list[str]
    blocks: tuple[int, ...]
    auts: list[tuple[tuple[int, ...], list[np.ndarray]]]

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def host_dim(self) -> int:
        return self.order * sum(self.blocks)

    @property
    def linear_dim(self) -> int:
        return sum(d * d for d in self.blocks)


@dataclass
class CovSpec:
    """A covariant representation as plain arrays over an :class:`ActionSpec`."""

    name: str
    action: ActionSpec
    gens: dict[str, np.ndarray]
    unitaries: list[np.ndarray]

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# ---------------------------------------------------------------------------
# groups, in the element order the package uses


def cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _compose(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


def s3_perms() -> list[tuple[int, ...]]:
    """e, eta, eta^2, tau, eta*tau, eta^2*tau on the points {0, 1, 2}."""
    e, eta, tau = (0, 1, 2), (1, 2, 0), (1, 0, 2)
    eta2 = _compose(eta, eta)
    return [e, eta, eta2, tau, _compose(eta, tau), _compose(eta2, tau)]


def s3_table() -> np.ndarray:
    perms = s3_perms()
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[_compose(p, q)] for q in perms] for p in perms])


# ---------------------------------------------------------------------------
# automorphism arithmetic in normal form


def _aut_compose(a, b):
    """a after b."""
    pa, ua = a
    pb, ub = b
    inv_a = np.argsort(pa)
    perm = tuple(int(pa[pb[j]]) for j in range(len(pa)))
    return perm, [ua[i] @ ub[inv_a[i]] for i in range(len(pa))]


def cyclic_action(name, n, blocks, cycles, holonomy, rng) -> ActionSpec:
    """Z_n generated by one automorphism that runs each cycle of blocks.

    ``cycles`` partitions the block indices (equal dimensions within a
    cycle, lengths dividing n); ``holonomy[c]`` lists, per eigenvalue, the
    exponent e of exp(2 pi i e L / n) for the return map of cycle c of
    length L.  Only the gauge unitaries along each cycle are random.
    """
    nb = len(blocks)
    perm = [None] * nb
    us = [None] * nb
    for cycle, exps in zip(cycles, holonomy):
        L, d = len(cycle), blocks[cycle[0]]
        mids = [haar_unitary(d, rng) for _ in range(L - 1)]
        for j in range(L):
            perm[cycle[j]] = cycle[(j + 1) % L]
        for j in range(1, L):
            us[cycle[j]] = mids[j - 1]
        Q = haar_unitary(d, rng)
        roots = np.exp(2j * np.pi * np.array(exps) * L / n)
        Z = Q @ np.diag(roots) @ Q.conj().T
        acc = np.eye(d, dtype=complex)
        for U in reversed(mids):
            acc = acc @ U
        us[cycle[0]] = Z @ acc.conj().T
    gen = (tuple(perm), us)
    auts = [(tuple(range(nb)), [np.eye(d, dtype=complex) for d in blocks])]
    for _ in range(n - 1):
        auts.append(_aut_compose(gen, auts[-1]))
    return ActionSpec(name, cyclic_table(n), [str(i) for i in range(n)], tuple(blocks), auts)


def _s3_irrep(kind: str) -> list[np.ndarray]:
    w = np.exp(2j * np.pi / 3)
    if kind == "standard":
        eta = np.diag([w, w * w])
        tau = np.array([[0, 1], [1, 0]], dtype=complex)
    else:
        eta = np.eye(1, dtype=complex)
        tau = (1 if kind == "trivial" else -1) * np.eye(1, dtype=complex)
    return [np.eye(len(eta), dtype=complex), eta, eta @ eta, tau, eta @ tau, eta @ eta @ tau]


def s3_inner_action(name, parts_per_block, rng) -> ActionSpec:
    """S3 acting inside each block through a fixed sum of its irreps,
    rotated by a random unitary."""
    reps = []
    for parts in parts_per_block:
        mats = [np.zeros((0, 0), dtype=complex)] * 6
        for kind in parts:
            irr = _s3_irrep(kind)
            mats = [_block_diag(m, x) for m, x in zip(mats, irr)]
        Q = haar_unitary(mats[0].shape[0], rng)
        reps.append([Q @ m @ Q.conj().T for m in mats])
    blocks = tuple(r[0].shape[0] for r in reps)
    nb = len(blocks)
    auts = [(tuple(range(nb)), [reps[b][g] for b in range(nb)]) for g in range(6)]
    return ActionSpec(name, s3_table(), list(S3_LABELS), blocks, auts)


_S3_STABILIZERS = {1: (0, 1, 2, 3, 4, 5), 2: (0, 1, 2), 3: (0, 3), 6: (0,)}


def s3_permutation_action(name, orbits, rng=None) -> ActionSpec:
    """S3 permuting identical blocks along coset spaces.

    ``orbits`` lists (orbit size, block dim); with ``rng`` the action is
    twisted by a random unitary per block (the conjugated kind).
    """
    table = s3_table()
    inv = [int(np.nonzero(table[g] == 0)[0][0]) for g in range(6)]
    blocks, layout = [], []
    for size, d in orbits:
        members = _S3_STABILIZERS[size]
        cosets = []
        for g in range(6):
            cs = frozenset(int(table[h, g]) for h in members)
            if cs not in cosets:
                cosets.append(cs)
        layout.append((len(blocks), cosets))
        blocks.extend([d] * size)
    nb = len(blocks)
    W = [haar_unitary(d, rng) if rng is not None else np.eye(d, dtype=complex) for d in blocks]
    auts = []
    for g in range(6):
        perm = [None] * nb
        for start, cosets in layout:
            for j, cs in enumerate(cosets):
                target = frozenset(int(table[x, inv[g]]) for x in cs)
                perm[start + j] = start + cosets.index(target)
        src = np.argsort(perm)
        auts.append((tuple(perm), [W[i] @ W[src[i]].conj().T for i in range(nb)]))
    return ActionSpec(name, table, list(S3_LABELS), tuple(blocks), auts)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[: a.shape[0], : a.shape[0]] = a
    out[a.shape[0] :, a.shape[0] :] = b
    return out


# ---------------------------------------------------------------------------
# workload input sets

# (name, n, blocks, cycles, holonomy exponents per cycle)
_CYCLIC_LADDER = [
    ("Z4[3]", 4, [3], [[0]], [[0, 1, 2]]),
    ("Z6[2]", 6, [2], [[0]], [[0, 3]]),
    ("Z4[2,2]", 4, [2, 2], [[0, 1]], [[0, 1]]),
    ("Z6[2,2]", 6, [2, 2], [[0, 1]], [[0, 1]]),
    ("Z8[3]", 8, [3], [[0]], [[1, 2, 5]]),
    ("Z8[2,1,1]", 8, [2, 1, 1], [[0], [1, 2]], [[0, 4], [1]]),
    ("Z6[3,3]", 6, [3, 3], [[0, 1]], [[0, 1, 2]]),
]

# (name, kind, structure)
_S3_LADDER = [
    ("S3-inner[2]", "inner", [["standard"]]),
    ("S3-inner[3]", "inner", [["trivial", "standard"]]),
    ("S3-inner[2,3]", "inner", [["standard"], ["sign", "standard"]]),
    ("S3-perm[1,1,1]", "permutation", [(3, 1)]),
    ("S3-perm[2,2]", "permutation", [(2, 2)]),
    ("S3-perm[1x6]", "permutation", [(6, 1)]),
    ("S3-conj[2,1,1,1]", "conjugated", [(1, 2), (3, 1)]),
]


# too slow for a pass of enumerate_irreps; cli_roundtrip builds its model
CLI_ONLY = ("Z6[3,3]",)


def enumerate_actions(seed: int, extra: bool = False) -> list[ActionSpec]:
    """The ladder of actions for ``enumerate_irreps``, host dimension 12-36;
    ``extra`` adds the ones only ``cli_roundtrip`` uses."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for name, n, blocks, cycles, hol in _CYCLIC_LADDER:
        out.append(cyclic_action(name, n, blocks, cycles, hol, rng))
    for name, kind, structure in _S3_LADDER:
        if kind == "inner":
            out.append(s3_inner_action(name, structure, rng))
        else:
            out.append(s3_permutation_action(name, structure, rng if kind == "conjugated" else None))
    return [a for a in out if extra or a.name not in CLI_ONLY]


def probe_action(host: int, seed: int) -> ActionSpec:
    """Limit probes beyond the ladder: S3 conjugated at host 60, S3
    permutation on nine 2x2 blocks at host 108."""
    rng = np.random.default_rng([seed, 3])
    if host == 60:
        return s3_permutation_action("S3-conj[2x5]", [(3, 2), (2, 2)], rng)
    if host == 108:
        return s3_permutation_action("S3-perm[2x9]", [(3, 2), (6, 2)])
    raise ValueError(f"no probe at host dimension {host}")


# ---------------------------------------------------------------------------
# the stored pool of irreducible covariant representations


def _mat_from(obj) -> np.ndarray:
    return np.array(obj[0], dtype=float) + 1j * np.array(obj[1], dtype=float)


def mat_to(M: np.ndarray) -> list:
    return [M.real.tolist(), M.imag.tolist()]


def action_from_record(rec) -> ActionSpec:
    auts = [(tuple(a["perm"]), [_mat_from(u) for u in a["unitaries"]]) for a in rec["auts"]]
    return ActionSpec(rec["name"], np.array(rec["table"]), rec["labels"], tuple(rec["blocks"]), auts)


def action_record(spec: ActionSpec) -> dict:
    return {
        "name": spec.name,
        "table": spec.table.tolist(),
        "labels": spec.labels,
        "blocks": list(spec.blocks),
        "auts": [{"perm": list(p), "unitaries": [mat_to(u) for u in us]} for p, us in spec.auts],
    }


def load_pool(path: Path = DATA_DIR / "pool.json") -> list[CovSpec]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    actions = [action_from_record(a) for a in doc["actions"]]
    return [
        CovSpec(
            rec["name"],
            actions[rec["action"]],
            {l: _mat_from(M) for l, M in rec["gens"].items()},
            [_mat_from(U) for U in rec["unitaries"]],
        )
        for rec in doc["irreps"]
    ]


def conjugate(cov: CovSpec, W: np.ndarray) -> CovSpec:
    """The equivalent representation W Pi W*."""
    Wh = W.conj().T
    return CovSpec(
        cov.name,
        cov.action,
        {l: W @ M @ Wh for l, M in cov.gens.items()},
        [W @ U @ Wh for U in cov.unitaries],
    )


def analyze_pool(seed: int, pool: list[CovSpec]) -> list[CovSpec]:
    """Every stored irreducible, each rotated by its own random unitary."""
    rng = np.random.default_rng([seed, 2])
    return [conjugate(c, haar_unitary(c.dim, rng)) for c in pool]


# ---------------------------------------------------------------------------
# hashing and conversion to package objects


def digest(specs) -> str:
    """SHA-256 over every array and label of the given inputs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.shape).encode())
            h.update(np.ascontiguousarray(x, dtype=complex).tobytes())
        elif isinstance(x, (bytes, bytearray)):
            h.update(x)
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        elif isinstance(x, ActionSpec):
            feed([x.name, x.table, x.labels, list(x.blocks), x.auts])
        elif isinstance(x, CovSpec):
            feed([x.name, x.action, x.gens, x.unitaries])
        else:
            h.update(repr(x).encode())

    feed(list(specs))
    return h.hexdigest()


def to_action(spec: ActionSpec):
    from crossrep import FiniteGroup, GroupAction, MatAlg, StarAut

    G = FiniteGroup(spec.table, identity=0, labels=spec.labels)
    A = MatAlg(spec.blocks)
    return GroupAction(G, A, [StarAut(A, p, us) for p, us in spec.auts])


def to_covariant(cov: CovSpec, action=None):
    from crossrep import CovariantRep, Rep

    if action is None:
        action = to_action(cov.action)
    return CovariantRep(Rep(cov.dim, cov.gens), action, cov.unitaries)
