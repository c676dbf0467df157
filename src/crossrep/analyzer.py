"""Structure extraction for irreducible covariant representations.

Given an irreducible covariant representation of a crossed product, the
analyzer conjugates it into block-permutation canonical form: the algebra
restriction becomes a block diagonal of translates of one irreducible
representation, the group unitaries become block permutations, and the
stabilizer block factors as a tensor product of two projective unitary
representations whose 2-cocycles are extracted explicitly.  Cyclic groups
get the sharper shift-with-corner canonical form, and crossed products by
the permutation group on three points are classified into the four
possible shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GroupAction, restrict_action
from .crossed import fixed_point_algebra
from .errors import (
    BlockStructureViolation,
    CanonicalFormViolation,
    InvariantViolation,
    NotFactorable,
    NotIrreducible,
    NotScalarPower,
)
from .groups import (
    FiniteGroup,
    S3_E,
    S3_ETA,
    S3_ETA2,
    S3_TAU,
    Subgroup,
    make_cyclic_group,
    make_symmetric_group_3,
    right_coset_reps,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    scalar_quotient,
    unitary_eigenspaces,
)
from .reps import (
    CovariantRep,
    Rep,
    are_equivalent,
    covariant_equivalence,
    decompose,
    evaluate,
    is_irreducible,
    rep_compose,
    rep_end_dim,
    rep_equivalence,
    trivial_covariant,
)

__all__ = [
    "ProjectiveRep",
    "StructureReport",
    "CyclicReport",
    "S3Class",
    "analyze",
    "factor_tensor",
    "homogeneous_irreducibility",
    "cyclic_analyze",
    "build_cyclic_irrep",
    "periodize",
    "classify_s3",
]

# spec-pinned reconstruction thresholds
_BLOCK_TOL = 1e-7
_OFF_PATTERN = 1e-6


@dataclass
class ProjectiveRep:
    """Unitaries multiplying up to a scalar: ``mats[gh] = c(g,h) mats[g] mats[h]``."""

    group: FiniteGroup
    mats: list[np.ndarray]
    cocycle: np.ndarray

    def validate(self, threshold: float = 1e-8):
        G = self.group
        n = G.order
        if np.max(np.abs(np.abs(self.cocycle) - 1.0)) > threshold:
            raise InvariantViolation("cocycle values must have modulus 1")
        for g in range(n):
            for h in range(n):
                lhs = self.mats[G.mul(g, h)]
                rhs = self.cocycle[g, h] * self.mats[g] @ self.mats[h]
                if np.linalg.norm(lhs - rhs) > threshold * max(1, lhs.shape[0]):
                    raise InvariantViolation(
                        f"projective relation fails at pair ({g},{h})"
                    )
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    lhs = self.cocycle[g, h] * self.cocycle[G.mul(g, h), k]
                    rhs = self.cocycle[h, k] * self.cocycle[g, G.mul(h, k)]
                    if abs(lhs - rhs) > threshold:
                        raise InvariantViolation(
                            f"2-cocycle identity fails at ({g},{h},{k})"
                        )


@dataclass
class StructureReport:
    """Canonical block data of an irreducible covariant representation.

    ``conjugator`` C satisfies: C* Pi(a) C is the block diagonal of the
    coset translates of ``multiplicity`` copies of ``base_irrep``, and
    C* Pi(U^g) C is the block permutation ``[U_j^g delta_i^{perm_g(j)}]``.
    """

    subgroup: Subgroup
    subgroup_group: FiniteGroup
    subgroup_members: list[int]
    coset_reps: list[int]
    base_irrep: Rep
    multiplicity: int
    perms: list[np.ndarray]
    block_unitaries: list[list[np.ndarray]]
    psi: CovariantRep
    lambda_rep: ProjectiveRep
    v_rep: ProjectiveRep
    conjugator: np.ndarray
    h_is_normal: bool

    @property
    def index(self) -> int:
        return len(self.coset_reps)


def factor_tensor(W, V, r: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The r x r unitary L with ``W = kron(L, V)``, for a known unitary V.

    Read from the block pattern of ``W (1 (x) V)*``: each d x d block of
    that product is a scalar multiple of the identity, and the scalars
    assemble L.  Raises :class:`NotFactorable` when the residual exceeds
    the 1e-7 reconstruction threshold.
    """
    W, V = as_matrix(W), as_matrix(V)
    d = V.shape[0]
    if W.shape != (r * d, r * d):
        raise NotFactorable(f"W must be {r * d} x {r * d}")
    K = W @ np.kron(np.eye(r), V.conj().T)
    L = np.empty((r, r), dtype=complex)
    for i in range(r):
        for j in range(r):
            L[i, j] = np.trace(K[i * d : (i + 1) * d, j * d : (j + 1) * d]) / d
    scale = max(1.0, float(np.linalg.norm(W)))
    if np.linalg.norm(W - np.kron(L, V)) > _BLOCK_TOL * scale:
        raise NotFactorable("operator is not a Kronecker multiple of V")
    if np.linalg.norm(L.conj().T @ L - np.eye(r)) > _BLOCK_TOL * max(1, r):
        raise NotFactorable("extracted factor is not unitary")
    return L


def _component_offsets(dec):
    offsets, pos = [], 0
    for rep, mult in dec.components:
        offsets.append(pos)
        pos += rep.dim * mult
    return offsets


def _block(M, i, j, size):
    return M[i * size : (i + 1) * size, j * size : (j + 1) * size]


@dataclass
class _Core:
    """Intermediate data shared by analyze and the cyclic refinement."""

    pi1: Rep
    translates: list[Rep]
    multiplicity: int
    subgroup: Subgroup
    witnesses: dict[int, np.ndarray]
    coset_reps: list[int]
    conjugator: np.ndarray


def _analyze_core(Pi: CovariantRep, seed: int, tol: Tolerance) -> _Core:
    G = Pi.group
    if not Pi.is_irreducible(tol):
        raise NotIrreducible("covariant representation is reducible")
    if isinstance(Pi.action, GroupAction):
        dec = decompose(trivial_covariant(Pi.base, Pi.action), seed, tol)
        components = [(c.base, m) for c, m in dec.components]
    else:
        dec = decompose(Pi.base, seed, tol)
        components = dec.components
    pi1, r = components[0]
    # pi1 and the components are irreducible leaves, so no test re-checks them
    translates = [rep_compose(pi1, Pi.action, g) for g in range(G.order)]

    members, witnesses = [], {}
    for g in range(G.order):
        eq = rep_equivalence(pi1, translates[g], Pi.action, tol, seed)
        if eq.equivalent:
            members.append(g)
            # W pi1 W* = pi1 o alpha_g
            witnesses[g] = eq.witness
    H = Subgroup(G, tuple(members))
    reps_list = right_coset_reps(H)
    m = len(reps_list)

    offsets = _component_offsets(dec)
    used = set()
    cols = []
    for gi in reps_list:
        target = translates[gi]
        hit = None
        for ci, (crep, cmult) in enumerate(components):
            if ci in used or crep.dim != target.dim:
                continue
            eq = rep_equivalence(target, crep, Pi.action, tol, seed)
            if eq.equivalent:
                hit = (ci, cmult, eq.witness)
                break
        if hit is None:
            raise BlockStructureViolation(
                f"no component matches the translate by coset rep {gi}"
            )
        ci, cmult, T = hit
        if cmult != r:
            raise BlockStructureViolation(
                "orbit members have different multiplicities"
            )
        used.add(ci)
        d1 = pi1.dim
        for copy in range(r):
            iso = dec.basis_change[:, offsets[ci] + copy * d1 : offsets[ci] + (copy + 1) * d1]
            # T target T* = component, so iso @ T compresses Pi to the translate
            cols.append(iso @ T)
    if len(used) != len(components):
        raise BlockStructureViolation(
            "restriction contains components outside the orbit of the base irrep"
        )
    conjugator = np.hstack(cols)
    if conjugator.shape != (Pi.dim, Pi.dim):
        raise BlockStructureViolation("conjugator is not square; dimensions conflict")
    return _Core(pi1, translates, r, H, witnesses, reps_list, conjugator)


def _finish_report(Pi: CovariantRep, core: _Core, tol: Tolerance) -> StructureReport:
    G = Pi.group
    pi1, r, H = core.pi1, core.multiplicity, core.subgroup
    reps_list, C = core.coset_reps, core.conjugator
    m = len(reps_list)
    d1 = pi1.dim
    block = r * d1
    scale = max(1.0, float(Pi.dim))

    # coset block diagonal of Pi(a)
    for label, M in Pi.base.gens.items():
        conj = C.conj().T @ M @ C
        want = np.zeros_like(conj)
        for i, gi in enumerate(reps_list):
            tw = core.translates[gi].gens[label]
            want[i * block : (i + 1) * block, i * block : (i + 1) * block] = np.kron(
                np.eye(r), tw
            )
        if np.linalg.norm(conj - want) > _BLOCK_TOL * scale:
            raise BlockStructureViolation(
                f"conjugated restriction is not the coset block diagonal ({label})"
            )

    perms = []
    block_unitaries = []
    for g in range(G.order):
        Ug = C.conj().T @ Pi.unitaries[g] @ C
        perm = np.full(m, -1, dtype=int)
        blocks = []
        off_mass = 0.0
        for j in range(m):
            norms = [np.linalg.norm(_block(Ug, i, j, block)) for i in range(m)]
            i_star = int(np.argmax(norms))
            perm[j] = i_star
            off_mass += sum(v * v for i, v in enumerate(norms) if i != i_star)
            blocks.append(_block(Ug, i_star, j, block))
        if np.sqrt(off_mass) > _OFF_PATTERN * scale:
            raise BlockStructureViolation(
                f"Pi(U^{G.labels[g]}) has off-pattern mass in coset blocks"
            )
        if sorted(perm.tolist()) != list(range(m)):
            raise BlockStructureViolation("block pattern is not a permutation")
        perms.append(perm)
        block_unitaries.append(blocks)

    stab = {g for g in range(G.order) if perms[g][0] == 0}
    if stab != set(H.members):
        raise BlockStructureViolation(
            "stabilizer read from block patterns disagrees with equivalence tests"
        )
    h_is_normal = all(
        (perms[g][0] != 0) or np.array_equal(perms[g], np.arange(m))
        for g in range(G.order)
    )

    sub_action, members = restrict_action(Pi.action, H)
    K = sub_action.group
    psi_base = Rep(block, {l: np.kron(np.eye(r), M) for l, M in pi1.gens.items()})
    psi_unitaries = [block_unitaries[members[i]][0] for i in range(K.order)]
    psi = CovariantRep(psi_base, sub_action, psi_unitaries)
    if not psi.is_irreducible(tol):
        raise BlockStructureViolation("stabilizer block representation is reducible")

    v_mats = [core.witnesses[members[i]] for i in range(K.order)]
    lam_mats = [factor_tensor(psi_unitaries[i], v_mats[i], r, tol) for i in range(K.order)]

    def cocycle_of(mats):
        c = np.ones((K.order, K.order), dtype=complex)
        for a in range(K.order):
            for b in range(K.order):
                c[a, b] = scalar_quotient(mats[K.mul(a, b)], mats[a] @ mats[b], tol)
        return c

    v_rep = ProjectiveRep(K, v_mats, cocycle_of(v_mats))
    lambda_rep = ProjectiveRep(K, lam_mats, cocycle_of(lam_mats))
    if not is_irreducible(Rep(r, {f"L{i}": lam_mats[i] for i in range(K.order)}), tol):
        raise BlockStructureViolation("tensor factor on the multiplicity space is reducible")

    return StructureReport(
        subgroup=H,
        subgroup_group=K,
        subgroup_members=members,
        coset_reps=reps_list,
        base_irrep=pi1,
        multiplicity=r,
        perms=perms,
        block_unitaries=block_unitaries,
        psi=psi,
        lambda_rep=lambda_rep,
        v_rep=v_rep,
        conjugator=C,
        h_is_normal=h_is_normal,
    )


def analyze(Pi: CovariantRep, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> StructureReport:
    """Full canonical-form report for an irreducible covariant representation.

    Decomposes the algebra restriction, finds the stabilizer subgroup of
    the first component, builds the conjugating unitary from decomposition
    isometries and equivalence witnesses, and extracts the permutation,
    block-unitary, and projective tensor-factor data.
    """
    core = _analyze_core(Pi, seed, tol)
    return _finish_report(Pi, core, tol)


@dataclass
class CyclicReport:
    """Sharpened canonical form over a cyclic group.

    The conjugated generator unitary is the block shift with identity
    off-corner blocks and corner ``V`` satisfying ``V^k = 1``; the
    fixed-point data describes the restriction of the base irreducible to
    the invariant subalgebra.
    """

    base: StructureReport
    m: int
    k: int
    V: np.ndarray
    spectrum_of_V: list[tuple[complex, np.ndarray]]
    alpha_diag: list[Rep]
    eta: int
    fixed_pt_irreps: list[tuple[Rep, int]]
    minimal_piece_is_minimal: bool


def _require_cyclic(G: FiniteGroup):
    if not np.array_equal(G.table, make_cyclic_group(G.order).table):
        raise InvariantViolation("group must be Z_n in standard form")


def _cyclic_canonical_form(Pi: CovariantRep, seed: int, tol: Tolerance):
    """Analysis plus the shift-with-corner refinement of the conjugator."""
    G = Pi.group
    _require_cyclic(G)
    n = G.order
    core = _analyze_core(Pi, seed, tol)
    if core.multiplicity != 1:
        raise CanonicalFormViolation(
            f"cyclic multiplicity must be one, got {core.multiplicity}"
        )
    m = len(core.coset_reps)
    if core.coset_reps != list(range(m)):
        raise CanonicalFormViolation("coset representatives are not 0..m-1")
    k = n // m
    d1 = core.pi1.dim
    C = core.conjugator

    if m > 1:
        U1 = C.conj().T @ Pi.unitaries[1] @ C
        # off-corner blocks commute with an irreducible, hence are phases
        deltas = [1.0 + 0j]
        for i in range(m - 1):
            s = scalar_quotient(_block(U1, i, i + 1, d1), np.eye(d1), tol)
            deltas.append(deltas[i] / s)
        D = np.kron(np.diag(deltas), np.eye(d1))
        C = C @ D
    Um = C.conj().T @ Pi.unitaries[m % n] @ C
    V = _block(Um, 0, 0, d1)
    if np.linalg.norm(np.linalg.matrix_power(V, k) - np.eye(d1)) > _BLOCK_TOL * max(1, d1):
        raise CanonicalFormViolation("corner unitary does not satisfy V^k = 1")
    if m > 1:
        U1 = C.conj().T @ Pi.unitaries[1] @ C
        for i in range(m - 1):
            if np.linalg.norm(_block(U1, i, i + 1, d1) - np.eye(d1)) > _BLOCK_TOL * max(1, d1):
                raise CanonicalFormViolation("refined shift blocks are not the identity")
        if np.linalg.norm(_block(U1, m - 1, 0, d1) - V) > _BLOCK_TOL * max(1, d1):
            raise CanonicalFormViolation("generator corner does not carry the cycle product")
    core.conjugator = C
    report = _finish_report(Pi, core, tol)
    return report, m, k, V


def cyclic_analyze(Pi: CovariantRep, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> CyclicReport:
    """Canonical cyclic form plus fixed-point-algebra analysis.

    Requires a concrete block-algebra action (the fixed-point subalgebra
    of an abstract generator action is not computable).
    """
    if not isinstance(Pi.action, GroupAction):
        raise InvariantViolation("fixed-point analysis needs a GroupAction on a MatAlg")
    report, m, k, V = _cyclic_canonical_form(Pi, seed, tol)
    pi1 = report.base_irrep
    d1 = pi1.dim

    spectrum = unitary_eigenspaces(V, tol)
    for val, _ in spectrum:
        if abs(val**k - 1) > 1e-6:
            raise CanonicalFormViolation("corner spectrum is not inside the k-th roots")

    basis, _ = fixed_point_algebra(Pi.action, tol)
    alg = Pi.action.algebra
    fix_images = {f"fix{i}": evaluate(pi1, alg, b) for i, b in enumerate(basis)}
    pi1_fixed = Rep(d1, fix_images)

    dec = decompose(pi1_fixed, seed, tol)
    for _, mult in dec.components:
        if mult != 1:
            raise CanonicalFormViolation(
                "restriction to the fixed-point algebra is not multiplicity free"
            )
    eta = len(spectrum)
    if len(dec.components) != eta:
        raise CanonicalFormViolation(
            f"fixed-point irreducible count {len(dec.components)} != corner spectrum size {eta}"
        )

    alpha_diag = []
    for _, iso in spectrum:
        comp = Rep(iso.shape[1], {l: iso.conj().T @ M @ iso for l, M in fix_images.items()})
        if not is_irreducible(comp, tol):
            raise CanonicalFormViolation("a diagonal fixed-point block is reducible")
        alpha_diag.append(comp)
    minimal = True
    for i in range(len(alpha_diag)):
        for j in range(i + 1, len(alpha_diag)):
            if alpha_diag[i].dim == alpha_diag[j].dim and are_equivalent(
                alpha_diag[i], alpha_diag[j], tol
            ).equivalent:
                minimal = False
    if not minimal:
        raise CanonicalFormViolation(
            "diagonal fixed-point blocks are pairwise equivalent; minimal piece is not minimal"
        )

    return CyclicReport(
        base=report,
        m=m,
        k=k,
        V=V,
        spectrum_of_V=spectrum,
        alpha_diag=alpha_diag,
        eta=eta,
        fixed_pt_irreps=dec.components,
        minimal_piece_is_minimal=minimal,
    )


def homogeneous_irreducibility(Psi: CovariantRep, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Irreducibility of a homogeneous covariant representation.

    The base must be r copies of one irreducible in tensor form,
    ``Psi(a) = 1_r (x) pi1(a)``; each group unitary then factors as
    ``Lambda_h (x) V^h`` and the verdict is the irreducibility of the
    Lambda family on the multiplicity space.
    """
    end_dim = rep_end_dim(Psi.base, Psi.action, tol)
    r = int(round(np.sqrt(end_dim)))
    if r * r != end_dim:
        raise InvariantViolation("base commutant is not a full matrix algebra")
    if Psi.dim % r != 0:
        raise InvariantViolation("multiplicity does not divide the dimension")
    d1 = Psi.dim // r
    pi1 = Rep(d1, {l: M[:d1, :d1] for l, M in Psi.base.gens.items()})
    for l, M in Psi.base.gens.items():
        if np.linalg.norm(M - np.kron(np.eye(r), pi1.gens[l])) > _BLOCK_TOL * max(1.0, Psi.dim):
            raise InvariantViolation("base is not 1_r (x) pi1 in tensor form")
    if rep_end_dim(pi1, Psi.action, tol) != 1:
        raise InvariantViolation("tensor base is not irreducible")
    G = Psi.group
    lam = {}
    for h in range(G.order):
        eq = rep_equivalence(pi1, rep_compose(pi1, Psi.action, h), Psi.action, tol)
        if not eq.equivalent:
            raise InvariantViolation(
                "every group element must fix the class of the base irreducible"
            )
        lam[f"L{h}"] = factor_tensor(Psi.unitaries[h], eq.witness, r, tol)
    return is_irreducible(Rep(r, lam), tol)


def build_cyclic_irrep(
    pi1: Rep,
    V,
    m: int,
    k: int,
    action,
    tol: Tolerance = DEFAULT_TOL,
) -> CovariantRep:
    """The shift-with-corner irreducible covariant representation.

    Preconditions (each reported individually): the group is Z_{mk}; V is
    unitary with ``V^k = 1`` and conjugates ``pi1`` onto its m-th translate;
    and m is minimal, i.e. no smaller nonzero translate of ``pi1`` is
    equivalent to it.
    """
    G = action.group
    _require_cyclic(G)
    n = G.order
    if m * k != n:
        raise InvariantViolation(f"m*k = {m * k} must equal the group order {n}")
    V = as_matrix(V)
    d1 = pi1.dim
    if V.shape != (d1, d1):
        raise InvariantViolation("corner unitary must act on the space of pi1")
    if np.linalg.norm(V.conj().T @ V - np.eye(d1)) > tol.identity_bound(d1):
        raise InvariantViolation("corner matrix is not unitary")
    if np.linalg.norm(np.linalg.matrix_power(V, k) - np.eye(d1)) > _BLOCK_TOL * max(1, d1):
        raise InvariantViolation("V^k != 1")
    twisted = rep_compose(pi1, action, m % n)
    for l, M in pi1.gens.items():
        if np.linalg.norm(V @ M @ V.conj().T - twisted.gens[l]) > _BLOCK_TOL * max(1, d1):
            raise InvariantViolation("V does not conjugate pi1 onto its m-th translate")
    if rep_end_dim(pi1, action, tol) != 1:
        raise InvariantViolation("pi1 must be irreducible")
    for j in range(1, m):
        if rep_equivalence(pi1, rep_compose(pi1, action, j), action, tol).equivalent:
            raise InvariantViolation(f"pi1 is equivalent to its translate by {j} < m")

    translates = [rep_compose(pi1, action, i) for i in range(m)]
    gens = {}
    for l in pi1.gens:
        M = np.zeros((m * d1, m * d1), dtype=complex)
        for i in range(m):
            M[i * d1 : (i + 1) * d1, i * d1 : (i + 1) * d1] = translates[i].gens[l]
        gens[l] = M
    U = np.zeros((m * d1, m * d1), dtype=complex)
    for i in range(m - 1):
        U[i * d1 : (i + 1) * d1, (i + 1) * d1 : (i + 2) * d1] = np.eye(d1)
    U[(m - 1) * d1 : m * d1, 0:d1] = V
    unitaries = [np.linalg.matrix_power(U, j) for j in range(n)]
    cov = CovariantRep(Rep(m * d1, gens), action, unitaries)
    if not cov.is_irreducible(tol):
        raise InvariantViolation("constructed representation is unexpectedly reducible")
    return cov


def periodize(base: Rep, U, action, tol: Tolerance = DEFAULT_TOL) -> CovariantRep:
    """Rescale a covariant unitary so its n-th power is exactly the identity.

    ``U`` implements the generating automorphism of a Z_n action and
    ``U^n`` must be a scalar (forced when the pair is irreducible); the
    scalar's principal n-th root is divided out.
    """
    G = action.group
    _require_cyclic(G)
    n = G.order
    U = as_matrix(U)
    d = base.dim
    if U.shape != (d, d):
        raise InvariantViolation("unitary must act on the space of the base rep")
    twisted = rep_compose(base, action, 1 % n)
    for l, M in base.gens.items():
        if np.linalg.norm(U @ M @ U.conj().T - twisted.gens[l]) > _BLOCK_TOL * max(1, d):
            raise InvariantViolation("U does not implement the generating automorphism")
    Un = np.linalg.matrix_power(U, n)
    lam = complex(np.trace(Un) / d)
    if np.linalg.norm(Un - lam * np.eye(d)) > tol.abs_eps * max(1, d):
        raise NotScalarPower("U^n is not a scalar multiple of the identity")
    mu = np.exp(1j * np.angle(lam) / n)
    Vp = np.conj(mu) * U
    return CovariantRep(base, action, [np.linalg.matrix_power(Vp, j) for j in range(n)])


@dataclass
class S3Class:
    """Which of the four canonical shapes an irreducible representation takes.

    ``case`` is one of Minimal, TauPair, EtaTriple, Regular6.  ``pi1`` is
    the building-block irreducible of the displayed form, ``conjugator``
    carries the representation onto that form.  For TauPair,
    ``tau_equivalent`` records whether the two swapped blocks are
    equivalent as algebra representations (both happen), ``eta_block`` is
    the image of the 3-cycle unitary on the first block, and
    ``multiplicity`` is the multiplicity of pi1 in the algebra restriction.
    """

    case: str
    pi1: Rep
    conjugator: np.ndarray
    multiplicity: int
    tau_equivalent: bool | None = None
    tau_witness: np.ndarray | None = None
    eta_block: np.ndarray | None = None
    report: StructureReport | None = None


def _check_block_pattern(M, pattern, size, what):
    """pattern[j] = i means block (i, j) is the identity; all else zero."""
    want = np.zeros_like(M)
    for j, i in enumerate(pattern):
        want[i * size : (i + 1) * size, j * size : (j + 1) * size] = np.eye(size)
    if np.linalg.norm(M - want) > _BLOCK_TOL * max(1.0, M.shape[0]):
        raise BlockStructureViolation(f"{what} does not match the displayed pattern")


def classify_s3(Pi: CovariantRep, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> S3Class:
    """Classify an irreducible covariant representation over the 3-letter
    permutation group into its canonical shape.

    Dispatches on irreducibility of the restriction to the 3-cycle crossed
    subalgebra, then of the algebra restriction; each of the four outcomes
    pins down one displayed block form.
    """
    G = Pi.group
    S3 = make_symmetric_group_3()
    if G != S3 or G.labels != S3.labels:
        raise InvariantViolation("group must be the standard 3-letter permutation group")
    if not Pi.is_irreducible(tol):
        raise NotIrreducible("representation is reducible")

    U_eta = Pi.unitaries[S3_ETA]
    U_tau = Pi.unitaries[S3_TAU]
    z3_action, _ = restrict_action(Pi.action, Subgroup(G, (S3_E, S3_ETA, S3_ETA2)))
    z3_cov = CovariantRep(
        Pi.base,
        z3_action,
        [np.eye(Pi.dim, dtype=complex), U_eta, U_eta @ U_eta],
    )

    if z3_cov.is_irreducible(tol):
        if rep_end_dim(Pi.base, Pi.action, tol) == 1:
            report = analyze(Pi, seed, tol)
            return S3Class(
                case="Minimal",
                pi1=report.base_irrep,
                conjugator=report.conjugator,
                multiplicity=report.multiplicity,
                report=report,
            )
        report, m, k, V = _cyclic_canonical_form(z3_cov, seed, tol)
        if m != 3:
            raise BlockStructureViolation("3-cycle restriction must split into 3 blocks")
        C = report.conjugator
        _check_block_pattern(
            C.conj().T @ U_eta @ C, _eta_shift_pattern(3), report.base_irrep.dim,
            "conjugated 3-cycle unitary",
        )
        return S3Class(
            case="EtaTriple",
            pi1=report.base_irrep,
            conjugator=C,
            multiplicity=1,
            report=report,
        )

    # the 3-cycle restriction is reducible: exactly two swapped blocks
    z3_restriction = z3_cov if isinstance(Pi.action, GroupAction) else z3_cov.joint_rep()
    dec = decompose(z3_restriction, seed, tol)
    if len(dec.components) != 2 or any(m != 1 for _, m in dec.components) or (
        dec.components[0][0].dim != dec.components[1][0].dim
    ):
        raise BlockStructureViolation(
            "3-cycle restriction must split into two inequivalent halves"
        )
    half = dec.components[0][0].dim
    W1 = dec.basis_change[:, :half]
    Q = np.hstack([W1, U_tau @ W1])
    if np.linalg.norm(Q.conj().T @ Q - np.eye(Pi.dim)) > _BLOCK_TOL * Pi.dim:
        raise BlockStructureViolation("swap construction did not produce a unitary")
    pi_tilde_A = Rep(half, {l: W1.conj().T @ M @ W1 for l, M in Pi.base.gens.items()})
    eta_block = W1.conj().T @ U_eta @ W1
    _check_block_pattern(
        Q.conj().T @ U_tau @ Q, [1, 0], half, "conjugated transposition unitary"
    )

    if rep_end_dim(pi_tilde_A, Pi.action, tol) == 1:
        eq = rep_equivalence(
            pi_tilde_A, rep_compose(pi_tilde_A, Pi.action, S3_TAU), Pi.action, tol, seed
        )
        r = 2 if eq.equivalent else 1
        return S3Class(
            case="TauPair",
            pi1=pi_tilde_A,
            conjugator=Q,
            multiplicity=r,
            tau_equivalent=eq.equivalent,
            tau_witness=eq.witness,
            eta_block=eta_block,
        )

    # both stages split: the representation is regular
    half_cov = CovariantRep(
        pi_tilde_A,
        z3_action,
        [np.eye(half, dtype=complex), eta_block, eta_block @ eta_block],
    )
    half_report, m, k, _ = _cyclic_canonical_form(half_cov, seed, tol)
    if m != 3:
        raise BlockStructureViolation("regular case needs a full 3-cycle orbit")
    pi = half_report.base_irrep
    for g in range(1, 6):
        if rep_equivalence(pi, rep_compose(pi, Pi.action, g), Pi.action, tol).equivalent:
            raise BlockStructureViolation(
                "regular case requires all six translates pairwise inequivalent"
            )
    canonical = _canonical_regular_s3(pi, Pi.action)
    # Pi is irreducible and of the same dimension, so hom_dim 1 is equivalence
    eq = covariant_equivalence(Pi, canonical, tol, seed)
    if not eq.equivalent:
        raise BlockStructureViolation("representation is not equivalent to the regular model")
    C = eq.witness.conj().T
    _check_block_pattern(
        C.conj().T @ U_eta @ C, _regular_pattern(S3, S3_ETA), pi.dim,
        "conjugated 3-cycle unitary",
    )
    _check_block_pattern(
        C.conj().T @ U_tau @ C, _regular_pattern(S3, S3_TAU), pi.dim,
        "conjugated transposition unitary",
    )
    return S3Class(case="Regular6", pi1=pi, conjugator=C, multiplicity=1)


def _eta_shift_pattern(m):
    # row i has its identity in column i+1 (mod m): pattern[j] = row of 1-block
    return [(j - 1) % m for j in range(m)]


def _regular_pattern(G: FiniteGroup, g: int):
    """Column j carries the identity in row i when g_j = g_i * g."""
    pattern = [None] * G.order
    for i in range(G.order):
        pattern[G.mul(i, g)] = i
    return pattern


def _canonical_regular_s3(pi: Rep, action) -> CovariantRep:
    G = action.group
    n, d = G.order, pi.dim
    translates = [rep_compose(pi, action, i) for i in range(n)]
    gens = {}
    for l in pi.gens:
        M = np.zeros((n * d, n * d), dtype=complex)
        for i in range(n):
            M[i * d : (i + 1) * d, i * d : (i + 1) * d] = translates[i].gens[l]
        gens[l] = M
    unitaries = []
    for g in range(n):
        U = np.zeros((n * d, n * d), dtype=complex)
        for i in range(n):
            j = G.mul(i, g)
            U[i * d : (i + 1) * d, j * d : (j + 1) * d] = np.eye(d)
        unitaries.append(U)
    return CovariantRep(Rep(n * d, gens), action, unitaries)
