"""Structure extraction for irreducible covariant representations.

Given an irreducible covariant representation of a crossed product, the
analyzer conjugates it onto the representation induced from its stabilizer
block: the algebra restriction becomes a block diagonal of translates of one
irreducible representation, the group unitaries become block permutations,
and the stabilizer block factors as a tensor product of two projective
unitary representations whose 2-cocycles are extracted explicitly.  Cyclic
groups get the sharper shift-with-corner canonical form, and crossed
products by the permutation group on three points are classified into the
four possible shapes.
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
    coset_action,
    make_cyclic_group,
    make_symmetric_group_3,
    right_coset_reps,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    orthonormal_span,
    scalar_quotient,
    unitary_eigenspaces,
)
from .reps import (
    CovariantRep,
    Rep,
    _block_frame,
    _decompose_covariant,
    decompose,
    evaluate,
    induce,
    rep_compose,
    rep_end_dim,
    rep_from_images,
    translate_stabilizer,
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

# spec-pinned reconstruction threshold
_BLOCK_TOL = 1e-7


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

    ``conjugator`` C carries Pi onto ``induce(psi, action, subgroup,
    coset_reps)``: C* Pi(a) C is the block diagonal of the coset translates
    of ``multiplicity`` copies of ``base_irrep``, and the only nonzero block
    of C* Pi(U^g) C in column j is ``block_unitaries[g][j]`` = psi(h) in row
    i = ``perms[g][j]``, where c_i g = h c_j.
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


def _block(M, i, j, size):
    return M[i * size : (i + 1) * size, j * size : (j + 1) * size]


def _projective_end_dim(mats, tol: Tolerance) -> int:
    """dim End of a projective unitary family Lambda_h over a group K:
    |K|^-1 sum_h |tr Lambda_h|^2, the trace of the average of Ad Lambda_h.
    An exact integer, rounded within ``rank_eps``; :class:`InvariantViolation`
    when it is not near a positive integer."""
    total = float(np.mean([abs(np.trace(L)) ** 2 for L in mats]))
    count = round(total)
    if count < 1 or abs(total - count) > tol.rank_eps * max(1.0, total):
        raise InvariantViolation(f"projective character sum {total:.6g} is not a dimension")
    return count


def _check_carried(Pi: CovariantRep, C, target: CovariantRep, what: str):
    """Raise unless C* Pi C equals ``target`` on every generator and every
    group unitary, to the reconstruction threshold."""
    Ch = C.conj().T
    bound = _BLOCK_TOL * max(1.0, float(Pi.dim))
    for label, M in Pi.base.gens.items():
        if np.linalg.norm(Ch @ M @ C - target.base.gens[label]) > bound:
            raise BlockStructureViolation(f"{what}: generator {label!r} is not carried")
    for g, U in enumerate(Pi.unitaries):
        if np.linalg.norm(Ch @ U @ C - target.unitaries[g]) > bound:
            raise BlockStructureViolation(f"{what}: unitary {Pi.group.labels[g]} is not carried")


def _require_irreducible(Pi: CovariantRep, tol: Tolerance):
    """The entry test of every analyzer.  Pi(A) = 0 makes Pi zero on A x G,
    yet it passes the irreducibility test when U is an irrep of G."""
    if not Pi.is_irreducible(tol):
        raise NotIrreducible("covariant representation is reducible")
    if all(np.linalg.norm(M) <= tol.abs_eps * max(1, Pi.dim) for M in Pi.base.gens.values()):
        raise InvariantViolation("the representation annihilates the algebra")


@dataclass
class _Core:
    """Intermediate data shared by analyze and the cyclic refinement."""

    pi1: Rep
    multiplicity: int
    subgroup: Subgroup
    witnesses: dict[int, np.ndarray]
    coset_reps: list[int]
    conjugator: np.ndarray


def _analyze_core(Pi: CovariantRep, seed: int, tol: Tolerance) -> _Core:
    """Stabilizer and conjugator of a covariant representation already
    known to be valid and irreducible."""
    if isinstance(Pi.action, GroupAction):
        # C0* Pi.base C0 = 1_r (x) pi1 with pi1 the compression to block k
        alg = Pi.action.algebra
        k, r, C0 = _block_frame(Pi.base, alg, tol)
        pi1 = rep_from_images(alg, lambda e: e.blocks[k])
    else:
        dec = decompose(Pi.base, seed, tol)
        pi1, r = dec.components[0]
        C0 = dec.basis_change[:, : r * pi1.dim]

    witnesses = translate_stabilizer(pi1, Pi.action, tol)
    H = Subgroup(Pi.group, tuple(witnesses))
    reps_list = right_coset_reps(H)

    # C0 spans the pi1-isotypic subspace, on which Pi restricts to 1_r (x) pi1;
    # U_c* carries it onto the isotypic subspace of pi1 o alpha_c
    conjugator = np.hstack([Pi.unitaries[c].conj().T @ C0 for c in reps_list])
    # C* C = 1 is the U_e case of the carried check in _finish_report
    if conjugator.shape != (Pi.dim, Pi.dim):
        raise BlockStructureViolation("conjugator is not square; dimensions conflict")
    return _Core(pi1, r, H, witnesses, reps_list, conjugator)


def _finish_report(Pi: CovariantRep, core: _Core, tol: Tolerance) -> StructureReport:
    pi1, r, H = core.pi1, core.multiplicity, core.subgroup
    reps_list, C = core.coset_reps, core.conjugator
    m = len(reps_list)
    block = r * pi1.dim

    # psi is the stabilizer block; Pi must be carried onto Ind_H^G psi
    sub_action, members = restrict_action(Pi.action, H)
    K = sub_action.group
    C0 = C[:, :block]
    psi_base = Rep(block, {l: np.kron(np.eye(r), M) for l, M in pi1.gens.items()})
    psi_unitaries = [C0.conj().T @ Pi.unitaries[h] @ C0 for h in members]
    psi = CovariantRep(psi_base, sub_action, psi_unitaries)
    induced = induce(psi, Pi.action, H, reps_list)
    _check_carried(Pi, C, induced, "conjugator")
    # psi is covariant because Pi is and C carries Pi onto Ind psi
    if psi.end_dim(tol) != 1:
        raise BlockStructureViolation("stabilizer block representation is reducible")

    # perms[g][j] is the i with c_i g in H c_j
    perms = [np.argsort([j for _, j, _ in triples]) for triples in coset_action(H, reps_list)]
    block_unitaries = [
        [_block(U, perm[j], j, block) for j in range(m)]
        for U, perm in zip(induced.unitaries, perms)
    ]
    h_is_normal = all(perm[0] != 0 or np.array_equal(perm, np.arange(m)) for perm in perms)

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
    if _projective_end_dim(lam_mats, tol) != 1:
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

    Over a :class:`GroupAction` pi1 is the compression to the first block k
    the algebra restriction does not annihilate, read off its matrix units,
    and :func:`translate_stabilizer` gives H = {g : alpha_g fixes block k}
    with the action's unitaries on block k as the ``v_rep`` witnesses; over
    a :class:`LabelAction` pi1 is the first component of the decomposed
    restriction.  A Pi that annihilates the algebra raises
    :class:`InvariantViolation`.  The conjugator comes from the structure
    theorem: its coset block i is U_{c_i}* applied to the pi1-isotypic
    subspace.  The one self-check is that the conjugator carries Pi onto
    ``induce(report.psi, action, H, coset_reps)``; the permutation,
    block-unitary and projective tensor-factor data are read from it.
    """
    _require_irreducible(Pi, tol)
    return _finish_report(Pi, _analyze_core(Pi, seed, tol), tol)


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
    """Analysis in shift-with-corner form of a covariant representation
    already known to be valid and irreducible.

    With coset representatives 0..m-1 the induced conjugator already has
    identity shift blocks, and the corner is V = psi(U^m).
    """
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
    report = _finish_report(Pi, core, tol)
    # the stabilizer {0, m, 2m, ...} regrounds onto Z_k with m at index 1
    V = report.psi.unitaries[1 % k]
    d1 = V.shape[0]
    if np.linalg.norm(np.linalg.matrix_power(V, k) - np.eye(d1)) > _BLOCK_TOL * max(1, d1):
        raise CanonicalFormViolation("corner unitary does not satisfy V^k = 1")
    return report, m, k, V


def cyclic_analyze(Pi: CovariantRep, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> CyclicReport:
    """Canonical cyclic form plus fixed-point-algebra analysis.

    The restriction of pi1 to the fixed-point algebra is read from the
    corner V: its image is the commutant of V, so the fixed-point
    irreducibles are the compressions ``alpha_diag`` of that image to the
    eigenspaces of V, one each.  Requires a concrete block-algebra action
    (the fixed-point subalgebra of an abstract generator action is not
    computable).
    """
    if not isinstance(Pi.action, GroupAction):
        raise InvariantViolation("fixed-point analysis needs a GroupAction on a MatAlg")
    _require_irreducible(Pi, tol)
    report, m, k, V = _cyclic_canonical_form(Pi, seed, tol)
    pi1 = report.base_irrep
    d1 = pi1.dim

    spectrum = unitary_eigenspaces(V, tol)
    for val, _ in spectrum:
        if abs(val**k - 1) > tol.identity_bound(1.0):
            raise CanonicalFormViolation("corner spectrum is not inside the k-th roots")

    # pi1 is irreducible and V implements alpha_m on it, so pi1(A^alpha) lies
    # in {V}' = sum_lambda B(E_lambda); the two checks below prove equality,
    # which makes the compressions to the eigenspaces E_lambda irreducible,
    # pairwise inequivalent and the whole restriction multiplicity free
    basis, _ = fixed_point_algebra(Pi.action, tol)
    alg = Pi.action.algebra
    fix_images = {f"fix{i}": evaluate(pi1, alg, b) for i, b in enumerate(basis)}
    bound = tol.identity_bound(d1)
    for M in fix_images.values():
        if np.linalg.norm(M @ V - V @ M) > bound:
            raise CanonicalFormViolation("a fixed-point image does not commute with the corner")
    corner_commutant = sum(iso.shape[1] ** 2 for _, iso in spectrum)
    span = len(orthonormal_span(list(fix_images.values()), tol))
    if span != corner_commutant:
        raise CanonicalFormViolation(
            f"fixed-point images span {span} dimensions, the corner's commutant {corner_commutant}"
        )

    alpha_diag = [
        Rep(iso.shape[1], {l: iso.conj().T @ M @ iso for l, M in fix_images.items()})
        for _, iso in spectrum
    ]
    return CyclicReport(
        base=report,
        m=m,
        k=k,
        V=V,
        spectrum_of_V=spectrum,
        alpha_diag=alpha_diag,
        eta=len(spectrum),
        fixed_pt_irreps=[(block, 1) for block in sorted(alpha_diag, key=lambda r: r.dim)],
        minimal_piece_is_minimal=True,
    )


def homogeneous_irreducibility(Psi: CovariantRep, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Irreducibility of a homogeneous covariant representation.

    The base must be r copies of one irreducible in tensor form,
    ``Psi(a) = 1_r (x) pi1(a)``; each group unitary then factors as
    ``Lambda_h (x) V^h`` and the verdict is the irreducibility of the
    projective Lambda family on the multiplicity space, the character sum
    |G|^-1 sum_h |tr Lambda_h|^2 == 1.
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
    witnesses = translate_stabilizer(pi1, Psi.action, tol)
    if len(witnesses) != Psi.group.order:
        raise InvariantViolation("every group element must fix the class of the base irreducible")
    lam = [factor_tensor(Psi.unitaries[h], W, r, tol) for h, W in witnesses.items()]
    return _projective_end_dim(lam, tol) == 1


def build_cyclic_irrep(
    pi1: Rep,
    V,
    m: int,
    k: int,
    action,
    tol: Tolerance = DEFAULT_TOL,
) -> CovariantRep:
    """The shift-with-corner irreducible covariant representation, induced
    from H = mZ_n with psi(U^{jm}) = V^j: the generator's unitary has
    identity shift blocks and corner V.

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
    smaller = [j for j in translate_stabilizer(pi1, action, tol) if 0 < j < m]
    if smaller:
        raise InvariantViolation(f"pi1 is equivalent to its translate by {smaller[0]} < m")

    # Ind from H = mZ_n of psi(U^{jm}) = V^j
    H = Subgroup(G, tuple(range(0, n, m)))
    sub_action, _ = restrict_action(action, H)
    psi = CovariantRep(pi1, sub_action, [np.linalg.matrix_power(V, j) for j in range(k)])
    cov = induce(psi, action, H, list(range(m)))
    # psi is covariant by the preconditions, so Ind psi is too
    if cov.end_dim(tol) != 1:
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


def classify_s3(Pi: CovariantRep, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> S3Class:
    """Classify an irreducible covariant representation over the 3-letter
    permutation group into its canonical shape.

    Dispatches on irreducibility of the restriction to the 3-cycle crossed
    subalgebra, then of the algebra restriction; each of the four outcomes
    pins down one displayed block form, and each form is an induced
    representation that the returned conjugator carries Pi onto.
    """
    G = Pi.group
    S3 = make_symmetric_group_3()
    if G != S3 or G.labels != S3.labels:
        raise InvariantViolation("group must be the standard 3-letter permutation group")
    _require_irreducible(Pi, tol)

    U_eta = Pi.unitaries[S3_ETA]
    U_tau = Pi.unitaries[S3_TAU]
    z3 = Subgroup(G, (S3_E, S3_ETA, S3_ETA2))
    z3_action, _ = restrict_action(Pi.action, z3)
    z3_cov = CovariantRep(
        Pi.base,
        z3_action,
        [np.eye(Pi.dim, dtype=complex), U_eta, U_eta @ U_eta],
    )

    # z3_cov is the restriction of Pi to a subgroup, so it is covariant
    if z3_cov.end_dim(tol) == 1:
        if rep_end_dim(Pi.base, Pi.action, tol) == 1:
            report = _finish_report(Pi, _analyze_core(Pi, seed, tol), tol)
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
        return S3Class(
            case="EtaTriple",
            pi1=report.base_irrep,
            conjugator=report.conjugator,
            multiplicity=1,
            report=report,
        )

    # the 3-cycle restriction is reducible: exactly two swapped blocks
    if isinstance(Pi.action, GroupAction):
        dec = _decompose_covariant(z3_cov, seed, tol)
    else:
        dec = decompose(z3_cov.joint_rep(), seed, tol)
    if len(dec.components) != 2 or any(m != 1 for _, m in dec.components) or (
        dec.components[0][0].dim != dec.components[1][0].dim
    ):
        raise BlockStructureViolation(
            "3-cycle restriction must split into two inequivalent halves"
        )
    half = dec.components[0][0].dim
    W1 = dec.basis_change[:, :half]
    Q = np.hstack([W1, U_tau @ W1])
    pi_tilde_A = Rep(half, {l: W1.conj().T @ M @ W1 for l, M in Pi.base.gens.items()})
    eta_block = W1.conj().T @ U_eta @ W1
    half_cov = CovariantRep(
        pi_tilde_A,
        z3_action,
        [np.eye(half, dtype=complex), eta_block, eta_block @ eta_block],
    )
    # U_tau = U_tau*, so Q is the induced conjugator over the cosets {e, tau};
    # on U_e the check below is Q* Q = 1
    _check_carried(Pi, Q, induce(half_cov, Pi.action, z3, [S3_E, S3_TAU]), "swap conjugator")

    if rep_end_dim(pi_tilde_A, Pi.action, tol) == 1:
        tau_witness = translate_stabilizer(pi_tilde_A, Pi.action, tol).get(S3_TAU)
        tau_equivalent = tau_witness is not None
        return S3Class(
            case="TauPair",
            pi1=pi_tilde_A,
            conjugator=Q,
            multiplicity=2 if tau_equivalent else 1,
            tau_equivalent=tau_equivalent,
            tau_witness=tau_witness,
            eta_block=eta_block,
        )

    # both stages split: the representation is regular, Ind_{e}^G of an
    # irreducible of the algebra whose six translates are pairwise inequivalent
    report = _finish_report(Pi, _analyze_core(Pi, seed, tol), tol)
    if report.subgroup.order != 1:
        raise BlockStructureViolation("regular case requires a trivial stabilizer")
    return S3Class(
        case="Regular6",
        pi1=report.base_irrep,
        conjugator=report.conjugator,
        multiplicity=1,
        report=report,
    )
