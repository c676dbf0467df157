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
    is_standard_cyclic,
    make_symmetric_group_3,
    right_coset_reps,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    orthonormal_span,
    unitary_eigenspaces,
)
from .reps import (
    CovariantRep,
    ProjectiveRep,
    Rep,
    _block_frame,
    _cocycle,
    _covariance_residuals,
    _tensor_psi,
    decompose,
    evaluate,
    induce,
    is_irreducible,
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
    assemble L.  Stacks of W and V factor pairwise in one batch.  Raises
    :class:`NotFactorable` when a residual exceeds the 1e-7 threshold.
    """
    W, V = np.asarray(W, dtype=complex), np.asarray(V, dtype=complex)
    d = V.shape[-1]
    if W.shape[-2:] != (r * d, r * d):
        raise NotFactorable(f"W must be {r * d} x {r * d}")
    # block (i, j) of W (1 (x) V)* is W_ij V*, whose trace over d is L_ij
    L = np.einsum("...iajb,...ab->...ij", W.reshape(*W.shape[:-2], r, d, r, d), V.conj()) / d
    kron = np.einsum("...ij,...ab->...iajb", L, V).reshape(W.shape)
    scale = np.maximum(1.0, np.linalg.norm(W, axis=(-2, -1)))
    if np.any(np.linalg.norm(W - kron, axis=(-2, -1)) > _BLOCK_TOL * scale):
        raise NotFactorable("operator is not a Kronecker multiple of V")
    defect = np.swapaxes(L.conj(), -2, -1) @ L - np.eye(r)
    if np.any(np.linalg.norm(defect, axis=(-2, -1)) > _BLOCK_TOL * max(1, r)):
        raise NotFactorable("extracted factor is not unitary")
    return L


def _check_carried(Pi: CovariantRep, C, target: CovariantRep, what: str):
    """Raise unless C* Pi C equals ``target`` on every generator and every
    group unitary, to the reconstruction threshold, naming the first miss."""
    Ch = C.conj().T
    bound = _BLOCK_TOL * max(1.0, float(Pi.dim))
    labels = list(Pi.base.gens)
    for names, mats, wanted in (
        ([f"generator {l!r}" for l in labels], [Pi.base.gens[l] for l in labels], [target.base.gens[l] for l in labels]),
        ([f"unitary {g}" for g in Pi.group.labels], Pi.unitaries, target.unitaries),
    ):
        bad = np.flatnonzero(np.linalg.norm(Ch @ np.array(mats) @ C - np.array(wanted), axis=(1, 2)) > bound)
        if len(bad):
            raise BlockStructureViolation(f"{what}: {names[bad[0]]} is not carried")


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

    # psi_h = Lambda_h (x) V_h from the factors of C0* U_h C0; Pi must be carried onto Ind_H^G psi
    sub_action, members = restrict_action(Pi.action, H)
    K = sub_action.group
    C0 = C[:, :block]
    v_mats = np.array([core.witnesses[h] for h in members])
    compressed = C0.conj().T @ np.array([Pi.unitaries[h] for h in members]) @ C0
    lam_mats = factor_tensor(compressed, v_mats, r, tol)
    psi = _tensor_psi(lam_mats, v_mats, pi1, sub_action)
    induced = induce(psi, Pi.action, H, reps_list)
    # End psi = End Lambda, which the check on Lambda below decides
    _check_carried(Pi, C, induced, "conjugator")

    # perms[g][j] is the i with c_i g in H c_j
    perms = [np.argsort([j for _, j, _ in triples]) for triples in coset_action(H, reps_list)]
    # column j of U_g has the one nonzero block (perm[j], j)
    block_unitaries = [
        list(U.reshape(m, block, m, block)[perm, :, np.arange(m)]) for U, perm in zip(induced.unitaries, perms)
    ]
    h_is_normal = all(perm[0] != 0 or np.array_equal(perm, np.arange(m)) for perm in perms)

    c_v = _cocycle(K, v_mats, tol)
    v_rep = ProjectiveRep(K, v_mats, c_v)
    # psi_h = Lambda_h (x) V_h is a genuine representation, so Lambda's
    # cocycle is the inverse, conj(c_V), of V's
    lambda_rep = ProjectiveRep(K, lam_mats, _cocycle(K, lam_mats, tol, c_v.conj()))
    if not is_irreducible(lambda_rep, tol):
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
    if not is_standard_cyclic(G):
        raise InvariantViolation("group must be Z_n in standard form")


def _cyclic_canonical_form(Pi: CovariantRep, core: _Core, tol: Tolerance):
    """Analysis in shift-with-corner form of a covariant representation
    already known to be valid and irreducible, from its structure core.

    With coset representatives 0..m-1 the induced conjugator already has
    identity shift blocks, and the corner is V = psi(U^m).
    """
    G = Pi.group
    _require_cyclic(G)
    n = G.order
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
    report, m, k, V = _cyclic_canonical_form(Pi, _analyze_core(Pi, seed, tol), tol)
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
    images = np.array(list(fix_images.values()))
    if np.any(np.linalg.norm(images @ V - V @ images, axis=(1, 2)) > tol.identity_bound(d1)):
        raise CanonicalFormViolation("a fixed-point image does not commute with the corner")
    corner_commutant = sum(iso.shape[1] ** 2 for _, iso in spectrum)
    span = len(orthonormal_span(images, tol))
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
    |G|^-1 sum_h |tr Lambda_h|^2 == 1 that :func:`is_irreducible` reads.
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
    lam = factor_tensor(np.array(Psi.unitaries), np.array(list(witnesses.values())), r, tol)
    return is_irreducible(ProjectiveRep(Psi.group, lam, _cocycle(Psi.group, lam, tol)), tol)


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
    if np.any(_covariance_residuals(V, pi1, action, m % n) > _BLOCK_TOL * max(1, d1)):
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
    if np.any(_covariance_residuals(U, base, action, 1 % n) > _BLOCK_TOL * max(1, d)):
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


# Pi = Ind_H^G(Lambda (x) V), Lambda an r-dim irreducible projective rep of H;
# S3 has trivial Schur multiplier, so these (|H|, r) are the only ones
_S3_CASES = {(6, 1): "Minimal", (3, 1): "TauPair", (6, 2): "TauPair", (2, 1): "EtaTriple",
             (1, 1): "Regular6"}


def classify_s3(Pi: CovariantRep, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> S3Class:
    """Classify an irreducible covariant representation over the 3-letter
    permutation group into its canonical shape.

    The case is read off (|H|, r), the stabilizer order and multiplicity
    of one structure core: Minimal (6, 1), TauPair (3, 1) or (6, 2),
    EtaTriple (2, 1), Regular6 (1, 1); any other pair raises
    :class:`BlockStructureViolation`.  EtaTriple reports the cyclic form
    of the restriction to the 3-cycle subgroup.  For TauPair the first
    eigenvector e1 of the 3-cycle's factor Lambda_eta gives the half
    W1 = C0 (e1 (x) 1) of the pi1-isotypic frame C0, and Q = [W1, U_tau W1]
    carries Pi onto the representation induced over the cosets {e, tau}.
    Over a :class:`GroupAction` no random numbers are drawn.
    """
    G = Pi.group
    S3 = make_symmetric_group_3()
    if G != S3 or G.labels != S3.labels:
        raise InvariantViolation("group must be the standard 3-letter permutation group")
    _require_irreducible(Pi, tol)
    core = _analyze_core(Pi, seed, tol)
    pi1, r = core.pi1, core.multiplicity
    case = _S3_CASES.get((core.subgroup.order, r))
    if case is None:
        raise BlockStructureViolation(f"no S3 case has |H| = {core.subgroup.order} and r = {r}")
    U_eta = Pi.unitaries[S3_ETA]
    z3 = Subgroup(G, (S3_E, S3_ETA, S3_ETA2))
    z3_action, _ = restrict_action(Pi.action, z3)

    def over_z3(base: Rep, X) -> CovariantRep:
        return CovariantRep(base, z3_action, [np.eye(base.dim, dtype=complex), X, X @ X])

    if case != "TauPair":
        if case == "EtaTriple":
            # z3 meets H trivially, so by Mackey the restriction to z3 is
            # Ind_{e}^{z3} pi1, irreducible: no 3-cycle fixes the class of pi1.
            # Its core is Pi's frame C0 with stabilizer {e} and cosets e, eta, eta^2
            z3_cov = over_z3(Pi.base, U_eta)
            C = np.hstack([U.conj().T @ core.conjugator[:, : pi1.dim] for U in z3_cov.unitaries])
            trivial = Subgroup(z3_action.group, (0,))
            z3_core = _Core(pi1, 1, trivial, {0: core.witnesses[S3_E]}, [0, 1, 2], C)
            report = _cyclic_canonical_form(z3_cov, z3_core, tol)[0]
        else:
            report = _finish_report(Pi, core, tol)
        return S3Class(case, report.base_irrep, report.conjugator, 1, report=report)

    # eta is in H, so C0* U_eta C0 = Lambda_eta (x) V_eta; the eigenvectors
    # of Lambda_eta split the frame into the two halves that tau swaps
    C0 = core.conjugator[:, : r * pi1.dim]
    lam_eta = factor_tensor(C0.conj().T @ U_eta @ C0, core.witnesses[S3_ETA], r, tol)
    spectrum = unitary_eigenspaces(lam_eta, tol)
    if len(spectrum) != r or any(iso.shape[1] != 1 for _, iso in spectrum):
        raise BlockStructureViolation("the 3-cycle factor must have simple eigenvalues")
    W1 = C0 @ np.kron(spectrum[0][1], np.eye(pi1.dim))
    Q = np.hstack([W1, Pi.unitaries[S3_TAU] @ W1])
    eta_block = W1.conj().T @ U_eta @ W1
    # U_tau = U_tau*, so Q is the induced conjugator over the cosets {e, tau};
    # on U_e the check below is Q* Q = 1
    _check_carried(Pi, Q, induce(over_z3(pi1, eta_block), Pi.action, z3, [S3_E, S3_TAU]), "swap conjugator")
    tau_witness = core.witnesses.get(S3_TAU)
    return S3Class(
        case="TauPair",
        pi1=pi1,
        conjugator=Q,
        multiplicity=r,
        tau_equivalent=tau_witness is not None,
        tau_witness=tau_witness,
        eta_block=eta_block,
    )
