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

from .algebra import GroupAction, _once
from .crossed import fixed_point_algebra
from .errors import (
    BlockStructureViolation,
    CanonicalFormViolation,
    InvariantViolation,
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
    is_standard_cyclic,
    make_symmetric_group_3,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _require,
    as_matrix,
    orthonormal_span,
    unitary_eigenspaces,
)
from .reps import (
    CovariantRep,
    ProjectiveRep,
    Rep,
    _check_carried,
    _covariance_residuals,
    _mackey_orbit,
    _orbit_frames,
    _Stabilizer,
    decompose,
    evaluate,
    factor_tensor,
    induce,
    rep_end_dim,
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


def _require_irreducible(Pi: CovariantRep, tol: Tolerance):
    """The entry test of every analyzer.  Pi(A) = 0 makes Pi zero on A x G,
    yet it passes the irreducibility test when U is an irrep of G."""
    if not Pi.is_irreducible(tol):
        raise NotIrreducible("covariant representation is reducible")
    if np.all(np.linalg.norm(Pi.base.stack, axis=(1, 2)) <= tol.abs_eps * max(1, Pi.dim)):
        raise InvariantViolation("the representation annihilates the algebra")


def _orbit(Pi: CovariantRep, tol: Tolerance):
    """The one-component Mackey read-off of a valid irreducible Pi, from its
    one (record, frame): over a :class:`GroupAction` the stabilizer record
    the action keeps for its block and the orbit frame, over a
    :class:`LabelAction` the record of the first component pi1 of the
    decomposed restriction with its translate witnesses, built per call and
    kept nowhere, and its isotypic frame."""
    if isinstance(Pi.action, GroupAction):
        stab, C0 = _orbit_frames(Pi, tol)[0]
    else:
        dec = decompose(Pi.base, tol=tol)
        pi1, r = dec.components[0]
        stab = _Stabilizer(Pi.action, pi1, translate_stabilizer(pi1, Pi.action, tol), tol)
        C0 = dec.basis_change[:, : r * pi1.dim]
    return _mackey_orbit(stab, (Pi, C0))


def _report(Pi: CovariantRep, orbit) -> StructureReport:
    """The structure report of an irreducible Pi, read off its one orbit
    component: the conjugator must carry Pi onto Ind_H^G psi.  As in
    :func:`induce`, block j of U_g is psi(h) for the row i = perms[g][j]
    of H's coset table at g, c_i g = h c_j: read-only, and views of
    ``psi.unitaries`` at H = G.  The rest of the block form is H's record's,
    and the carried check is made at its tolerance."""
    # End psi = End Lambda = 1: the orbit's read-off of Lambda, whose
    # squared multiplicities sum to dim End Lambda, has one class and copy
    if [len(cls.isometries) for cls in orbit.classes] != [1]:
        raise BlockStructureViolation("tensor factor on the multiplicity space is reducible")
    [(lam, psi, induced, [C])] = orbit.classes
    # C* C = 1 is the U_e case of the carried check
    if C.shape != (Pi.dim, Pi.dim):
        raise BlockStructureViolation("conjugator is not square; dimensions conflict")
    stab = orbit.stab
    _check_carried(Pi, C, [induced], "conjugator", stab.tol)
    H = stab.restriction
    if len(H.coset_reps) == 1:
        block_unitaries = psi.unitaries[:, None]
    else:
        # row perms[g][j] of the coset table is (i, j, h) with c_i g = h c_j
        h = np.take_along_axis(H.coset_table, stab.perms[:, :, None], axis=1)[:, :, 2]
        block_unitaries = psi.unitaries[np.searchsorted(H.members, h)]
        block_unitaries.setflags(write=False)
    return StructureReport(
        subgroup=H.subgroup,
        subgroup_group=H.action.group,
        subgroup_members=list(H.members),
        coset_reps=list(H.coset_reps),
        base_irrep=stab.pi1,
        multiplicity=orbit.lam.dim,
        perms=list(stab.perms),
        block_unitaries=[list(blocks) for blocks in block_unitaries],
        psi=psi,
        lambda_rep=lam,
        v_rep=stab.v_rep,
        conjugator=C,
        h_is_normal=stab.h_is_normal,
    )


def analyze(Pi: CovariantRep, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> StructureReport:
    """Full canonical-form report for an irreducible covariant representation.

    The one-component case of the read-off :func:`~crossrep.reps.decompose`
    makes per orbit.  Over a :class:`GroupAction` pi1 is the compression to
    the first block k that Pi does not annihilate, H = {g : alpha_g fixes
    block k} and the action's unitaries on block k are the ``v_rep``
    witnesses; over a :class:`LabelAction` pi1 is the first component of
    the decomposed restriction.  A Pi that annihilates the algebra raises
    :class:`InvariantViolation`.  ``lambda_rep`` is the class lambda that
    the action keeps for the stabilizer (the one ``crossed_irreps`` builds
    from), and ``psi`` = ``lambda_rep`` (x) ``v_rep``, so over a
    :class:`GroupAction` neither depends on the basis Pi is given in.  No
    random number is drawn and ``seed`` is not read; a class of dimension
    d >= 2 is in the basis ``eigh`` picks.  The conjugator's
    coset block i is U_{c_i}* applied to the pi1-isotypic subspace, in
    the basis of the copy of lambda; the one self-check is that it carries
    Pi onto ``induce(report.psi, action, H, coset_reps)``.
    """
    _require_irreducible(Pi, tol)
    return _report(Pi, _orbit(Pi, tol))


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


def _cyclic_canonical_form(Pi: CovariantRep, orbit):
    """Analysis in shift-with-corner form of a covariant representation
    already known to be valid and irreducible, from its :func:`_orbit`, at
    the tolerance of the orbit's record.

    With coset representatives 0..m-1 the induced conjugator already has
    identity shift blocks, and the corner is V = psi(U^m).  V and its check
    V^k = 1 depend on the class alone, so they are kept on psi, which the
    record keeps with the class: psi belongs to one record, so to one
    tolerance and one H.
    """
    G = Pi.group
    _require_cyclic(G)
    n = G.order
    if orbit.lam.dim != 1:
        raise CanonicalFormViolation(f"cyclic multiplicity must be one, got {orbit.lam.dim}")
    coset_reps = orbit.stab.restriction.coset_reps
    m = len(coset_reps)
    if coset_reps != tuple(range(m)):
        raise CanonicalFormViolation("coset representatives are not 0..m-1")
    k = n // m
    report = _report(Pi, orbit)
    return report, m, k, _once(report.psi, "corner", lambda: _corner(report.psi, k, orbit.stab.tol))


def _corner(psi: CovariantRep, k: int, tol: Tolerance) -> np.ndarray:
    """The corner V = psi(U^m) of a cyclic stabilizer, checked for V^k = 1."""
    # the stabilizer {0, m, 2m, ...} regrounds onto Z_k with m at index 1
    V = psi.unitaries[1 % k]
    d1 = V.shape[0]
    _require(np.linalg.norm(np.linalg.matrix_power(V, k) - np.eye(d1)), tol.reconstruction_bound(d1),
             "corner unitary does not satisfy V^k = 1", CanonicalFormViolation)
    return V


def cyclic_analyze(Pi: CovariantRep, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> CyclicReport:
    """Canonical cyclic form plus fixed-point-algebra analysis.

    The restriction of pi1 to the fixed-point algebra is read from the
    corner V: its image is the commutant of V, so the fixed-point
    irreducibles are the compressions ``alpha_diag`` of that image to the
    eigenspaces of V, one each.  Requires a concrete block-algebra action
    (the fixed-point subalgebra of an abstract generator action is not
    computable).  ``seed`` is not read.

    Everything after the conjugator's check depends on the stabilizer's
    class alone: V with V^k = 1, its eigenspaces, the fixed-point images
    and their compressions.  So they are computed, with their checks, the
    first time a class is met and kept with it on the action
    (:func:`~crossrep.reps._class_records`); a repeated analysis reads
    them back, and reads and checks only what depends on Pi.
    """
    if not isinstance(Pi.action, GroupAction):
        raise InvariantViolation("fixed-point analysis needs a GroupAction on a MatAlg")
    _require_irreducible(Pi, tol)
    report, m, k, V = _cyclic_canonical_form(Pi, _orbit(Pi, tol))
    spectrum, alpha_diag = _once(report.psi, "fixed_points",
                                 lambda: _fixed_points(Pi.action, report.base_irrep, V, k, tol))
    return CyclicReport(
        base=report,
        m=m,
        k=k,
        V=V,
        spectrum_of_V=list(spectrum),
        alpha_diag=list(alpha_diag),
        eta=len(spectrum),
        fixed_pt_irreps=[(block, 1) for block in sorted(alpha_diag, key=lambda r: r.dim)],
        minimal_piece_is_minimal=True,
    )


def _fixed_points(action: GroupAction, pi1: Rep, V: np.ndarray, k: int, tol: Tolerance) -> tuple:
    """(spectrum of V, alpha_diag) of :func:`cyclic_analyze` with their
    checks, as tuples with read-only arrays."""
    d1 = pi1.dim
    spectrum = _read_only_spectrum(V, tol)
    _require(np.abs(np.array([val for val, _ in spectrum]) ** k - 1), tol.identity_bound(1.0),
             "corner spectrum is not inside the k-th roots at cluster {}", CanonicalFormViolation)

    # pi1 is irreducible and V implements alpha_m on it, so pi1(A^alpha) lies
    # in {V}' = sum_lambda B(E_lambda); the two checks below prove equality,
    # which makes the compressions to the eigenspaces E_lambda irreducible,
    # pairwise inequivalent and the whole restriction multiplicity free
    basis, _ = fixed_point_algebra(action, tol)
    alg = action.algebra
    fixed = Rep(d1, [evaluate(pi1, alg, b) for b in basis], [f"fix{i}" for i in range(len(basis))])
    images = fixed.stack
    _require(np.linalg.norm(images @ V - V @ images, axis=(1, 2)), tol.identity_bound(d1),
             "a fixed-point image does not commute with the corner at {}", CanonicalFormViolation, fixed.labels)
    corner_commutant = sum(iso.shape[1] ** 2 for _, iso in spectrum)
    span = len(orthonormal_span(images, tol))
    if span != corner_commutant:
        raise CanonicalFormViolation(
            f"fixed-point images span {span} dimensions, the corner's commutant {corner_commutant}"
        )

    alpha_diag = [fixed.conjugate(iso) for _, iso in spectrum]
    for r in alpha_diag:
        r.stack.setflags(write=False)
    return spectrum, tuple(alpha_diag)


def _read_only_spectrum(U: np.ndarray, tol: Tolerance) -> tuple:
    """:func:`unitary_eigenspaces` of U as a tuple, its isometries read-only."""
    spectrum = tuple(unitary_eigenspaces(U, tol))
    for _, iso in spectrum:
        iso.setflags(write=False)
    return spectrum


def homogeneous_irreducibility(Psi: CovariantRep, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Irreducibility of a homogeneous covariant representation.

    The base must be r copies of one irreducible in tensor form,
    ``Psi(a) = 1_r (x) pi1(a)``; each group unitary then factors as
    ``Lambda_h (x) V^h`` and the verdict is the irreducibility of the
    projective Lambda family on the multiplicity space, the character sum
    |G|^-1 sum_h |tr Lambda_h|^2 == 1, read off Lambda against the classes
    of its cocycle.
    """
    end_dim = rep_end_dim(Psi.base, Psi.action, tol)
    r = int(round(np.sqrt(end_dim)))
    if r * r != end_dim:
        raise InvariantViolation("base commutant is not a full matrix algebra")
    if Psi.dim % r != 0:
        raise InvariantViolation("multiplicity does not divide the dimension")
    d1 = Psi.dim // r
    pi1 = Rep(d1, Psi.base.stack[:, :d1, :d1], Psi.base.labels)
    _require(np.linalg.norm(Psi.base.stack - np.kron(np.eye(r), pi1.stack), axis=(1, 2)),
             tol.reconstruction_bound(Psi.dim), "base is not 1_r (x) pi1 in tensor form at generator {!r}",
             names=Psi.base.labels)
    if rep_end_dim(pi1, Psi.action, tol) != 1:
        raise InvariantViolation("tensor base is not irreducible")
    witnesses = translate_stabilizer(pi1, Psi.action, tol)
    if len(witnesses) != Psi.group.order:
        raise InvariantViolation("every group element must fix the class of the base irreducible")
    # the identity is the frame of 1_r (x) pi1, and Lambda its tensor factor
    stab = _Stabilizer(Psi.action, pi1, witnesses, tol)
    orbit = _mackey_orbit(stab, (Psi, np.eye(Psi.dim)))
    return [len(cls.isometries) for cls in orbit.classes] == [1]


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
    _require(np.linalg.norm(V.conj().T @ V - np.eye(d1)), tol.identity_bound(d1), "corner matrix is not unitary")
    _require(np.linalg.norm(np.linalg.matrix_power(V, k) - np.eye(d1)), tol.reconstruction_bound(d1), "V^k != 1")
    _require(_covariance_residuals(V[None], pi1, action, [m % n])[0], tol.reconstruction_bound(d1),
             "V does not conjugate pi1 onto its m-th translate at generator {!r}", names=pi1.labels)
    if rep_end_dim(pi1, action, tol) != 1:
        raise InvariantViolation("pi1 must be irreducible")
    smaller = [j for j in translate_stabilizer(pi1, action, tol) if 0 < j < m]
    if smaller:
        raise InvariantViolation(f"pi1 is equivalent to its translate by {smaller[0]} < m")

    # Ind from H = mZ_n of psi(U^{jm}) = V^j
    restricted = action.restriction(range(0, n, m))
    psi = CovariantRep(pi1, restricted.action, [np.linalg.matrix_power(V, j) for j in range(k)])
    cov = induce(psi, action, restricted.subgroup, list(range(m)))
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
    _require(_covariance_residuals(U[None], base, action, [1 % n])[0], tol.reconstruction_bound(d),
             "U does not implement the generating automorphism at generator {!r}", names=base.labels)
    Un = np.linalg.matrix_power(U, n)
    lam = complex(np.trace(Un) / d)
    _require(np.linalg.norm(Un - lam * np.eye(d)), tol.abs_eps * max(1, d),
             "U^n is not a scalar multiple of the identity", NotScalarPower)
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
    permutation group, recognized by its Cayley table alone (labels are
    never read), into its canonical shape.

    The case is read off (|H|, r), the stabilizer order and multiplicity
    of one :func:`_orbit`: Minimal (6, 1), TauPair (3, 1) or (6, 2),
    EtaTriple (2, 1), Regular6 (1, 1); any other pair raises
    :class:`BlockStructureViolation`.  EtaTriple reports the cyclic form
    of the restriction to the 3-cycle subgroup.  For TauPair the first
    eigenvector e1 of the 3-cycle's class matrix lambda_eta gives the half
    W1 = C0 (e1 (x) 1) of the pi1-isotypic frame C0 in the gauge of the
    class, and Q = [W1, U_tau W1] carries Pi onto the representation
    induced over the cosets {e, tau}.  Each sub-stabilizer of the 3-cycle
    subgroup is cyclic, so its classes are written down.  It is the
    record of the orbit's pi1 with the witnesses V_h of its members, read
    off the orbit's record by :meth:`~crossrep.reps._Stabilizer.sub` and
    kept on it: over the 3-cycle subgroup's action for EtaTriple, over Pi's
    for TauPair, and the orbit's record itself when H is the 3-cycle
    subgroup.  Over a :class:`GroupAction` that is block k's record, which
    the action keeps; over a :class:`LabelAction` it is built per call.
    What depends on a class alone is kept with it in the record, for the
    orbit of Pi and for each sub-stabilizer
    (:func:`~crossrep.reps._class_records`):
    Ind(lambda (x) V), the corner of EtaTriple with its check V^3 = 1 and
    the spectrum of lambda_eta; the frame, Lambda, every conjugator and
    the report's block form are read and checked on every call.  No
    random number is drawn and ``seed`` is not read; a class of dimension
    d >= 2 is in the basis ``eigh`` picks.
    """
    G = Pi.group
    if G != make_symmetric_group_3():
        raise InvariantViolation("group must be the standard 3-letter permutation group")
    _require_irreducible(Pi, tol)
    orbit = _orbit(Pi, tol)
    stab = orbit.stab
    r, H, pi1 = orbit.lam.dim, stab.restriction.subgroup, stab.pi1
    case = _S3_CASES.get((H.order, r))
    if case is None:
        raise BlockStructureViolation(f"no S3 case has |H| = {H.order} and r = {r}")
    z3 = Pi.action.restriction((S3_E, S3_ETA, S3_ETA2))
    # the class isometry's first coset block, U_e* C0, is the pi1-isotypic
    # frame C0 in the basis of the copy of the class lambda
    C0 = orbit.classes[0].isometries[0][:, : r * pi1.dim]
    if case != "TauPair":
        if case == "EtaTriple":
            # z3 meets H trivially, so by Mackey the restriction to z3 is
            # Ind_{e}^{z3} pi1, irreducible: no 3-cycle fixes the class of pi1.
            # Its orbit is read at Pi's frame C0 with stabilizer {e}
            U_eta = Pi.unitaries[S3_ETA]
            z3_cov = CovariantRep(Pi.base, z3.action, [np.eye(Pi.dim), U_eta, U_eta @ U_eta])
            z3_orbit = _mackey_orbit(stab.sub((S3_E,), z3.members), (z3_cov, C0))
            report = _cyclic_canonical_form(z3_cov, z3_orbit)[0]
        else:
            report = _report(Pi, orbit)
        return S3Class(case, report.base_irrep, report.conjugator, 1, report=report)

    # eta is in H, so C0* U_eta C0 = lambda_eta (x) V_eta, lambda the class in
    # the gauge of C0; the eigenvectors of lambda_eta split the frame into the
    # two halves that tau swaps, and the first half W1 is a frame of Pi with
    # stabilizer z3
    lam, eta = orbit.classes[0].lam, stab.restriction.members.index(S3_ETA)
    spectrum = _once(lam, "spectrum", lambda: _read_only_spectrum(lam.mats[eta], tol))
    if len(spectrum) != r or any(iso.shape[1] != 1 for _, iso in spectrum):
        raise BlockStructureViolation("the 3-cycle factor must have simple eigenvalues")
    W1 = C0 @ np.kron(spectrum[0][1], np.eye(pi1.dim))
    z3_orbit = _mackey_orbit(stab.sub(z3.members), (Pi, W1))
    # Q is the induced conjugator over the cosets {e, tau}, [W1, U_tau* W1];
    # on U_e the check below is Q* Q = 1
    [(_, psi, induced, [Q])] = z3_orbit.classes
    _check_carried(Pi, Q, [induced], "swap conjugator", tol)
    tau_witness = dict(zip(stab.restriction.members, stab.V)).get(S3_TAU)
    return S3Class(
        case="TauPair",
        pi1=pi1,
        conjugator=Q,
        multiplicity=r,
        tau_equivalent=tau_witness is not None,
        tau_witness=tau_witness,
        eta_block=psi.unitaries[1],
    )
