"""Built-in example suite: the fixture representations behind verify-examples.

Each builder returns ready-made objects (actions, representations,
covariant pairs); the ``EXAMPLE_RUNNERS`` registry at the bottom packages
them as named pass/fail checks for the CLI regression runner.
"""

from __future__ import annotations

import numpy as np

from .algebra import GroupAction, LabelAction, MatAlg, StarAut, _cyclic_action, restrict_action
from .analyzer import (
    classify_s3,
    cyclic_analyze,
    homogeneous_irreducibility,
)
from .crossed import build_crossed_model, fixed_point_algebra
from .groups import (
    FiniteGroup,
    S3_E,
    S3_ETA,
    S3_ETA2,
    S3_TAU,
    Subgroup,
    make_cyclic_group,
    make_symmetric_group_3,
    s3_permutations,
)
from .linalg import DEFAULT_TOL
from .reps import (
    CovariantRep,
    Rep,
    _tensor_stack,
    are_equivalent,
    commutant_basis,
    decompose,
    defining_rep,
    induce,
    intertwiners,
    is_irreducible,
    rep_compose,
    rep_from_images,
    regular_representation,
    regular_irreducibility_criterion,
    trivial_covariant,
)

OMEGA3 = np.exp(2j * np.pi / 3)


def s3_label_action() -> LabelAction:
    """The 3-letter permutation group permuting three unitary generator labels."""
    G = make_symmetric_group_3()
    maps = []
    for perm in s3_permutations():
        maps.append({f"U{i + 1}": f"U{perm[i] + 1}" for i in range(3)})
    return LabelAction(G, maps)


def first_s3_example() -> Rep:
    """Two-dimensional free-generator representation: swapping the first two
    generators is implemented by diag(1,-1), but the 3-cycle changes the class."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    return Rep(2, {"U1": X, "U2": -X, "U3": np.diag([1.0, -1.0]).astype(complex)})


def minimal_example() -> Rep:
    """Irreducible two-dimensional representation fixed (up to equivalence)
    by every permutation of its three generators."""
    lam = OMEGA3
    return Rep(
        2,
        {
            "U1": np.array([[0, lam], [lam**2, 0]]),
            "U2": np.array([[0, lam**2], [lam, 0]]),
            "U3": np.array([[0, 1], [1, 0]], dtype=complex),
        },
    )


def minimal_covariant() -> CovariantRep:
    """Extension of :func:`minimal_example` to the full permutation group.

    The 3-cycle is implemented by a phase-corrected diagonal unitary and
    the transposition by the image of the third generator; the phase makes
    the implementing unitaries an honest group homomorphism.
    """
    pi = minimal_example()
    lam = OMEGA3
    U_eta = lam**2 * np.diag([1.0, lam**2])
    U_tau = pi.gens["U3"]
    unitaries = [
        np.eye(2, dtype=complex),
        U_eta,
        U_eta @ U_eta,
        U_tau,
        U_eta @ U_tau,
        U_eta @ U_eta @ U_tau,
    ]
    return CovariantRep(pi, s3_label_action(), unitaries)


def expermutation2_example() -> Rep:
    """Three-dimensional representation equivalent to its 3-cycle translate
    but not to its transposition translate."""
    lam = OMEGA3
    T = np.array(
        [
            [0, -4 / 5, -3 / 5],
            [4 / 5, -9 / 25, 12 / 25],
            [3 / 5, 12 / 25, -16 / 25],
        ],
        dtype=complex,
    )
    V = np.diag([1.0, lam, lam**2])
    V2 = V @ V
    return Rep(3, {"U1": V @ T @ V2, "U2": V2 @ T @ V, "U3": T})


def doubled_minimal_covariant() -> CovariantRep:
    """Multiplicity-two irreducible: two copies of the minimal representation
    glued by a swap and twisted by opposite cube-root phases on the 3-cycle.

    Induced from the 3-cycle subgroup, where the minimal representation
    carries the unitaries (omega V_eta)^j, over the cosets {e, tau}."""
    base_cov = minimal_covariant()
    act = base_cov.action
    z3 = Subgroup(act.group, (S3_E, S3_ETA, S3_ETA2))
    V = OMEGA3 * base_cov.unitaries[S3_ETA]
    psi = CovariantRep(base_cov.base, restrict_action(act, z3)[0], [np.eye(2), V, V @ V])
    return induce(psi, act, z3, [S3_E, S3_TAU])


def torus_orbit_action() -> GroupAction:
    """Functions on a free 6-point orbit, permuted by left translation."""
    G = make_symmetric_group_3()
    A = MatAlg([1] * 6)
    auts = []
    for g in range(6):
        perm = [G.mul(g, j) for j in range(6)]
        auts.append(StarAut(A, perm, [np.eye(1)] * 6))
    return GroupAction(G, A, auts)


def torus_orbit_evaluation() -> tuple[GroupAction, Rep]:
    """Evaluation of an orbit function at the base point; each group element
    moves the evaluation point, so all six translates are inequivalent."""
    act = torus_orbit_action()
    pi = rep_from_images(act.algebra, lambda e: e.blocks[0])
    return act, pi


def cute_example() -> tuple[GroupAction, CovariantRep]:
    """A four-dimensional irreducible over Z_4 that is neither regular nor
    minimal: the order-four automorphism swaps two 2x2 blocks with a flip."""
    A = MatAlg([2, 2])
    W = np.array([[0, 1], [1, 0]], dtype=complex)
    act = _cyclic_action(StarAut(A, (1, 0), [W, np.eye(2)]), 4)
    U = np.zeros((4, 4), dtype=complex)
    U[0:2, 2:4] = W
    U[2:4, 0:2] = np.eye(2)
    unitaries = [np.linalg.matrix_power(U, j) for j in range(4)]
    return act, CovariantRep(defining_rep(A), act, unitaries)


def rotation_action(q: int) -> GroupAction:
    """Z_q rotating the q points underlying the diagonal algebra C^q."""
    A = MatAlg([1] * q)
    perm = [(j - 1) % q for j in range(q)]
    return _cyclic_action(StarAut(A, perm, [np.eye(1)] * q), q)


def quantum_mq(q: int):
    """Rotation crossed product isomorphic to a full q x q matrix algebra.

    Returns the action, the crossed model, and the natural irreducible
    covariant pair on C^q (diagonal function algebra plus cyclic shift).
    """
    act = rotation_action(q)
    model = build_crossed_model(act)
    # the evaluation at point 0 induced from the trivial subgroup: the
    # diagonal function algebra and the cyclic shift
    G = act.group
    point = rep_from_images(act.algebra, lambda e: e.blocks[0])
    trivial = Subgroup(G, (G.identity,))
    pair = induce(trivial_covariant(point, act), act, trivial, list(range(q)))
    return act, model, pair


def product_cyclic_group(q: int) -> FiniteGroup:
    """Z_q x Z_q with index (a, b) -> a*q + b."""
    a, b = np.divmod(np.arange(q * q), q)
    table = (a[:, None] + a) % q * q + (b[:, None] + b) % q
    labels = [f"({a},{b})" for a in range(q) for b in range(q)]
    return FiniteGroup(table, identity=0, labels=labels)


def weyl_pair_homogeneous(q: int = 2) -> CovariantRep:
    """Homogeneous multiplicity-q representation built from the Weyl pair.

    The dual Z_q x Z_q action on the full matrix algebra is inner; the
    representation acts on C^q (x) C^q with the algebra on the second leg
    and the commuting Weyl unitaries split across both legs.
    """
    lam = np.exp(2j * np.pi / q)
    U = np.zeros((q, q), dtype=complex)
    for i in range(q):
        U[i, (i - 1) % q] = 1.0  # chosen so that V U = lam U V
    V = np.diag([lam**j for j in range(q)])
    G = product_cyclic_group(q)
    A = MatAlg([q])

    def weyl(a: int, b: int) -> np.ndarray:
        return lam ** (a * b) * np.linalg.matrix_power(
            U, a
        ) @ np.linalg.matrix_power(V, b)

    auts = [StarAut(A, (0,), [weyl(a, b)]) for a in range(q) for b in range(q)]
    first = [np.linalg.matrix_power(V, a) @ np.linalg.matrix_power(U, b) for a in range(q) for b in range(q)]
    second = [np.linalg.matrix_power(U, a) @ np.linalg.matrix_power(V, b) for a in range(q) for b in range(q)]
    base, unitaries = _tensor_stack([first], second, defining_rep(A))
    return CovariantRep(base, GroupAction(G, A, auts), unitaries[0])


def inner_z8_minimal() -> tuple[GroupAction, CovariantRep]:
    """Minimal representation whose unitary has spectrum off any coset lattice."""
    A = MatAlg([2])
    U0 = np.diag([np.exp(1j * np.pi / 2), np.exp(3j * np.pi / 4)])
    powers = [np.linalg.matrix_power(U0, j) for j in range(8)]
    auts = [StarAut(A, (0,), [powers[j]]) for j in range(8)]
    act = GroupAction(make_cyclic_group(8), A, auts)
    return act, CovariantRep(defining_rep(A), act, powers)


# ---------------------------------------------------------------------------
# named regression checks for the CLI


def _row(expected, computed):
    return {"expected": expected, "computed": computed, "pass": expected == computed}


def run_s3_example1(tol=DEFAULT_TOL):
    pi = first_s3_example()
    act = s3_label_action()
    eq_tau = are_equivalent(pi, rep_compose(pi, act, 3), tol)
    eq_eta = are_equivalent(pi, rep_compose(pi, act, 1), tol)
    witness_ok = False
    if eq_tau.witness is not None:
        D = np.diag([1.0, -1.0])
        bound = tol.reconstruction_bound(1)
        witness_ok = bool(np.linalg.norm(eq_tau.witness - D) < bound or np.linalg.norm(eq_tau.witness + D) < bound)
    return {
        "tau_equivalent": _row(True, eq_tau.equivalent),
        "eta_equivalent": _row(False, eq_eta.equivalent),
        "tau_witness_is_diag_1_-1": _row(True, witness_ok),
    }


def run_minimal(tol=DEFAULT_TOL):
    cov = minimal_covariant()
    verdict = classify_s3(cov, tol=tol)
    return {
        "irreducible": _row(True, is_irreducible(cov.base, tol)),
        "case": _row("Minimal", verdict.case),
        "index_m": _row(1, len(verdict.report.coset_reps)),
    }


def run_expermutation2(tol=DEFAULT_TOL):
    pi = expermutation2_example()
    act = s3_label_action()
    dim_eta = len(intertwiners(pi, rep_compose(pi, act, 1), tol))
    dim_tau = len(intertwiners(pi, rep_compose(pi, act, 3), tol))
    return {
        "intertwiner_dim_eta": _row(1, dim_eta),
        "intertwiner_dim_tau": _row(0, dim_tau),
    }


def run_torus1(tol=DEFAULT_TOL):
    act, pi = torus_orbit_evaluation()
    reg = regular_representation(pi, act)
    verdict = classify_s3(reg, tol=tol)
    inequivalent = all(
        not are_equivalent(pi, rep_compose(pi, act, g), tol).equivalent
        for g in range(1, 6)
    )
    return {
        "regular_irreducible": _row(True, reg.is_irreducible(tol)),
        "criterion": _row(True, regular_irreducibility_criterion(pi, act, tol)),
        "six_translates_inequivalent": _row(True, inequivalent),
        "case": _row("Regular6", verdict.case),
    }


def run_cute(tol=DEFAULT_TOL):
    act, cov = cute_example()
    report = cyclic_analyze(cov, tol=tol)
    basis, _ = fixed_point_algebra(act, tol)
    pi1 = report.base.base_irrep
    pieces_inequivalent = not are_equivalent(
        pi1, rep_compose(pi1, act, 1), tol
    ).equivalent
    return {
        "minimal": _row(False, report.m == 1),
        "m": _row(2, report.m),
        "k": _row(2, report.k),
        "multiplicity": _row(1, report.base.multiplicity),
        "fixed_algebra_dim": _row(2, len(basis)),
        "phi_count": _row(2, report.eta),
        "pieces_inequivalent": _row(True, pieces_inequivalent),
    }


def run_s3_multiplicity_two(tol=DEFAULT_TOL):
    cov = doubled_minimal_covariant()
    verdict = classify_s3(cov, tol=tol)
    return {
        "irreducible": _row(True, cov.is_irreducible(tol)),
        "case": _row("TauPair", verdict.case),
        "r": _row(2, verdict.multiplicity),
        "restriction_commutant_dim": _row(4, len(commutant_basis(cov.base, tol))),
    }


def run_quantum_mq(q: int, tol=DEFAULT_TOL):
    _, model, pair = quantum_mq(q)
    dec = decompose(model.defining_covariant_rep(), tol=tol)
    return {
        "span_dim": _row(q * q, model.span_dim),
        "defining_rep_irreducible": _row(True, pair.is_irreducible(tol)),
        "single_irrep_of_dim_q": _row(
            [(q, q)], [(r.dim, m) for r, m in dec.components]
        ),
    }


def run_quantum_weyl(tol=DEFAULT_TOL):
    psi = weyl_pair_homogeneous(2)
    return {
        "homogeneous_irreducible": _row(True, homogeneous_irreducibility(psi, tol)),
        "joint_irreducible": _row(True, psi.is_irreducible(tol)),
    }


def run_inner_z8(tol=DEFAULT_TOL):
    act, cov = inner_z8_minimal()
    report = cyclic_analyze(cov, tol=tol)
    vals = sorted(np.angle(v) for v, _ in report.spectrum_of_V)
    ratio_is_minus_one = bool(abs(np.exp(1j * (vals[1] - vals[0])) + 1) < tol.abs_eps)
    return {
        "m": _row(1, report.m),
        "spectrum_size": _row(2, len(report.spectrum_of_V)),
        "spectrum_is_coset": _row(False, ratio_is_minus_one),
    }


EXAMPLE_RUNNERS = [
    ("s3_example1", run_s3_example1),
    ("minimal", run_minimal),
    ("expermutation2", run_expermutation2),
    ("torus1_regular", run_torus1),
    ("cute_example", run_cute),
    ("s3_multiplicity_two", run_s3_multiplicity_two),
    ("quantum_mq q=2", lambda tol=DEFAULT_TOL: run_quantum_mq(2, tol)),
    ("quantum_mq q=3", lambda tol=DEFAULT_TOL: run_quantum_mq(3, tol)),
    ("quantum_weyl", run_quantum_weyl),
    ("inner_z8", run_inner_z8),
]


def run_all_examples(tol=DEFAULT_TOL):
    """Run every named example; returns {name: {check: row}}."""
    return {name: runner(tol) for name, runner in EXAMPLE_RUNNERS}
