"""Every threshold reads the :class:`Tolerance` it is given.

One pair of tests per threshold site: a residual the default tolerance
refuses is accepted under a loosened ``Tolerance``, and a residual the
default accepts is refused under a tightened one.  Each input is built so
that only the site under test sees its residual; where the size of the
residual does not follow from the construction, the test measures it.
Then noisy-input regressions: a Λ the policy accepted is returned exactly
unitary, so no stricter check downstream refuses what ``validate`` passed.
"""

import numpy as np
import pytest

import crossrep.cli
import crossrep.examples
import crossrep.reps
from crossrep.analyzer import (
    _cyclic_canonical_form,
    _orbit,
    build_cyclic_irrep,
    classify_s3,
    cyclic_analyze,
    factor_tensor,
    homogeneous_irreducibility,
    periodize,
)
from crossrep.errors import (
    BlockStructureViolation,
    CanonicalFormViolation,
    InvariantViolation,
    NotFactorable,
)
from crossrep.examples import inner_z8_minimal, run_inner_z8, run_s3_example1, weyl_pair_homogeneous
from crossrep.groups import character_table, make_cyclic_group, make_symmetric_group_3
from crossrep.linalg import DEFAULT_TOL, Tolerance, random_unitary
from crossrep.reps import (
    CovariantRep,
    Equivalence,
    ProjectiveRep,
    Rep,
    _character_dim,
    _character_dims,
    _check_carried,
    _covariance_residuals,
    _ranks,
    _sum_dim,
    hom_dim,
    is_irreducible,
)
from crossrep.sampling import crossed_irreps, random_cyclic_action, random_s3_action

LOOSE = Tolerance(abs_eps=1e-7, rank_eps=1e-6, eig_sep=1e-4)
TIGHT = Tolerance(abs_eps=1e-11, rank_eps=1e-10)

# the functions the monkeypatched tests wrap, read before any patch
_PROJECTIVE_IRREPS = crossrep.reps._projective_irreps
_ARE_EQUIVALENT = crossrep.examples.are_equivalent


def test_reconstruction_bound_is_the_criterion_7_bound():
    assert DEFAULT_TOL.reconstruction_bound(1) == pytest.approx(1e-7, rel=1e-12)
    assert DEFAULT_TOL.reconstruction_bound(5.0) == pytest.approx(5e-7, rel=1e-12)
    assert DEFAULT_TOL.reconstruction_bound(0.5) == DEFAULT_TOL.reconstruction_bound(1)
    assert LOOSE.reconstruction_bound(2) == pytest.approx(2e-5, rel=1e-12)
    np.testing.assert_allclose(DEFAULT_TOL.reconstruction_bound(np.array([0.0, 3.0])), [1e-7, 3e-7], rtol=1e-12)


def _refused(run, tol, error):
    with pytest.raises(error):
        run(tol)


# ---------------------------------------------------------------------------
# factor_tensor


def _kronecker_site(eps):
    # an off-Kronecker part with zero trace against V in each block leaves L
    # exactly unitary, so only the Kronecker residual, eps, is off
    rng = np.random.default_rng(3)
    L, V = random_unitary(2, rng), random_unitary(2, rng)
    W = np.kron(L, V) + eps * np.kron(np.eye(2), np.diag([1, -1]) @ V) / 2
    return lambda tol: factor_tensor(W, V, 2, tol)


def _unitarity_site(eps):
    # W = (1 + eps) L (x) V is an exact Kronecker product of a non-unitary factor
    rng = np.random.default_rng(4)
    L, V = random_unitary(2, rng), random_unitary(2, rng)
    W = np.kron((1 + eps) * L, V)
    return lambda tol: factor_tensor(W, V, 2, tol)


@pytest.mark.parametrize("site", [_kronecker_site, _unitarity_site])
def test_factor_tensor_follows_the_tolerance(site):
    # reconstruction_bound(2): 2e-7 at the default, 2e-5 loosened, 2e-9 tightened
    _refused(site(1e-6), DEFAULT_TOL, NotFactorable)
    L = site(1e-6)(LOOSE)
    site(1e-8)(DEFAULT_TOL)
    _refused(site(1e-8), TIGHT, NotFactorable)
    # what the loosened policy accepted is returned exactly unitary
    assert np.linalg.norm(L.conj().T @ L - np.eye(2)) < 1e-14


def test_factor_tensor_returns_the_nearest_unitary_of_a_stack():
    rng = np.random.default_rng(5)
    Ls = np.array([random_unitary(3, rng) for _ in range(4)])
    V = np.array([random_unitary(2, rng) for _ in range(4)])
    scaled = Ls * (1 + 1e-9 * np.arange(4))[:, None, None]
    W = np.einsum("hij,hab->hiajb", scaled, V).reshape(4, 6, 6)
    got = factor_tensor(W, V, 3, DEFAULT_TOL)
    np.testing.assert_allclose(got, Ls, atol=1e-14)
    assert np.max(np.linalg.norm(got.conj().transpose(0, 2, 1) @ got - np.eye(3), axis=(1, 2))) < 1e-14


# ---------------------------------------------------------------------------
# _check_carried


def _carried_site(eps):
    _, Pi = inner_z8_minimal()
    stack = Pi.base.stack.copy()
    stack[0] += eps * np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    part = CovariantRep(Rep(Pi.dim, stack, Pi.base.labels), Pi.action, Pi.unitaries)
    return lambda tol: _check_carried(Pi, np.eye(Pi.dim), [part], "identity frame", tol)


def test_check_carried_follows_the_tolerance():
    # residual eps against reconstruction_bound(dim 2)
    _refused(_carried_site(1e-6), DEFAULT_TOL, BlockStructureViolation)
    _carried_site(1e-6)(LOOSE)
    _carried_site(1e-8)(DEFAULT_TOL)
    _refused(_carried_site(1e-8), TIGHT, BlockStructureViolation)


# ---------------------------------------------------------------------------
# analyzer: V^k = 1 in the cyclic form and in build_cyclic_irrep


def _drifted_z8(eps):
    # U_j = e^{ij eps} U0^j: a phase drift of U, so of Lambda_j = e^{ij eps}
    act, cov = inner_z8_minimal()
    U = cov.unitaries * np.exp(1j * eps * np.arange(8))[:, None, None]
    return CovariantRep(cov.base, act, U)


def _canonical_form_site(eps):
    # psi is built from the stabilizer's class lambda, not from Lambda, so
    # the drift is put on the read-off's psi_j = e^{ij eps} psi0_j, which
    # only the corner relation V^8 = 1 sees
    act, Pi = inner_z8_minimal()

    def site(tol):
        orbit = _orbit(Pi, tol)
        [cls] = orbit.classes
        drift = np.exp(1j * eps * np.arange(8))[:, None, None]
        psi = CovariantRep(cls.psi.base, cls.psi.action, cls.psi.unitaries * drift)
        return _cyclic_canonical_form(Pi, orbit._replace(classes=[cls._replace(psi=psi)]))

    return site


def test_cyclic_canonical_form_corner_power_follows_the_tolerance():
    # ||V^8 - 1|| = |e^{8i eps} - 1| sqrt(2) against reconstruction_bound(2)
    _refused(_canonical_form_site(5e-8), DEFAULT_TOL, CanonicalFormViolation)
    _canonical_form_site(5e-8)(LOOSE)
    _canonical_form_site(3e-10)(DEFAULT_TOL)
    _refused(_canonical_form_site(3e-10), TIGHT, CanonicalFormViolation)


def test_a_drifted_lambda_is_refused_where_it_is_read_against_the_classes():
    # the drift of U stays in Lambda, whose character products with the
    # eight classes of Z8 are off an integer by about eps, against rank_eps
    Pi = _drifted_z8(5e-8)
    with pytest.raises(InvariantViolation, match="is not a dimension"):
        _orbit(Pi, DEFAULT_TOL)
    assert _orbit(Pi, LOOSE).lam.dim == 1


def _corner_power_site(eps):
    act, cov = inner_z8_minimal()
    V = np.exp(1j * eps) * cov.unitaries[1]
    return lambda tol: build_cyclic_irrep(cov.base, V, 1, 8, act, tol)


def test_build_cyclic_irrep_corner_power_follows_the_tolerance():
    _refused(_corner_power_site(1e-7), DEFAULT_TOL, InvariantViolation)
    _corner_power_site(1e-7)(LOOSE)
    _corner_power_site(1e-9)(DEFAULT_TOL)
    _refused(_corner_power_site(1e-9), TIGHT, InvariantViolation)


# ---------------------------------------------------------------------------
# analyzer: covariance in build_cyclic_irrep and periodize


def _rotated_corner(eps):
    # W U0 W* with W = exp(i eps X) keeps V^8 = 1 and unitarity exact and
    # moves only the covariance V pi V* = pi o alpha_1
    act, cov = inner_z8_minimal()
    W = np.cos(eps) * np.eye(2) + 1j * np.sin(eps) * np.array([[0, 1], [1, 0]])
    V = W @ cov.unitaries[1] @ W.conj().T
    return act, cov.base, V, _covariance_residuals(V[None], cov.base, act, [1]).max()


def test_build_cyclic_irrep_covariance_follows_the_tolerance():
    act, pi1, V, resid = _rotated_corner(1e-6)
    assert DEFAULT_TOL.reconstruction_bound(2) < resid < LOOSE.reconstruction_bound(2)
    with pytest.raises(InvariantViolation, match="m-th translate"):
        build_cyclic_irrep(pi1, V, 1, 8, act, DEFAULT_TOL)
    build_cyclic_irrep(pi1, V, 1, 8, act, LOOSE)
    act, pi1, V, resid = _rotated_corner(1e-8)
    assert TIGHT.reconstruction_bound(2) < resid < DEFAULT_TOL.reconstruction_bound(2)
    build_cyclic_irrep(pi1, V, 1, 8, act, DEFAULT_TOL)
    with pytest.raises(InvariantViolation, match="m-th translate"):
        build_cyclic_irrep(pi1, V, 1, 8, act, TIGHT)


def test_periodize_covariance_follows_the_tolerance():
    act, base, U, resid = _rotated_corner(1e-6)
    assert DEFAULT_TOL.reconstruction_bound(2) < resid < LOOSE.reconstruction_bound(2)
    with pytest.raises(InvariantViolation, match="generating automorphism"):
        periodize(base, U, act, DEFAULT_TOL)
    periodize(base, U, act, LOOSE)
    act, base, U, resid = _rotated_corner(1e-8)
    assert TIGHT.reconstruction_bound(2) < resid < DEFAULT_TOL.reconstruction_bound(2)
    periodize(base, U, act, DEFAULT_TOL)
    with pytest.raises(InvariantViolation, match="generating automorphism"):
        periodize(base, U, act, TIGHT)


# ---------------------------------------------------------------------------
# analyzer: the tensor form 1_r (x) pi1 of homogeneous_irreducibility


def _homogeneous_site(eps):
    # a traceless perturbation across the two copies leaves every character,
    # so every dimension, unchanged, and moves only the tensor-form residual eps
    psi = weyl_pair_homogeneous(2)
    stack = psi.base.stack.copy()
    stack[0, 0, 2] += eps / np.sqrt(2)
    stack[0, 2, 0] += eps / np.sqrt(2)
    Psi = CovariantRep(Rep(psi.dim, stack, psi.base.labels), psi.action, psi.unitaries)
    return lambda tol: homogeneous_irreducibility(Psi, tol)


def test_homogeneous_tensor_form_follows_the_tolerance():
    # residual eps against reconstruction_bound(dim 4)
    with pytest.raises(InvariantViolation, match="tensor form"):
        _homogeneous_site(2e-6)(DEFAULT_TOL)
    assert _homogeneous_site(2e-6)(LOOSE)
    assert _homogeneous_site(1e-8)(DEFAULT_TOL)
    with pytest.raises(InvariantViolation, match="tensor form"):
        _homogeneous_site(1e-8)(TIGHT)


# ---------------------------------------------------------------------------
# groups.character_table: the class check and the table's validate


def _shifted_components(monkeypatch, elements, eps):
    """Make ``_projective_irreps`` shift the character of its first
    one-dimensional irreducible by eps at each of ``elements``."""

    def shifted(K, c, tol):
        irreps = _PROJECTIVE_IRREPS(K, c, tol)
        i = next(i for i, rep in enumerate(irreps) if rep.dim == 1)
        mats = irreps[i].mats.copy()
        mats[list(elements)] += eps
        irreps[i] = ProjectiveRep(K, mats, irreps[i].cocycle)
        return irreps

    monkeypatch.setattr(crossrep.reps, "_projective_irreps", shifted)


def test_character_table_class_check_follows_the_tolerance(monkeypatch):
    # one transposition's character moves by eps: the class is no longer
    # constant to within reconstruction_bound(1)
    G = make_symmetric_group_3()
    _shifted_components(monkeypatch, [3], 1e-6)
    with pytest.raises(InvariantViolation, match="not constant on a class"):
        character_table(G, tol=DEFAULT_TOL)
    character_table(G, tol=LOOSE)
    # twice the tightened bound of 1e-9: a shift of exactly 1e-9 lands on
    # that bound, where the rounding of the traces decides
    _shifted_components(monkeypatch, [3], 2e-9)
    character_table(G, tol=DEFAULT_TOL)
    with pytest.raises(InvariantViolation, match="not constant on a class"):
        character_table(G, tol=TIGHT)


def test_character_table_validate_reads_rank_eps(monkeypatch):
    # the whole transposition class moves by eps, so only orthogonality,
    # checked at rank_eps |G|, sees it
    G = make_symmetric_group_3()
    _shifted_components(monkeypatch, [3, 4, 5], 1e-6)
    with pytest.raises(InvariantViolation, match="orthogonality"):
        character_table(G, tol=DEFAULT_TOL)
    character_table(G, tol=LOOSE)
    # orthogonality moves by about 3e-9: within 6e-8 at the default, past 6e-10 tightened
    _shifted_components(monkeypatch, [3, 4, 5], 1e-8 / 6)
    character_table(G, tol=DEFAULT_TOL)
    with pytest.raises(InvariantViolation, match="orthogonality"):
        character_table(G, tol=TIGHT)


# ---------------------------------------------------------------------------
# examples: the witness check and the ratio check


def _witness_rows(monkeypatch, eps):
    def perturbed(r1, r2, tol):
        eq = _ARE_EQUIVALENT(r1, r2, tol)
        return eq if eq.witness is None else Equivalence(True, eq.witness + eps * np.eye(2) / np.sqrt(2))

    monkeypatch.setattr(crossrep.examples, "are_equivalent", perturbed)


def test_example_witness_check_follows_the_tolerance(monkeypatch):
    # the witness is diag(1, -1) up to eps, against reconstruction_bound(1)
    _witness_rows(monkeypatch, 1e-6)
    assert not run_s3_example1(DEFAULT_TOL)["tau_witness_is_diag_1_-1"]["pass"]
    assert run_s3_example1(LOOSE)["tau_witness_is_diag_1_-1"]["pass"]
    _witness_rows(monkeypatch, 1e-8)
    assert run_s3_example1(DEFAULT_TOL)["tau_witness_is_diag_1_-1"]["pass"]
    assert not run_s3_example1(TIGHT)["tau_witness_is_diag_1_-1"]["pass"]


class _Spectrum:
    m = 1

    def __init__(self, eps):
        self.spectrum_of_V = [(1.0, None), (np.exp(1j * (np.pi + eps)), None)]


def test_example_ratio_check_reads_abs_eps(monkeypatch):
    # eigenvalue ratio -e^{i eps}: "minus one" exactly when eps < abs_eps
    monkeypatch.setattr(crossrep.examples, "cyclic_analyze", lambda cov, tol: _Spectrum(1e-8))
    assert not run_inner_z8(DEFAULT_TOL)["spectrum_is_coset"]["computed"]
    assert run_inner_z8(LOOSE)["spectrum_is_coset"]["computed"]
    monkeypatch.setattr(crossrep.examples, "cyclic_analyze", lambda cov, tol: _Spectrum(1e-10))
    assert run_inner_z8(DEFAULT_TOL)["spectrum_is_coset"]["computed"]
    assert not run_inner_z8(TIGHT)["spectrum_is_coset"]["computed"]


# ---------------------------------------------------------------------------
# the CLI writes its defaults once, from DEFAULT_TOL


def test_cli_tolerance_defaults_read_default_tol(monkeypatch):
    args = crossrep.cli.build_parser().parse_args(["verify-examples"])
    assert (args.abs_eps, args.rank_eps, args.eig_sep) == (1e-9, 1e-8, 1e-6)
    monkeypatch.setattr(crossrep.cli, "DEFAULT_TOL", LOOSE)
    args = crossrep.cli.build_parser().parse_args(["verify-examples"])
    assert (args.abs_eps, args.rank_eps, args.eig_sep) == (1e-7, 1e-6, 1e-4)


# ---------------------------------------------------------------------------
# _character_dim and _ranks name their margin


def test_character_dim_names_the_sum_its_distance_and_the_bound():
    with pytest.raises(InvariantViolation) as err:
        _character_dim(np.array([1 + 2e-8, 1 + 2e-8 + 1e-20j]), DEFAULT_TOL)
    message = str(err.value)
    assert "character sum 1.00000002+" in message
    assert "2.000e-08 from 1" in message
    assert "bound rank_eps*scale = 1.000e-08" in message


def test_character_dims_round_each_sum_as_character_dim_does():
    # rows: a dimension, just within and just past the bound, a negative
    # sum, NaN and infinity; -1 marks a sum _character_dim refuses
    rows = np.array([[2.0, 0.0], [1 + 0.9e-8, 1.0], [1 + 2.5e-8, 1.0], [-1.0, -1.0], [np.nan, 1.0], [np.inf, 1.0]])
    want = []
    for terms in rows:
        try:
            want.append(_character_dim(terms, DEFAULT_TOL))
        except InvariantViolation:
            want.append(-1)
    dims, bounds = _character_dims(rows.mean(axis=1), np.abs(rows).mean(axis=1), DEFAULT_TOL)
    assert dims.tolist() == want == [1, 1, -1, -1, -1, -1]
    with pytest.raises(InvariantViolation, match="character sum 1.0000000125 is not a dimension"):
        _sum_dim(rows[2].mean(), bounds[2])


def test_ranks_names_the_trace_its_distance_and_the_bound():
    P = np.diag([1 + 3e-8, 0.0])[None]
    with pytest.raises(InvariantViolation) as err:
        _ranks(P, DEFAULT_TOL)
    message = str(err.value)
    assert "projection trace 1.00000003 is not a rank" in message
    assert "3.000e-08 from 1" in message
    assert "bound rank_eps*dim = 2.000e-08" in message


def test_a_nan_or_infinite_sum_is_not_an_integer():
    # round() of NaN used to raise a bare ValueError, which the CLI reported as exit 5
    cov = crossed_irreps(random_cyclic_action(3, [1], np.random.default_rng(0)))[0]
    U = cov.unitaries.copy()
    U[1, 0, 0] = np.nan
    bad = CovariantRep(cov.base, cov.action, U)
    with pytest.raises(InvariantViolation, match="character sum nan.* is not a dimension"):
        hom_dim(bad, bad)
    lam = ProjectiveRep(make_cyclic_group(2), [np.eye(1), np.full((1, 1), np.nan)], np.ones((2, 2)))
    with pytest.raises(InvariantViolation, match="is not a dimension"):
        is_irreducible(lam)
    with pytest.raises(InvariantViolation, match="character sum inf"):
        _character_dim(np.array([np.inf, 1.0]), DEFAULT_TOL)
    with pytest.raises(InvariantViolation, match="projection trace nan is not a rank"):
        _ranks(np.diag([np.nan, 0.0])[None], DEFAULT_TOL)


# ---------------------------------------------------------------------------
# noisy-input regressions at the default tolerance


def _noisy(cov, delta, rng):
    S = cov.base.stack
    noise = delta * (rng.standard_normal(S.shape) + 1j * rng.standard_normal(S.shape))
    return CovariantRep(Rep(cov.dim, S + noise, cov.base.labels), cov.action, cov.unitaries)


def test_cyclic_analyze_accepts_what_validate_accepts():
    # base generators off by delta = 1e-9, U exact: every input passes
    # validate, and the corner V = Lambda (x) V_h is unitary to rounding
    irreps = crossed_irreps(random_cyclic_action(8, [3], np.random.default_rng(1)))
    for i, cov in enumerate(irreps):
        for draw in range(3):
            Pi = _noisy(cov, 1e-9, np.random.default_rng([i, draw]))
            Pi.validate(DEFAULT_TOL)
            report = cyclic_analyze(Pi, tol=DEFAULT_TOL)
            assert np.linalg.norm(report.V.conj().T @ report.V - np.eye(len(report.V))) < 1e-13


def test_classify_s3_accepts_what_validate_accepts():
    for kind in ("permutation", "inner", "conjugated"):
        irreps = crossed_irreps(random_s3_action(np.random.default_rng(2), kind))
        for i, cov in enumerate(irreps):
            for draw in range(2):
                Pi = _noisy(cov, 1e-9, np.random.default_rng([i, draw, 7]))
                Pi.validate(DEFAULT_TOL)
                classify_s3(Pi, tol=DEFAULT_TOL)


def test_cyclic_analyze_accepts_noise_the_loosened_tolerance_admits():
    irreps = crossed_irreps(random_cyclic_action(8, [2, 1, 1], np.random.default_rng(1)))
    for i, cov in enumerate(irreps):
        cyclic_analyze(_noisy(cov, 1e-7, np.random.default_rng([i, 3])), tol=LOOSE)
