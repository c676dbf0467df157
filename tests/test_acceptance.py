"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import time

import numpy as np

from crossrep.analyzer import analyze, build_cyclic_irrep, classify_s3, cyclic_analyze
from crossrep.crossed import fixed_point_algebra, projection_matrix
from crossrep.examples import (
    cute_example,
    doubled_minimal_covariant,
    expermutation2_example,
    first_s3_example,
    inner_z8_minimal,
    minimal_covariant,
    minimal_example,
    quantum_mq,
    s3_label_action,
    torus_orbit_evaluation,
    weyl_pair_homogeneous,
)
from crossrep.groups import S3_ETA, S3_TAU, character_table
from crossrep.linalg import DEFAULT_TOL, scalar_quotient
from crossrep.reps import (
    Rep,
    are_equivalent,
    commutant_basis,
    decompose,
    direct_sum_reps,
    evaluate,
    intertwiners,
    regular_irreducibility_criterion,
    regular_representation,
    rep_compose,
)
from crossrep.sampling import (
    crossed_irreps,
    random_block_irrep,
    random_cyclic_action,
    random_s3_action,
)

TOL = DEFAULT_TOL


def _report(name: str):
    print(f"PASS {name}")


def test_criterion_1_quantum_isomorphism():
    for q in (2, 3, 5):
        t0 = time.perf_counter()
        _, model, pair = quantum_mq(q)
        assert model.span_dim == q * q
        assert len(commutant_basis(pair.joint_rep(), TOL)) == 1
        # covariance residuals at the stated tolerance
        for g in range(q):
            U = pair.unitaries[g]
            twisted = rep_compose(pair.base, pair.action, g)
            for l, M in pair.base.gens.items():
                assert np.linalg.norm(U @ M @ U.conj().T - twisted.gens[l]) <= 1e-8
        assert time.perf_counter() - t0 < 1.0
    _report("criterion 1: quantum crossed products are full matrix algebras (q=2,3,5)")


def test_criterion_2_cute_example_pipeline():
    t0 = time.perf_counter()
    act, cov = cute_example()
    assert cov.is_irreducible(TOL)
    report = cyclic_analyze(cov, seed=11, tol=TOL)
    assert (report.m, report.k) == (2, 2)
    assert report.base.multiplicity == 1
    pi1 = report.base.base_irrep
    pi2 = rep_compose(pi1, act, 1)
    assert not are_equivalent(pi1, pi2, TOL).equivalent
    basis, _ = fixed_point_algebra(act, TOL)
    assert len(basis) == 2
    assert report.eta == 2
    assert [m for _, m in report.fixed_pt_irreps] == [1, 1]
    phis = [rep for rep, _ in report.fixed_pt_irreps]
    assert all(p.dim == 1 for p in phis)
    assert not are_equivalent(phis[0], phis[1], TOL).equivalent
    # both minimal pieces restrict to phi_1 + phi_2
    for i in range(2):
        tw = rep_compose(pi1, act, i)
        restricted = Rep(
            2,
            {f"fix{j}": evaluate(tw, act.algebra, b) for j, b in enumerate(basis)},
        )
        dec = decompose(restricted, seed=3, tol=TOL)
        assert len(dec.components) == 2
        assert all(m == 1 and r.dim == 1 for r, m in dec.components)
    assert time.perf_counter() - t0 < 1.0
    _report("criterion 2: order-four block-swap example full pipeline")


def test_criterion_3_s3_equivalence_matrix():
    act = s3_label_action()
    # example 1: swap equivalent, cycle not
    pi = first_s3_example()
    assert are_equivalent(pi, rep_compose(pi, act, S3_TAU), TOL).equivalent
    assert not are_equivalent(pi, rep_compose(pi, act, S3_ETA), TOL).equivalent
    # minimal example: equivalent to all translates
    pim = minimal_example()
    for g in (S3_TAU, S3_ETA):
        eq = are_equivalent(pim, rep_compose(pim, act, g), TOL)
        assert eq.equivalent
        for l in pim.gens:
            resid = eq.witness @ pim.gens[l] @ eq.witness.conj().T - rep_compose(
                pim, act, g
            ).gens[l]
            assert np.linalg.norm(resid) <= 1e-8
    # the 3-d example: cycle yes (dim 1), swap no (dim 0)
    pi3 = expermutation2_example()
    assert len(intertwiners(pi3, rep_compose(pi3, act, S3_ETA), TOL)) == 1
    assert len(intertwiners(pi3, rep_compose(pi3, act, S3_TAU), TOL)) == 0
    # free-orbit evaluation: regular representation irreducible, all six
    # translates pairwise inequivalent
    tact, tpi = torus_orbit_evaluation()
    reg = regular_representation(tpi, tact)
    assert reg.is_irreducible(TOL)
    translates = [rep_compose(tpi, tact, g) for g in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not are_equivalent(translates[i], translates[j], TOL).equivalent
    _report("criterion 3: three-generator equivalence matrix matches")


def test_criterion_4_multiplicity_divide():
    cov = doubled_minimal_covariant()
    verdict = classify_s3(cov, seed=5, tol=TOL)
    assert verdict.case == "TauPair"
    assert verdict.multiplicity == 2
    assert len(commutant_basis(cov.joint_rep(), TOL)) == 1
    assert len(commutant_basis(cov.base, TOL)) == 4
    # cyclic sweep: every irreducible of every sampled crossed product has
    # multiplicity one
    rng = np.random.default_rng(404)
    dims_pool = [[1], [2], [1, 1], [1, 2], [2, 2], [1, 1, 1], [1, 1, 2]]
    count = 0
    while count < 50:
        n = int(rng.choice([2, 3, 4, 6]))
        dims = dims_pool[int(rng.integers(0, len(dims_pool)))]
        act = random_cyclic_action(n, dims, rng, twist=bool(rng.integers(0, 2)))
        for cov_i in crossed_irreps(act, seed=count, tol=TOL):
            report = cyclic_analyze(cov_i, seed=count, tol=TOL)
            assert report.base.multiplicity == 1
            count += 1
    assert count >= 50
    _report(
        f"criterion 4: multiplicity divide (swap doubling r=2; {count} cyclic irreps all r=1)"
    )


def test_criterion_5_regular_criterion_biconditional():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    checked = 0
    trues = falses = 0
    while checked < 100:
        if checked % 3 == 2:
            act = random_s3_action(rng, "permutation")
        else:
            n = int(rng.integers(2, 5))
            # several blocks of one dimension so that free orbits can occur
            d = int(rng.integers(1, 3))
            dims = [d] * int(rng.integers(1, n + 1))
            act = random_cyclic_action(n, dims, rng, twist=bool(rng.integers(0, 2)))
        pi = random_block_irrep(act.algebra, rng)
        if act.group.order * pi.dim > 12:
            continue
        if checked % 10 == 9:
            pi = direct_sum_reps([pi, pi])  # reducible direction
        reg = regular_representation(pi, act)
        claim = regular_irreducibility_criterion(pi, act, TOL)
        direct = reg.is_irreducible(TOL)
        assert claim == direct
        trues += claim
        falses += not claim
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert trues >= 10 and falses >= 10  # both truth directions exercised
    _report(
        f"criterion 5: regular criterion biconditional on {checked} pairs "
        f"({trues} irreducible / {falses} not) in {elapsed:.1f}s"
    )


def test_criterion_6_harmonic_identities():
    rng = np.random.default_rng(606)
    actions = []
    for n in range(2, 9):
        dims = [[1, 1], [2, 1], [1, 1, 1], [2]][n % 4]
        actions.append(random_cyclic_action(n, dims, rng, twist=True))
    actions.append(random_s3_action(rng, "permutation"))
    actions.append(random_s3_action(rng, "inner"))
    actions.append(random_s3_action(rng, "conjugated"))
    for act in actions:
        G = act.group
        ct = character_table(G, seed=1, tol=TOL)
        assert sum(d * d for d in ct.dims) == G.order
        mats = [projection_matrix(act, ct.char_vector(r)) for r in range(ct.n_irreps)]
        d = act.algebra.linear_dim
        total = np.zeros((d, d), dtype=complex)
        for i, P in enumerate(mats):
            assert np.linalg.norm(P @ P - P) <= 1e-8
            total += P
            for j, Q in enumerate(mats):
                if i != j:
                    assert np.linalg.norm(P @ Q) <= 1e-8
        assert np.linalg.norm(total - np.eye(d)) <= 1e-8
        dims = np.array(ct.dims)
        for c in range(len(ct.classes)):
            if ct.classes[c] == (G.identity,):
                continue
            assert abs(np.sum(ct.chars[:, c] * dims)) <= 1e-8 * G.order
    _report(
        f"criterion 6: harmonic-analysis identities on {len(actions)} actions"
    )


def _reconstruct_unitary(report, g):
    m = report.index
    size = report.multiplicity * report.base_irrep.dim
    out = np.zeros((m * size, m * size), dtype=complex)
    for j in range(m):
        i = report.perms[g][j]
        out[i * size : (i + 1) * size, j * size : (j + 1) * size] = (
            report.block_unitaries[g][j]
        )
    return out


def _verify_structure(cov, report):
    C = report.conjugator
    pi1, r = report.base_irrep, report.multiplicity
    assert np.linalg.norm(C.conj().T @ C - np.eye(cov.dim)) <= 1e-7
    for label, M in cov.base.gens.items():
        want = np.zeros((cov.dim, cov.dim), dtype=complex)
        pos = 0
        for gi in report.coset_reps:
            tw = rep_compose(pi1, cov.action, gi).gens[label]
            blk = np.kron(np.eye(r), tw)
            want[pos : pos + blk.shape[0], pos : pos + blk.shape[0]] = blk
            pos += blk.shape[0]
        assert np.linalg.norm(C.conj().T @ M @ C - want) <= 1e-7
    for g in range(cov.group.order):
        got = C.conj().T @ cov.unitaries[g] @ C
        assert np.linalg.norm(got - _reconstruct_unitary(report, g)) <= 1e-7
    report.lambda_rep.validate(1e-8)
    report.v_rep.validate(1e-8)


def test_criterion_7_structure_report_reconstruction():
    corpus = []
    tact, tpi = torus_orbit_evaluation()
    corpus.append(regular_representation(tpi, tact))
    corpus.append(minimal_covariant())
    corpus.append(doubled_minimal_covariant())
    act, cute = cute_example()
    corpus.append(cute)
    corpus.append(inner_z8_minimal()[1])
    corpus.append(weyl_pair_homogeneous(2))
    # a built cyclic representation
    r = cyclic_analyze(cute, seed=11, tol=TOL)
    corpus.append(build_cyclic_irrep(r.base.base_irrep, r.V, r.m, r.k, act, TOL))
    # two sampled one-dimensional crossed-product irreducibles
    rng = np.random.default_rng(707)
    sact = random_cyclic_action(4, [1, 2], rng)
    corpus.extend([cov for cov in crossed_irreps(sact, seed=1, tol=TOL) if cov.dim == 1][:2])
    for cov in corpus:
        report = analyze(cov, seed=9, tol=TOL)
        _verify_structure(cov, report)
    _report(f"criterion 7: canonical-form reconstruction on {len(corpus)} representations")


def test_criterion_8_build_analyze_roundtrip():
    rng = np.random.default_rng(808)
    done = 0
    while done < 25:
        n = int(rng.choice([2, 3, 4, 6]))
        dims_pool = [[1, 1], [1, 1, 1], [2, 2], [1, 1, 1, 1], [2, 1, 1]]
        dims = dims_pool[int(rng.integers(0, len(dims_pool)))]
        act = random_cyclic_action(n, dims, rng, twist=bool(rng.integers(0, 2)))
        pi1 = random_block_irrep(act.algebra, rng)
        # orbit length of the base irreducible under the action
        m = n
        for j in range(1, n):
            if are_equivalent(pi1, rep_compose(pi1, act, j), TOL).equivalent:
                m = j
                break
        k = n // m
        if m == n:
            V0 = np.eye(pi1.dim, dtype=complex)
        else:
            V0 = are_equivalent(pi1, rep_compose(pi1, act, m), TOL).witness
        c = scalar_quotient(np.linalg.matrix_power(V0, k), np.eye(pi1.dim), TOL)
        V = np.exp(-1j * np.angle(c) / k) * V0
        built = build_cyclic_irrep(pi1, V, m, k, act, TOL)
        again = cyclic_analyze(built, seed=done, tol=TOL)
        assert (again.m, again.k) == (m, k)
        # the analyzer's base choice is free within the translate orbit
        recovered = again.base.base_irrep
        assert any(
            are_equivalent(recovered, rep_compose(pi1, act, j), TOL).equivalent
            for j in range(0, n, 1)
        )
        rebuilt = build_cyclic_irrep(recovered, again.V, again.m, again.k, act, TOL)
        assert are_equivalent(rebuilt.joint_rep(), built.joint_rep(), TOL).equivalent
        done += 1
    _report(f"criterion 8: build/analyze round trip on {done} random inputs")
