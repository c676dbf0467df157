"""The batched group-relation checks against brute-force pair loops.

``CovariantRep.validate``, ``GroupAction.validate``, ``ProjectiveRep.validate``
and ``LabelAction`` read every residual ||M_gh - c(g, h) M_g M_h|| in one
batch per row g.  Corrupting one matrix (or one label map) at a random
index must make each raise at the first failing pair that a plain loop over
(g, h), g outer, finds; the uncorrupted inputs must pass.  The monomial
twisted regular representation, split without being formed, reads the same
relations off the 2-cocycle identity of its cocycle, and refuses exactly
where the dense residuals do.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossrep.algebra import GroupAction, LabelAction, StarAut
from crossrep.analyzer import analyze
from crossrep.errors import DecompositionFailed, InvariantViolation
from crossrep.examples import product_cyclic_group, s3_label_action
from crossrep.groups import make_cyclic_group, make_symmetric_group_3
from crossrep.linalg import DEFAULT_TOL, _relation_residuals, random_unitary
from crossrep.reps import CovariantRep, ProjectiveRep, _hom, _projective_irreps
from crossrep.sampling import crossed_irreps, random_cyclic_action, random_s3_action

_actions = st.one_of(
    st.builds(
        lambda n, dims, seed: random_cyclic_action(n, dims, np.random.default_rng(seed)),
        st.sampled_from([2, 3, 4, 6]),
        st.sampled_from([[1], [2], [3], [1, 2], [2, 2], [1, 1, 2]]),
        st.integers(0, 2**16),
    ),
    st.builds(
        lambda kind, seed: random_s3_action(np.random.default_rng(seed), kind),
        st.sampled_from(["permutation", "inner", "conjugated"]),
        st.integers(0, 2**16),
    ),
)

_property = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def _first_failing_pair(G, product, bound):
    """Reference: the first (g, h), g outer, whose relation residual
    ``product(g, h, gh)`` exceeds ``bound``."""
    for g in range(G.order):
        for h in range(G.order):
            if product(g, h, G.mul(g, h)) > bound:
                return g, h
    return None


def _raises_at(validate, pair):
    assert pair is not None
    try:
        validate()
    except InvariantViolation as err:
        assert re.search(re.escape(f"({pair[0]},{pair[1]})"), str(err)), str(err)
    else:
        raise AssertionError("the corrupted input passed validation")


@_property
@given(act=_actions, seed=st.integers(0, 2**16))
def test_covariant_validate_names_the_first_failing_pair(act, seed):
    rng = np.random.default_rng(seed)
    irreps = crossed_irreps(act, seed=0)
    cov = irreps[int(rng.integers(len(irreps)))]
    cov.validate(DEFAULT_TOL)
    g = int(rng.integers(1, act.group.order))
    U = list(cov.unitaries)
    # a unitary corruption: only the homomorphism can fail
    U[g] = U[g] @ random_unitary(cov.dim, rng)
    bad = CovariantRep(cov.base, act, U)
    pair = _first_failing_pair(
        act.group,
        lambda a, b, ab: np.linalg.norm(U[a] @ U[b] - U[ab]),
        DEFAULT_TOL.identity_bound(cov.dim),
    )
    _raises_at(lambda: bad.validate(DEFAULT_TOL), pair)


@_property
@given(act=_actions, seed=st.integers(0, 2**16))
def test_action_validate_names_the_first_failing_pair(act, seed):
    rng = np.random.default_rng(seed)
    act.validate(DEFAULT_TOL)
    G, A = act.group, act.algebra
    g = int(rng.integers(1, G.order))
    auts = list(act.auts)
    auts[g] = StarAut(A, auts[g].perm, [random_unitary(d, rng) for d in A.block_dims])
    # unitaries on 1-dimensional blocks are phases and leave the map alone
    assume(not auts[g].induced_equal(act.auts[g]))
    bad = GroupAction(G, A, auts, validate=False)
    images = [a.coefficient_matrix for a in auts]
    # the map alpha_a alpha_b has row matrix images[b] @ images[a]
    pair = _first_failing_pair(
        G,
        lambda a, b, ab: np.linalg.norm(images[b] @ images[a] - images[ab]),
        DEFAULT_TOL.identity_bound(A.linear_dim),
    )
    _raises_at(lambda: bad.validate(DEFAULT_TOL), pair)


@_property
@given(act=_actions, seed=st.integers(0, 2**16))
def test_projective_validate_names_the_first_failing_pair(act, seed):
    rng = np.random.default_rng(seed)
    irreps = crossed_irreps(act, seed=0)
    report = analyze(irreps[int(rng.integers(len(irreps)))], seed=0)
    proj = report.v_rep
    proj.validate(1e-8)
    K, c = proj.group, proj.cocycle
    mats = list(proj.mats)
    a = int(rng.integers(K.order))
    mats[a] = mats[a] @ random_unitary(proj.dim, rng)
    bad = ProjectiveRep(K, mats, c)
    pair = _first_failing_pair(
        K,
        lambda g, h, gh: np.linalg.norm(mats[gh] - c[g, h] * mats[g] @ mats[h]),
        1e-8 * max(1, proj.dim),
    )
    _raises_at(lambda: bad.validate(1e-8), pair)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(g=st.integers(1, 5), swap=st.sampled_from([("U1", "U2"), ("U1", "U3"), ("U2", "U3")]))
def test_label_action_names_the_first_failing_pair(g, swap):
    act = s3_label_action()
    maps = [dict(m) for m in act.maps]
    # exchange the images of two labels under one non-identity element
    x, y = swap
    maps[g][x], maps[g][y] = maps[g][y], maps[g][x]
    pair = _first_failing_pair(
        act.group,
        lambda a, b, ab: any(maps[a][maps[b][l]] != maps[ab][l] for l in maps[0]),
        0,
    )
    _raises_at(lambda: LabelAction(act.group, maps), pair)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    group=st.sampled_from(["Z5", "Z8", "S3", "Z3xZ3"]),
    corrupt=st.sampled_from(["none", "cocycle", "near"]),
    seed=st.integers(0, 2**16),
)
def test_twisted_regular_refuses_where_the_dense_reference_does(group, corrupt, seed):
    # c(a, b) = mu_a mu_b / mu_ab is a 2-cocycle, so L carries conj(c) exactly;
    # a corrupted entry of c breaks some relations, by far or ("near") by an
    # angle of 1e-7 to 1e-5 around the bound
    K = {"Z5": lambda: make_cyclic_group(5), "Z8": lambda: make_cyclic_group(8),
         "S3": make_symmetric_group_3, "Z3xZ3": lambda: product_cyclic_group(3)}[group]()
    rng = np.random.default_rng(seed)
    mu = np.exp(2j * np.pi * rng.random(K.order))
    c = mu[:, None] * mu[None, :] / mu[K.table]
    a, b = rng.integers(K.order, size=2)
    angle = {"none": 0.0, "cocycle": 2 * np.pi * rng.uniform(0.1, 0.9), "near": 10 ** rng.uniform(-7, -5)}[corrupt]
    c[a, b] *= np.exp(1j * angle)
    # the dense reference: L_a delta_x = c(a, x) delta_{ax} as full matrices
    L = c[:, None, :] * (K.table[:, None, :] == np.arange(K.order)[:, None])
    dense = _relation_residuals(L, K.table, c.conj())
    bad = np.argwhere(dense > DEFAULT_TOL.identity_bound(np.sqrt(K.order)))
    if corrupt == "cocycle":
        assert len(bad)
    if not len(bad):
        try:
            irreps = _projective_irreps(K, c, DEFAULT_TOL)
        except (InvariantViolation, DecompositionFailed) as err:
            # a near-cocycle passes the relation check; its split may still
            # refuse leaves that are only nearly invariant
            assert corrupt == "near" and "scalar multiples" not in str(err)
            return
        # one irreducible per class, each dim-many times in the dense reference
        regular = ProjectiveRep(K, L, c.conj())
        assert sum(r.dim**2 for r in irreps) == K.order
        assert all(_hom(r, regular, DEFAULT_TOL)[0] == r.dim for r in irreps)
        return
    pair = f"pair ({bad[0][0]},{bad[0][1]}): residual {dense[tuple(bad[0])]:.3e}"
    with pytest.raises(InvariantViolation, match=re.escape(pair)):
        _projective_irreps(K, c, DEFAULT_TOL)
