import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrep.crossed import CrossedElement, build_crossed_model, element_to_matrix
from crossrep.errors import SchemaError
from crossrep.examples import (
    cute_example,
    doubled_minimal_covariant,
    rotation_action,
    s3_label_action,
)
from crossrep.algebra import GroupAction, LabelAction
from crossrep.reps import decompose
from crossrep.sampling import random_cyclic_action, random_s3_action
from crossrep.serialize import (
    action_from_json,
    action_to_json,
    covariant_from_json,
    covariant_to_json,
    crossed_element_from_json,
    crossed_element_to_json,
    decomposition_to_json,
    group_from_json,
    group_to_json,
    matrix_from_json,
    matrix_to_json,
    model_to_json,
    rep_from_json,
    rep_to_json,
)


def test_matrix_roundtrip(rng):
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    N = matrix_from_json(json.loads(json.dumps(matrix_to_json(M))))
    assert np.allclose(M, N)


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        matrix_from_json([[1, 2]])  # entries must be pairs
    with pytest.raises(SchemaError):
        matrix_from_json([[[1, 0]], [[1, 0], [0, 0]]])  # ragged rows
    with pytest.raises(SchemaError):
        matrix_from_json([])


def test_group_roundtrip():
    from crossrep.groups import make_symmetric_group_3

    G = make_symmetric_group_3()
    H = group_from_json(json.loads(json.dumps(group_to_json(G))))
    assert H == G and H.labels == G.labels


def test_group_with_bad_table_is_invariant_failure():
    # malformed fields are schema errors; a well-formed non-group table is
    # a mathematical invariant failure (CLI exit 3, not 2)
    from crossrep.errors import InvariantViolation

    with pytest.raises(InvariantViolation):
        group_from_json({"table": [[0, 0], [1, 1]]})
    with pytest.raises(SchemaError):
        group_from_json({"order": 2})


def test_matalg_action_roundtrip(rng):
    act = rotation_action(3)
    again = action_from_json(json.loads(json.dumps(action_to_json(act))))
    assert again.algebra == act.algebra
    x = act.algebra.random_element(rng)
    for g in range(3):
        delta = again.apply(g, x).coeffs() - act.apply(g, x).coeffs()
        assert np.linalg.norm(delta) < 1e-12


def test_label_action_roundtrip():
    act = s3_label_action()
    again = action_from_json(json.loads(json.dumps(action_to_json(act))))
    for g in range(6):
        for l in ("U1", "U2", "U3"):
            assert again.map_label(g, l) == act.map_label(g, l)


def test_rep_roundtrip():
    from crossrep.examples import expermutation2_example

    pi = expermutation2_example()
    again = rep_from_json(json.loads(json.dumps(rep_to_json(pi))))
    assert again.dim == pi.dim
    for l in pi.gens:
        assert np.allclose(again.gens[l], pi.gens[l])


def test_covariant_roundtrip_both_action_kinds(tol):
    for cov in (cute_example()[1], doubled_minimal_covariant()):
        again = covariant_from_json(json.loads(json.dumps(covariant_to_json(cov))))
        again.validate(tol)
        assert again.dim == cov.dim
        for g in range(cov.group.order):
            assert np.allclose(again.unitaries[g], cov.unitaries[g])


def test_crossed_element_roundtrip(rng):
    act = rotation_action(3)
    x = CrossedElement(act, [act.algebra.random_element(rng) for _ in range(3)])
    again = crossed_element_from_json(json.loads(json.dumps(crossed_element_to_json(x))))
    model = build_crossed_model(act)
    assert np.allclose(element_to_matrix(model, x), element_to_matrix(model, again))


def test_crossed_element_sparse_coeffs():
    act = rotation_action(3)
    doc = crossed_element_to_json(CrossedElement.zero(act))
    del doc["coeffs"]["2"]  # missing coefficients read back as zero
    again = crossed_element_from_json(doc)
    assert again.coeffs[2].norm() == 0


def test_model_json_contains_contract_fields():
    model = build_crossed_model(rotation_action(2))
    doc = json.loads(json.dumps(model_to_json(model)))
    assert doc["host_dim"] == 4
    assert doc["span_dim"] == 4
    assert set(doc["vg"]) == {"0", "1"}
    assert "defining_rep" in doc and "unitaries" in doc["defining_rep"]


def test_covariant_decomposition_components_keep_their_unitaries(tol):
    act = rotation_action(3)
    dec = decompose(build_crossed_model(act).defining_covariant_rep(), seed=0, tol=tol)
    doc = json.loads(json.dumps(decomposition_to_json(dec)))
    (comp,) = doc["components"]
    assert (comp["dim"], comp["multiplicity"]) == (3, 3)
    back = covariant_from_json(comp["irrep"])
    assert np.allclose(back.unitaries[1], dec.components[0][0].unitaries[1])


def _relabelled(act: LabelAction, names) -> LabelAction:
    rename = dict(zip(sorted(act.maps[0]), names))
    return LabelAction(act.group, [{rename[l]: rename[m[l]] for l in m} for m in act.maps])


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
    st.builds(
        lambda names: _relabelled(s3_label_action(), names),
        st.lists(st.text(min_size=1, max_size=6), min_size=3, max_size=3, unique=True),
    ),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(act=_actions)
def test_action_roundtrip_is_exact_and_finite(act):
    again = action_from_json(json.loads(json.dumps(action_to_json(act), allow_nan=False)))
    assert type(again) is type(act)
    assert np.array_equal(again.group.table, act.group.table) and again.group.labels == act.group.labels
    if isinstance(act, GroupAction):
        assert again.algebra == act.algebra
        for a, b in zip(again.auts, act.auts):
            assert tuple(a.perm) == tuple(b.perm)
            assert all(np.array_equal(U, V) for U, V in zip(a.unitaries, b.unitaries))
    else:
        assert again.maps == act.maps
