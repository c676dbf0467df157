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
from crossrep.algebra import GroupAction, LabelAction, MatAlg
from crossrep.errors import InvariantViolation
from crossrep.linalg import DEFAULT_TOL, Tolerance
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
    staraut_from_json,
)


def test_matrix_roundtrip(rng):
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    M[0, 0] = complex(-0.0, 0.0)
    doc = matrix_to_json(M)
    assert doc == [[[z.real, z.imag] for z in row] for row in M.tolist()]
    N = matrix_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(M, N) and np.signbit(N[0, 0].real)
    assert np.array_equal(matrix_from_json([[[1, 2], [3, 4]]]), np.array([[1 + 2j, 3 + 4j]]))


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        matrix_from_json([[1, 2]])  # entries must be pairs
    with pytest.raises(SchemaError):
        matrix_from_json([[[1, 0]], [[1, 0], [0, 0]]])  # ragged rows
    with pytest.raises(SchemaError):
        matrix_from_json([])


@pytest.mark.parametrize(
    "obj",
    [
        [[["x", 0]]],
        [[[True, 0]]],
        [[[None, 0]]],
        [[[float("nan"), 0]]],
        [[[float("inf"), 0]]],
        [[[0, float("-inf")]]],
        [[[10**400, 0]]],
        [[[1, 0, 0]]],
        [[[1, 0]], [[1, 0], [0, 0]]],
    ],
    ids=["string", "bool", "null", "nan", "inf", "-inf", "huge-int", "three-element", "ragged"],
)
def test_matrix_bad_entries_are_schema_errors(obj):
    with pytest.raises(SchemaError):
        matrix_from_json(obj)


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


_REP = {"dim": 1, "generators": {"a": [[[1.0, 0.0]]]}}
_FLIP = {
    "group": {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0},
    "algebra": {"blocks": [1, 1]},
    "auts": {str(g): {"perm": perm, "unitaries": [[[[1.0, 0.0]]]] * 2} for g, perm in enumerate([[0, 1], [1, 0]])},
}
_I2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_COVARIANT = {**_REP, "action_ref": _FLIP, "unitaries": {"0": [[[1.0, 0.0]]], "1": [[[1.0, 0.0]]]}}


def _with(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "load, doc",
    [
        (rep_from_json, _with(_REP, ["dim"], "x")),
        (rep_from_json, _with(_REP, ["dim"], 1.5)),
        (rep_from_json, _with(_REP, ["dim"], True)),
        (rep_from_json, _with(_REP, ["dim"], 0)),
        (rep_from_json, _with(_REP, ["generators"], [])),
        (action_from_json, _with(_FLIP, ["algebra", "blocks"], ["a", 1])),
        (action_from_json, _with(_FLIP, ["algebra", "blocks"], [1.5, 1])),
        (action_from_json, _with(_FLIP, ["algebra", "blocks"], [0, 1])),
        (action_from_json, _with(_FLIP, ["auts", "1", "perm"], "ab")),
        (action_from_json, _with(_FLIP, ["auts", "1", "perm"], [1, 2])),
        (action_from_json, _with(_FLIP, ["auts", "1", "perm"], [1.0, 0])),
        (action_from_json, _with(_FLIP, ["auts", "1", "unitaries"], 5)),
        (action_from_json, _with(_FLIP, ["auts"], [])),
        (action_from_json, _with(_FLIP, ["group", "identity"], "0")),
        (action_from_json, _with(_FLIP, ["group", "identity"], 7)),
        (action_from_json, _with(_FLIP, ["group", "identity"], False)),
        (action_from_json, _with(_FLIP, ["group", "table"], [[0.4, 1.2], [1.0, 0.0]])),
        (action_from_json, _with(_FLIP, ["group", "table"], [[0, 5], [1, 0]])),
        (action_from_json, _with(_FLIP, ["group", "table"], "ab")),
        (action_from_json, {"group": _FLIP["group"], "maps": []}),
        (action_from_json, {"group": _FLIP["group"], "maps": {"0": {"a": "a"}, "1": [["a", "a"]]}}),
        (covariant_from_json, _with(_COVARIANT, ["unitaries"], [[[[1.0, 0.0]]]] * 2)),
        (action_from_json, _with(_FLIP, ["auts", "1", "unitaries"], [[[[1.0, 0.0]]]])),
        (action_from_json, _with(_FLIP, ["auts", "1", "unitaries"], [[[[1.0, 0.0]]]] * 3)),
        (action_from_json, _with(_FLIP, ["auts", "1", "unitaries"], [_I2, [[[1.0, 0.0]]]])),
        (rep_from_json, _with(_REP, ["generators", "a"], _I2)),
        (covariant_from_json, _with(_COVARIANT, ["unitaries", "1"], _I2)),
        (crossed_element_from_json, {"action_ref": _FLIP, "coeffs": []}),
        (crossed_element_from_json, {"action_ref": _FLIP, "coeffs": {"0": 5}}),
        (crossed_element_from_json, {"action_ref": _FLIP, "coeffs": {"0": {"blocks": 5}}}),
        (crossed_element_from_json, {"action_ref": _FLIP, "coeffs": {"0": {"blocks": [[[[1.0, 0.0]]]]}}}),
        (crossed_element_from_json, {"action_ref": _FLIP, "coeffs": {"0": {"blocks": [_I2, [[[1.0, 0.0]]]]}}}),
    ],
    ids=[
        "dim-string", "dim-float", "dim-bool", "dim-zero", "generators-list",
        "blocks-string", "blocks-float", "blocks-zero",
        "perm-string", "perm-out-of-range", "perm-float", "unitaries-number", "auts-list",
        "identity-string", "identity-out-of-range", "identity-bool",
        "table-floats", "table-out-of-range", "table-string",
        "maps-list", "map-list", "covariant-unitaries-list",
        "aut-unitaries-too-few", "aut-unitaries-too-many", "block-unitary-shape",
        "generator-shape", "covariant-unitary-shape",
        "coeffs-list", "coefficient-number", "coefficient-blocks-number", "coefficient-too-few-blocks",
        "coefficient-block-shape",
    ],
)
def test_loaders_refuse_malformed_integer_and_object_fields(load, doc):
    with pytest.raises(SchemaError):
        load(doc)


def _drift_action(u):
    """Z2 on M2 whose nontrivial automorphism is Ad(u)."""
    one = matrix_to_json(np.eye(2))
    return {**_FLIP, "algebra": {"blocks": [2]},
            "auts": {"0": {"perm": [0], "unitaries": [one]}, "1": {"perm": [0], "unitaries": [matrix_to_json(u)]}}}


_LOADERS = {
    "staraut": lambda doc, tol: staraut_from_json(doc["auts"]["1"], MatAlg([2]), tol),
    "action": lambda doc, tol: action_from_json(doc, tol),
    "covariant": lambda doc, tol: covariant_from_json(
        {"dim": 2, "generators": {"a": _I2}, "action_ref": doc, "unitaries": {"0": _I2, "1": _I2}}, tol=tol
    ),
    "crossed element": lambda doc, tol: crossed_element_from_json({"action_ref": doc, "coeffs": {}}, tol=tol),
}
# (u past the default bound and within a loosened one, u within the default
# bound and past a tightened one, the default bound, the tightened bound):
# diag(1 + delta, 1) misses U*U = 1 by 2 delta, and diag(1, -e^{i eps})
# misses Ad(u)^2 = id by about 2.8 eps
_DEFECTS = {
    "unitarity": (np.diag([1 + 5e-9, 1]), np.diag([1 + 5e-11, 1]), "2.000e-09", "2.000e-12"),
    "homomorphism": (np.diag([1, -np.exp(5e-6j)]), np.diag([1, -np.exp(5e-8j)]), "4.000e-06", "4.000e-09"),
}


@pytest.mark.parametrize(
    "loader, defect",
    [("staraut", "unitarity"), ("action", "unitarity"), ("covariant", "unitarity"), ("crossed element", "unitarity"),
     ("action", "homomorphism"), ("covariant", "homomorphism"), ("crossed element", "homomorphism")],
)
def test_loaders_validate_at_the_tolerance_they_are_given(loader, defect):
    load, (coarse, fine, default_bound, tight_bound) = _LOADERS[loader], _DEFECTS[defect]
    with pytest.raises(InvariantViolation, match=f"bound {default_bound}"):
        load(_drift_action(coarse), DEFAULT_TOL)
    load(_drift_action(coarse), Tolerance(1e-7, 1e-6, 1e-4))
    load(_drift_action(fine), DEFAULT_TOL)
    with pytest.raises(InvariantViolation, match=f"bound {tight_bound}"):
        load(_drift_action(fine), Tolerance(1e-12, 1e-10))


def test_loader_fixtures_are_well_formed():
    assert rep_from_json(_REP).dim == 1
    assert action_from_json(_FLIP).algebra.block_dims == (1, 1)
    assert covariant_from_json(_COVARIANT).dim == 1


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


def test_model_json_defining_rep_is_psi_and_vg():
    model = build_crossed_model(rotation_action(3))
    doc = json.loads(json.dumps(model_to_json(model)))
    rep = doc["defining_rep"]
    assert rep["generators"] == doc["psi"] and rep["unitaries"] == doc["vg"]
    assert rep["action_ref"] == doc["action"] and rep["dim"] == doc["host_dim"]
    assert model.defining_covariant_rep() is model.defining_covariant_rep()


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
