import numpy as np
import pytest

from crossrep.algebra import (
    AlgElement,
    GroupAction,
    LabelAction,
    MatAlg,
    StarAut,
    restrict_action,
)
from crossrep.errors import DimensionMismatch, InvariantViolation
from crossrep.examples import cute_example, s3_label_action, torus_orbit_action
from crossrep.groups import make_cyclic_group, subgroup_closure
from crossrep.linalg import random_unitary


def test_matalg_dimensions():
    A = MatAlg([2, 1, 3])
    assert A.defining_dim == 6
    assert A.linear_dim == 4 + 1 + 9
    assert len(A.basis_labels()) == A.linear_dim


def test_basis_labels_are_a_fresh_list_each_call():
    A = MatAlg([2, 1])
    labels = A.basis_labels()
    assert labels == ["b0_00", "b0_01", "b0_10", "b0_11", "b1_00"]
    labels.append("x")
    assert MatAlg([2, 1]).basis_labels() == labels[:-1]


def test_basis_labels_unique_from_dimension_12():
    # up to dimension 11 the labels keep the b{k}_{i}{j} form stored files use
    small = MatAlg([11, 3])
    assert small.basis_labels() == [
        f"b{k}_{i}{j}" for k, d in enumerate((11, 3)) for i in range(d) for j in range(d)
    ]
    labels = MatAlg([12, 2]).basis_labels()
    assert len(set(labels)) == len(labels) == 144 + 4
    assert {"b0_1_11", "b0_11_1", "b0_1_10", "b0_11_0", "b1_01"} <= set(labels)


def test_matalg_rejects_bad_dims():
    with pytest.raises(InvariantViolation):
        MatAlg([])
    with pytest.raises(InvariantViolation):
        MatAlg([2, 0])


def test_coeffs_roundtrip(rng):
    A = MatAlg([2, 3])
    x = A.random_element(rng)
    y = A.from_coeffs(x.coeffs())
    assert np.linalg.norm((x - y).coeffs()) == 0


def test_element_arithmetic_matches_block_diagonal(rng):
    A = MatAlg([2, 3])
    x, y = A.random_element(rng), A.random_element(rng)
    assert np.allclose((x * y).to_matrix(), x.to_matrix() @ y.to_matrix())
    assert np.allclose((x + y).to_matrix(), x.to_matrix() + y.to_matrix())
    assert np.allclose(x.adjoint().to_matrix(), x.to_matrix().conj().T)
    assert np.allclose((2j * x).to_matrix(), 2j * x.to_matrix())


def test_element_shape_check():
    A = MatAlg([2, 2])
    with pytest.raises(DimensionMismatch):
        AlgElement(A, [np.eye(2), np.eye(3)])


def test_staraut_apply_is_multiplicative_and_star(rng):
    A = MatAlg([2, 2, 1])
    W = random_unitary(2, rng)
    aut = StarAut(A, (1, 0, 2), [W, np.eye(2), np.eye(1)])
    for _ in range(5):
        x, y = A.random_element(rng), A.random_element(rng)
        lhs = aut.apply(x * y)
        rhs = aut.apply(x) * aut.apply(y)
        assert np.linalg.norm((lhs - rhs).coeffs()) < 1e-12
        assert np.linalg.norm(
            (aut.apply(x.adjoint()) - aut.apply(x).adjoint()).coeffs()
        ) < 1e-12


def test_staraut_compose_and_inverse(rng):
    A = MatAlg([2, 2])
    a = StarAut(A, (1, 0), [random_unitary(2, rng), random_unitary(2, rng)])
    b = StarAut(A, (0, 1), [random_unitary(2, rng), random_unitary(2, rng)])
    x = A.random_element(rng)
    lhs = a.compose(b).apply(x)
    rhs = a.apply(b.apply(x))
    assert np.linalg.norm((lhs - rhs).coeffs()) < 1e-12
    assert a.compose(a.inverse()).is_identity_map()
    assert a.inverse().compose(a).is_identity_map()


def test_staraut_rejects_bad_data(rng):
    A = MatAlg([2, 1])
    with pytest.raises(InvariantViolation):
        StarAut(A, (1, 0), [np.eye(2), np.eye(1)])  # unequal block dims
    with pytest.raises(InvariantViolation):
        StarAut(A, (0, 1), [np.array([[1, 1], [0, 1]]), np.eye(1)])  # not unitary
    for unitaries in ([np.eye(2)], [np.eye(2), np.eye(1), np.eye(1)]):
        with pytest.raises(DimensionMismatch, match="one unitary per block"):
            StarAut(A, (0, 1), unitaries)


def test_group_action_validates_composition():
    act, _ = cute_example()
    act.validate()  # fixture is exact


def test_group_action_rejects_non_homomorphism(rng):
    A = MatAlg([1, 1, 1])
    # a 3-cycle is not an involution, so it cannot give a Z_2 action
    bad = StarAut(A, (1, 2, 0), [np.eye(1)] * 3)
    with pytest.raises(InvariantViolation):
        GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), bad])


def test_group_action_rejects_nontrivial_identity():
    A = MatAlg([1, 1])
    swap = StarAut(A, (1, 0), [np.eye(1)] * 2)
    with pytest.raises(InvariantViolation):
        GroupAction(make_cyclic_group(2), A, [swap, swap])


def test_label_action_fixture_is_exact():
    act = s3_label_action()
    assert act.map_label(0, "U1") == "U1"


def test_label_action_rejects_non_homomorphism():
    G = make_cyclic_group(2)
    good = {"a": "a", "b": "b"}
    cycle3 = {"a": "b", "b": "a"}
    with pytest.raises(InvariantViolation):
        LabelAction(G, [good, {"a": "b", "b": "c"}])  # not a bijection on labels
    # identity map must fix labels
    with pytest.raises(InvariantViolation):
        LabelAction(G, [cycle3, good])


def test_restrict_action_grounds_subgroup():
    act = torus_orbit_action()
    G = act.group
    H = subgroup_closure(G, [1])  # the 3-cycle subgroup
    sub, members = restrict_action(act, H)
    assert members == [0, 1, 2]
    assert sub.group.order == 3
    x = act.algebra.random_element(np.random.default_rng(0))
    got = sub.auts[1].apply(x)
    want = act.auts[1].apply(x)
    assert np.linalg.norm((got - want).coeffs()) < 1e-12


def test_restrict_label_action():
    act = s3_label_action()
    H = subgroup_closure(act.group, [1])
    sub, members = restrict_action(act, H)
    assert sub.group.order == 3
    assert sub.map_label(1, "U1") == act.map_label(1, "U1")
