import json
import tracemalloc

import numpy as np
import pytest

from crossrep.algebra import GroupAction, LabelAction, MatAlg, StarAut
from crossrep.cli import main
from crossrep.crossed import build_crossed_model
from crossrep.examples import (
    expermutation2_example,
    first_s3_example,
    rotation_action,
    s3_label_action,
    torus_orbit_evaluation,
)
from crossrep.groups import make_cyclic_group, S3_ETA, S3_TAU
from crossrep.linalg import Tolerance
from crossrep.reps import (
    CovariantRep,
    Rep,
    direct_sum_reps,
    regular_representation,
    rep_compose,
    rep_from_images,
)
from crossrep.sampling import random_cyclic_action
from crossrep.serialize import (
    action_to_json,
    covariant_to_json,
    model_to_json,
    rep_to_json,
)


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _flip_action():
    A = MatAlg([1, 1])
    return GroupAction(
        make_cyclic_group(2),
        A,
        [StarAut.identity(A), StarAut(A, (1, 0), [np.eye(1)] * 2)],
    )


def _z6_action():
    # Z6 on blocks [3, 3]: host dimension 36
    return random_cyclic_action(6, [3, 3], np.random.default_rng(0))


@pytest.fixture
def flip_action_file(tmp_path):
    return _write(tmp_path / "flip.json", action_to_json(_flip_action()))


def test_build_crossed_flip(tmp_path, capsys, flip_action_file):
    out = tmp_path / "model.json"
    code = main(["build-crossed", "--action", flip_action_file, "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["span_dim"] == 4
    model_doc = json.loads(out.read_text())
    assert model_doc["model"]["span_dim"] == 4
    assert model_doc["seed"] == 42


def test_build_crossed_trivial_group(tmp_path, capsys):
    A = MatAlg([2, 1])
    act = GroupAction(make_cyclic_group(1), A, [StarAut.identity(A)])
    action_file = _write(tmp_path / "triv.json", action_to_json(act))
    out = tmp_path / "model.json"
    assert main(["build-crossed", "--action", action_file, "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["span_dim"] == A.linear_dim


def test_build_crossed_rotation_q3(tmp_path, capsys):
    action_file = _write(tmp_path / "rot.json", action_to_json(rotation_action(3)))
    alg_file = _write(tmp_path / "alg.json", {"blocks": [1, 1, 1]})
    out = tmp_path / "model.json"
    code = main(
        ["build-crossed", "--algebra", alg_file, "--action", action_file, "--out", str(out)]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["span_dim"] == 9


@pytest.mark.parametrize(
    "make_action", [_flip_action, lambda: rotation_action(3), _z6_action], ids=["flip", "rotation3", "z6-host36"]
)
def test_build_crossed_writes_the_model_on_one_line(tmp_path, capsys, make_action):
    act = make_action()
    out = tmp_path / "model.json"
    assert main(["build-crossed", "--action", _write(tmp_path / "a.json", action_to_json(act)), "--out", str(out)]) == 0
    text = out.read_text()
    assert "\n" not in text
    want = json.loads(json.dumps(model_to_json(build_crossed_model(act)), sort_keys=True, indent=2))
    assert json.loads(text)["model"] == want


def test_build_crossed_host_36_stays_small_in_memory(tmp_path, capsys):
    action_file = _write(tmp_path / "a.json", action_to_json(_z6_action()))
    tracemalloc.start()
    try:
        code = main(["build-crossed", "--action", action_file, "--out", str(tmp_path / "model.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # load, build and write together; an indented dump of the same model peaks near 27 MB
    assert peak < 12 * 2**20


def test_build_crossed_validates_the_action_at_the_flag_tolerance(tmp_path, capsys):
    # Z2 on M2 whose block unitary misses U*U = 1 by 1e-8, and by 1e-10
    A, loose = MatAlg([2]), Tolerance(1e-7, 1e-6, 1e-4)
    for delta, name in ((5e-9, "coarse"), (5e-11, "fine")):
        aut = StarAut(A, [0], [np.diag([1 + delta, 1])], loose)
        act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), aut], loose)
        _write(tmp_path / f"{name}.json", action_to_json(act))

    def build(name, *flags):
        action = str(tmp_path / f"{name}.json")
        return main([*flags, "build-crossed", "--action", action, "--out", str(tmp_path / "m.json")])

    assert build("coarse") == 3
    assert "bound 2.000e-09" in json.loads(capsys.readouterr().err)["error"]
    assert build("coarse", "--abs-eps", "1e-7", "--rank-eps", "1e-6", "--eig-sep", "1e-4") == 0
    assert build("fine") == 0
    capsys.readouterr()
    assert build("fine", "--abs-eps", "1e-12", "--rank-eps", "1e-10") == 3
    assert "bound 2.000e-12" in json.loads(capsys.readouterr().err)["error"]


def test_build_crossed_algebra_mismatch(tmp_path, capsys, flip_action_file):
    alg_file = _write(tmp_path / "alg.json", {"blocks": [2]})
    out = tmp_path / "model.json"
    code = main(
        ["build-crossed", "--algebra", alg_file, "--action", flip_action_file, "--out", str(out)]
    )
    assert code == 2


def test_equiv_verdicts(tmp_path, capsys):
    pi = expermutation2_example()
    act = s3_label_action()
    f1 = _write(tmp_path / "pi.json", rep_to_json(pi))
    f_tau = _write(tmp_path / "tau.json", rep_to_json(rep_compose(pi, act, S3_TAU)))
    f_eta = _write(tmp_path / "eta.json", rep_to_json(rep_compose(pi, act, S3_ETA)))
    assert main(["equiv", f1, f_tau]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["verdict"] == "inequivalent"
    assert main(["equiv", f1, f_eta]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["verdict"] == "equivalent"
    assert "witness" in doc["result"]


def test_equiv_reducible_exit_4(tmp_path, capsys):
    pi = expermutation2_example()
    f1 = _write(tmp_path / "d.json", rep_to_json(direct_sum_reps([pi, pi])))
    f2 = _write(tmp_path / "pi.json", rep_to_json(pi))
    code = main(["equiv", f1, f2])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["decompositions"]["rep1"] == [{"dim": 3, "multiplicity": 2}]


def test_decompose_multiplicity(tmp_path, capsys):
    pi = expermutation2_example()
    f = _write(tmp_path / "d.json", rep_to_json(direct_sum_reps([pi, pi])))
    assert main(["decompose", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    comps = doc["result"]["components"]
    assert [(c["dim"], c["multiplicity"]) for c in comps] == [(3, 2)]


def test_analyze_s3_regular(tmp_path, capsys):
    act, pi = torus_orbit_evaluation()
    reg = regular_representation(pi, act)
    f = _write(tmp_path / "reg.json", covariant_to_json(reg))
    assert main(["analyze", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["kind"] == "s3-class"
    assert doc["result"]["case"] == "Regular6"


def test_analyze_s3_without_group_labels(tmp_path, capsys):
    from crossrep.sampling import crossed_irreps, random_s3_action

    # group labels are optional in JSON; the S3 case is chosen by the table
    cov = crossed_irreps(random_s3_action(np.random.default_rng(3), "permutation"))[0]
    doc = covariant_to_json(cov)
    labeled = _write(tmp_path / "labeled.json", doc)
    del doc["action_ref"]["group"]["labels"]
    unlabeled = _write(tmp_path / "unlabeled.json", doc)
    kinds = []
    for f in (labeled, unlabeled):
        assert main(["analyze", f]) == 0
        kinds.append(json.loads(capsys.readouterr().out)["result"])
    assert kinds[0]["kind"] == kinds[1]["kind"] == "s3-class"
    assert kinds[0]["case"] == kinds[1]["case"]


def test_analyze_cyclic_dispatch(tmp_path, capsys):
    from crossrep.examples import cute_example

    act, cov = cute_example()
    f = _write(tmp_path / "cute.json", covariant_to_json(cov))
    assert main(["analyze", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["kind"] == "cyclic-report"
    assert doc["result"]["m"] == 2 and doc["result"]["k"] == 2


def test_analyze_generic_dispatch(tmp_path, capsys):
    from crossrep.examples import weyl_pair_homogeneous

    # Z2 x Z2 is neither S3 nor a standard cyclic group
    f = _write(tmp_path / "weyl.json", covariant_to_json(weyl_pair_homogeneous(2)))
    assert main(["analyze", f]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["kind"] == "structure-report"
    assert result["multiplicity_r"] == 2
    assert result["subgroup_members"] == [0, 1, 2, 3]
    assert result["index_m"] == 1


def test_analyze_reducible_exit_4(tmp_path, capsys):
    A = MatAlg([1, 1, 1])
    flip = StarAut(A, (1, 0, 2), [np.eye(1)] * 3)
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), flip])
    pi = rep_from_images(A, lambda e: e.blocks[2])
    reg = regular_representation(pi, act)
    f = _write(tmp_path / "red.json", covariant_to_json(reg))
    code = main(["analyze", f])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    assert "decomposition" in doc
    # the trivial and sign characters of Z2, the algebra acting by evaluation
    assert doc["decomposition"] == [{"dim": 1, "multiplicity": 1}] * 2


def test_analyze_reducible_label_action_exit_4(tmp_path, capsys):
    reg = regular_representation(first_s3_example(), s3_label_action())
    f = _write(tmp_path / "red.json", covariant_to_json(reg))
    assert main(["analyze", f]) == 4
    doc = json.loads(capsys.readouterr().out)
    # the two swapped halves of the 12-dim regular representation
    assert doc["decomposition"] == [{"dim": 6, "multiplicity": 1}] * 2


def _swap_ab_covariant(generators, U1):
    # Z2 swapping the labels a and b on two diagonal projections
    act = LabelAction(make_cyclic_group(2), [{"a": "a", "b": "b"}, {"a": "b", "b": "a"}])
    base = Rep(2, dict(zip(generators, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])))
    return CovariantRep(base, act, [np.eye(2), np.asarray(U1, dtype=complex)])


def test_analyze_unmapped_label_exit_3(tmp_path, capsys):
    # generator c is not a label of the action: a LabelMismatch, as over a
    # GroupAction, not a KeyError (exit 5)
    f = _write(tmp_path / "unmapped.json", covariant_to_json(_swap_ab_covariant(["a", "c"], np.diag([1.0, -1.0]))))
    assert main(["analyze", f]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "generator 'c' is not a label the action maps", "exit": 3}


@pytest.mark.parametrize("labels", [["x", "x"], "ab"])
def test_group_labels_that_are_not_distinct_strings_exit_2(tmp_path, capsys, labels):
    # ["x", "x"] named both unitaries U[x]; "ab" was split into characters
    # the swap is covariant and irreducible under the default labels
    doc = covariant_to_json(_swap_ab_covariant(["a", "b"], [[0, 1], [1, 0]]))
    assert main(["analyze", _write(tmp_path / "swap.json", doc)]) == 0
    capsys.readouterr()
    doc["action_ref"]["group"]["labels"] = labels
    f = _write(tmp_path / "labels.json", doc)
    assert main(["analyze", f]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "labels must be a list of 2 distinct strings"


@pytest.mark.parametrize("value", [["b"], 7])
def test_label_map_with_a_non_string_value_exits_2(tmp_path, capsys, value):
    # a list value reached the set of images in LabelAction (exit 5), a number
    # its bijection check (exit 3)
    doc = covariant_to_json(_swap_ab_covariant(["a", "b"], [[0, 1], [1, 0]]))
    doc["action_ref"]["maps"]["1"]["a"] = value
    f = _write(tmp_path / "map.json", doc)
    assert main(["analyze", f]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "label map for element 1 must map to strings", "exit": 2}


def test_analyze_zero_algebra_part_exit_3(tmp_path, capsys):
    A = MatAlg([1, 1])
    flip = StarAut(A, (1, 0), [np.eye(1)] * 2)
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), flip])
    base = rep_from_images(A, lambda e: np.zeros((1, 1)))
    f = _write(tmp_path / "zero.json", covariant_to_json(CovariantRep(base, act, [[[1]], [[-1]]])))
    assert main(["analyze", f]) == 3
    assert "annihilates the algebra" in json.loads(capsys.readouterr().err)["error"]


def _phase_drift_covariant(delta):
    """Z2 acting on M16 by Ad(u), u = diag(1^8, -1^8), with the defining
    representation and U_1 = e^{i delta} u.  The phase cancels in covariance
    and in every character sum, so the input passes ``validate``; it stays
    in Lambda_1 = e^{i delta}, off the relation Lambda_1^2 = 1 by 2 sin delta."""
    A = MatAlg([16])
    u = np.diag([1.0] * 8 + [-1.0] * 8)
    act = GroupAction(make_cyclic_group(2), A, [StarAut.identity(A), StarAut(A, [0], [u])])
    return CovariantRep(rep_from_images(A, lambda e: e.to_matrix()), act, [np.eye(16), np.exp(1j * delta) * u])


def test_analyze_phase_drift_is_an_invariant_failure_with_its_margin(tmp_path, capsys):
    cov = _phase_drift_covariant(6e-7)
    cov.validate()
    assert main(["analyze", _write(tmp_path / "drift.json", covariant_to_json(cov))]) == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["exit"] == 3
    assert doc["error"] == (
        "matrices are not scalar multiples of each other at pair (1,1): residual 1.200e-06 > bound 1.000e-06"
    )
    # at half the drift the pair passes, and Lambda is refused where it is
    # read against the two classes of Z2: its character product with the
    # class it is not, (1 - e^{i delta}) / 2, is off 0 by sin(delta / 2)
    assert main(["analyze", _write(tmp_path / "half.json", covariant_to_json(_phase_drift_covariant(3e-7)))]) == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["exit"] == 3
    assert doc["error"].startswith("character sum ")
    assert doc["error"].endswith(" is not a dimension: 1.500e-07 from 0, bound rank_eps*scale = 1.000e-08")


def test_action_ref_path_resolution(tmp_path, capsys):
    from crossrep.examples import cute_example

    act, cov = cute_example()
    _write(tmp_path / "action.json", action_to_json(act))
    doc = covariant_to_json(cov)
    doc["action_ref"] = "action.json"
    f = _write(tmp_path / "cov.json", doc)
    assert main(["analyze", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["m"] == 2


def test_schema_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["decompose", str(bad)]) == 2
    assert main(["decompose", str(tmp_path / "missing.json")]) == 2


def test_non_finite_matrix_entry_exit_2(tmp_path, capsys):
    f = tmp_path / "nan.json"
    f.write_text(json.dumps({"dim": 1, "generators": {"a": [[[float("nan"), 0.0]]]}}))
    assert main(["decompose", str(f)]) == 2
    assert "finite numbers" in json.loads(capsys.readouterr().err)["error"]


def test_malformed_integer_fields_exit_2(tmp_path, capsys):
    # "x" and 1.5 used to reach int(): an internal error (exit 5) and a
    # silent truncation to a block of dimension 1 (exit 0)
    rep = _write(tmp_path / "rep.json", {"dim": "x", "generators": {"a": [[[1.0, 0.0]]]}})
    assert main(["decompose", rep]) == 2
    assert "dim must be a positive integer" in json.loads(capsys.readouterr().err)["error"]
    doc = action_to_json(_flip_action())
    doc["algebra"]["blocks"] = [1.5, 1]
    action = _write(tmp_path / "action.json", doc)
    assert main(["build-crossed", "--action", action, "--out", str(tmp_path / "m.json")]) == 2
    assert "blocks must be a nonempty list of positive integers" in json.loads(capsys.readouterr().err)["error"]


def test_malformed_matrix_counts_and_shapes_exit_2(tmp_path, capsys):
    # a short unitaries list was an IndexError (exit 5), a wrong shape a
    # DimensionMismatch (exit 3): both are malformed input
    doc = action_to_json(_flip_action())
    doc["auts"]["1"]["unitaries"] = doc["auts"]["1"]["unitaries"][:1]
    action = _write(tmp_path / "short.json", doc)
    assert main(["build-crossed", "--action", action, "--out", str(tmp_path / "m.json")]) == 2
    assert "one per block" in json.loads(capsys.readouterr().err)["error"]
    rep = _write(tmp_path / "rep.json", {"dim": 1, "generators": {"a": [[[1.0, 0.0], [0.0, 0.0]]] * 2}})
    assert main(["decompose", rep]) == 2
    assert "generator 'a' must be 1x1" in json.loads(capsys.readouterr().err)["error"]


def test_invariant_error_exit_3(tmp_path, capsys):
    # a 3-cycle cannot generate a Z_2 action: homomorphism check fails
    A = MatAlg([1, 1, 1])
    bad = {
        "group": {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0},
        "algebra": {"blocks": [1, 1, 1]},
        "auts": {
            "0": {"perm": [0, 1, 2], "unitaries": [[[[1.0, 0.0]]]] * 3},
            "1": {"perm": [1, 2, 0], "unitaries": [[[[1.0, 0.0]]]] * 3},
        },
    }
    f = _write(tmp_path / "bad_action.json", bad)
    out = tmp_path / "m.json"
    assert main(["build-crossed", "--action", f, "--out", str(out)]) == 3


def test_reports_embed_seed_and_tolerances(tmp_path, capsys):
    pi = expermutation2_example()
    f = _write(tmp_path / "pi.json", rep_to_json(pi))
    assert main(["--seed", "7", "--abs-eps", "1e-10", "decompose", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 7
    assert doc["tolerances"]["abs_eps"] == 1e-10
    assert doc["version"]
    assert doc["tool"] == "crossrep"


@pytest.mark.parametrize("seed", ["-1", "-7", "x", "1.5"])
def test_a_seed_that_is_no_non_negative_integer_is_a_usage_error(tmp_path, capsys, seed):
    # numpy refused -1 inside the split of a reducible representation: an
    # internal error (exit 5) instead of a usage error
    f = _write(tmp_path / "red.json", rep_to_json(Rep(2, {"a": np.diag([1.0, 2.0])})))
    with pytest.raises(SystemExit) as err:
        main(["--seed", seed, "decompose", f])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["--seed", "0", "decompose", f]) == 0


@pytest.mark.parametrize("flags", [["--rank-eps", "inf"], ["--eig-sep", "inf"], ["--rank-eps", "1e300"],
                                   ["--abs-eps", "1e200", "--eig-sep", "1e300"]])
def test_a_flag_that_is_no_tolerance_is_a_usage_error(capsys, flags):
    # each ran the examples: rank_eps = inf to the false verdict "first
    # representation is reducible" (exit 4), eig_sep = inf to exit 5, and
    # the two large values to an OverflowError squaring them (exit 5)
    assert main([*flags, "--format", "text", "verify-examples"]) == 2
    message = "tolerances must have abs_eps < 1, rank_eps < 1/2 and a finite eig_sep"
    assert json.loads(capsys.readouterr().err) == {"error": message, "exit": 2}


def test_json_output_is_byte_identical(tmp_path, capsys):
    pi = expermutation2_example()
    f = _write(tmp_path / "d.json", rep_to_json(direct_sum_reps([pi, pi])))
    assert main(["--seed", "9", "decompose", f]) == 0
    first = capsys.readouterr().out
    assert main(["--seed", "9", "decompose", f]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_text_format(tmp_path, capsys):
    pi = expermutation2_example()
    f = _write(tmp_path / "pi.json", rep_to_json(pi))
    assert main(["--format", "text", "decompose", f]) == 0
    out = capsys.readouterr().out
    assert "tool: crossrep" in out
    assert "components" in out


def test_text_complex_formatting():
    from crossrep.serialize import format_complex

    assert format_complex(1.23456789 + 2j) == "1.23457+2i"
    assert format_complex(-0.0 + 0.0j) == "0+0i"
    assert format_complex(0.5 - 0.25j) == "0.5-0.25i"


def test_verify_examples_cli(capsys):
    assert main(["--format", "text", "verify-examples"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 10
    assert "FAIL" not in out
