"""No analysis reads a seed.  ``decompose``, ``analyze``, ``cyclic_analyze``,
``classify_s3`` and ``covariant_equivalence`` split and witness along the
fixed matrices of ``reps._probes``, so on plain representations,
projective ones and covariant ones over a ``LabelAction`` their output is
array-equal at any seed and with none, and so is the CLI's JSON
``result`` at any ``--seed``.  Replacing the first probe by one that
splits or witnesses nothing sends the split and the witness through the
matrix units, which give the same decomposition and witness."""

import itertools
import json

import numpy as np
import pytest

import crossrep.reps
from crossrep.algebra import LabelAction
from crossrep.analyzer import analyze, classify_s3, cyclic_analyze
from crossrep.cli import main
from crossrep.examples import (
    cute_example,
    doubled_minimal_covariant,
    expermutation2_example,
    first_s3_example,
    inner_z8_minimal,
    minimal_covariant,
    minimal_example,
    product_cyclic_group,
    s3_label_action,
    torus_orbit_evaluation,
)
from crossrep.errors import DecompositionFailed
from crossrep.groups import S3_ETA, S3_TAU, make_cyclic_group, make_symmetric_group_3
from crossrep.linalg import Tolerance, random_unitary
from crossrep.reps import (
    CovariantRep,
    ProjectiveRep,
    Rep,
    covariant_equivalence,
    decompose,
    direct_sum_reps,
    regular_representation,
    rep_compose,
)
from crossrep.serialize import (
    covariant_to_json,
    cyclic_report_to_json,
    rep_to_json,
    s3_class_to_json,
    structure_report_to_json,
)

SEEDS = ({"seed": 0}, {"seed": 12345}, {})


def _regular_projective(K, c) -> ProjectiveRep:
    """The twisted regular representation L_a delta_x = c(a, x) delta_{ax}."""
    n = K.order
    L = np.zeros((n, n, n), dtype=complex)
    for a, x in itertools.product(range(n), repeat=2):
        L[a, K.table[a, x], x] = c[a, x]
    proj = ProjectiveRep(K, L, np.conj(c))
    proj.validate()
    return proj


def _weyl_regular() -> ProjectiveRep:
    """Z2 x Z2 with the cocycle (-1)^(a_1 x_2): two copies of the Weyl pair."""
    K = product_cyclic_group(2)
    first, second = np.divmod(np.arange(4), 2)
    return _regular_projective(K, (-1.0) ** np.outer(first, second))


def _s3_regular() -> ProjectiveRep:
    return _regular_projective(make_symmetric_group_3(), np.ones((6, 6)))


def _swap_covariant() -> CovariantRep:
    """Z2 swapping the labels of two diagonal projections, by the flip."""
    act = LabelAction(make_cyclic_group(2), [{"a": "a", "b": "b"}, {"a": "b", "b": "a"}])
    base = Rep(2, {"a": np.diag([1.0, 0.0]), "b": np.diag([0.0, 1.0])})
    return CovariantRep(base, act, [np.eye(2), np.fliplr(np.eye(2))])


def _conjugated(r, seed):
    return r.conjugate(random_unitary(r.dim, np.random.default_rng(seed)))


DECOMPOSE_CASES = {
    "first_s3": first_s3_example,
    "minimal": minimal_example,
    "expermutation2": expermutation2_example,
    "torus1 pi": lambda: torus_orbit_evaluation()[1],
    "minimal + minimal": lambda: direct_sum_reps([minimal_example()] * 2),
    "expermutation2 + expermutation2": lambda: direct_sum_reps([expermutation2_example()] * 2),
    "first + expermutation2 + first, rotated": lambda: _conjugated(
        direct_sum_reps([first_s3_example(), expermutation2_example(), first_s3_example()]), 7),
    "projective S3 regular": _s3_regular,
    "projective Z2xZ2 Weyl regular": _weyl_regular,
    "label minimal_covariant": minimal_covariant,
    "label doubled_minimal_covariant": doubled_minimal_covariant,
    "label swap": _swap_covariant,
    "label regular first_s3": lambda: regular_representation(first_s3_example(), s3_label_action()),
    "label regular minimal, rotated": lambda: _conjugated(
        regular_representation(minimal_example(), s3_label_action()), 3),
}

REPORT_CASES = {
    "analyze minimal_covariant": (analyze, minimal_covariant, structure_report_to_json),
    "analyze doubled_minimal_covariant": (analyze, doubled_minimal_covariant, structure_report_to_json),
    "analyze swap": (analyze, _swap_covariant, structure_report_to_json),
    "analyze rotated minimal_covariant": (analyze, lambda: _conjugated(minimal_covariant(), 5), structure_report_to_json),
    "classify_s3 minimal_covariant": (classify_s3, minimal_covariant, s3_class_to_json),
    "classify_s3 doubled_minimal_covariant": (classify_s3, doubled_minimal_covariant, s3_class_to_json),
    "classify_s3 rotated doubled": (classify_s3, lambda: _conjugated(doubled_minimal_covariant(), 11),
                                    s3_class_to_json),
    # a cyclic report needs a GroupAction; its seed is not read either
    "cyclic_analyze cute": (cyclic_analyze, lambda: cute_example()[1], cyclic_report_to_json),
    "cyclic_analyze inner_z8": (cyclic_analyze, lambda: inner_z8_minimal()[1], cyclic_report_to_json),
}


def _equivalence_pairs():
    act = s3_label_action()
    first, minimal = first_s3_example(), minimal_example()
    weyl = decompose(_weyl_regular()).components[0][0]
    return {
        "minimal, rotated": (minimal, _conjugated(minimal, 1)),
        "first, tau translate": (first, rep_compose(first, act, S3_TAU)),
        "first, eta translate": (first, rep_compose(first, act, S3_ETA)),
        "expermutation2, eta translate": (expermutation2_example(), rep_compose(expermutation2_example(), act, S3_ETA)),
        "projective Weyl pair, rotated": (weyl, _conjugated(weyl, 2)),
        "label minimal_covariant, rotated": (minimal_covariant(), _conjugated(minimal_covariant(), 4)),
        "label doubled, rotated": (doubled_minimal_covariant(), _conjugated(doubled_minimal_covariant(), 6)),
    }


EQUIVALENCE_CASES = _equivalence_pairs()


def _arrays(r) -> list:
    if isinstance(r, CovariantRep):
        return [r.base.stack, r.unitaries]
    return [r.stack]


def _assert_same_decomposition(a, b):
    assert [(r.dim, m) for r, m in a.components] == [(r.dim, m) for r, m in b.components]
    for (ra, _), (rb, _) in zip(a.components, b.components):
        assert all(np.array_equal(x, y) for x, y in zip(_arrays(ra), _arrays(rb)))
    assert np.array_equal(a.basis_change, b.basis_change)


@pytest.mark.parametrize("name", sorted(DECOMPOSE_CASES))
def test_decompose_is_array_equal_at_every_seed(name, tol):
    r = DECOMPOSE_CASES[name]()
    first, *rest = (decompose(r, tol=tol, **kw) for kw in SEEDS)
    for other in rest:
        _assert_same_decomposition(first, other)


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_reports_are_equal_at_every_seed(name, tol):
    analyzer, make, to_json = REPORT_CASES[name]
    Pi = make()
    first, *rest = (to_json(analyzer(Pi, tol=tol, **kw)) for kw in SEEDS)
    assert all(other == first for other in rest)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
def test_covariant_equivalence_is_array_equal_at_every_seed(name, tol):
    a, b = EQUIVALENCE_CASES[name]
    first, *rest = (covariant_equivalence(a, b, tol, **kw) for kw in SEEDS)
    for other in rest:
        assert other.equivalent == first.equivalent
        assert (other.witness is None) == (first.witness is None)
        if first.witness is not None:
            assert np.array_equal(other.witness, first.witness)


# per CLI command, the representations written to its input files
CLI_CASES = {
    "decompose sum": ("decompose", lambda: [DECOMPOSE_CASES["expermutation2 + expermutation2"]()]),
    "decompose rotated sum": ("decompose", lambda: [DECOMPOSE_CASES["first + expermutation2 + first, rotated"]()]),
    "decompose label regular": ("decompose", lambda: [DECOMPOSE_CASES["label regular first_s3"]()]),
    "equiv tau": ("equiv", lambda: EQUIVALENCE_CASES["first, tau translate"]),
    "equiv rotated": ("equiv", lambda: EQUIVALENCE_CASES["minimal, rotated"]),
    "analyze minimal": ("analyze", lambda: [minimal_covariant()]),
    "analyze doubled": ("analyze", lambda: [doubled_minimal_covariant()]),
    "analyze swap": ("analyze", lambda: [_swap_covariant()]),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_result_is_identical_at_every_seed(name, tmp_path, capsys):
    command, make = CLI_CASES[name]
    files = []
    for i, r in enumerate(make()):
        files.append(tmp_path / f"input{i}.json")
        files[-1].write_text(json.dumps(covariant_to_json(r) if isinstance(r, CovariantRep) else rep_to_json(r)))
    results = []
    for flags in (["--seed", "0"], ["--seed", "12345"], []):
        assert main([*flags, command, *map(str, files)]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[1] == results[0] and results[2] == results[0]


def _first_probe(monkeypatch, make_first):
    """Replace the first of ``reps._probes`` by ``make_first(m, n)`` and
    count the probes drawn."""
    original, drawn = crossrep.reps._probes, []

    def probes(m, n, split=False):
        for X in itertools.chain([make_first(m, n)], itertools.islice(original(m, n, split), 1, None)):
            drawn.append(X)
            yield X

    monkeypatch.setattr(crossrep.reps, "_probes", probes)
    return drawn


@pytest.mark.parametrize("make", [minimal_example, expermutation2_example, first_s3_example])
def test_a_scalar_first_probe_falls_back_to_the_matrix_units(make, monkeypatch, tol):
    pi = make()
    r = direct_sum_reps([pi, pi])
    want = decompose(r, tol=tol)
    drawn = _first_probe(monkeypatch, lambda m, n: np.eye(m, n, dtype=complex))
    got = decompose(r, tol=tol)
    # the identity projects onto a scalar, so a matrix unit split r
    assert len(drawn) > 1 and np.array_equal(drawn[0], np.eye(r.dim))
    assert [(c.dim, m) for c, m in got.components] == [(pi.dim, 2)] == [(c.dim, m) for c, m in want.components]
    Q = got.basis_change
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(r.dim)) < 1e-9
    # Q carries r onto two copies of the class representative
    copy, d = got.components[0][0].stack, pi.dim
    twice = np.zeros_like(r.stack)
    twice[:, :d, :d] = twice[:, d:, d:] = copy
    assert np.linalg.norm(r.conjugate(Q).stack - twice) < 1e-9


@pytest.mark.parametrize("name", ["minimal, rotated", "first, tau translate", "projective Weyl pair, rotated",
                                  "label minimal_covariant, rotated", "label doubled, rotated"])
def test_a_first_probe_orthogonal_to_hom_gives_the_same_witness(name, monkeypatch, tol):
    a, b = EQUIVALENCE_CASES[name]
    want = covariant_equivalence(a, b, tol).witness
    # W* X = diag(1, -1, 0, ...) is traceless, so X is orthogonal to
    # Hom = C W and projects to 0
    D = np.zeros((a.dim, a.dim), dtype=complex)
    D[0, 0], D[1, 1] = 1, -1
    drawn = _first_probe(monkeypatch, lambda m, n: want @ D)
    got = covariant_equivalence(a, b, tol).witness
    assert len(drawn) > 1
    assert np.abs(np.trace(want.conj().T @ drawn[0])) < 1e-12
    assert np.abs(got - want).max() < 1e-12


def _interleaved_probes(m, n):
    """Z, then E_ab and i E_ab for every (a, b) in row-major order: the
    probes a split and a witness once both read."""
    first, *units = crossrep.reps._probes(m, n)
    yield first
    for E in units:
        yield E
        yield 1j * E


def _read_by_the_split(i, n):
    """Whether the i-th of the interleaved probes is one the split reads: Z,
    E_ab for a <= b and i E_ab for a < b."""
    if i == 0:
        return True
    (a, b), twin = divmod((i - 1) // 2, n), (i - 1) % 2
    return a < b or (a == b and not twin)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_the_split_reads_the_interleaved_probes_less_the_ones_that_repeat(n):
    # E_ab for a > b and i E_ab for a >= b are left out: the Hermitian part
    # of each is, up to sign, that of a probe read before it, or zero, so
    # the first probe that splits is the same
    want = [X for i, X in enumerate(_interleaved_probes(n, n)) if _read_by_the_split(i, n)]
    got = list(crossrep.reps._probes(n, n, split=True))
    assert len(got) == len(want) == 1 + n * n
    assert all(np.array_equal(x, y) for x, y in zip(got, want))
    parts = [X + X.conj().T for X in got[1:]]
    assert all(np.abs(A - s * B).max() > 0 for i, A in enumerate(parts) for B in parts[:i] for s in (1, -1))
    assert all(np.abs(A).max() > 0 for A in parts)


def test_the_witness_reads_z_then_the_matrix_units():
    got = list(crossrep.reps._probes(2, 3))
    assert len(got) == 1 + 6
    assert all(np.array_equal(X, np.eye(1, 6, i).reshape(2, 3)) for i, X in enumerate(got[1:]))


def test_a_refused_split_of_dimension_16_reads_257_probes(monkeypatch):
    # eight copies of an irreducible of dimension 2 and no gap above eig_sep
    # on any probe: the refusal reads Z and the 256 split probes once each
    drawn, original = [], crossrep.reps._probes

    def counted(*args, **kwargs):
        for X in original(*args, **kwargs):
            drawn.append(X)
            yield X

    monkeypatch.setattr(crossrep.reps, "_probes", counted)
    r = direct_sum_reps([minimal_example()] * 8)
    with pytest.raises(DecompositionFailed, match="no eigenvalue gap above eig_sep along any probe of the commutant"):
        decompose(r, tol=Tolerance(eig_sep=1e6))
    assert len(drawn) == 257
