"""``unitary_eigenspaces`` against the complex Schur form it replaced.

The package reads a unitary's eigenvectors off a Hermitian eigenproblem,
its Cayley transform, with numpy alone.  The Schur route below, on
``scipy`` (a test dependency only), is the reference: on every input both
must find clusters of the same eigenvalues and dimensions spanning the same
eigenspaces, and the new route must list a cluster at 1 first.
"""

import numpy as np
import pytest

from crossrep.linalg import Tolerance, _cluster_unit_circle, random_unitary, unitary_eigenspaces

scipy_linalg = pytest.importorskip("scipy.linalg")

TOL = Tolerance()
SEP = TOL.eig_sep


def _schur_eigenspaces(U, tol):
    """The Schur-based route: U is normal, so its complex Schur form is
    diagonal and the Schur basis is an orthonormal eigenbasis."""
    T, Q = scipy_linalg.schur(U, output="complex")
    eigs = np.diag(T)
    out = []
    for cluster in _cluster_unit_circle(eigs, tol.eig_sep):
        val = np.mean(eigs[cluster])
        val = complex(val / abs(val))
        out.append((val, Q[:, sorted(cluster)]))
    out.sort(key=lambda pair: np.mod(np.angle(pair[0]), 2 * np.pi))
    return out


def _conjugated(angles, rng):
    W = random_unitary(len(angles), rng)
    return W @ np.diag(np.exp(1j * np.asarray(angles))) @ W.conj().T


def _kth_roots(rng):
    n, k = int(rng.integers(1, 13)), int(rng.integers(1, 9))
    return 2 * np.pi * rng.integers(0, k, size=n) / k


def _conjugate_pairs(rng):
    thetas = rng.uniform(0, np.pi, size=int(rng.integers(1, 7)))
    return np.concatenate([thetas, -thetas, rng.uniform(-np.pi, np.pi, size=rng.integers(0, 3))])


def _cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for i in range(240):
        angles = _kth_roots(rng) if i % 3 else _conjugate_pairs(rng)
        cases.append((f"random#{i}", _conjugated(angles, rng), None))
    # Haar unitaries: distinct eigenvalues anywhere on the circle, close
    # pairs near 1 and -1 included
    for i in range(30):
        cases.append((f"haar#{i}", random_unitary(int(rng.integers(1, 17)), rng), None))
    # 1 carrying a -1e-17 imaginary part, which sorts last by angle mod 2 pi
    one = complex(1.0, -1e-17)
    for i, rest in enumerate([[-1.0], [1j, -1j], [np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]]):
        cases.append((f"one-minus-1e-17#{i}", np.diag([*rest, one]), None))
        W = random_unitary(len(rest) + 1, rng)
        cases.append((f"one-conjugated#{i}", W @ np.diag([*rest, one]) @ W.conj().T, None))
    # close pairs at a random place on the circle, 1 included: eig_sep / 2
    # apart they merge, 2 eig_sep apart they split
    for i in range(40):
        base = 0.0 if i % 4 == 0 else rng.uniform(-np.pi, np.pi)
        step = SEP / 2 if i % 2 == 0 else 2 * SEP
        others = rng.uniform(-np.pi, np.pi, size=int(rng.integers(0, 4)))
        angles = [base, base + step, *others]
        cases.append((f"gap-{step / SEP:g}sep#{i}", _conjugated(angles, rng), step))
    # a cluster straddling angle 0: the wraparound merge
    for i in range(30):
        lo, hi = -rng.uniform(0, SEP / 2), rng.uniform(0, SEP / 2)
        others = rng.uniform(0.1, 2 * np.pi - 0.1, size=int(rng.integers(0, 4)))
        cases.append((f"wraparound#{i}", _conjugated([hi, *others, lo], rng), hi - lo))
    return cases


CASES = _cases()


def _projector(iso):
    return iso @ iso.conj().T


@pytest.mark.parametrize("name,U,close", CASES, ids=[c[0] for c in CASES])
def test_matches_schur_reference(name, U, close):
    got = unitary_eigenspaces(U, TOL)
    want = _schur_eigenspaces(U, TOL)
    assert len(got) == len(want)
    n = U.shape[0]
    Q = np.hstack([iso for _, iso in got])
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) < 1e-12
    for val, iso in got:
        # the reference cluster of the same eigenvalue
        ref_val, ref_iso = min(want, key=lambda pair: abs(pair[0] - val))
        assert abs(ref_val - val) < SEP
        assert iso.shape == ref_iso.shape
        # a cluster 2 eig_sep from its neighbour is resolved only to
        # eps / gap, by either route
        bound = 1e-12 if close is None or close < SEP else 1e-8
        assert np.linalg.norm(_projector(iso) - _projector(ref_iso)) < bound
        assert np.linalg.norm(U @ iso - val * iso) < 1e-12 + (close or 0.0)
    # ascending angle counted from -eig_sep, so a cluster at 1 comes first
    keys = [np.mod(np.angle(v) + SEP, 2 * np.pi) for v, _ in got]
    assert keys == sorted(keys)
    if any(abs(v - 1) < SEP for v, _ in want):
        assert abs(got[0][0] - 1) < SEP


CLOSE = [c for c in CASES if c[2] is not None]


@pytest.mark.parametrize("name,U,close", CLOSE, ids=[c[0] for c in CLOSE])
def test_close_pairs_merge_below_eig_sep_and_split_above(name, U, close):
    got = unitary_eigenspaces(U, TOL)
    dims = [iso.shape[1] for _, iso in got]
    if close < SEP:
        assert 2 in dims
    else:
        assert dims == [1] * U.shape[0]
