"""The closed-form classes of a cyclic stabilizer skip the O(|K|^3) identity
check where lambda_0 passes the tighter certificate, which implies it.

Where the certificate fails, the identity check and then lambda_0's own
check run in that order, so every input gets the verdict and the message
of those two checks alone: the reference below runs them explicitly.
"""

import numpy as np
import pytest

import crossrep.reps
from crossrep.errors import CrossrepError
from crossrep.groups import make_cyclic_group
from crossrep.linalg import Tolerance
from crossrep.reps import _classes, _cyclic_classes, _require_cocycle
from crossrep.sampling import crossed_irreps, random_cyclic_action


def _outcome(classes_of, K, c, tol):
    """The class matrices ``classes_of(K, c, tol)`` returns, or (type, message) of its refusal."""
    try:
        return [lam.mats for lam in classes_of(K, c, tol)]
    except CrossrepError as error:
        return type(error), str(error)


def _two_checks(K, c, tol):
    """The closed form behind the identity check and lambda_0's check at
    ``identity_bound(1)``, run unconditionally in that order."""
    _require_cocycle(K, c, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tolerance, "certificate_bound", lambda self, rho: -np.inf)
        return _cyclic_classes(K, c, K.cyclic_generator(), tol)


def _coboundary(K, rng):
    """c(a, b) = mu_a mu_b / mu_ab for random phases mu: an exact 2-cocycle."""
    mu = np.exp(2j * np.pi * rng.random(K.order))
    return mu[:, None] * mu[None, :] / mu[K.table]


def _counted_identity_checks(monkeypatch):
    calls = []
    require_cocycle = crossrep.reps._require_cocycle

    def counted(*args):
        calls.append(args)
        return require_cocycle(*args)

    monkeypatch.setattr(crossrep.reps, "_require_cocycle", counted)
    return calls


def test_a_certified_cyclic_stabilizer_runs_no_identity_check(monkeypatch, tol):
    act = random_cyclic_action(64, [1], np.random.default_rng(0))
    calls = _counted_identity_checks(monkeypatch)
    assert len(crossed_irreps(act, tol=tol)) == 64
    assert calls == []


def test_a_near_cocycle_runs_the_identity_check_once(monkeypatch, tol):
    K = make_cyclic_group(64)
    c = _coboundary(K, np.random.default_rng(1))
    c[3, 5] *= np.exp(3e-6j)
    calls = _counted_identity_checks(monkeypatch)
    outcome = _outcome(_classes, K, c, tol)
    assert len(calls) == 1 and isinstance(outcome, tuple)


@pytest.mark.parametrize("n", [5, 8, 64])
def test_near_cocycles_get_the_verdict_and_message_of_the_two_checks(n, tol):
    # one entry off by an angle of 1e-7 to 1e-5 rad, around both bounds
    K, rng = make_cyclic_group(n), np.random.default_rng(n)
    verdicts = set()
    for _ in range(40):
        c = _coboundary(K, rng)
        a, b = rng.integers(n, size=2)
        c[a, b] *= np.exp(1j * 10 ** rng.uniform(-7, -5))
        got, want = _outcome(_classes, K, c, tol), _outcome(_two_checks, K, c, tol)
        if isinstance(want, tuple):
            assert got == want
            verdicts.add(want[1].split(" at ")[0])
        else:
            assert not isinstance(got, tuple) and all(np.array_equal(x, y) for x, y in zip(got, want))
            verdicts.add("accepted")
    # the sweep reaches the acceptance and the identity check's refusal
    assert {"accepted", "matrices are not scalar multiples of each other"} <= verdicts


def test_the_certificate_implies_both_checks_at_every_scale():
    # at |lambda| = rho the bound stays within identity_bound(1), and its
    # triple defect 4 d / rho^3 + 2 d^2 / rho^4 within 9/10 of it
    for abs_eps in (1e-16, 1e-12, 1e-9, 1e-7, 1e-3, 0.5):
        tol = Tolerance(abs_eps=abs_eps, eig_sep=1.0)
        B = tol.identity_bound(1.0)
        for rho in (1e-3, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0, 1e3):
            d = tol.certificate_bound(rho)
            assert 0 < d <= B and 4 * d / rho**3 + 2 * d**2 / rho**4 <= 0.9 * B * (1 + 1e-12)
    for rho in (0.0, np.nan):
        assert Tolerance().certificate_bound(rho) == -np.inf
