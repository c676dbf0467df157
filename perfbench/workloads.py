"""What one item of each workload runs, and how its output is checked.

An item is one action in ``enumerate_irreps``, one irreducible in
``analyze_irreps`` and one CLI invocation in ``cli_roundtrip``.  Checks
compare against the golden verdicts in ``data/golden.json`` and rebuild
the displayed block form from the report with this module's own algebra,
so a wrong answer is caught even when it is self-consistent.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import DATA_DIR, S3_LABELS, ActionSpec, CovSpec, cyclic_table, s3_table

# the criterion-7 reconstruction threshold of the acceptance suite
RECON_TOL = 1e-7


def load_golden(path: Path = DATA_DIR / "golden.json") -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def kind_of(spec: ActionSpec) -> str:
    """The CLI's dispatch: S3 classification, cyclic report or generic."""
    if spec.labels == S3_LABELS and np.array_equal(spec.table, s3_table()):
        return "s3"
    if np.array_equal(spec.table, cyclic_table(spec.order)):
        return "cyclic"
    return "generic"


# ---------------------------------------------------------------------------
# enumerate_irreps


def enumerate_verdict(spec: ActionSpec, irreps) -> dict:
    return {"dims": sorted(c.dim for c in irreps)}


def check_enumerate(spec: ActionSpec, verdict: dict, golden: dict) -> list[str]:
    errs = []
    if verdict["dims"] != golden["enumerate_irreps"][spec.name]:
        errs.append(f"{spec.name}: dims {verdict['dims']}")
    if sum(d * d for d in verdict["dims"]) != spec.order * spec.linear_dim:
        errs.append(f"{spec.name}: sum of dim^2 is not |G| dim A")
    return errs


# ---------------------------------------------------------------------------
# analyze_irreps


def analyze_item(cov, kind: str, seed: int):
    from crossrep import analyze, classify_s3, cyclic_analyze

    if kind == "s3":
        return classify_s3(cov, seed)
    if kind == "cyclic":
        return cyclic_analyze(cov, seed)
    return analyze(cov, seed)


def analyze_verdict(kind: str, dim: int, report) -> dict:
    if kind == "s3":
        return {"dim": dim, "case": report.case, "multiplicity": report.multiplicity, "pi1_dim": report.pi1.dim}
    base = report.base if kind == "cyclic" else report
    out = {
        "dim": dim,
        "stabilizer": base.subgroup.order,
        "multiplicity": base.multiplicity,
        "pi1_dim": base.base_irrep.dim,
    }
    if kind == "cyclic":
        out.update(m=report.m, k=report.k)
    return out


def translate(spec: ActionSpec, gens: dict, g: int) -> dict:
    """``pi o alpha_g`` for a representation given on the matrix units."""
    perm, us = spec.auts[g]
    out = {}
    for k, d in enumerate(spec.blocks):
        t = perm[k]
        U = us[t]
        units = np.array([[gens[f"b{t}_{a}{b}"] for b in range(d)] for a in range(d)])
        for i in range(d):
            for j in range(d):
                # alpha_g(e^k_ij) = sum_ab U[a,i] conj(U[b,j]) e^t_ab
                coeff = np.outer(U[:, i], U[:, j].conj())
                out[f"b{k}_{i}{j}"] = np.tensordot(coeff, units, axes=([0, 1], [0, 1]))
    return out


def _block_perm(pattern, blocks) -> np.ndarray:
    """Block (pattern[j], j) holds blocks[j]; every other block is zero."""
    s = blocks[0].shape[0]
    out = np.zeros((s * len(pattern),) * 2, dtype=complex)
    for j, i in enumerate(pattern):
        out[i * s : (i + 1) * s, j * s : (j + 1) * s] = blocks[j]
    return out


def block_form_residual(cov: CovSpec, C, pi1_gens, r, cosets, unitary_targets) -> float:
    """Largest deviation of ``C* Pi C`` from the displayed block form.

    The algebra must become the block diagonal of ``1_r (x) pi1 o alpha_g``
    over ``cosets``; ``unitary_targets[g]`` is the wanted ``C* Pi(U^g) C``.
    """
    n = cov.dim
    Ch = C.conj().T
    res = float(np.linalg.norm(Ch @ C - np.eye(n)))
    translates = [translate(cov.action, pi1_gens, g) for g in cosets]
    for label, M in cov.gens.items():
        want = np.zeros((n, n), dtype=complex)
        pos = 0
        for tr in translates:
            blk = np.kron(np.eye(r), tr[label])
            s = blk.shape[0]
            want[pos : pos + s, pos : pos + s] = blk
            pos += s
        res = max(res, float(np.linalg.norm(Ch @ M @ C - want)))
    for g, want in unitary_targets.items():
        res = max(res, float(np.linalg.norm(Ch @ cov.unitaries[g] @ C - want)))
    return res


def _report_residual(cov: CovSpec, rep, elements) -> float:
    targets = {g: _block_perm(rep.perms[g], rep.block_unitaries[g]) for g in elements}
    return block_form_residual(
        cov, rep.conjugator, rep.base_irrep.gens, rep.multiplicity, rep.coset_reps, targets
    )


def reconstruction_residual(cov: CovSpec, kind: str, report) -> float:
    if kind == "generic":
        return _report_residual(cov, report, range(cov.action.order))
    if kind == "cyclic":
        return _report_residual(cov, report.base, range(cov.action.order))
    case = report.case
    if case == "Minimal":
        return _report_residual(cov, report.report, range(6))
    if case == "EtaTriple":
        # the report is over the 3-cycle subgroup, whose elements keep
        # their S3 indices 0, 1, 2
        return _report_residual(cov, report.report, range(3))
    d = report.pi1.dim
    eye = np.eye(d, dtype=complex)
    if case == "TauPair":
        return block_form_residual(
            cov, report.conjugator, report.pi1.gens, 1, [0, 3], {3: _block_perm([1, 0], [eye, eye])}
        )
    # Regular6: block (i, j) of C* U_g C is the identity when g_j = g_i g
    table = cov.action.table
    targets = {}
    for g in range(6):
        pattern = [None] * 6
        for i in range(6):
            pattern[table[i, g]] = i
        targets[g] = _block_perm(pattern, [eye] * 6)
    return block_form_residual(cov, report.conjugator, report.pi1.gens, 1, range(6), targets)


def check_analyze(cov: CovSpec, kind: str, report, golden_row: dict) -> list[str]:
    errs = []
    verdict = analyze_verdict(kind, cov.dim, report)
    if verdict != golden_row:
        errs.append(f"{cov.name}: verdict {verdict} != {golden_row}")
    res = reconstruction_residual(cov, kind, report)
    if not res <= RECON_TOL:
        errs.append(f"{cov.name}: block-form residual {res:.2e}")
    return errs


# ---------------------------------------------------------------------------
# cli_roundtrip: wire-format writers and output readers


def _pairs(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def action_json(spec: ActionSpec) -> dict:
    return {
        "group": {"order": spec.order, "table": spec.table.tolist(), "identity": 0, "labels": spec.labels},
        "algebra": {"blocks": list(spec.blocks)},
        "auts": {
            str(g): {"perm": list(p), "unitaries": [_pairs(u) for u in us]}
            for g, (p, us) in enumerate(spec.auts)
        },
    }


def rep_json(gens: dict) -> dict:
    dim = next(iter(gens.values())).shape[0]
    return {"dim": dim, "generators": {l: _pairs(M) for l, M in sorted(gens.items())}}


def covariant_json(cov: CovSpec) -> dict:
    out = rep_json(cov.gens)
    out["action_ref"] = action_json(cov.action)
    out["unitaries"] = {str(g): _pairs(U) for g, U in enumerate(cov.unitaries)}
    return out


def joint_gens(cov: CovSpec) -> dict:
    """Algebra generators plus the group unitaries, as one generating set."""
    gens = dict(cov.gens)
    for g, U in enumerate(cov.unitaries):
        gens[f"U[{cov.action.labels[g]}]"] = U
    return gens


def read_result(stdout: str, fmt: str) -> dict:
    """The ``result`` section of a CLI report, JSON or text.

    From the text rendering only the scalar fields directly under
    ``result:`` are read, with their values as strings.
    """
    if fmt == "json":
        return json.loads(stdout)["result"]
    out, inside = {}, False
    for line in stdout.splitlines():
        if line == "result:":
            inside = True
        elif inside and not line.startswith("  "):
            break
        elif inside and line.startswith("  ") and not line.startswith("   "):
            key, _, val = line.strip().partition(": ")
            out[key] = val
    return out


def cli_fields(command: str, result: dict, fmt: str) -> dict:
    """The verdict fields an item checks, read back from the CLI output."""
    if command == "build-crossed":
        return {"host_dim": int(result["host_dim"]), "span_dim": int(result["span_dim"])}
    if command == "equiv":
        return {"verdict": result["verdict"]}
    if command == "decompose":
        return {"components": sorted([c["dim"], c["multiplicity"]] for c in result["components"])}
    kind = result["kind"]
    if fmt == "text":
        if kind == "s3-class":
            return {"case": result["case"], "multiplicity": int(result["multiplicity_r"])}
        if kind == "cyclic-report":
            return {"m": int(result["m"]), "k": int(result["k"])}
        return {}
    if kind == "s3-class":
        return {
            "case": result["case"],
            "multiplicity": result["multiplicity_r"],
            "pi1_dim": result["pi1"]["dim"],
        }
    structure = result["structure"] if kind == "cyclic-report" else result
    out = {
        "stabilizer": len(structure["subgroup_members"]),
        "multiplicity": structure["multiplicity_r"],
        "pi1_dim": structure["base_irrep"]["dim"],
    }
    if kind == "cyclic-report":
        out.update(m=result["m"], k=result["k"])
    return out


def expected_analyze_fields(golden_row: dict, fmt: str) -> dict:
    if fmt == "text":
        keep = ("case", "multiplicity") if "case" in golden_row else ("m", "k")
        return {k: golden_row[k] for k in keep if k in golden_row}
    return {k: v for k, v in golden_row.items() if k != "dim"}

