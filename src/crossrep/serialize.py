"""JSON wire formats and deterministic text rendering.

Complex numbers serialize as two-element ``[re, im]`` arrays; matrices as
row-major nested arrays of those pairs.  Loaders validate shapes and raise
:class:`SchemaError` on malformed input so the CLI can map them to a
dedicated exit code.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgElement, GroupAction, LabelAction, MatAlg, StarAut
from .analyzer import CyclicReport, ProjectiveRep, S3Class, StructureReport
from .crossed import CrossedElement, CrossedModel
from .errors import SchemaError
from .groups import FiniteGroup
from .reps import CovariantRep, IrrepDecomposition, Rep

__all__ = [
    "complex_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "group_to_json",
    "group_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "staraut_to_json",
    "staraut_from_json",
    "action_to_json",
    "action_from_json",
    "rep_to_json",
    "rep_from_json",
    "covariant_to_json",
    "covariant_from_json",
    "crossed_element_to_json",
    "crossed_element_from_json",
    "model_to_json",
    "decomposition_to_json",
    "structure_report_to_json",
    "cyclic_report_to_json",
    "s3_class_to_json",
    "format_complex",
    "render_text",
]


def complex_to_json(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack((M.real, M.imag), axis=-1).tolist()


def _expect(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def matrix_from_json(obj) -> np.ndarray:
    _expect(isinstance(obj, list) and obj, "matrix must be a nonempty list of rows")
    _expect(all(isinstance(r, list) for r in obj), "matrix rows must be lists")
    cols = len(obj[0])
    _expect(all(len(r) == cols for r in obj), "matrix rows have unequal lengths")
    cells = [z for r in obj for z in r]
    _expect(cols and all(type(z) is list and len(z) == 2 for z in cells), "matrix entries must be [re, im] pairs")
    parts = [t for z in cells for t in z]
    # types are checked on the flat list before numpy reads it: bool is an
    # int subclass and a numeric string parses, both silently
    _expect(set(map(type, parts)) <= {int, float}, "matrix entries must be finite numbers")
    try:
        values = np.array(parts, dtype=float)
    except OverflowError:
        values = np.full(1, np.inf)
    _expect(np.isfinite(values).all(), "matrix entries must be finite numbers")
    return values.view(complex).reshape(len(obj), cols)


def group_to_json(G: FiniteGroup) -> dict:
    return {
        "order": G.order,
        "table": G.table.tolist(),
        "identity": G.identity,
        "labels": list(G.labels),
    }


def group_from_json(obj) -> FiniteGroup:
    _expect(isinstance(obj, dict), "group must be an object")
    _expect("table" in obj, "group needs a Cayley table")
    try:
        return FiniteGroup(
            obj["table"], identity=obj.get("identity"), labels=obj.get("labels")
        )
    except (TypeError, ValueError) as err:
        raise SchemaError(f"bad group data: {err}") from err


def algebra_to_json(A: MatAlg) -> dict:
    return {"blocks": list(A.block_dims)}


def algebra_from_json(obj) -> MatAlg:
    _expect(isinstance(obj, dict) and "blocks" in obj, "algebra needs a blocks list")
    _expect(
        isinstance(obj["blocks"], list) and obj["blocks"], "blocks must be nonempty"
    )
    return MatAlg(obj["blocks"])


def staraut_to_json(a: StarAut) -> dict:
    return {
        "perm": list(a.perm),
        "unitaries": [matrix_to_json(u) for u in a.unitaries],
    }


def staraut_from_json(obj, algebra: MatAlg) -> StarAut:
    _expect(
        isinstance(obj, dict) and "perm" in obj and "unitaries" in obj,
        "automorphism needs perm and unitaries",
    )
    return StarAut(
        algebra, obj["perm"], [matrix_from_json(u) for u in obj["unitaries"]]
    )


def action_to_json(action) -> dict:
    if isinstance(action, GroupAction):
        return {
            "group": group_to_json(action.group),
            "algebra": algebra_to_json(action.algebra),
            "auts": {str(g): staraut_to_json(a) for g, a in enumerate(action.auts)},
        }
    if isinstance(action, LabelAction):
        return {
            "group": group_to_json(action.group),
            "labels": sorted(action.maps[0]),
            "maps": {str(g): dict(sorted(m.items())) for g, m in enumerate(action.maps)},
        }
    raise SchemaError(f"unsupported action type {type(action)!r}")


def action_from_json(obj):
    _expect(isinstance(obj, dict) and "group" in obj, "action needs a group")
    G = group_from_json(obj["group"])
    if "auts" in obj:
        _expect("algebra" in obj, "matrix-algebra action needs an algebra")
        A = algebra_from_json(obj["algebra"])
        auts = []
        for g in range(G.order):
            _expect(str(g) in obj["auts"], f"missing automorphism for element {g}")
            auts.append(staraut_from_json(obj["auts"][str(g)], A))
        return GroupAction(G, A, auts)
    if "maps" in obj:
        maps = []
        for g in range(G.order):
            _expect(str(g) in obj["maps"], f"missing label map for element {g}")
            maps.append(dict(obj["maps"][str(g)]))
        return LabelAction(G, maps)
    raise SchemaError("action needs either auts or maps")


def rep_to_json(rep: Rep) -> dict:
    return {
        "dim": rep.dim,
        "generators": {l: matrix_to_json(M) for l, M in sorted(rep.gens.items())},
    }


def rep_from_json(obj) -> Rep:
    _expect(
        isinstance(obj, dict) and "dim" in obj and "generators" in obj,
        "representation needs dim and generators",
    )
    gens = {l: matrix_from_json(M) for l, M in obj["generators"].items()}
    return Rep(int(obj["dim"]), gens)


def covariant_to_json(cov: CovariantRep) -> dict:
    out = rep_to_json(cov.base)
    out["action_ref"] = action_to_json(cov.action)
    out["unitaries"] = {
        str(g): matrix_to_json(U) for g, U in enumerate(cov.unitaries)
    }
    return out


def covariant_from_json(obj, action=None) -> CovariantRep:
    base = rep_from_json(obj)
    if action is None:
        _expect("action_ref" in obj, "covariant representation needs action_ref")
        _expect(
            isinstance(obj["action_ref"], dict),
            "inline action required (path references are resolved by the CLI)",
        )
        action = action_from_json(obj["action_ref"])
    _expect("unitaries" in obj, "covariant representation needs unitaries")
    unitaries = []
    for g in range(action.group.order):
        _expect(str(g) in obj["unitaries"], f"missing unitary for element {g}")
        unitaries.append(matrix_from_json(obj["unitaries"][str(g)]))
    return CovariantRep(base, action, unitaries)


def crossed_element_to_json(x: CrossedElement) -> dict:
    return {
        "action_ref": action_to_json(x.action),
        "coeffs": {
            str(g): {"blocks": [matrix_to_json(b) for b in c.blocks]}
            for g, c in enumerate(x.coeffs)
        },
    }


def crossed_element_from_json(obj, action=None) -> CrossedElement:
    _expect(isinstance(obj, dict) and "coeffs" in obj, "crossed element needs coeffs")
    if action is None:
        _expect("action_ref" in obj, "crossed element needs action_ref")
        action = action_from_json(obj["action_ref"])
    coeffs = []
    for g in range(action.group.order):
        entry = obj["coeffs"].get(str(g))
        if entry is None:
            coeffs.append(action.algebra.zero())
        else:
            _expect("blocks" in entry, "coefficient needs blocks")
            coeffs.append(
                AlgElement(
                    action.algebra, [matrix_from_json(b) for b in entry["blocks"]]
                )
            )
    return CrossedElement(action, coeffs)


def model_to_json(model: CrossedModel) -> dict:
    # the top-level fields share the defining representation's lists: each matrix converts once
    rep = covariant_to_json(model.defining_covariant_rep())
    return {
        "action": rep["action_ref"],
        "host_dim": model.host_dim,
        "span_dim": model.span_dim,
        "psi": rep["generators"],
        "vg": rep["unitaries"],
        "defining_rep": rep,
    }


def decomposition_to_json(dec: IrrepDecomposition) -> dict:
    return {
        "components": [
            {
                "dim": r.dim,
                "multiplicity": m,
                "irrep": covariant_to_json(r) if isinstance(r, CovariantRep) else rep_to_json(r),
            }
            for r, m in dec.components
        ],
        "basis_change": matrix_to_json(dec.basis_change),
    }


def _projective_to_json(p: ProjectiveRep) -> dict:
    return {
        "group_order": p.group.order,
        "mats": {str(g): matrix_to_json(M) for g, M in enumerate(p.mats)},
        "cocycle": matrix_to_json(p.cocycle),
    }


def structure_report_to_json(r: StructureReport) -> dict:
    return {
        "subgroup_members": list(r.subgroup.members),
        "subgroup_is_normal": r.h_is_normal,
        "coset_reps": list(r.coset_reps),
        "index_m": r.index,
        "multiplicity_r": r.multiplicity,
        "base_irrep": rep_to_json(r.base_irrep),
        "perms": {str(g): p.tolist() for g, p in enumerate(r.perms)},
        "block_unitaries": {
            str(g): [matrix_to_json(B) for B in blocks]
            for g, blocks in enumerate(r.block_unitaries)
        },
        "psi_unitaries": {
            str(i): matrix_to_json(U) for i, U in enumerate(r.psi.unitaries)
        },
        "lambda_rep": _projective_to_json(r.lambda_rep),
        "v_rep": _projective_to_json(r.v_rep),
        "conjugator": matrix_to_json(r.conjugator),
    }


def cyclic_report_to_json(r: CyclicReport) -> dict:
    return {
        "m": r.m,
        "k": r.k,
        "eta": r.eta,
        "minimal": r.m == 1,
        "corner_unitary": matrix_to_json(r.V),
        "corner_spectrum": [complex_to_json(v) for v, _ in r.spectrum_of_V],
        "fixed_point_irreps": [
            {"dim": rep.dim, "multiplicity": mult} for rep, mult in r.fixed_pt_irreps
        ],
        "alpha_diag_dims": [rep.dim for rep in r.alpha_diag],
        "structure": structure_report_to_json(r.base),
    }


def s3_class_to_json(v: S3Class) -> dict:
    out = {
        "case": v.case,
        "multiplicity_r": v.multiplicity,
        "pi1": rep_to_json(v.pi1),
        "conjugator": matrix_to_json(v.conjugator),
    }
    if v.tau_equivalent is not None:
        out["tau_equivalent"] = v.tau_equivalent
    if v.tau_witness is not None:
        out["tau_witness"] = matrix_to_json(v.tau_witness)
    if v.eta_block is not None:
        out["eta_block"] = matrix_to_json(v.eta_block)
    return out


def format_complex(z, digits: int = 6) -> str:
    """Fixed 6-significant-digit a+bi rendering with -0 normalized to 0."""
    z = complex(z)
    re, im = float(f"{z.real:.{digits}g}"), float(f"{z.imag:.{digits}g}")
    if re == 0.0:
        re = 0.0
    if im == 0.0:
        im = 0.0
    sign = "+" if im >= 0 else "-"
    return f"{re:g}{sign}{abs(im):g}i"


def _render(obj, indent: int, lines: list[str]):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                _render(val, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_scalar(val)}")
    elif isinstance(obj, list):
        if _is_matrix_json(obj):
            for row in obj:
                lines.append(pad + "  ".join(format_complex(complex(z[0], z[1])) for z in row))
        else:
            for val in obj:
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}-")
                    _render(val, indent + 1, lines)
                else:
                    lines.append(f"{pad}- {_scalar(val)}")
    else:
        lines.append(f"{pad}{_scalar(obj)}")


def _is_matrix_json(obj) -> bool:
    return (
        isinstance(obj, list)
        and obj
        and all(
            isinstance(row, list)
            and row
            and all(isinstance(z, list) and len(z) == 2 and all(isinstance(t, (int, float)) for t in z) for z in row)
            for row in obj
        )
    )


def _scalar(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return f"{val:g}"
    return str(val)


def render_text(obj: dict) -> str:
    """Human-readable deterministic rendering of a JSON-able report."""
    lines: list[str] = []
    _render(obj, 0, lines)
    return "\n".join(lines) + "\n"
