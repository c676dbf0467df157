"""Command-line front end: JSON in, deterministic JSON or text reports out.

Exit codes: 0 success, 2 malformed input, 3 invariant failure,
4 not-irreducible (with the offending decomposition attached), 5 internal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .algebra import GroupAction
from .analyzer import analyze, classify_s3, cyclic_analyze
from .crossed import build_crossed_model
from .errors import (
    CrossrepError,
    DecompositionFailed,
    NotIrreducible,
    SchemaError,
)
from .examples import run_all_examples
from .groups import is_standard_cyclic, make_symmetric_group_3
from .linalg import DEFAULT_TOL, Tolerance
from .reps import are_equivalent, decompose
from .serialize import (
    action_from_json,
    algebra_from_json,
    covariant_from_json,
    cyclic_report_to_json,
    decomposition_to_json,
    matrix_to_json,
    model_to_json,
    render_text,
    rep_from_json,
    s3_class_to_json,
    structure_report_to_json,
)

_EXIT_OK = 0
_EXIT_SCHEMA = 2
_EXIT_INVARIANT = 3
_EXIT_NOT_IRREDUCIBLE = 4
_EXIT_INTERNAL = 5


def _seed(text: str) -> int:
    """A ``--seed`` value, a non-negative integer: echoed in the output header, read by no analysis."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crossrep",
        description="Crossed products of block C*-algebras by finite groups: "
        "models, equivalence, decomposition, structure reports.",
    )
    p.add_argument("--seed", type=_seed, default=42,
                   help="accepted for compatibility and echoed in the header; no analysis reads it or draws at random")
    p.add_argument("--abs-eps", type=float, default=DEFAULT_TOL.abs_eps)
    p.add_argument("--rank-eps", type=float, default=DEFAULT_TOL.rank_eps)
    p.add_argument("--eig-sep", type=float, default=DEFAULT_TOL.eig_sep)
    p.add_argument("--format", choices=["json", "text"], default="json")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-crossed", help="construct the crossed-product matrix model")
    b.add_argument("--algebra", help="algebra JSON file (optional cross-check)")
    b.add_argument("--action", required=True, help="action JSON file")
    b.add_argument("--out", required=True, help="output path for the model JSON")

    e = sub.add_parser("equiv", help="unitary equivalence of two representations")
    e.add_argument("rep1")
    e.add_argument("rep2")

    d = sub.add_parser("decompose", help="decompose a representation into irreducibles")
    d.add_argument("rep")

    a = sub.add_parser("analyze", help="structure report for a covariant representation")
    a.add_argument("covrep")

    sub.add_parser("verify-examples", help="run the built-in example regression suite")
    return p


def _tolerance(args) -> Tolerance:
    try:
        return Tolerance(args.abs_eps, args.rank_eps, args.eig_sep)
    except ValueError as err:
        raise SchemaError(str(err)) from err


def _header(args) -> dict:
    return {
        "tool": "crossrep",
        "version": __version__,
        "seed": args.seed,
        "tolerances": {
            "abs_eps": args.abs_eps,
            "rank_eps": args.rank_eps,
            "eig_sep": args.eig_sep,
        },
    }


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as err:
        raise SchemaError(f"no such file: {path}") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON in {path}: {err}") from err


def _load_covariant(path: str, tol: Tolerance):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SchemaError("covariant representation must be a JSON object")
    action = None
    ref = obj.get("action_ref")
    if isinstance(ref, str):
        ref_path = Path(path).parent / ref
        action = action_from_json(_load_json(str(ref_path)), tol)
    return covariant_from_json(obj, action=action, tol=tol)


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(render_text(payload), end="")


def _cmd_build_crossed(args, tol) -> int:
    action = action_from_json(_load_json(args.action), tol)
    if not isinstance(action, GroupAction):
        raise SchemaError("build-crossed needs a matrix-algebra action")
    if args.algebra is not None:
        declared = algebra_from_json(_load_json(args.algebra))
        if declared != action.algebra:
            raise SchemaError("declared algebra does not match the action's algebra")
    model = build_crossed_model(action, tol)
    doc = {**_header(args), "model": model_to_json(model)}
    with open(args.out, "w", encoding="utf-8") as fh:
        # compact, so json runs its C encoder: any indent selects the pure-Python
        # one, which builds a string per float and line before joining them
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    _emit(
        args,
        {
            **_header(args),
            "result": {
                "out": args.out,
                "host_dim": model.host_dim,
                "span_dim": model.span_dim,
            },
        },
    )
    return _EXIT_OK


def _cmd_equiv(args, tol) -> int:
    r1 = rep_from_json(_load_json(args.rep1))
    r2 = rep_from_json(_load_json(args.rep2))
    try:
        eq = are_equivalent(r1, r2, tol)
    except NotIrreducible:
        detail = {}
        for name, r in (("rep1", r1), ("rep2", r2)):
            dec = decompose(r, tol=tol)
            detail[name] = [
                {"dim": rep.dim, "multiplicity": m} for rep, m in dec.components
            ]
        _emit(
            args,
            {
                **_header(args),
                "error": "inputs must be irreducible; decompose first",
                "decompositions": detail,
            },
        )
        return _EXIT_NOT_IRREDUCIBLE
    result = {"verdict": "equivalent" if eq.equivalent else "inequivalent"}
    if eq.witness is not None:
        result["witness"] = matrix_to_json(eq.witness)
    _emit(args, {**_header(args), "result": result})
    return _EXIT_OK


def _cmd_decompose(args, tol) -> int:
    rep = rep_from_json(_load_json(args.rep))
    dec = decompose(rep, tol=tol)
    _emit(args, {**_header(args), "result": decomposition_to_json(dec)})
    return _EXIT_OK


def _cmd_analyze(args, tol) -> int:
    cov = _load_covariant(args.covrep, tol)
    G = cov.group
    try:
        if G == make_symmetric_group_3():
            verdict = classify_s3(cov, tol=tol)
            result = {"kind": "s3-class", **s3_class_to_json(verdict)}
        elif is_standard_cyclic(G) and isinstance(cov.action, GroupAction):
            report = cyclic_analyze(cov, tol=tol)
            result = {"kind": "cyclic-report", **cyclic_report_to_json(report)}
        else:
            report = analyze(cov, tol=tol)
            result = {"kind": "structure-report", **structure_report_to_json(report)}
    except NotIrreducible:
        dec = decompose(cov, tol=tol)
        _emit(
            args,
            {
                **_header(args),
                "error": "representation is reducible",
                "decomposition": [
                    {"dim": rep.dim, "multiplicity": m} for rep, m in dec.components
                ],
            },
        )
        return _EXIT_NOT_IRREDUCIBLE
    _emit(args, {**_header(args), "result": result})
    return _EXIT_OK


def _cmd_verify_examples(args, tol) -> int:
    results = run_all_examples(tol)
    all_ok = True
    rows = {}
    for name, checks in results.items():
        ok = all(c["pass"] for c in checks.values())
        all_ok &= ok
        rows[name] = {
            "pass": ok,
            "checks": {
                k: {"expected": repr(c["expected"]), "computed": repr(c["computed"]), "pass": c["pass"]}
                for k, c in checks.items()
            },
        }
    if args.format == "json":
        _emit(args, {**_header(args), "result": rows})
    else:
        width = max(len(n) for n in rows)
        for name, row in rows.items():
            print(f"{'PASS' if row['pass'] else 'FAIL'}  {name:<{width}}")
            for k, c in row["checks"].items():
                if not c["pass"]:
                    print(f"      {k}: expected {c['expected']}, computed {c['computed']}")
    return _EXIT_OK if all_ok else _EXIT_INVARIANT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _tolerance(args)
        if args.command == "build-crossed":
            return _cmd_build_crossed(args, tol)
        if args.command == "equiv":
            return _cmd_equiv(args, tol)
        if args.command == "decompose":
            return _cmd_decompose(args, tol)
        if args.command == "analyze":
            return _cmd_analyze(args, tol)
        if args.command == "verify-examples":
            return _cmd_verify_examples(args, tol)
        raise SchemaError(f"unknown command {args.command!r}")
    except SchemaError as err:
        print(json.dumps({"error": str(err), "exit": _EXIT_SCHEMA}), file=sys.stderr)
        return _EXIT_SCHEMA
    except NotIrreducible as err:
        print(json.dumps({"error": str(err), "exit": _EXIT_NOT_IRREDUCIBLE}), file=sys.stderr)
        return _EXIT_NOT_IRREDUCIBLE
    except DecompositionFailed as err:
        print(json.dumps({"error": str(err), "exit": _EXIT_INTERNAL}), file=sys.stderr)
        return _EXIT_INTERNAL
    except CrossrepError as err:
        print(json.dumps({"error": str(err), "exit": _EXIT_INVARIANT}), file=sys.stderr)
        return _EXIT_INVARIANT
    except Exception as err:  # pragma: no cover - safety net
        print(json.dumps({"error": f"internal: {err}", "exit": _EXIT_INTERNAL}), file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
