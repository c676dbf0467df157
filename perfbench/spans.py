"""Spans around the public functions of every ``crossrep`` module.

:class:`Patch` replaces each public function (the names in a module's
``__all__``) on every module that binds it, so that callers looking the
name up, such as ``crossrep.reps.solve_sylvester_family`` or
``crossrep.analyzer.decompose``, reach the wrapper.  It also wraps
``GroupAction.validate``, ``cli.main`` and the ``json`` calls of the CLI.
Each call records one span (name, start, end, parent span, item id, size)
in memory; :meth:`Tracer.write` writes them out when the run ends.

Per-scalar helpers (``complex_to_json``, ``format_complex``) are left
unwrapped: a span per matrix entry would cost more than the work; their
time stays in the self time of the serializer that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
import types
from time import perf_counter

MODULES = (
    "algebra",
    "analyzer",
    "cli",
    "crossed",
    "examples",
    "groups",
    "linalg",
    "reps",
    "sampling",
    "serialize",
)
UNWRAPPED = {"complex_to_json", "format_complex"}

SYLVESTER = "linalg.solve_sylvester_family"
ANALYZERS = {"analyzer.analyze", "analyzer.cyclic_analyze", "analyzer.classify_s3"}
JSON_LOAD = {"json.load"}
JSON_DUMP = {"json.dumps"}


def _sylvester_pq(args, kwargs, out):
    """p*q of one solve: from ``dims``, else a solution, else the first pair."""
    dims = kwargs.get("dims", args[1] if len(args) > 1 else None)
    if dims is not None:
        return dims[0] * dims[1]
    if out:
        return out[0].size
    L, R = (args[0] if args else kwargs["pairs"])[0]
    return len(L) * len(R)


def _text_bytes(args, kwargs, out):
    return len(out.encode()) if isinstance(out, str) else 0


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        # [name, start, end, parent index, item id, size]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if size is not None:
                rec[5] = size(args, kwargs, out)
            return out

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\titem\tsize\n")
            for name, t0, t1, parent, item, size in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{item}\t{size}\n")


class Patch:
    """The wrappers of every public function of the package, which
    :meth:`apply` puts on the names callers look up and :meth:`revert`
    takes off again."""

    def __init__(self, tracer: Tracer):
        import crossrep

        mods = {name: __import__(f"crossrep.{name}", fromlist=["_"]) for name in MODULES}
        namespaces = [crossrep, *mods.values()]
        sizes = {SYLVESTER: _sylvester_pq}
        # (namespace, attribute, original, replacement)
        self.swaps = []
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if attr in UNWRAPPED or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                traced = tracer.wrap(name, fn, sizes.get(name))
                for ns in namespaces:
                    for key, val in vars(ns).items():
                        if val is fn:
                            self.swaps.append((ns, key, fn, traced))
        action_cls = mods["algebra"].GroupAction
        validate = action_cls.validate
        self.swaps.append((action_cls, "validate", validate, tracer.wrap("algebra.GroupAction.validate", validate)))
        cli = mods["cli"]
        self.swaps.append((cli, "main", cli.main, tracer.wrap("cli.main", cli.main)))
        # the CLI reads and writes JSON through its module-level ``json`` name
        proxy = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json) if not k.startswith("_")})
        proxy.load = tracer.wrap("json.load", json.load)
        proxy.dumps = tracer.wrap("json.dumps", json.dumps, _text_bytes)
        self.swaps.append((cli, "json", cli.json, proxy))

    def apply(self):
        for ns, key, _, new in self.swaps:
            setattr(ns, key, new)

    def revert(self):
        for ns, key, old, _ in self.swaps:
            setattr(ns, key, old)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [t1 - t0 for _, t0, t1, _, _, _ in spans]
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def layer_metrics(spans, items: int) -> dict:
    """Per-layer figures for one pass over the input set.

    Counts are exact; times are the self times summed over the layer's
    spans.  The stacked-route rank step (``nullspace`` called by the
    Sylvester solve) counts as part of the solve.
    """
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, name in enumerate(names):
        layer = name
        if name == "linalg.nullspace" and spans[i][3] >= 0 and names[spans[i][3]] == SYLVESTER:
            layer = SYLVESTER
        calls[name] = calls.get(name, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + selfs[i]

    def n(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def t(keys):
        return sum(v for k, v in self_s.items() if k in keys)

    serialize = [k for k in self_s if k.startswith("serialize.")]
    pqs = [s[5] for s in spans if s[0] == SYLVESTER]
    syl_calls = n(SYLVESTER)
    return {
        "linalg.sylvester.calls": syl_calls,
        "linalg.sylvester.self_s": t({SYLVESTER}),
        "linalg.sylvester.max_pq": max(pqs, default=0),
        "linalg.sylvester.pq3_sum": sum(pq**3 for pq in pqs),
        "linalg.eigenspaces.self_s": t({"linalg.unitary_eigenspaces"}),
        "reps.is_irreducible.calls": n("reps.is_irreducible", "reps.commutant_basis"),
        "reps.are_equivalent.calls": n("reps.are_equivalent"),
        "reps.decompose.calls": n("reps.decompose"),
        "reps.decompose.self_s": t({"reps.decompose"}),
        "reps.solves_per_item": syl_calls / items,
        "crossed.build.self_s": t({"crossed.build_crossed_model"}),
        "crossed.fixed_point.self_s": t({"crossed.fixed_point_algebra"}),
        "sampling.crossed_irreps.self_s": t({"sampling.crossed_irreps"}),
        "analyzer.calls": n(*ANALYZERS),
        "analyzer.self_s": t(ANALYZERS),
        "algebra.action_validate.calls": n("algebra.GroupAction.validate"),
        "algebra.action_validate.self_s": t({"algebra.GroupAction.validate"}),
        "serialize.load.self_s": t({k for k in serialize if k.endswith("_from_json")} | JSON_LOAD),
        "serialize.dump.self_s": t(
            {k for k in serialize if k.endswith("_to_json") or k == "serialize.render_text"} | JSON_DUMP
        ),
        "serialize.bytes_out": sum(s[5] for s in spans if s[0] in JSON_DUMP),
        "cli.self_s": t({"cli.main"}),
        "linalg.self_s": t({k for k in self_s if k.startswith("linalg.")}),
        "linalg.sylvester.large_share": sum(pq > 120 for pq in pqs) / max(1, len(pqs)),
    }
