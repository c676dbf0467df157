"""One workload in one fresh process: set up, measure, check, report.

Started by ``run.py``; it writes one JSON document to ``--out``.  With
``--setup-only`` it stops when the first timed item would start, so the
caller can time set-up on its own.  ``--probe HOST`` runs one limit probe.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# a few small items of each workload, for the smoke run
SMOKE_ACTIONS = ("Z4[3]", "S3-perm[1,1,1]")
SMOKE_POOL = ("Z4[2,2]#0", "S3-inner[2]#2", "weyl_pair_homogeneous(2)#0", "S3-perm[1,1,1]#0")
CLI_IMPORT_RUNS = 3


def import_package():
    import crossrep

    if Path(crossrep.__file__).resolve().parent != SRC / "crossrep":
        raise SystemExit(f"crossrep was imported from {crossrep.__file__}, not from {SRC}")


class Enumerate:
    """``crossed_irreps(action)`` over the ladder of actions."""

    def __init__(self, seed, smoke, golden):
        specs = inputs.enumerate_actions(seed)
        if smoke:
            specs = [s for s in specs if s.name in SMOKE_ACTIONS]
        self.digest = inputs.digest(specs)
        self.items = [(s, inputs.to_action(s)) for s in specs]
        self.golden = golden
        self.mix = {"host_dims": [s.host_dim for s in specs], "group_orders": [s.order for s in specs]}

    def run(self, item, seed):
        from crossrep.sampling import crossed_irreps

        return crossed_irreps(item[1], seed=seed)

    def check(self, item, out):
        return wl.check_enumerate(item[0], wl.enumerate_verdict(item[0], out), self.golden)


class Analyze:
    """The CLI's analyzer dispatch over the stored pool of irreducibles."""

    def __init__(self, seed, smoke, golden):
        pool = inputs.load_pool()
        rows = golden["analyze_irreps"]
        if smoke:
            keep = [i for i, c in enumerate(pool) if c.name in SMOKE_POOL]
            pool, rows = [pool[i] for i in keep], [rows[i] for i in keep]
        covs = inputs.analyze_pool(seed, pool)
        self.digest = inputs.digest(covs)
        actions = {}
        self.items = []
        for cov, row in zip(covs, rows):
            key = id(cov.action)
            if key not in actions:
                actions[key] = inputs.to_action(cov.action)
            kind = wl.kind_of(cov.action)
            self.items.append((cov, kind, inputs.to_covariant(cov, actions[key]), row))
        self.mix = {
            "irrep_dims": [c.dim for c in covs],
            "group_orders": [c.action.order for c in covs],
            "kinds": {k: sum(it[1] == k for it in self.items) for k in ("cyclic", "s3", "generic")},
        }

    def run(self, item, seed):
        return wl.analyze_item(item[2], item[1], seed)

    def check(self, item, out):
        return wl.check_analyze(item[0], item[1], out, item[3])


class Cli:
    """``python -m crossrep.cli`` on JSON files written in set-up."""

    # the first item is also the warm-up, so it is the smallest
    BUILD = ("S3-inner[2]", "Z6[3,3]", "S3-perm[1x6]", "Z8[2,1,1]", "S3-conj[2,1,1,1]")
    ANALYZE = (
        ("Z8[3]#0", "json"),
        ("Z8[2,1,1]#3", "json"),
        ("S3-perm[2,2]#0", "json"),
        ("S3-perm[1x6]#0", "json"),
        ("weyl_pair_homogeneous(2)#0", "json"),
        ("S3-inner[2,3]#1", "text"),
        ("Z6[2,2]#1", "text"),
        ("S3-perm[1,1,1]#1", "text"),
    )
    EQUIV = (("Z8[3]#2", "Z8[3]#2"), ("Z8[3]#2", "Z8[3]#5"))
    DECOMPOSE = (
        ("Z4[3]#0", "Z4[3]#0", "Z4[3]#3"),
        ("S3-inner[2]#0", "S3-inner[2]#1", "S3-inner[2]#2"),
        ("Z8[2,1,1]#0", "Z8[2,1,1]#1", "Z8[2,1,1]#1"),
    )

    def __init__(self, seed, smoke, golden):
        self.tmp = tempfile.TemporaryDirectory(dir=OUT, prefix="cli-")
        d = Path(self.tmp.name)
        rng = np.random.default_rng([seed, 4])
        ladder = {s.name: s for s in inputs.enumerate_actions(seed, extra=True)}
        pool = inputs.load_pool()
        index = {c.name: i for i, c in enumerate(pool)}
        covs = inputs.analyze_pool(seed, pool)
        rows = golden["analyze_irreps"]
        build = self.BUILD[:1] if smoke else self.BUILD
        analyze = self.ANALYZE[:1] + self.ANALYZE[-1:] if smoke else self.ANALYZE
        equiv = self.EQUIV[:1] if smoke else self.EQUIV
        decomp = self.DECOMPOSE[-1:] if smoke else self.DECOMPOSE
        docs = {}
        self.items = []
        for i, name in enumerate(build):
            spec = ladder[name]
            docs[f"action{i}.json"] = wl.action_json(spec)
            fmt = "text" if i == 1 else "json"
            argv = ["build-crossed", "--action", str(d / f"action{i}.json"), "--out", str(d / f"model{i}.json")]
            want = {"host_dim": spec.host_dim, "span_dim": spec.order * spec.linear_dim}
            self.items.append(("build-crossed", fmt, argv, want))
        for i, (name, fmt) in enumerate(analyze):
            docs[f"cov{i}.json"] = wl.covariant_json(covs[index[name]])
            want = wl.expected_analyze_fields(rows[index[name]], fmt)
            self.items.append(("analyze", fmt, ["analyze", str(d / f"cov{i}.json")], want))
        for i, (a, b) in enumerate(equiv):
            first = wl.joint_gens(covs[index[a]])
            second = wl.joint_gens(inputs.conjugate(covs[index[b]], inputs.haar_unitary(covs[index[b]].dim, rng)))
            docs[f"equiv{i}a.json"], docs[f"equiv{i}b.json"] = wl.rep_json(first), wl.rep_json(second)
            want = {"verdict": "equivalent" if a == b else "inequivalent"}
            self.items.append(("equiv", "json", ["equiv", str(d / f"equiv{i}a.json"), str(d / f"equiv{i}b.json")], want))
        for i, names in enumerate(decomp):
            parts = [wl.joint_gens(covs[index[n]]) for n in names]
            docs[f"sum{i}.json"] = wl.rep_json(_direct_sum(parts, rng))
            counts = {}
            for n in names:
                counts[n] = counts.get(n, 0) + 1
            want = {"components": sorted([covs[index[n]].dim, m] for n, m in counts.items())}
            self.items.append(("decompose", "json", ["decompose", str(d / f"sum{i}.json")], want))
        text = {name: json.dumps(doc) for name, doc in docs.items()}
        for name, body in text.items():
            (d / name).write_text(body, encoding="utf-8")
        self.digest = inputs.digest([body.encode() for _, body in sorted(text.items())])
        self.mix = {
            "commands": [it[0] for it in self.items],
            "build_host_dims": [ladder[n].host_dim for n in build],
            "input_bytes": sum(len(b) for b in text.values()),
        }
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.in_process = False

    def run(self, item, seed):
        command, fmt, argv, _ = item
        argv = ["--seed", str(seed), "--format", fmt, *argv]
        if self.in_process:
            from crossrep import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "crossrep.cli", *argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, item, out):
        command, fmt, _, want = item
        code, stdout = out
        if code != 0:
            return [f"{command}: exit code {code}"]
        got = wl.cli_fields(command, wl.read_result(stdout, fmt), fmt)
        return [] if got == want else [f"{command}: {got} != {want}"]


def _direct_sum(parts, rng):
    """Block-diagonal sum of generator sets, rotated by a random unitary."""
    dim = sum(next(iter(p.values())).shape[0] for p in parts)
    W = inputs.haar_unitary(dim, rng)
    out = {}
    for label in parts[0]:
        M = np.zeros((dim, dim), dtype=complex)
        pos = 0
        for p in parts:
            s = p[label].shape[0]
            M[pos : pos + s, pos : pos + s] = p[label]
            pos += s
        out[label] = W @ M @ W.conj().T
    return out


WORKLOAD_CLASSES = {"enumerate_irreps": Enumerate, "analyze_irreps": Analyze, "cli_roundtrip": Cli}


def run_item(work, i, seed, latencies, errors):
    """Time item i once with the given seed; its check runs outside the
    timed call.  A failed run adds one entry to ``errors``."""
    item = work.items[i]
    t0 = time.perf_counter()
    try:
        out = work.run(item, seed)
    except Exception as err:  # every failure counts toward fail_ratio
        latencies.append((time.perf_counter() - t0) * 1e3)
        errors.append(f"item {i}: {type(err).__name__}: {err}")
        return
    latencies.append((time.perf_counter() - t0) * 1e3)
    try:
        problems = work.check(item, out)
    except Exception as err:
        problems = [f"check raised {type(err).__name__}: {err}"]
    if problems:
        errors.append(f"item {i}: " + "; ".join(problems))


def cli_import_seconds() -> float:
    """Median wall time of a cold ``import crossrep.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import crossrep.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(CLI_IMPORT_RUNS)
    ]
    return statistics.median(runs)


def measure(work, args) -> dict:
    """Items in a fixed cycle until ``--seconds`` have elapsed and every
    item has run at least once."""
    n = len(work.items)
    latencies, errors = [[] for _ in range(n)], []
    done = 0
    t0 = time.perf_counter()
    while done < n or time.perf_counter() - t0 < args.seconds:
        # every run of an item gets its own seed for the randomized splitting,
        # so an item's mean latency averages over several splittings
        run_item(work, done % n, args.seed + done, latencies[done % n], errors)
        done += 1
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "latencies_ms": latencies,
        "errors": errors,
        # the CLI workload's memory is that of the CLI processes it starts
        "peak_rss_mb": (child_kb if isinstance(work, Cli) else self_kb) / 1024,
    }


def measure_traced(work, args) -> dict:
    """One pass in which every item runs untraced and then traced.

    Running the two back to back, item by item, keeps slow drifts of the
    machine's speed out of the tracing overhead.
    """
    n = len(work.items)
    latencies, errors = [[] for _ in range(n)], []
    tracer = spans.Tracer()
    patch = spans.Patch(tracer)
    untraced = traced = 0.0
    for i in range(n):
        run_item(work, i, args.seed + i, latencies[i], errors)
        untraced += latencies[i][-1]
        patch.apply()
        tracer.item = i
        run_item(work, i, args.seed + i, latencies[i], errors)
        traced += latencies[i][-1]
        patch.revert()
    layers = spans.layer_metrics(tracer.spans, n)
    layers["cli.import_s"] = cli_import_seconds()
    layers["trace.overhead_ratio"] = traced / untraced - 1
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans_path)
    return {
        "latencies_ms": latencies,
        "errors": errors,
        "layers": layers,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_probe(args):
    """crossed_irreps on one action beyond the ladder."""
    from crossrep.sampling import crossed_irreps

    spec = inputs.probe_action(args.probe, args.seed)
    action = inputs.to_action(spec)
    t0 = time.perf_counter()
    try:
        irreps = crossed_irreps(action, seed=args.seed)
    except MemoryError:
        return {"status": "limit:memory"}
    return {"status": "ok", "seconds": time.perf_counter() - t0, "irreps": len(irreps)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probe", type=int)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    import_package()
    OUT.mkdir(exist_ok=True)
    if args.probe is not None:
        doc = run_probe(args)
    else:
        work = WORKLOAD_CLASSES[args.workload](args.seed, args.smoke, wl.load_golden())
        if isinstance(work, Cli):
            # wrappers cannot reach into a child process, so the traced run calls cli.main
            work.in_process = bool(args.trace)
        # warm-up: one untimed item, so lazy imports and BLAS start-up land in set-up
        run_item(work, 0, args.seed, [], [])
        doc = {"ready": time.monotonic(), "input_hash": work.digest, "items": len(work.items), "input_mix": work.mix}
        if not args.setup_only:
            doc.update(measure_traced(work, args) if args.trace else measure(work, args))
            doc["environment"] = environment()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
