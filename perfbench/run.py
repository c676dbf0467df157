"""The crossrep benchmark: one workload per invocation.

    python3 perfbench/run.py --workload enumerate_irreps --seed 1 --seconds 8 --trace 0

Run from the repository root.  Every workload runs in fresh processes
started here, one after another, with the BLAS/OpenMP thread count pinned
before numpy is imported.  Set-up is timed in several processes and the
median reported; the measuring process cycles through the workload's fixed
input set until ``--seconds`` have elapsed and every item has run, and
checks every output against the golden verdicts.  ``--trace 1`` reports
the per-layer metrics of one traced pass instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record (environment, input hash, limit probes, per-item
latencies) goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("enumerate_irreps", "analyze_irreps", "cli_roundtrip")
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 150
# limit probes: never run a Gram solve estimated above MEMORY_BUDGET, and
# cap the probe's address space so an underestimate fails with MemoryError
PROBE_HOSTS = (60, 108)
PROBE_TIME_S = 4.0
MEMORY_BUDGET = 1 << 30
PROBE_ADDRESS_SPACE = 3 << 30
P90_MIN_ITEMS = 100

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "linalg.sylvester.calls": "count",
    "linalg.sylvester.self_s": "s",
    "linalg.sylvester.max_pq": "count",
    "linalg.sylvester.pq3_sum": "ops",
    "linalg.eigenspaces.self_s": "s",
    "reps.is_irreducible.calls": "count",
    "reps.are_equivalent.calls": "count",
    "reps.decompose.calls": "count",
    "reps.decompose.self_s": "s",
    "reps.solves_per_item": "ratio",
    "crossed.build.self_s": "s",
    "crossed.fixed_point.self_s": "s",
    "sampling.crossed_irreps.self_s": "s",
    "analyzer.calls": "count",
    "analyzer.self_s": "s",
    "algebra.action_validate.calls": "count",
    "algebra.action_validate.self_s": "s",
    "serialize.load.self_s": "s",
    "serialize.dump.self_s": "s",
    "serialize.bytes_out": "bytes",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def worker(args, out: Path, *extra, timeout=WORKER_TIMEOUT_S, **popen) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--seed", str(args.seed), "--out", str(out), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, **popen)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def timed_setup(args, out: Path, *extra) -> tuple[float, dict]:
    """Seconds from process start to the first timed item, and the report."""
    start = time.monotonic()
    doc = worker(args, out, *extra)
    return doc["ready"] - start, doc


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_ADDRESS_SPACE, PROBE_ADDRESS_SPACE))


def limit_probes(args) -> list[dict]:
    """crossed_irreps beyond the ladder, each under a memory and time budget."""
    out = []
    for host in PROBE_HOSTS:
        gram = 16 * host**4
        rec = {"host": host, "gram_bytes_estimate": gram, "time_budget_s": PROBE_TIME_S}
        if gram > MEMORY_BUDGET:
            rec["status"] = "limit:memory"
        else:
            try:
                rec.update(
                    worker(args, OUT / f"probe{host}.json", "--probe", str(host), timeout=PROBE_TIME_S,
                           preexec_fn=_limit_address_space)
                )
            except subprocess.TimeoutExpired:
                rec["status"] = "limit:time"
            except BenchError as err:
                rec["status"] = f"error: {err}"
        out.append(rec)
    return out


def environment(args) -> dict:
    mem_kb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            mem_kb = int(next(l for l in fh if l.startswith("MemTotal")).split()[1])
    except (OSError, StopIteration, ValueError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "crossrep").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "threads": THREADS,
        "seed": args.seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def end_to_end(setups, doc) -> tuple[dict, dict]:
    """Latency of each item is its mean over the times it ran, so every
    item of the fixed input set weighs the same however often it ran."""
    per_item = [statistics.fmean(runs) for runs in doc["latencies_ms"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(per_item) / (sum(per_item) / 1e3),
        "item_ms.p50": statistics.median(per_item),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    extra = {"fail_ratio": len(doc["errors"]) / sum(map(len, doc["latencies_ms"]))}
    if len(per_item) >= P90_MIN_ITEMS:
        extra["item_ms.p90"] = statistics.quantiles(per_item, n=10)[-1]
    return metrics, extra


def premises(workload: str, layers: dict, items: int) -> dict:
    """The reason each workload exists, read off its own trace."""
    if workload == "enumerate_irreps":
        selfs = {k: v for k, v in layers.items() if k.endswith("self_s") and k != "linalg.self_s"}
        return {"sylvester_self_is_largest": max(selfs, key=selfs.get) == "linalg.sylvester.self_s"}
    if workload == "cli_roundtrip":
        front = (
            layers["serialize.load.self_s"]
            + layers["serialize.dump.self_s"]
            + layers["cli.self_s"]
            + layers["cli.import_s"] * items
        )
        return {"serialize_cli_import_exceed_linalg": front > layers["linalg.self_s"]}
    return {"solves_per_item": layers["reps.solves_per_item"]}


def run(args) -> int:
    base = ["--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        base.append("--smoke")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []
    if not args.trace and not args.smoke:
        for i in range(SETUP_RUNS - 1):
            setups.append(timed_setup(args, OUT / f"setup-{tag}-{i}.json", *base, "--setup-only")[0])
    seconds, doc = timed_setup(args, OUT / f"worker-{tag}.json", *base)
    setups.append(seconds)
    attempted = sum(map(len, doc["latencies_ms"]))
    failed = len(doc["errors"])
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {**environment(args), **doc.pop("environment")},
        "input_hash": doc["input_hash"],
        "input_mix": doc["input_mix"],
        "attempted": attempted,
        "failed": failed,
        "errors": doc["errors"][:20],
        "setup_s_runs": setups,
        "latencies_ms": doc["latencies_ms"],
    }
    if args.trace:
        metrics = {k: doc["layers"][k] for k in PER_LAYER}
        units = PER_LAYER
        extra = {k: v for k, v in doc["layers"].items() if k not in PER_LAYER}
        extra.update(premises(args.workload, doc["layers"], doc["items"]))
        record["spans_file"] = doc["spans_file"]
    else:
        metrics, extra = end_to_end(setups, doc)
        units = END_TO_END
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record["extra"] = extra
    if not args.smoke:
        record["limit_probes"] = limit_probes(args)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    n_setup = len(setups)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} items={doc['items']} runs={attempted} "
          f"input_hash={doc['input_hash'][:16]}")
    for k, v in metrics.items():
        if args.trace:
            print(f"{k} = {v:.6g} {units[k]} (one traced pass, n={doc['items']})")
        elif k == "setup_s":
            print(f"{k} = {v:.6g} {units[k]} (n={n_setup})")
        else:
            print(f"{k} = {v:.6g} {units[k]} (n={doc['items']} items, {attempted} runs)")
    for k, v in extra.items():
        print(f"{k} = {v:.6g}" if isinstance(v, float) else f"{k} = {v}")
    for probe in record.get("limit_probes", []):
        print(f"probe host={probe['host']}: {probe['status']}")
    for err in doc["errors"][:5]:
        print(f"error: {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="crossrep benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny input set, no limit probes")
    args = p.parse_args(argv)
    if not (SRC / "crossrep" / "__init__.py").is_file():
        print(f"error: no crossrep package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    OUT.mkdir(exist_ok=True)
    try:
        return run(args)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
