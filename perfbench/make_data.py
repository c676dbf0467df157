"""Regenerate ``data/pool.json`` and ``data/golden.json``.

The pool of irreducible covariant representations for ``analyze_irreps``
(and the files of ``cli_roundtrip``) is computed once with the package and
stored, so that every commit is measured on the same matrices; the golden
verdicts are the package's answers on them.  Both are checked here to be
unchanged under a change of seed and a unitary conjugation.

    python3 perfbench/make_data.py      # from the repository root
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 2024


def spec_of(name, action) -> inputs.ActionSpec:
    return inputs.ActionSpec(
        name,
        np.asarray(action.group.table),
        list(action.group.labels),
        tuple(action.algebra.block_dims),
        [(tuple(a.perm), [np.asarray(u) for u in a.unitaries]) for a in action.auts],
    )


def z2z2_swap_action():
    """Z2 x Z2 on M_2 + M_2: (a, b) swaps the blocks a times and conjugates
    both by diag(1, -1) b times."""
    from crossrep import GroupAction, MatAlg, StarAut
    from crossrep.examples import product_cyclic_group

    A = MatAlg([2, 2])
    D = np.diag([1.0, -1.0]).astype(complex)
    auts = []
    for a in range(2):
        for b in range(2):
            U = np.linalg.matrix_power(D, b)
            auts.append(StarAut(A, (1, 0) if a else (0, 1), [U, U]))
    return GroupAction(product_cyclic_group(2), A, auts)


def pool_sources():
    """(name, action spec, list of CovariantRep) for every pool family."""
    from crossrep.examples import cute_example, inner_z8_minimal, weyl_pair_homogeneous
    from crossrep.sampling import crossed_irreps

    rng = np.random.default_rng(POOL_SEED)
    specs = [a for a in inputs.enumerate_actions(POOL_SEED) if a.host_dim <= 32 or a.name == "S3-perm[1x6]"]
    specs += [
        inputs.cyclic_action("Z3[1,1,1]", 3, [1, 1, 1], [[0, 1, 2]], [[0]], rng),
        inputs.cyclic_action("Z6[1,1,1]", 6, [1, 1, 1], [[0, 1, 2]], [[1]], rng),
        inputs.cyclic_action("Z4[1,2]", 4, [1, 2], [[0], [1]], [[1], [0, 2]], rng),
        inputs.cyclic_action("Z5[1x5]", 5, [1] * 5, [[0, 1, 2, 3, 4]], [[0]], rng),
        inputs.cyclic_action("Z8[1,1,2]", 8, [1, 1, 2], [[0, 1], [2]], [[3], [1, 6]], rng),
        inputs.s3_permutation_action("S3-conj[2,2]", [(2, 2)], rng),
        inputs.s3_permutation_action("S3-conj[2,2,2]", [(3, 2)], rng),
        inputs.s3_permutation_action("S3-conj[1x6]", [(6, 1)], rng),
        inputs.s3_inner_action("S3-inner[1]", [["trivial"]], rng),
        inputs.s3_inner_action("S3-inner[2,2]", [["standard"], ["trivial", "sign"]], rng),
    ]
    out = []
    for spec in specs:
        out.append((spec.name, spec, crossed_irreps(inputs.to_action(spec), seed=0)))
    weyl_actions = {}
    for q in (2, 3):
        cov = weyl_pair_homogeneous(q)
        spec = spec_of(f"Weyl-Z{q}xZ{q}", cov.action)
        weyl_actions[q] = spec
        out.append((f"weyl_pair_homogeneous({q})", spec, [cov]))
    out.append(("Weyl-Z2xZ2 irreps", weyl_actions[2], crossed_irreps(inputs.to_action(weyl_actions[2]), seed=0)))
    swap = z2z2_swap_action()
    out.append(("Z2xZ2-swap[2,2]", spec_of("Z2xZ2-swap[2,2]", swap), crossed_irreps(swap, seed=0)))
    for name, (act, cov) in (("cute_example", cute_example()), ("inner_z8_minimal", inner_z8_minimal())):
        out.append((name, spec_of(name, act), [cov]))
    return out


def build_pool():
    actions, irreps = [], []
    for name, spec, covs in pool_sources():
        actions.append(inputs.action_record(spec))
        for i, cov in enumerate(covs):
            irreps.append(
                {
                    "name": f"{name}#{i}",
                    "action": len(actions) - 1,
                    "gens": {l: inputs.mat_to(M) for l, M in cov.base.gens.items()},
                    "unitaries": [inputs.mat_to(U) for U in cov.unitaries],
                }
            )
    return {"actions": actions, "irreps": irreps}


def golden_verdicts(pool_path: Path) -> dict:
    from crossrep.sampling import crossed_irreps

    enum = {}
    for seed in (0, 1):
        for spec in inputs.enumerate_actions(seed, extra=True):
            dims = workloads.enumerate_verdict(spec, crossed_irreps(inputs.to_action(spec), seed=seed))["dims"]
            if enum.setdefault(spec.name, dims) != dims:
                raise SystemExit(f"{spec.name}: dimensions change with the seed")
    pool = inputs.load_pool(pool_path)
    rows = []
    for seed in (0, 1):
        for i, cov in enumerate(inputs.analyze_pool(seed, pool)):
            kind = workloads.kind_of(cov.action)
            report = workloads.analyze_item(inputs.to_covariant(cov), kind, seed)
            row = workloads.analyze_verdict(kind, cov.dim, report)
            if seed == 0:
                rows.append(row)
            elif rows[i] != row:
                raise SystemExit(f"{cov.name}: verdict changes with the seed")
            res = workloads.reconstruction_residual(cov, kind, report)
            if not res <= workloads.RECON_TOL:
                raise SystemExit(f"{cov.name}: block-form residual {res:.2e}")
    return {"enumerate_irreps": enum, "analyze_irreps": rows}


def main():
    data = HERE / "data"
    data.mkdir(exist_ok=True)
    with open(data / "pool.json", "w", encoding="utf-8") as fh:
        json.dump(build_pool(), fh, separators=(",", ":"))
    golden = golden_verdicts(data / "pool.json")
    with open(data / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
    print(f"{len(golden['analyze_irreps'])} pool irreducibles, {len(golden['enumerate_irreps'])} ladder actions")


if __name__ == "__main__":
    main()
