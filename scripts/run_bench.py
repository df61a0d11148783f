#!/usr/bin/env python3
"""Sweep the active-cell budget and report MAC reduction per setting.

Example:
    python3 scripts/run_bench.py --count 20 --budgets 2000 5000 10000
"""

import argparse
import sys
import time
from dataclasses import replace

from spsr.cost import compare
from spsr.pipeline import NeckFeatures, PipelineWeights, RunConfig, run_refinement
from spsr.synthetic import roi_corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--canvas", type=int, default=448)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--f0", type=int, default=64)
    parser.add_argument("--budgets", type=int, nargs="+",
                        default=[1000, 2500, 5000, 10000, 20000])
    args = parser.parse_args()

    base = RunConfig(seed=args.seed, f0=args.f0, image_hw=(args.canvas, args.canvas))
    weights = PipelineWeights(None, base)  # one set for the dense run and every budget
    rois = roi_corpus(args.count, "blob", args.canvas, args.seed, base.final_side)
    neck = NeckFeatures.synthesize(args.seed, (args.canvas, args.canvas), base.f_neck)

    t0 = time.perf_counter()
    dense = run_refinement(rois, base, weights, neck, sparse=False)
    dense_time = time.perf_counter() - t0
    print(f"dense route: {dense.ledger.total_macs() / 1e9:.2f} GMAC, {dense_time:.2f}s")
    print(f"{'budget':>8} {'reduction':>10} {'frac s1':>8} {'frac s2':>8} {'frac s3':>8} {'time':>7}")
    for budget in args.budgets:
        cfg = replace(base, top_n_active=budget)
        t0 = time.perf_counter()
        sparse = run_refinement(rois, cfg, weights, neck)
        elapsed = time.perf_counter() - t0
        rep = compare(dense.ledger, sparse.ledger)
        fractions = "".join(f"{st['active_fraction']:>9.3f}" for st in rep["stages"][1:])
        print(f"{budget:>8} {rep['reduction_fraction']:>10.3f}{fractions} {elapsed:>6.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
