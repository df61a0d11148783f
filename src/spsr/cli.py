"""Command-line interface: refine, eval and bench subcommands.

The CLI is a thin shell over the library: shared options default to
:class:`RunConfig`'s fields, ``bench --shape`` and ``--canvas`` to
:class:`SyntheticShapeSpec`'s, and no environment variable is read. A command
runs NumPy's BLAS on one thread, so ``--threads`` is its one parallel setting.
The ledger report, its active fractions included, is :func:`compare`'s. All
file outputs are deterministic for fixed inputs and seed; wall-clock timings
go to stdout only.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import json
import os
import sys
import time

from . import io, pipeline
from .cost import compare
from .errors import ContractError, SchemaError
from .metrics import ap_suite, pq
from .pipeline import NeckFeatures, RunConfig, run_refinement
from .synthetic import SHAPES, SyntheticShapeSpec, roi_corpus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spsr",
        description="Sparse fine-grained mask refinement and segmentation metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=RunConfig.seed)
    common.add_argument("--stages", type=int, default=RunConfig.stages,
                        help="refinement stages after the coarse one (1-3)")
    common.add_argument("--top-n", type=int, default=RunConfig.top_n_active,
                        help="image-wide active-cell budget per stage")
    common.add_argument("--f0", type=int, default=RunConfig.f0,
                        help="feature size of the coarse stage")
    common.add_argument("--f-neck", type=int, default=RunConfig.f_neck,
                        help="channel count of the image-level feature grids")
    common.add_argument("--f-query", type=int, default=RunConfig.f_query,
                        help="length of the per-RoI query vectors")
    common.add_argument("--threads", type=int, default=RunConfig.threads)

    p = sub.add_parser("refine", parents=[common],
                       help="refine RoI masks; writes masks.json and ledger.json",
                       epilog="RoI schema: [{box: [x0,y0,x1,y1], class: int, score: float}]; "
                              "masks use the sps-rle/1 format (column-major counts, "
                              "background first). All RoIs share one image's budget.")
    p.add_argument("--mode", choices=("oracle", "weights"), default=RunConfig.mode)
    p.add_argument("--rois", required=True,
                   help="JSON list of {box: [x0,y0,x1,y1], class, score}")
    p.add_argument("--ref-masks", default=None,
                   help="RoI-frame reference masks (sps-rle/1), oracle mode")
    p.add_argument("--weights", default=None, help="binary weight bundle")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--image-size", type=int, nargs=2, metavar=("W", "H"), default=None)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth",
                       epilog="det/seg/boundary records: [{image_id, class, score, box "
                              "and/or rle}]; panoptic records: [{image_id, segments: "
                              "[{class, is_thing, rle}]}]. RLE is sps-rle/1.")
    p.add_argument("--task", choices=("det", "seg", "boundary", "panoptic"), required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--out", default=None, help="write the report JSON here as well")

    p = sub.add_parser("bench", parents=[common],
                       help="compare sparse vs dense pipelines on synthetic masks")
    p.add_argument("--count", type=int, default=50, help=f"corpus size (1 to {io.MAX_ROIS})")
    p.add_argument("--shape", choices=SHAPES, default=SyntheticShapeSpec.shape)
    p.add_argument("--canvas", type=int, default=SyntheticShapeSpec.canvas_h,
                   help="square canvas side")
    p.add_argument("--out", default=None, help="write the report JSON here")

    return parser


def _run_config(args, mode: str, image_hw=None) -> RunConfig:
    return RunConfig(stages=args.stages, top_n_active=args.top_n, seed=args.seed,
                     mode=mode, f0=args.f0, f_query=args.f_query, f_neck=args.f_neck,
                     threads=args.threads, image_hw=image_hw)


def cmd_refine(args) -> int:
    masks_path, ledger_path = (os.path.join(args.out, n) for n in ("masks.json", "ledger.json"))
    for path in (masks_path, ledger_path):
        io.check_writable(path)
    image_hw = (args.image_size[1], args.image_size[0]) if args.image_size else None
    config = _run_config(args, args.mode, image_hw)
    rois = io.load_rois(args.rois)
    if config.mode == "oracle":
        if not args.ref_masks:
            raise SchemaError("oracle mode needs --ref-masks")
        masks = io.load_ref_masks(args.ref_masks)
        if len(masks) != len(rois):
            raise SchemaError(f"{len(rois)} RoIs but {len(masks)} reference masks")
        for roi, mask in zip(rois, masks):
            roi.ref_mask = mask
    bundle = io.load_weights(args.weights) if args.weights else None
    result = run_refinement(rois, config, pipeline.PipelineWeights(bundle, config))

    out_masks = [r.probs >= 0.5 for r in result.per_roi]
    io.dump_json(masks_path, io.masks_to_dict(out_masks, [r.score for r in result.per_roi],
                                              [r.class_id for r in result.per_roi]))
    report = compare(result.ledger)
    io.dump_json(ledger_path, report)
    print(f"refined {len(rois)} RoIs -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.out:
        io.check_writable(args.out)
    if args.task == "panoptic":
        preds, things_p, stuffs_p = io.load_panoptic(args.preds)
        gts, things_g, stuffs_g = io.load_panoptic(args.gts)
        things, stuffs = things_p | things_g, stuffs_p | stuffs_g
        if things & stuffs:
            raise SchemaError(f"classes declared both thing and stuff: {sorted(things & stuffs)}")
        report = pq(preds, gts, things, stuffs).to_dict()
    else:
        kind = {"det": "box", "seg": "mask", "boundary": "boundary"}[args.task]
        need_mask = kind != "box"
        preds = io.load_eval_entries(args.preds, need_score=True, need_mask=need_mask)
        gts = io.load_eval_entries(args.gts, need_score=False, need_mask=need_mask)
        report = ap_suite(preds, gts, kind)
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.out:
        io.dump_json(args.out, report)
    return 0


def cmd_bench(args) -> int:
    if args.out:
        io.check_writable(args.out)
    config = _run_config(args, "oracle", (args.canvas, args.canvas))
    if not 1 <= args.count <= io.MAX_ROIS:
        raise SchemaError(f"--count {args.count} lies outside 1..{io.MAX_ROIS}, the RoI cap")
    if args.canvas * args.canvas > io.MAX_MASK_PIXELS:
        raise SchemaError(f"--canvas {args.canvas} is over the {io.MAX_MASK_PIXELS}-pixel "
                          f"mask cap")
    weights = pipeline.PipelineWeights(None, config)  # capped before the corpus is drawn
    rois = roi_corpus(args.count, args.shape, args.canvas, args.seed, config.final_side)
    # one neck for both routes: a run prunes the level dict it is given, so the
    # dense run gets a copy and the sparse run, the last one, the neck's own
    neck = NeckFeatures.synthesize(config.seed, (args.canvas, args.canvas), config.f_neck)

    # the first bilinear sample imports scipy.sparse; do it here, untimed
    import scipy.sparse  # noqa: F401

    # the dense route runs for its wall time only: the sparse run's ledger
    # already counts every op with every cell active
    t0 = time.perf_counter()
    run_refinement(rois, config, weights=weights, neck=NeckFeatures(dict(neck.levels)),
                   sparse=False)
    t1 = time.perf_counter()
    sparse = run_refinement(rois, config, weights=weights, neck=neck, sparse=True)
    t2 = time.perf_counter()

    report = compare(sparse.ledger)
    report["corpus"] = {"count": args.count, "shape": args.shape,
                        "canvas": args.canvas, "seed": args.seed,
                        "f0": config.f0, "stages": config.stages,
                        "top_n": config.top_n_active}
    print(f"reduction_fraction {report['reduction_fraction']:.4f}")
    print(f"wall_time dense={t1 - t0:.3f}s sparse={t2 - t1:.3f}s")
    for stage in report["stages"]:
        if "active_fraction" in stage:
            print(f"stage {stage['stage']} active_fraction {stage['active_fraction']:.4f}")
    if args.out:
        io.dump_json(args.out, report)
    return 0


@functools.cache
def _blas_thread_calls():
    """The ``(get, set)`` thread-count calls of NumPy's bundled OpenBLAS, or
    None where its bundled-library directory holds no library exporting them."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        calls = [getattr(lib, f"scipy_openblas_{verb}_num_threads64_", None)
                 for verb in ("get", "set")]
        if all(calls):
            return tuple(calls)
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run BLAS on one thread, then restore the caller's count. A GEMM split
    over BLAS threads may round differently, so the count, which OpenBLAS
    takes from the environment, would change output bytes; without the calls
    the count stays as the environment set it."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv=None) -> int:
    with _one_blas_thread():
        args = build_parser().parse_args(argv)
        handlers = {"refine": cmd_refine, "eval": cmd_eval, "bench": cmd_bench}
        try:
            return handlers[args.command](args)
        except SchemaError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except ContractError as e:
            print(f"contract violation: {e}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
