#!/usr/bin/env python3
"""End-to-end demo: synthesize shapes, refine their masks, paste and evaluate.

Generates a small corpus, runs oracle-mode refinement, pastes the RoI masks
back into image space, then scores the pasted masks against the ground truth
with mask AP, boundary AP and PQ.

Example:
    python3 scripts/demo_end_to_end.py --count 8 --out /tmp/spsr-demo
"""

import argparse
import os
import sys

from spsr import io
from spsr.cost import compare
from spsr.metrics import EvalEntry, PanopticSegment, ap_suite, pq, rle_encode
from spsr.pipeline import RoiInput, RunConfig, paste_mask, run_refinement
from spsr.synthetic import SyntheticShapeSpec, gen_synthetic, reference_mask


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--canvas", type=int, default=320)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--f0", type=int, default=32)
    parser.add_argument("--out", default=None, help="optionally dump all JSON artifacts here")
    args = parser.parse_args()

    config = RunConfig(seed=args.seed, f0=args.f0, f_query=args.f0, f_neck=args.f0,
                       image_hw=(args.canvas, args.canvas))
    rois, image_masks = [], []
    for i in range(args.count):
        kind = ("disk", "ellipse", "blob")[i % 3]
        spec = SyntheticShapeSpec(shape=kind, canvas_h=args.canvas,
                                  canvas_w=args.canvas, seed=args.seed + i)
        mask, box, shape = gen_synthetic(spec)
        image_masks.append(mask)
        rois.append(RoiInput(box=box, cls_score=0.95, class_id=i % 3,
                             ref_mask=reference_mask(shape, box, config.final_side)))

    result = run_refinement(rois, config)
    ledger = compare(result.ledger)  # refine's ledger.json
    print(f"refined {len(rois)} RoIs; total {ledger['total_sparse_macs'] / 1e9:.2f} GMAC")
    for stage in ledger["stages"][1:]:
        print(f"  stage {stage['stage']}: active fraction {stage['active_fraction']:.3f}")

    preds, gts, pred_pan, gt_pan = [], [], [], []
    for i, (roi, out) in enumerate(zip(rois, result.per_roi)):
        pasted = paste_mask(out.probs, roi.box, (args.canvas, args.canvas))
        preds.append(EvalEntry(image_id=i, class_id=out.class_id, score=out.score,
                               mask=rle_encode(pasted)))
        gts.append(EvalEntry(image_id=i, class_id=out.class_id,
                             mask=rle_encode(image_masks[i])))
        pred_pan.append((i, [PanopticSegment(out.class_id, pasted)]))
        gt_pan.append((i, [PanopticSegment(out.class_id, image_masks[i])]))

    seg_report = ap_suite(preds, gts, "mask")
    boundary_report = ap_suite(preds, gts, "boundary")
    pq_report = pq(dict(pred_pan), dict(gt_pan), {0, 1, 2}, set())
    print("mask AP:", {k: round(v, 4) for k, v in seg_report.items()})
    print("boundary AP:", {k: round(v, 4) for k, v in boundary_report.items()})
    print(f"PQ {pq_report.pq:.4f}  SQ {pq_report.sq:.4f}  RQ {pq_report.rq:.4f}")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        io.dump_json(os.path.join(args.out, "seg_report.json"), seg_report)
        io.dump_json(os.path.join(args.out, "pq_report.json"), pq_report.to_dict())
        io.dump_json(os.path.join(args.out, "ledger.json"), ledger)
        print(f"artifacts written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
