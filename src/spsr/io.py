"""File formats: binary weight bundles, SPS tensor dumps, JSON records.

All binary layouts are little-endian. JSON reports are dumped with sorted
keys and an indent of 2, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from typing import Mapping

import numpy as np

from .errors import ContractError, SchemaError
from .metrics import EvalEntry, PanopticSegment, Rle, rle_decode, rle_encode
from .pipeline import RoiBox, RoiInput
from .tensor import SpsTensor

SPS_MAGIC = b"SPS1"
MASK_FORMAT = "sps-rle/1"
TENSOR_FORMAT = "sps-tensor/1"
MAX_MASK_PIXELS = 1 << 26  # largest RLE canvas accepted; decoding holds it as bools
MAX_PANOPTIC_PIXELS = 1 << 30  # summed canvases of one panoptic or reference-mask file
MAX_ROIS = 1 << 12  # RoIs per image; COCO keeps at most 100 detections per image
CLASS_RANGE = (-(1 << 31), (1 << 31) - 1)  # class ids are int32
IMAGE_ID_RANGE = (-(1 << 63), (1 << 63) - 1)  # image ids are int64


def dump_json(path: str, obj):
    """Pretty-printed JSON with sorted keys, written atomically."""
    write_atomic(path, json.dumps(obj, sort_keys=True, indent=2).encode() + b"\n")


def write_atomic(path: str, data: bytes):
    """Write via a temp file and rename, so failures leave no partial output and
    no temp file; a path that cannot be written raises ``SchemaError``."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        raise SchemaError(f"cannot write {path}: {e}") from e
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def check_writable(path: str):
    """Raise ``SchemaError`` unless :func:`write_atomic` could write ``path``,
    creating nothing: ``path`` is no directory, and its nearest existing
    ancestor is a directory this process may write into."""
    ancestor = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if os.path.isdir(path):
        raise SchemaError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(ancestor) or not os.access(ancestor, os.W_OK | os.X_OK):
        raise SchemaError(f"cannot write {path}: {ancestor} is not a writable directory")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as e:  # ValueError: bad JSON or UTF-8
        raise SchemaError(f"cannot read JSON from {path}: {e}") from e


def _finite(values, what: str) -> list[float]:
    """``values`` as floats; ``ValueError`` for NaN or an infinity."""
    try:
        out = [float(v) for v in values]
    except OverflowError as e:  # an integer too large for a float
        raise ValueError(f"{what} must be finite: {e}") from e
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{what} must be finite, got {out}")
    return out


def _integers(values: list, what: str, lo: int, hi: int) -> tuple:
    """Each of ``values`` as an int in [lo, hi]. ``ValueError`` for a value that
    is not an integer (``1.5``, NaN, an infinity, ``"x"``) or lies outside the
    range; ``TypeError`` when ``values`` is not a list."""
    if not isinstance(values, list):
        raise TypeError(f"{what} must be a list, not {type(values).__name__}")
    try:  # plain ints (and integral floats) convert in one C-level pass
        ints = tuple(map(int, values))
        exact = ints == tuple(values)
    except (OverflowError, TypeError, ValueError):
        exact = False
    if not exact:  # check each value: accepts "7", raises for 1.5, NaN or an infinity
        for v in values:
            if isinstance(v, float) and not v.is_integer():
                raise ValueError(f"{what} {v!r} is not an integer")
        ints = tuple(map(int, values))
    if ints and not (lo <= min(ints) and max(ints) <= hi):
        bad = min(ints) if min(ints) < lo else max(ints)
        raise ValueError(f"{what} {bad} lies outside [{lo}, {hi}]")
    return ints


def _integer(value, what: str, lo: int, hi: int) -> int:
    """``value`` as an int in [lo, hi] (see ``_integers``)."""
    return _integers([value], what, lo, hi)[0]


def _class_id(value) -> int:
    """A record's class: an integer in int32 range; ``ValueError`` otherwise."""
    return _integer(value, "class", *CLASS_RANGE)


# --- weight bundles ----------------------------------------------------------
#
# Layout per array: name length (u16), name bytes, rank (u8), dims (u32 each),
# then the f32 payload.


def save_weights(path: str, arrays: Mapping[str, np.ndarray]):
    chunks = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    write_atomic(path, b"".join(chunks))


def load_weights(path: str) -> dict:
    """Arrays by name, as read-only float32 views of the file's bytes."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise SchemaError(f"cannot read weights from {path}: {e}") from e
    arrays = {}
    pos = 0
    while pos < len(data):
        try:
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<B", data, pos)
            pos += 1
            dims = struct.unpack_from(f"<{rank}I", data, pos)
            pos += 4 * rank
            count = int(np.prod(dims, dtype=np.int64)) if rank else 1
            arr = np.frombuffer(data, dtype="<f4", count=count, offset=pos).reshape(dims)
            pos += 4 * count
        except (struct.error, ValueError) as e:
            raise SchemaError(f"truncated weight bundle {path}: {e}") from e
        arrays[name] = arr
    return arrays


# --- SPS tensor dumps --------------------------------------------------------
#
# Header: magic "SPS1", then F, H, W, N_A, N_P as u32. Payload: active rows,
# passive rows (f32, row-major), then the index map (u32, row-major).


def save_sps(path: str, t: SpsTensor):
    header = SPS_MAGIC + struct.pack("<5I", t.f, t.h, t.w, t.n_active, t.n_passive)
    body = (np.ascontiguousarray(t.active, dtype="<f4").tobytes()
            + np.ascontiguousarray(t.passive, dtype="<f4").tobytes()
            + np.ascontiguousarray(t.index_map, dtype="<u4").tobytes())
    write_atomic(path, header + body)


def load_sps(path: str) -> SpsTensor:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise SchemaError(f"cannot read tensor from {path}: {e}") from e
    if data[:4] != SPS_MAGIC:
        raise SchemaError(f"{path} is not an SPS tensor dump (bad magic)")
    try:
        f, h, w, n_a, n_p = struct.unpack_from("<5I", data, 4)
        pos = 4 + 20
        active = np.frombuffer(data, dtype="<f4", count=n_a * f, offset=pos).reshape(n_a, f)
        pos += 4 * n_a * f
        passive = np.frombuffer(data, dtype="<f4", count=n_p * f, offset=pos).reshape(n_p, f)
        pos += 4 * n_p * f
        index = np.frombuffer(data, dtype="<u4", count=h * w, offset=pos).reshape(h, w)
        pos += 4 * h * w
    except (struct.error, ValueError) as e:
        raise SchemaError(f"truncated SPS dump {path}: {e}") from e
    if pos != len(data):
        raise SchemaError(f"SPS dump {path} has {len(data) - pos} bytes after its index map")
    return _finite_sps(active, passive, index, path)


def sps_to_dict(t: SpsTensor) -> dict:
    return {
        "format": TENSOR_FORMAT,
        "f": t.f, "h": t.h, "w": t.w,
        "active": np.asarray(t.active, dtype=np.float32).tolist(),
        "passive": np.asarray(t.passive, dtype=np.float32).tolist(),
        "index_map": t.index_map.tolist(),
    }


def sps_from_dict(d: dict) -> SpsTensor:
    if not isinstance(d, dict):
        raise SchemaError("a tensor record must be a JSON object")
    try:
        if d.get("format") != TENSOR_FORMAT:
            raise SchemaError(f"unknown tensor format {d.get('format')!r}")
        f = _integer(d["f"], "f", 1, (1 << 32) - 1)
        active = np.asarray(d["active"], dtype=np.float64).reshape(-1, f)
        passive = np.asarray(d["passive"], dtype=np.float64).reshape(-1, f)
        index = np.asarray(d["index_map"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"malformed tensor record: {e}") from e
    return _finite_sps(active, passive, index, "tensor record")


def _finite_sps(active, passive, index, source: str) -> SpsTensor:
    """The loaded tensor, or ``SchemaError`` if it breaks the tensor's contract or
    holds a value that is not finite: NaN/Inf would pass every operator and
    reach JSON output as bare tokens that are not valid JSON."""
    if not (np.all(np.isfinite(active)) and np.all(np.isfinite(passive))):
        raise SchemaError(f"{source}: tensor values must be finite")
    try:
        return SpsTensor(active=active, passive=passive, index_map=index)
    except ContractError as e:
        raise SchemaError(f"{source}: {e}") from e


# --- JSON record schemas -----------------------------------------------------


def rle_to_dict(rle: Rle) -> dict:
    return {"height": rle.height, "width": rle.width, "counts": list(rle.counts)}


def rle_from_dict(d: dict) -> Rle:
    try:
        height = _integer(d["height"], "height", 1, MAX_MASK_PIXELS)
        width = _integer(d["width"], "width", 1, MAX_MASK_PIXELS)
        counts = _integers(d["counts"], "counts", 0, MAX_MASK_PIXELS)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed RLE record: {e}") from e
    if height * width > MAX_MASK_PIXELS:
        raise SchemaError(f"RLE canvas {height}x{width} exceeds {MAX_MASK_PIXELS} pixels")
    return Rle(height=height, width=width, counts=counts)


def load_rois(path: str) -> list[RoiInput]:
    """RoI records: list of {box: [x0,y0,x1,y1], class: int, score: float}."""
    data = load_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}: RoI file must contain a list")
    if len(data) > MAX_ROIS:
        raise SchemaError(f"{path}: {len(data)} RoIs, over the {MAX_ROIS} cap")
    rois = []
    for i, rec in enumerate(data):
        try:
            box = RoiBox(*_finite(rec["box"], "box coordinates"))
            score = _finite([rec.get("score", 1.0)], "score")[0]
            rois.append(RoiInput(box=box, cls_score=score,
                                 class_id=_class_id(rec.get("class", 0))))
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"{path}: bad RoI record {i}: {e}") from e
    return rois


def load_ref_masks(path: str) -> list[np.ndarray]:
    """Reference masks in RoI frame, aligned with the RoI file by index. Every
    record is parsed and the summed canvases are checked against
    ``MAX_PANOPTIC_PIXELS`` before any mask is decoded."""
    data = load_json(path)
    if not isinstance(data, dict) or data.get("format") != MASK_FORMAT:
        raise SchemaError(f"{path}: expected a {{format: {MASK_FORMAT!r}, masks: [...]}} object")
    try:
        rles = [rle_from_dict(m) for m in data["masks"]]
    except (KeyError, TypeError) as e:
        raise SchemaError(f"{path}: malformed mask list: {e}") from e
    pixels = sum(r.height * r.width for r in rles)
    if pixels > MAX_PANOPTIC_PIXELS:
        raise SchemaError(f"{path}: masks hold {pixels} pixels, over the {MAX_PANOPTIC_PIXELS} cap")
    return [rle_decode(r) for r in rles]


def masks_to_dict(masks: list[np.ndarray], scores: list[float],
                  classes: list[int]) -> dict:
    out = []
    for mask, score, cls in zip(masks, scores, classes):
        rec = rle_to_dict(rle_encode(mask))
        rec["score"] = float(score)
        rec["class"] = int(cls)
        out.append(rec)
    return {"format": MASK_FORMAT, "masks": out}


def load_eval_entries(path: str, need_score: bool, need_mask: bool = False) -> list[EvalEntry]:
    """Detection/segmentation records with a box and/or mask geometry: each needs
    an rle mask when ``need_mask`` (seg, boundary) and a box otherwise (det)."""
    data = load_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}: evaluation file must contain a list")
    entries = []
    for i, rec in enumerate(data):
        try:
            if not isinstance(rec, dict):
                raise TypeError("record must be an object")
            if rec.get("iscrowd", False):
                raise SchemaError("crowd regions are not supported")
            box = np.asarray(_finite(rec["box"], "box coordinates")) if "box" in rec else None
            if box is not None and box.shape != (4,):
                raise ValueError(f"a box has 4 coordinates, not {box.size}")
            mask = rle_from_dict(rec["rle"]) if "rle" in rec else None
            if need_mask and mask is None:
                raise SchemaError("this task needs an rle mask per record")
            if not need_mask and box is None:
                raise SchemaError("this task needs a box per record")
            score = _finite([rec["score"] if need_score else rec.get("score", 1.0)], "score")[0]
            image_id = _integer(rec.get("image_id", 0), "image_id", *IMAGE_ID_RANGE)
            entries.append(EvalEntry(image_id=image_id,
                                     class_id=_class_id(rec["class"]), score=score,
                                     box=box, mask=mask))
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"{path}: bad record {i}: {e}") from e
    return entries


def load_panoptic(path: str):
    """Panoptic file: list of {image_id, segments: [{class, is_thing, rle}]}, one
    record per image. The whole file is parsed and its summed canvases are
    checked against ``MAX_PANOPTIC_PIXELS``; no mask is decoded.

    Returns (segments by image, each segment's mask an ``Rle``; thing classes;
    stuff classes).
    """
    data = load_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}: panoptic file must contain a list")
    records: dict = {}  # image id -> [PanopticSegment]
    things, stuffs = set(), set()
    for i, rec in enumerate(data):
        try:
            image_id = _integer(rec["image_id"], "image_id", *IMAGE_ID_RANGE)
            if image_id in records:
                raise ValueError(f"image_id {image_id} already has a record")
            segs = []
            for seg in rec["segments"]:
                cls = _class_id(seg["class"])
                (things if seg.get("is_thing", True) else stuffs).add(cls)
                segs.append(PanopticSegment(class_id=cls, mask=rle_from_dict(seg["rle"])))
            records[image_id] = segs
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"{path}: bad panoptic record {i}: {e}") from e
    pixels = sum(s.mask.height * s.mask.width for segs in records.values() for s in segs)
    if pixels > MAX_PANOPTIC_PIXELS:
        raise SchemaError(f"{path}: segments hold {pixels} pixels, "
                          f"over the {MAX_PANOPTIC_PIXELS} cap")
    return records, things, stuffs
