"""File formats: binary weight bundles, JSON records.

All binary layouts are little-endian. JSON reports are dumped with sorted
keys and an indent of 2, so identical inputs produce identical bytes. Each
writer builds its output in one buffer, which ``write_atomic`` writes once.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import os
import stat
import struct
from typing import Mapping

import numpy as np

from .errors import SchemaError
from .metrics import EvalEntry, PanopticSegment, Rle, rle_decode, rle_encode
from .pipeline import RoiBox, RoiInput

MASK_FORMAT = "sps-rle/1"
MAX_MASK_PIXELS = 1 << 26  # largest RLE canvas accepted; decoding holds it as bools
MAX_PANOPTIC_PIXELS = 1 << 30  # summed canvases of one panoptic or reference-mask file
# largest JSON input, a bound on what parsing it builds: no JSON text parsed into more
# than 47.3x its size (tracemalloc, CPython 3.11.7, 2 MiB files of each shape): nested
# one-element lists 44-45x, the same after one astral character, which makes the decoded
# text 4 bytes a character, 47.3x; nested one-key objects 37.7x (47.2x on 3.10.13, whose
# one-key dict is larger), `{"":0}` records 28.5x and `{}` lists 25.2x. So a parse at the cap stays under 56 x 32 MiB = 1.75 GiB,
# whatever the file holds; a worst-shape file of exactly 32 MiB took 8.7 s and 1,683 MB
# child max RSS end to end, then exited 2.
MAX_JSON_BYTES = 1 << 25
_JSON_BATCH = 1 << 12  # encoder chunks joined at a time while dumping
MAX_ROIS = 1 << 12  # RoIs per image; COCO keeps at most 100 detections per image
CLASS_RANGE = (-(1 << 31), (1 << 31) - 1)  # class ids are int32
IMAGE_ID_RANGE = (-(1 << 63), (1 << 63) - 1)  # image ids are int64


def dump_json(path: str, obj):
    """Pretty-printed JSON with sorted keys, written atomically: the bytes of
    ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline. The stdlib
    encoder's chunks are joined a batch at a time into one buffer, so no list
    of every chunk, joined string or second copy is held; an object the
    encoder refuses raises before any file exists."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    out = bytearray()
    while batch := list(itertools.islice(chunks, _JSON_BATCH)):
        out += "".join(batch).encode()
    out += b"\n"
    write_atomic(path, out)


def write_atomic(path: str, data: bytes | bytearray):
    """Write ``data``, one bytes-like buffer whose length is the bytes written,
    via a temp file and rename, so failures leave no partial output and no temp
    file; a path that cannot be written raises ``SchemaError``. The temp file
    is created with mode 0o666 less the umask, as a plain ``open`` creates a
    file, and the output keeps that mode."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        name = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name  # ours to remove only once created
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


def _map_file(path: str, what: str, max_bytes: int | None = None):
    """The bytes of the regular file at ``path``, mapped read-only (``b""`` if empty):
    the one opener of every input file. A FIFO is refused, not waited on, and a file
    over ``max_bytes`` is refused from its size, before any byte is read."""
    try:
        with open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as f:
            st = os.fstat(f.fileno())
            if not stat.S_ISREG(st.st_mode):
                raise SchemaError(f"{what} {path} must be a regular file, to be mapped")
            if max_bytes is not None and st.st_size > max_bytes:
                raise SchemaError(f"{what} {path} has {st.st_size} bytes, over the {max_bytes} cap")
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) if st.st_size else b""
    except OSError as e:
        raise SchemaError(f"cannot read {what} from {path}: {e}") from e


def load_json(path: str):
    """The JSON document at ``path``, decoded as UTF-8 (no encoding sniffing);
    a file over ``MAX_JSON_BYTES`` is refused from its size, and a parse that runs
    out of memory raises ``SchemaError`` as well."""
    data = _map_file(path, "JSON", MAX_JSON_BYTES)
    try:  # ValueError: bad UTF-8 or bad JSON
        text = str(data, "utf-8")
        del data  # unmapped before the parse allocates
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise SchemaError(f"cannot read JSON from {path}: {e}") from e
    except MemoryError as e:  # the cap bounds the parse, not what this process may allocate
        raise SchemaError(f"cannot read JSON from {path}: out of memory while parsing it") from e


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
    if set(map(type, values)) <= {int}:  # JSON integers, as the parser gives them
        ints = tuple(values)
        if not ints or lo <= min(ints) and max(ints) <= hi:
            return ints
    try:  # integral floats (and bools) convert in one C-level pass
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
    if type(value) is int and lo <= value <= hi:
        return value
    return _integers([value], what, lo, hi)[0]


def _class_id(value) -> int:
    """A record's class: an integer in int32 range; ``ValueError`` otherwise."""
    return _integer(value, "class", *CLASS_RANGE)


# --- weight bundles ----------------------------------------------------------
#
# Layout per array: name length (u16), name bytes, rank (u8), dims (u32 each),
# then the f32 payload.


def _cast_into(buf: bytearray, pos: int, arr: np.ndarray, dtype: str) -> int:
    """Cast ``arr`` into ``buf`` at byte ``pos`` as ``dtype`` (4 bytes a value,
    the cast ``astype`` makes, without a copy of ``arr``); the end of its slot."""
    np.copyto(np.frombuffer(buf, dtype, arr.size, pos).reshape(arr.shape), arr, casting="unsafe")
    return pos + 4 * arr.size


def save_weights(path: str, arrays: Mapping[str, np.ndarray]):
    """The bundle, in one buffer sized from the shapes (a scalar is saved as
    shape ``(1,)``)."""
    records = [(name.encode("utf-8"), np.atleast_1d(arrays[name])) for name in sorted(arrays)]
    buf = bytearray(sum(3 + len(key) + 4 * arr.ndim + 4 * arr.size for key, arr in records))
    pos = 0
    for key, arr in records:
        struct.pack_into(f"<H{len(key)}sB{arr.ndim}I", buf, pos, len(key), key, arr.ndim,
                         *arr.shape)
        pos = _cast_into(buf, pos + 3 + len(key) + 4 * arr.ndim, arr, "<f4")
    write_atomic(path, buf)


def load_weights(path: str) -> dict:
    """Arrays by name, as read-only float32 views of the file's bytes.

    The file is mapped read-only, so an array the head refuses is never read;
    it must not change while the views are in use. A name given twice is
    refused, as is a partial trailing record.
    """
    data = _map_file(path, "weights")
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
        if name in arrays:
            raise SchemaError(f"weight bundle {path} holds array {name} twice")
        arrays[name] = arr
    return arrays


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


def _records(path: str, what: str, data, parse) -> list:
    """``parse(record)`` of each record of the JSON list ``data``. A record that is
    not an object, or that ``parse`` refuses with ``KeyError``, ``TypeError`` or
    ``ValueError``, is a ``SchemaError`` naming the file, the kind and the index."""
    if not isinstance(data, list):
        raise SchemaError(f"{path}: {what} records must be a list, not {type(data).__name__}")
    out = []
    for i, rec in enumerate(data):
        try:
            if not isinstance(rec, dict):
                raise TypeError(f"a record must be a JSON object, not {type(rec).__name__}")
            out.append(parse(rec))
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"{path}: bad {what} record {i}: {e}") from e
    return out


def _check_canvases(path: str, what: str, rles) -> None:
    """Refuse a file whose RLE canvases sum to more than ``MAX_PANOPTIC_PIXELS``."""
    n = sum(r.height * r.width for r in rles)
    if n > MAX_PANOPTIC_PIXELS:
        raise SchemaError(f"{path}: {what} hold {n} pixels, over the {MAX_PANOPTIC_PIXELS} cap")


def _roi(rec: dict) -> RoiInput:
    return RoiInput(box=RoiBox(*_finite(rec["box"], "box coordinates")),
                    cls_score=_finite([rec.get("score", 1.0)], "score")[0],
                    class_id=_class_id(rec.get("class", 0)))


def load_rois(path: str) -> list[RoiInput]:
    """RoI records: list of {box: [x0,y0,x1,y1], class: int, score: float}."""
    data = load_json(path)
    if isinstance(data, list) and len(data) > MAX_ROIS:
        raise SchemaError(f"{path}: {len(data)} RoIs, over the {MAX_ROIS} cap")
    return _records(path, "RoI", data, _roi)


def load_ref_masks(path: str) -> list[np.ndarray]:
    """Reference masks in RoI frame, aligned with the RoI file by index. Every
    record is parsed and the summed canvases are checked against
    ``MAX_PANOPTIC_PIXELS`` before any mask is decoded."""
    data = load_json(path)
    if not isinstance(data, dict) or data.get("format") != MASK_FORMAT:
        raise SchemaError(f"{path}: expected a {{format: {MASK_FORMAT!r}, masks: [...]}} object")
    rles = _records(path, "mask", data.get("masks"), rle_from_dict)
    _check_canvases(path, "masks", rles)
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

    def entry(rec: dict) -> EvalEntry:
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
        return EvalEntry(image_id=image_id, class_id=_class_id(rec["class"]), score=score,
                         box=box, mask=mask)

    return _records(path, "evaluation", load_json(path), entry)


def load_panoptic(path: str):
    """Panoptic file: list of {image_id, segments: [{class, is_thing, rle}]}, one
    record per image, parsed whole and its summed canvases checked; no mask is
    decoded; ``is_thing`` is a JSON boolean, ``true`` when absent. Returns
    (segments by image, each mask an ``Rle``; thing classes; stuff classes)."""
    records: dict = {}  # image id -> [PanopticSegment]
    things, stuffs = set(), set()

    def image(rec: dict):
        image_id = _integer(rec["image_id"], "image_id", *IMAGE_ID_RANGE)
        if image_id in records:
            raise ValueError(f"image_id {image_id} already has a record")
        segs = []
        for seg in rec["segments"]:
            cls = _class_id(seg["class"])
            is_thing = seg.get("is_thing", True)
            if type(is_thing) is not bool:
                raise ValueError(f"is_thing must be true or false, not {json.dumps(is_thing)}")
            (things if is_thing else stuffs).add(cls)
            segs.append(PanopticSegment(class_id=cls, mask=rle_from_dict(seg["rle"])))
        records[image_id] = segs

    _records(path, "panoptic", load_json(path), image)
    _check_canvases(path, "segments", [s.mask for segs in records.values() for s in segs])
    return records, things, stuffs
