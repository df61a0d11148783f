"""Truncated, mutated and oversized inputs for every loader and every CLI command.

A loader may only accept an input or raise ``SchemaError``/``ContractError``.
The CLI exits 0, 2 or 3 with no traceback, and leaves no output file unless
it exits 0. The refine and bench runs use tiny sizes (``--f0 16``, two RoIs).
"""

import contextlib
import functools
import io as stdio
import json
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spsr import io
from spsr.cli import main
from spsr.errors import ContractError, SchemaError
from spsr.metrics import rle_encode
from spsr.synthetic import SyntheticShapeSpec, gen_synthetic, reference_mask
from spsr.tensor import SpsTensor

# Raw JSON tokens put in place of one value of a valid document.
MUTANTS = ["Infinity", "-Infinity", "NaN", "1e400", "-1e400", "1" + "0" * 400, "-1", "0",
           "1.5", "1e30", "2147483648", '"x"', '"7"', "null", "true", "[]", "[1]", "{}",
           '[[1.5, "x"]]', '{"a": [[{}]]}']


def _rle(mask):
    return io.rle_to_dict(rle_encode(np.asarray(mask, dtype=bool)))


def _masks():
    a = np.zeros((6, 5), dtype=bool)
    a[1:4, 1:3] = True
    b = np.zeros((6, 5), dtype=bool)
    b[4:, 2:] = True
    return a, b


def _eval_records():
    a, b = _masks()
    return [{"image_id": 0, "class": 1, "score": 0.9, "box": [1, 1, 3, 4], "rle": _rle(a)},
            {"image_id": 0, "class": 2, "score": 0.4, "box": [2, 4, 5, 6], "rle": _rle(b)},
            {"image_id": 1, "class": 1, "score": 0.7, "box": [0, 0, 2, 2], "rle": _rle(b)}]


def _panoptic_records():
    a, b = _masks()
    return [{"image_id": 0, "segments": [{"class": 1, "is_thing": True, "rle": _rle(a)},
                                         {"class": 2, "is_thing": False, "rle": _rle(b)}]},
            {"image_id": 3, "segments": [{"class": 1, "is_thing": True, "rle": _rle(b)}]}]


def _sps():
    return SpsTensor(active=[[1.0, 2.0], [0.5, -1.0]], passive=[[3.0, 4.0]],
                     index_map=[[0, 2], [1, 2]])


JSON_DOCS = {
    "panoptic": _panoptic_records(),
    "eval": _eval_records(),
    "rois": [{"box": [10.0, 10.0, 60.0, 50.0], "class": 1, "score": 0.8},
             {"box": [5.0, 20.0, 40.0, 90.0], "class": 0}],
    "ref_masks": {"format": io.MASK_FORMAT, "masks": [_rle(_masks()[0]), _rle(_masks()[1])]},
    "sps_dict": io.sps_to_dict(_sps()),
}


def _paths(doc, prefix=()):
    """Every path to a value of ``doc``, the root included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, prefix + (key,))


def _with_token(doc, path, token) -> str:
    """``doc`` as JSON text with the value at ``path`` replaced by a raw token."""
    sentinel = "@@mutant@@"
    doc = json.loads(json.dumps(doc))
    if not path:
        return token
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = sentinel
    return json.dumps(doc).replace(json.dumps(sentinel), token)


@st.composite
def mutated_json(draw, doc):
    """Bytes of ``doc`` with one value replaced, truncated, or with one byte changed."""
    text = json.dumps(doc).encode()
    how = draw(st.sampled_from(["value", "value", "truncate", "byte"]))
    if how == "value":
        paths = list(_paths(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        return _with_token(doc, path, draw(st.sampled_from(MUTANTS))).encode()
    at = draw(st.integers(0, len(text) - 1))
    if how == "truncate":
        return text[:at]
    return text[:at] + bytes([draw(st.integers(0, 255))]) + text[at + 1:]


@st.composite
def mutated_bytes(draw, data):
    """``data`` truncated, with one byte changed, or with bytes appended."""
    how = draw(st.sampled_from(["truncate", "byte", "append"]))
    if how == "append":
        return data + draw(st.binary(min_size=1, max_size=16))
    at = draw(st.integers(0, len(data) - 1))
    if how == "truncate":
        return data[:at]
    return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]


@functools.cache
def binary_docs() -> dict:
    """Bytes of a valid weight bundle and SPS dump, written once when first drawn."""
    docs = {}
    with tempfile.TemporaryDirectory() as d:
        # refine_weights sets one layer of a --f0 16 --f-neck 8 refinement
        for kind, save, value in (("weights", io.save_weights, {"a.w": np.arange(6.0).reshape(2, 3),
                                                                "b": np.ones(2)}),
                                  ("refine_weights", io.save_weights,
                                   {"stage0.ingest.l0.weight": np.full((16, 8), 0.01),
                                    "stage0.ingest.l0.bias": np.zeros(16)}),
                                  ("sps", io.save_sps, _sps())):
            save(os.path.join(d, kind), value)
            with open(os.path.join(d, kind), "rb") as f:
                docs[kind] = f.read()
    return docs


LOADERS = {
    "panoptic": io.load_panoptic,
    "eval": lambda p: io.load_eval_entries(p, need_score=True, need_mask=True),
    "rois": io.load_rois,
    "ref_masks": io.load_ref_masks,
    "sps_dict": lambda p: io.sps_from_dict(io.load_json(p)),
    "weights": io.load_weights,
    "sps": io.load_sps,
}


@st.composite
def loader_input(draw):
    kind = draw(st.sampled_from(sorted(LOADERS)))
    if kind in ("weights", "sps"):
        return kind, draw(mutated_bytes(binary_docs()[kind]))
    return kind, draw(mutated_json(JSON_DOCS[kind]))


@settings(max_examples=400, deadline=None)
@given(loader_input())
def test_loaders_raise_only_schema_or_contract_errors(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "input")
        with open(path, "wb") as f:
            f.write(data)
        try:
            LOADERS[kind](path)
        except (SchemaError, ContractError):
            pass


CAP = 4096  # ``io.MAX_JSON_BYTES`` patched down, so a file at the cap is a few KB


@pytest.mark.parametrize("kind", sorted(JSON_DOCS))
def test_json_at_the_cap_loads_and_one_byte_over_is_refused(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(io, "MAX_JSON_BYTES", CAP)
    text = json.dumps(JSON_DOCS[kind]).encode()
    path = tmp_path / "input.json"
    path.write_bytes(text.ljust(CAP))  # padded with trailing spaces, which JSON allows
    LOADERS[kind](str(path))
    path.write_bytes(text.ljust(CAP + 1))
    with pytest.raises(SchemaError, match=f"has {CAP + 1} bytes, over the {CAP} cap"):
        LOADERS[kind](str(path))


def _refused_without_blocking(load, path):
    """``load(path)`` raises ``SchemaError`` within a few seconds. A loader left
    waiting on a FIFO is released by opening the FIFO's write end."""
    raised = []

    def run():
        try:
            load(path)
        except SchemaError:
            raised.append(True)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(5)
    if worker.is_alive():
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        worker.join(5)
        raise AssertionError(f"the loader blocked on {path}")
    assert raised == [True]


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("special", ["directory", "fifo"])
def test_path_that_is_no_regular_file_is_refused(tmp_path, kind, special):
    path = str(tmp_path / "input")
    if special == "directory":
        os.mkdir(path)
    else:
        os.mkfifo(path)
    _refused_without_blocking(LOADERS[kind], path)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(["det", "seg", "boundary", "panoptic"]), st.sampled_from(["preds", "gts"]),
       st.data())
def test_eval_exits_0_2_or_3_without_traceback(task, side, data):
    doc = JSON_DOCS["panoptic" if task == "panoptic" else "eval"]
    with tempfile.TemporaryDirectory() as d:
        files = {name: os.path.join(d, f"{name}.json") for name in ("preds", "gts")}
        for name, path in files.items():
            with open(path, "wb") as f:
                f.write(data.draw(mutated_json(doc)) if name == side else json.dumps(doc).encode())
        out = os.path.join(d, "out", "report.json")
        run_cli(["eval", "--task", task, "--preds", files["preds"], "--gts", files["gts"],
                 "--out", out], [out])


def run_cli(argv, outputs):
    """Run ``spsr argv``: exit 0, 2 or 3, no traceback, an error line on a
    failure, and every path of ``outputs`` present only on exit 0."""
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert [os.path.exists(p) for p in outputs] == [code == 0] * len(outputs)
    if code:
        assert err.getvalue().startswith(("error:", "contract violation:"))
    return code


def _refine_docs():
    rois, masks = [], []
    for seed in (5, 6):
        _, box, shape = gen_synthetic(SyntheticShapeSpec(canvas_h=64, canvas_w=64, seed=seed))
        rois.append({"box": [box.x0, box.y0, box.x1, box.y1], "class": seed, "score": 0.9})
        masks.append(io.rle_to_dict(rle_encode(reference_mask(shape, box, 112))))
    return rois, {"format": io.MASK_FORMAT, "masks": masks}


REFINE_ROIS, REFINE_REFS = _refine_docs()
TINY = ["--f0", "16", "--f-neck", "8", "--f-query", "8"]
# Option values, valid and not; none asks for more than a few MB. ``--threads``
# starts no more workers than there are RoIs or CPUs, so 2^20 starts at most 2.
# Huge feature sizes ask for weights far over ``MAX_WEIGHT_ELEMENTS``, which are
# refused before they are drawn.
HUGE = [[str(1 << 30)], [str(1 << 40)]]
OPTIONS = {
    "--stages": [["0"], ["1"], ["2"], ["4"]],
    "--top-n": [["-1"], ["0"], ["3"], ["10000"]],
    "--f0": [["-16"], ["0"], ["12"], ["16"]] + HUGE,
    "--f-query": [["8"]] + HUGE,
    "--f-neck": [["8"]] + HUGE,
    "--seed": [["-1"], ["7"], [str(2**64)]],
    "--threads": [["0"], ["2"], ["64"], [str(1 << 20)]],
}
REFINE_OPTIONS = {**OPTIONS, "--image-size": [["0", "64"], ["-3", "-3"], ["64", "48"],
                                              [str(1 << 20), str(1 << 20)]]}
BENCH_OPTIONS = {**OPTIONS, "--count": [["-1"], ["0"], ["1"], [str(io.MAX_ROIS + 1)]],
                 "--canvas": [["-5"], ["8"], ["16"], ["40"]],
                 "--shape": [["disk"], ["ellipse"]]}


def draw_options(data, table):
    """``TINY`` then a few options of ``table``, each with a drawn value; the
    later of two repeated options wins."""
    argv = list(TINY)
    for name in data.draw(st.lists(st.sampled_from(sorted(table)), max_size=3)):
        argv += [name] + data.draw(st.sampled_from(table[name]))
    return argv


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["oracle", "weights"]),
       st.sampled_from(["rois", "refs", "weights", "options"]), st.data())
def test_refine_exits_0_2_or_3_without_traceback(mode, target, data):
    with tempfile.TemporaryDirectory() as d:
        files = {"rois": os.path.join(d, "rois.json"), "refs": os.path.join(d, "refs.json"),
                 "weights": os.path.join(d, "weights.bin")}
        docs = {"rois": json.dumps(REFINE_ROIS).encode(), "refs": json.dumps(REFINE_REFS).encode(),
                "weights": binary_docs()["refine_weights"]}
        if target in docs:
            draw = mutated_bytes if target == "weights" else mutated_json
            source = docs[target] if target == "weights" else json.loads(docs[target])
            docs[target] = data.draw(draw(source))
        for name, path in files.items():
            with open(path, "wb") as f:
                f.write(docs[name])
        out = os.path.join(d, "out")
        argv = ["refine", "--mode", mode, "--rois", files["rois"], "--out", out]
        if mode == "oracle":
            argv += ["--ref-masks", files["refs"]]
        if mode == "weights" or target == "weights":
            argv += ["--weights", files["weights"]]
        argv += draw_options(data, REFINE_OPTIONS) if target == "options" else TINY
        run_cli(argv, [os.path.join(out, "masks.json"), os.path.join(out, "ledger.json")])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_bench_exits_0_2_or_3_without_traceback(data):
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "out", "bench.json")
        run_cli(["bench", "--count", "2", "--canvas", "64", "--out", out]
                + draw_options(data, BENCH_OPTIONS), [out])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["sps_dict", "sps"]), st.sampled_from([".json", ".bin"]), st.data())
def test_convert_exits_0_2_or_3_without_traceback(kind, suffix, data):
    with tempfile.TemporaryDirectory() as d:
        src = os.path.join(d, "input.json" if kind == "sps_dict" else "input.bin")
        with open(src, "wb") as f:
            f.write(data.draw(mutated_json(JSON_DOCS[kind]) if kind == "sps_dict"
                              else mutated_bytes(binary_docs()[kind])))
        out = os.path.join(d, "out", "tensor" + suffix)
        run_cli(["convert", "--input", src, "--output", out], [out])
