import argparse
import json
import os
import re
import stat
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spsr import cli, io, metrics, pipeline, synthetic
from spsr.cli import main
from spsr.cost import compare
from spsr.metrics import rle_encode
from spsr.pipeline import make_targets
from spsr.synthetic import SyntheticShapeSpec, gen_synthetic, reference_mask

from conftest import cli_peak


def write_inputs(tmp_path, n=2, canvas=160, side=112, shape="disk"):
    rois, masks, refs = [], [], []
    for i in range(n):
        spec = SyntheticShapeSpec(shape=shape, canvas_h=canvas, canvas_w=canvas, seed=300 + i)
        _, box, shp = gen_synthetic(spec)
        ref = reference_mask(shp, box, side)
        rois.append({"box": [box.x0, box.y0, box.x1, box.y1], "class": i, "score": 0.9})
        masks.append(io.rle_to_dict(rle_encode(ref)))
        refs.append(ref)
    roi_path = str(tmp_path / "rois.json")
    mask_path = str(tmp_path / "refs.json")
    io.dump_json(roi_path, rois)
    io.dump_json(mask_path, {"format": io.MASK_FORMAT, "masks": masks})
    return roi_path, mask_path, refs


REFINE_FAST = ["--f0", "16", "--f-neck", "8", "--f-query", "8"]


class TestRefineCommand:
    def test_smoke_outputs(self, tmp_path):
        roi_path, mask_path, _ = write_inputs(tmp_path)
        out = str(tmp_path / "out")
        code = main(["refine", "--mode", "oracle", "--rois", roi_path,
                     "--ref-masks", mask_path, "--out", out] + REFINE_FAST)
        assert code == 0
        masks = io.load_ref_masks(os.path.join(out, "masks.json"))
        assert len(masks) == 2 and masks[0].shape == (112, 112)
        ledger = json.load(open(os.path.join(out, "ledger.json")))
        stages = {s["stage"] for s in ledger["stages"]}
        assert stages == {0, 1, 2, 3}
        for s in ledger["stages"]:
            assert {"dense_macs", "sparse_macs", "active_cells"} <= set(s)

    def test_top_n_zero_equals_upsampled_stage0(self, tmp_path):
        roi_path, mask_path, refs = write_inputs(tmp_path, n=1)
        out = str(tmp_path / "out0")
        code = main(["refine", "--mode", "oracle", "--rois", roi_path,
                     "--ref-masks", mask_path, "--out", out, "--top-n", "0"] + REFINE_FAST)
        assert code == 0
        produced = io.load_ref_masks(os.path.join(out, "masks.json"))[0]
        seg0, _ = make_targets(refs[0], (14, 14))
        np.testing.assert_array_equal(produced, np.repeat(np.repeat(seg0, 8, 0), 8, 1))

    def test_oracle_needs_ref_masks(self, tmp_path):
        roi_path, _, _ = write_inputs(tmp_path)
        code = main(["refine", "--mode", "oracle", "--rois", roi_path,
                     "--out", str(tmp_path / "x")] + REFINE_FAST)
        assert code == 2

    def test_malformed_rois_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["refine", "--mode", "weights", "--rois", str(bad),
                     "--out", str(tmp_path / "x")] + REFINE_FAST)
        assert code == 2

    def test_contract_violation_exit_3(self, tmp_path, no_neck_draw):
        # reference masks coarser than the final grid: make_targets refuses
        # them before any neck is drawn
        roi_path, _, _ = write_inputs(tmp_path, n=1)
        refs = {"format": io.MASK_FORMAT,
                "masks": [io.rle_to_dict(rle_encode(np.ones((14, 14), dtype=bool)))]}
        mask_path = str(tmp_path / "coarse.json")
        io.dump_json(mask_path, refs)
        code = main(["refine", "--mode", "oracle", "--rois", roi_path,
                     "--ref-masks", mask_path, "--out", str(tmp_path / "x")] + REFINE_FAST)
        assert code == 3

    def test_no_partial_outputs_on_failure(self, tmp_path):
        roi_path, _, _ = write_inputs(tmp_path, n=1)
        out = tmp_path / "never"
        code = main(["refine", "--mode", "oracle", "--rois", roi_path,
                     "--out", str(out)] + REFINE_FAST)
        assert code == 2
        assert not (out / "masks.json").exists()

    def test_environment_leaves_outputs_unchanged(self, tmp_path, monkeypatch):
        """Options come from flags and ``RunConfig`` only: ``SPSR_*`` variables
        in the environment change no output byte."""
        roi_path, mask_path, _ = write_inputs(tmp_path, n=1)

        def refine(out):
            assert main(["refine", "--mode", "oracle", "--rois", roi_path,
                         "--ref-masks", mask_path, "--out", str(out)] + REFINE_FAST) == 0
            return [(out / name).read_bytes() for name in ("masks.json", "ledger.json")]

        plain = refine(tmp_path / "plain")
        monkeypatch.setenv("SPSR_TOP_N", "0")
        monkeypatch.setenv("SPSR_F0", "8")
        assert refine(tmp_path / "env") == plain

    def test_defaults_are_run_config_fields(self):
        args = cli.build_parser().parse_args(["bench"])
        config = pipeline.RunConfig()
        assert (args.seed, args.stages, args.top_n, args.f0, args.f_neck, args.f_query,
                args.threads) == (config.seed, config.stages, config.top_n_active, config.f0,
                                  config.f_neck, config.f_query, config.threads)
        spec = synthetic.SyntheticShapeSpec()
        assert (args.shape, args.canvas) == (spec.shape, spec.canvas_h)
        args = cli.build_parser().parse_args(["refine", "--rois", "r.json", "--out", "o"])
        assert args.mode == config.mode

    def test_large_reference_mask_in_bounded_memory(self, tmp_path):
        """Oracle targets are counted a few row bands at a time, so one 8192^2
        reference mask (a 109-byte file) refines with the child's peak under
        250 MiB; a whole-mask int64 summed-area table peaked at 1,085 MiB."""
        side = 8192
        rois, masks = tmp_path / "rois.json", tmp_path / "refs.json"
        rois.write_text(json.dumps([{"box": [0, 0, 64, 64]}]))
        third = side * side // 3
        masks.write_text(json.dumps({"format": io.MASK_FORMAT, "masks": [
            {"height": side, "width": side, "counts": [third, third, side * side - 2 * third]}]}))
        out = tmp_path / "out"
        proc, peak_kb = cli_peak(["refine", "--rois", str(rois), "--ref-masks", str(masks),
                                  "--out", str(out)] + REFINE_FAST)
        assert proc.returncode == 0, proc.stderr
        assert peak_kb < 250 * 1024 and (out / "masks.json").exists()


@pytest.fixture
def no_neck_draw(monkeypatch):
    """Fail the test if a neck is drawn: an oversized one must be rejected first."""
    seeded_rng = pipeline.seeded_rng

    def guarded(*parts):
        if "neck" in parts:
            raise AssertionError("the neck must be rejected before it is drawn")
        return seeded_rng(*parts)

    monkeypatch.setattr(pipeline, "seeded_rng", guarded)


class TestNeckBounds:
    @pytest.mark.parametrize("size", [["10000000", "10000000"], ["-5", "-5"], ["0", "5"]])
    def test_refine_image_size_exit_2(self, tmp_path, capsys, no_neck_draw, size):
        roi_path, _, _ = write_inputs(tmp_path, n=1)
        out = tmp_path / "out"
        code = main(["refine", "--mode", "weights", "--rois", roi_path, "--out", str(out),
                     "--image-size", *size] + REFINE_FAST)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "masks.json").exists()

    def test_refine_image_size_from_boxes_exit_2(self, tmp_path, no_neck_draw):
        roi_path = str(tmp_path / "rois.json")
        io.dump_json(roi_path, [{"box": [0, 0, 1e7, 1e7], "class": 0, "score": 0.9}])
        out = tmp_path / "out"
        code = main(["refine", "--mode", "weights", "--rois", roi_path,
                     "--out", str(out)] + REFINE_FAST)
        assert code == 2
        assert not (out / "masks.json").exists()

    @pytest.mark.parametrize("canvas", ["10000000", "9000", "0", "-5"])
    def test_bench_canvas_exit_2(self, tmp_path, capsys, monkeypatch, no_neck_draw, canvas):
        def no_corpus(spec):
            raise AssertionError("the canvas must be rejected before the corpus is drawn")

        def no_weights(*args):
            raise AssertionError("the canvas must be rejected before the weights are drawn")

        monkeypatch.setattr(synthetic, "gen_synthetic", no_corpus)
        monkeypatch.setattr(pipeline, "PipelineWeights", no_weights)
        out = tmp_path / "bench.json"
        code = main(["bench", "--count", "2", "--canvas", canvas, "--out", str(out)] + REFINE_FAST)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--f-neck", "--f0", "--f-query"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_feature_size_exit_3(self, tmp_path, no_neck_draw, flag, value):
        roi_path, _, _ = write_inputs(tmp_path, n=1)
        out = tmp_path / "out"
        args = REFINE_FAST + [flag, value]
        code = main(["refine", "--mode", "weights", "--rois", roi_path, "--out", str(out)] + args)
        assert code == 3
        assert not (out / "masks.json").exists()
        bench_out = tmp_path / "bench.json"
        assert main(["bench", "--count", "1", "--canvas", "160", "--out", str(bench_out)] + args) == 3
        assert not bench_out.exists()


@pytest.mark.parametrize("top_n", ["-1", "-5"])
def test_negative_top_n_exit_3(tmp_path, capsys, top_n):
    roi_path, _, _ = write_inputs(tmp_path, n=1)
    out = tmp_path / "out"
    code = main(["refine", "--mode", "weights", "--rois", roi_path, "--out", str(out),
                 "--top-n", top_n] + REFINE_FAST)
    assert code == 3
    assert "top_n_active" in capsys.readouterr().err
    assert not (out / "masks.json").exists() and not (out / "ledger.json").exists()
    bench_out = tmp_path / "bench.json"
    code = main(["bench", "--count", "1", "--canvas", "160", "--top-n", top_n,
                 "--out", str(bench_out)] + REFINE_FAST)
    assert code == 3
    assert not bench_out.exists()


def test_readme_documents_each_subcommand():
    """The ``### <name>`` headings of README's ``## CLI`` section are the parser's
    subcommands, in order: the README documents no command that is gone and
    misses no new one."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (subcommands,) = [action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert re.findall(r"^### (\S+)$", section, flags=re.M) == list(subcommands)


def test_cli_import_leaves_scipy_sparse_unloaded():
    """``eval`` never samples the neck, so it must not pay for ``scipy.sparse``;
    the bilinear kernel loads it on first use."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, numpy as np, spsr.cli\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "from spsr import ops\n"
            "ops.dense_bilinear(np.ones((2, 3, 3)), np.array([0.5]), np.array([1.5]))\n"
            "assert 'scipy.sparse' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_eval_loads_no_scipy(tmp_path, rng):
    """Only the bilinear kernel needs SciPy: after ``import spsr.cli``, every
    ``eval`` task leaves ``sys.modules`` without any ``scipy`` module, and a
    ``refine`` then loads ``scipy.sparse``."""
    masks = [np.zeros((64, 80), dtype=bool) for _ in range(3)]
    masks[0][5:40, 10:70] = True
    masks[1][8:44, 12:66] = True
    masks[2][50:, :30] = rng.random((14, 30)) < 0.8
    records = [dict(box_record(0, 1 + i % 2, (0, 0, 80, 64), 0.9),
                    rle=io.rle_to_dict(rle_encode(m))) for i, m in enumerate(masks)]
    io.dump_json(str(tmp_path / "inst.json"), records)
    labels = np.zeros((64, 80), dtype=np.int64)
    labels[masks[0]], labels[masks[2]] = 1, 2
    segments = [{"class": c, "is_thing": c == 1, "rle": io.rle_to_dict(rle_encode(labels == c))}
                for c in (1, 2)]
    io.dump_json(str(tmp_path / "pan.json"), [{"image_id": 0, "segments": segments}])
    argvs = [["eval", "--task", task, "--preds", str(tmp_path / f), "--gts", str(tmp_path / f),
              "--out", str(tmp_path / f"{task}.json")]
             for task, f in (("det", "inst.json"), ("seg", "inst.json"),
                             ("boundary", "inst.json"), ("panoptic", "pan.json"))]
    roi_path, mask_path, _ = write_inputs(tmp_path, n=1)
    refine = ["refine", "--mode", "oracle", "--rois", roi_path, "--ref-masks", mask_path,
              "--out", str(tmp_path / "out")] + REFINE_FAST
    code = ("import json, sys\n"
            "from spsr.cli import main\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not scipy_modules(), scipy_modules()\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    assert not scipy_modules(), (argv, scipy_modules())\n"
            "assert main(json.loads(sys.argv[2])) == 0\n"
            "assert 'scipy.sparse' in sys.modules\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code, json.dumps(argvs), json.dumps(refine)],
                   env=env, check=True)
    for task in ("det", "seg", "boundary"):
        assert json.load(open(tmp_path / f"{task}.json"))["AP"] > 0
    assert json.load(open(tmp_path / "panoptic.json"))["PQ"] > 0


def blas_calls():
    calls = cli._blas_thread_calls()
    if calls is None:
        pytest.skip("NumPy's bundled BLAS exports no thread-count calls")
    return calls


class TestBlasThreads:
    def test_blas_thread_count_changes_no_byte(self, tmp_path):
        """At the default widths, with a bundle whose weights are scaled to
        their fan-in so that probabilities are not noise near 0.5, a GEMM split
        over two BLAS threads rounds differently: on a 2-core host, these six
        RoIs gave other ``masks.json`` scores under ``OPENBLAS_NUM_THREADS=1``
        than unset or ``=2`` while the CLI left the count to the environment."""
        rng = np.random.default_rng(7)
        arrays = {}
        for stage in pipeline._layout(pipeline.RunConfig()):
            for specs in stage.values():
                for spec in specs:
                    for name, shape in pipeline._chain_arrays(*spec):
                        std = 0.1 if name.endswith(".bias") else np.sqrt(2 / np.prod(shape[1:]))
                        arrays[name] = rng.normal(0.0, std, shape)
        io.save_weights(str(tmp_path / "w.bin"), arrays)
        rois = synthetic.roi_corpus(6, "blob", 448, 0, 112)
        io.dump_json(str(tmp_path / "rois.json"),
                     [{"box": [r.box.x0, r.box.y0, r.box.x1, r.box.y1], "class": 0, "score": 0.9}
                      for r in rois])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for threads in (None, "1", "2"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = src
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"out{threads}"
            subprocess.run([sys.executable, "-m", "spsr.cli", "refine", "--mode", "weights",
                            "--weights", str(tmp_path / "w.bin"),
                            "--rois", str(tmp_path / "rois.json"), "--out", str(out),
                            "--image-size", "448", "448", "--seed", "1"],
                           env=env, check=True, capture_output=True)
            outputs.append([(out / n).read_bytes() for n in ("masks.json", "ledger.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_commands_run_on_one_blas_thread(self, tmp_path, monkeypatch):
        """``main`` sets one BLAS thread before a command computes anything and
        gives the caller's count back on return, on error exit too."""
        get, set_ = blas_calls()
        seen = []
        run = cli.run_refinement

        def spy(*args, **kwargs):
            seen.append(get())
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "run_refinement", spy)
        roi_path, mask_path, _ = write_inputs(tmp_path, n=1)
        argvs = [["refine", "--mode", "oracle", "--rois", roi_path, "--ref-masks", mask_path,
                  "--out", str(tmp_path / "out")] + REFINE_FAST,
                 ["bench", "--count", "1", "--canvas", "64", "--stages", "1"] + REFINE_FAST]
        before = get()
        set_(2)
        try:
            for argv in argvs:
                assert main(argv) == 0
                assert get() == 2
            with pytest.raises(SystemExit):
                main(["refine", "--no-such-option"])
            assert get() == 2
        finally:
            set_(before)
        assert seen == [1, 1, 1]

    def test_runs_without_thread_calls(self, tmp_path, monkeypatch):
        """A NumPy whose bundled BLAS exports no thread-count calls leaves the
        count to the environment, and the commands run as before."""
        monkeypatch.setattr(cli.glob, "glob", lambda pattern: [])
        assert cli._blas_thread_calls.__wrapped__() is None
        monkeypatch.setattr(cli, "_blas_thread_calls", lambda: None)
        roi_path, mask_path, _ = write_inputs(tmp_path, n=1)
        out = tmp_path / "out"
        assert main(["refine", "--mode", "oracle", "--rois", roi_path, "--ref-masks", mask_path,
                     "--out", str(out)] + REFINE_FAST) == 0
        assert (out / "masks.json").is_file() and (out / "ledger.json").is_file()


def fail_if_called(*args, **kwargs):
    raise AssertionError("reached work that a rejected input must not start")


def assert_exit_2_no_output(capsys, code, *outputs):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not any(out.exists() for out in outputs)


class TestBadInputValues:
    """Values a JSON file can hold but a loader must refuse: exit 2 with a
    message, no traceback and no output file."""

    def _refine(self, tmp_path, rois_text):
        path = tmp_path / "rois.json"
        path.write_text(rois_text)
        out = tmp_path / "out"
        code = main(["refine", "--mode", "weights", "--rois", str(path), "--out", str(out)]
                    + REFINE_FAST)
        return code, out / "masks.json", out / "ledger.json"

    @pytest.mark.parametrize("box", [[0, 0, "Infinity", 50], ["-Infinity", 0, 40, 50],
                                     [0, "NaN", 40, 50]])
    def test_non_finite_box_exit_2(self, tmp_path, capsys, box):
        text = '[{"box": [%s], "class": 1}]' % ", ".join(str(v) for v in box)
        assert_exit_2_no_output(capsys, *self._refine(tmp_path, text))

    @pytest.mark.parametrize("box", [[0, 0, 1e200, 1e200], [0, 0, 1e-170, 1e-170],
                                     [-1e308, 0, 1e308, 50]])
    def test_box_area_not_finite_and_positive_exit_2_before_any_stage(self, tmp_path, capsys,
                                                                     monkeypatch, box):
        """A box whose width, height or area overflows to infinity or underflows
        to zero has no pyramid level."""
        monkeypatch.setattr(pipeline, "select_active", fail_if_called)
        path, out = tmp_path / "rois.json", tmp_path / "out"
        path.write_text(json.dumps([{"box": box, "class": 1}]))
        code = main(["refine", "--mode", "weights", "--rois", str(path), "--image-size", "448",
                     "448", "--out", str(out)] + REFINE_FAST)
        assert_exit_2_no_output(capsys, code, out / "masks.json", out / "ledger.json")

    @pytest.mark.parametrize("cls", ["1e30", "2147483648", "-2147483649", "1.5", "Infinity",
                                     "NaN", '"one"'])
    def test_bad_class_exit_2(self, tmp_path, capsys, cls):
        text = '[{"box": [0, 0, 40, 50], "class": %s}]' % cls
        assert_exit_2_no_output(capsys, *self._refine(tmp_path, text))

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        depth = 100_000
        deep = "[" * depth + "]" * depth
        assert_exit_2_no_output(capsys, *self._refine(tmp_path, deep))
        (tmp_path / "p.json").write_text(deep)
        io.dump_json(str(tmp_path / "g.json"), [])
        out = tmp_path / "r.json"
        code = main(["eval", "--task", "det", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json"), "--out", str(out)])
        assert_exit_2_no_output(capsys, code, out)

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "1.5", "-0.1"])
    def test_bad_roi_score_exit_2_before_any_stage(self, tmp_path, capsys, monkeypatch, score):
        monkeypatch.setattr(pipeline, "select_active", fail_if_called)
        text = '[{"box": [0, 0, 40, 50], "class": 1, "score": %s}]' % score
        assert_exit_2_no_output(capsys, *self._refine(tmp_path, text))

    def test_roi_count_over_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "select_active", fail_if_called)
        monkeypatch.setattr(synthetic, "gen_synthetic", fail_if_called)
        text = json.dumps([{"box": [0, 0, 40, 50]}] * (io.MAX_ROIS + 1))
        assert_exit_2_no_output(capsys, *self._refine(tmp_path, text))
        out = tmp_path / "bench.json"
        code = main(["bench", "--count", str(io.MAX_ROIS + 1), "--out", str(out)] + REFINE_FAST)
        assert_exit_2_no_output(capsys, code, out)

    @pytest.mark.parametrize("field,value", [("box", [0.0, 0.0, float("nan"), 10.0]),
                                             ("box", [0.0, float("-inf"), 10.0, 10.0]),
                                             ("score", float("nan")),
                                             ("score", float("inf"))])
    @pytest.mark.parametrize("side", ["preds", "gts"])
    def test_non_finite_eval_record_exit_2(self, tmp_path, capsys, field, value, side):
        good = box_record(0, 1, [0, 0, 10, 10], 0.9)
        bad = dict(good, **{field: value})
        files = {"preds": [good], "gts": [good]}
        files[side] = [bad]
        for name, records in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(records))
        out = tmp_path / "r.json"
        code = main(["eval", "--task", "det", "--preds", str(tmp_path / "preds.json"),
                     "--gts", str(tmp_path / "gts.json"), "--out", str(out)])
        assert_exit_2_no_output(capsys, code, out)


    # Integer fields: an infinity or 1e400 used to raise an OverflowError
    # traceback (exit 1), and 1.5 was truncated to 1.
    PANOPTIC = ('[{"image_id": %s, "segments": [{"class": 1, "is_thing": true,'
                ' "rle": {"height": %s, "width": %s, "counts": [%s, %s]}}]}]')
    GOOD_PANOPTIC = ("0", "4", "4", "0", "16")

    @pytest.mark.parametrize("field", range(5))  # image_id, height, width, both counts
    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "1e400", "1.5"])
    @pytest.mark.parametrize("side", ["preds", "gts"])
    def test_bad_panoptic_integer_exit_2(self, tmp_path, capsys, field, token, side):
        bad = list(self.GOOD_PANOPTIC)
        bad[field] = token
        texts = {"preds": self.PANOPTIC % self.GOOD_PANOPTIC,
                 "gts": self.PANOPTIC % self.GOOD_PANOPTIC}
        texts[side] = self.PANOPTIC % tuple(bad)
        for name, text in texts.items():
            (tmp_path / f"{name}.json").write_text(text)
        out = tmp_path / "r.json"
        code = main(["eval", "--task", "panoptic", "--preds", str(tmp_path / "preds.json"),
                     "--gts", str(tmp_path / "gts.json"), "--out", str(out)])
        assert_exit_2_no_output(capsys, code, out)

    @pytest.mark.parametrize("task", ["det", "seg"])
    @pytest.mark.parametrize("token", ["1e400", "Infinity", "1.5"])
    def test_bad_eval_image_id_exit_2(self, tmp_path, capsys, task, token):
        good = {"image_id": 0, "class": 1, "score": 0.9, "box": [0, 0, 4, 4],
                "rle": io.rle_to_dict(rle_encode(np.ones((4, 4), dtype=bool)))}
        (tmp_path / "g.json").write_text(json.dumps([good]))
        (tmp_path / "p.json").write_text(json.dumps([good]).replace('"image_id": 0',
                                                                    f'"image_id": {token}'))
        out = tmp_path / "r.json"
        code = main(["eval", "--task", task, "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json"), "--out", str(out)])
        assert_exit_2_no_output(capsys, code, out)

    @pytest.mark.parametrize("field,token", [("height", "1e400"), ("height", "Infinity"),
                                             ("height", "112.5"), ("width", "1e400"),
                                             ("counts", "[1e400]"), ("counts", "[6272.5, 6271.5]")])
    def test_bad_ref_mask_integer_exit_2(self, tmp_path, capsys, monkeypatch, field, token):
        monkeypatch.setattr(pipeline, "select_active", fail_if_called)
        rois, masks, _ = write_inputs(tmp_path, n=1)
        rle = {"height": "112", "width": "112", "counts": "[12544]", field: token}
        with open(masks, "w") as f:
            f.write('{"format": "sps-rle/1", "masks": [{"height": %(height)s, '
                    '"width": %(width)s, "counts": %(counts)s}]}' % rle)
        out = tmp_path / "out"
        code = main(["refine", "--mode", "oracle", "--rois", rois, "--ref-masks", masks,
                     "--out", str(out)] + REFINE_FAST)
        assert_exit_2_no_output(capsys, code, out / "masks.json", out / "ledger.json")


    @pytest.mark.parametrize("side,count,cap", [(112, 2, 2 * 112**2 - 1), (1 << 13, 40, None)])
    def test_ref_masks_over_pixel_cap_exit_2_before_decoding(self, tmp_path, capsys,
                                                            monkeypatch, side, count, cap):
        """The summed canvases of a reference-mask file are capped before any mask
        is decoded: 40 masks of 8192^2 pixels would decode 2.5 GiB."""
        monkeypatch.setattr(io, "rle_decode", fail_if_called)
        if cap is not None:
            monkeypatch.setattr(io, "MAX_PANOPTIC_PIXELS", cap)
        rois, masks, _ = write_inputs(tmp_path, n=2)
        rle = {"height": side, "width": side, "counts": [side * side]}
        io.dump_json(masks, {"format": io.MASK_FORMAT, "masks": [rle] * count})
        out = tmp_path / "out"
        code = main(["refine", "--mode", "oracle", "--rois", rois, "--ref-masks", masks,
                     "--out", str(out)] + REFINE_FAST)
        assert_exit_2_no_output(capsys, code, out / "masks.json", out / "ledger.json")

    @pytest.mark.parametrize("task", ["det", "seg"])
    def test_eval_record_without_its_geometry_exit_2(self, tmp_path, capsys, task):
        """det needs a box in every record (a box-less one used to end in a
        traceback), seg and boundary an rle."""
        rle = io.rle_to_dict(rle_encode(np.ones((4, 4), dtype=bool)))
        full = {"image_id": 0, "class": 1, "score": 0.9, "box": [0, 0, 4, 4], "rle": rle}
        partial = dict(full)
        del partial["box" if task == "det" else "rle"]
        (tmp_path / "g.json").write_text(json.dumps([full]))
        (tmp_path / "p.json").write_text(json.dumps([full, partial]))
        out = tmp_path / "r.json"
        code = main(["eval", "--task", task, "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json"), "--out", str(out)])
        assert_exit_2_no_output(capsys, code, out)

    @pytest.mark.parametrize("command", ["eval-det", "eval-panoptic", "refine-rois",
                                         "refine-ref-masks"])
    def test_oversized_json_refused_from_its_size(self, tmp_path, command):
        """A JSON input over ``io.MAX_JSON_BYTES`` is refused from its size, before
        a byte is read: a 1 GiB sparse file (it takes no disk) costs no memory."""
        big = tmp_path / "big.json"
        with open(big, "wb") as f:
            f.truncate(1 << 30)
        rois, masks, _ = write_inputs(tmp_path, n=1)
        out = tmp_path / "out"
        refine = ["refine", "--mode", "oracle", "--out", str(out)] + REFINE_FAST
        argv, outputs = {
            "eval-det": (["eval", "--task", "det", "--preds", str(big), "--gts", str(big),
                          "--out", str(out / "r.json")], [out / "r.json"]),
            "eval-panoptic": (["eval", "--task", "panoptic", "--preds", str(big),
                               "--gts", str(big), "--out", str(out / "r.json")],
                              [out / "r.json"]),
            "refine-rois": (refine + ["--rois", str(big), "--ref-masks", masks],
                            [out / "masks.json", out / "ledger.json"]),
            "refine-ref-masks": (refine + ["--rois", rois, "--ref-masks", str(big)],
                                 [out / "masks.json", out / "ledger.json"]),
        }[command]
        proc, peak_kb = cli_peak(argv)
        assert proc.returncode == 2, proc.stderr
        assert f"{big} has {1 << 30} bytes, over the {io.MAX_JSON_BYTES} cap" in proc.stderr
        assert peak_kb < 100 * 1024 and not any(p.exists() for p in outputs)
        started = time.perf_counter()
        assert main(argv) == 2  # in-process too, to time the refusal without the start-up
        assert time.perf_counter() - started < 1.0

    def test_json_parse_out_of_memory_exit_2(self, tmp_path):
        """A JSON file at the byte cap can still parse into more than the
        process may allocate (empty objects take about 25x their bytes): that
        is a malformed input, exit 2 with a message, not a traceback. The child
        lowers only its own address-space limit, to 256 MiB over its size once
        spsr is imported."""
        objs = tmp_path / "objs.json"
        objs.write_text("[" + ",".join(["{}"] * ((io.MAX_JSON_BYTES - 1) // 3)) + "]")
        assert io.MAX_JSON_BYTES - 3 < objs.stat().st_size <= io.MAX_JSON_BYTES
        out = tmp_path / "r.json"
        script = ("import resource, sys\n"
                  "from spsr.cli import main\n"
                  "size = next(int(line.split()[1]) for line in open('/proc/self/status')\n"
                  "            if line.startswith('VmSize:')) << 10\n"
                  "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (size + (256 << 20), hard))\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", script, "eval", "--task", "det",
                               "--preds", str(objs), "--gts", str(objs), "--out", str(out)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert f"cannot read JSON from {objs}: out of memory while parsing it" in proc.stderr
        assert "Traceback" not in proc.stderr and not out.exists()


def box_record(image_id, cls, box, score=None):
    rec = {"image_id": image_id, "class": cls, "box": list(box)}
    if score is not None:
        rec["score"] = score
    return rec


class TestEvalCommand:
    def test_perfect_self_eval(self, tmp_path, capsys):
        gts = [box_record(0, 1, [0, 0, 10, 10])]
        preds = [box_record(0, 1, [0, 0, 10, 10], 0.9)]
        io.dump_json(str(tmp_path / "g.json"), gts)
        io.dump_json(str(tmp_path / "p.json"), preds)
        code = main(["eval", "--task", "det", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["AP"] == 1.0

    def test_hand_ap_instance(self, tmp_path, capsys):
        gts = [box_record(0, 1, [0, 0, 10, 10]), box_record(0, 1, [20, 20, 30, 30])]
        preds = [box_record(0, 1, [0, 0, 10, 10], 0.9),
                 box_record(0, 1, [50, 50, 60, 60], 0.8),
                 box_record(0, 1, [20, 20, 30, 30], 0.7)]
        io.dump_json(str(tmp_path / "g.json"), gts)
        io.dump_json(str(tmp_path / "p.json"), preds)
        code = main(["eval", "--task", "det", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["AP50"] == pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-9)

    def test_panoptic_toy(self, tmp_path, capsys):
        g1 = np.zeros((10, 10), dtype=bool)
        g1[:5] = True
        g2 = np.zeros((10, 10), dtype=bool)
        g2[5:, :5] = True
        p1 = np.zeros((10, 10), dtype=bool)
        p1[:4] = True
        p2 = np.zeros((10, 10), dtype=bool)
        p2[5:, 5:] = True
        def seg(m):
            return {"class": 1, "is_thing": True, "rle": io.rle_to_dict(rle_encode(m))}
        io.dump_json(str(tmp_path / "g.json"), [{"image_id": 0, "segments": [seg(g1), seg(g2)]}])
        io.dump_json(str(tmp_path / "p.json"), [{"image_id": 0, "segments": [seg(p1), seg(p2)]}])
        code = main(["eval", "--task", "panoptic", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["PQ"] == pytest.approx(0.4, abs=1e-12)
        assert report["SQ"] == pytest.approx(0.8, abs=1e-12)
        assert report["RQ"] == pytest.approx(0.5, abs=1e-12)

    def test_repeated_panoptic_image_id_exit_2(self, tmp_path, capsys):
        def record(cls):
            rle = io.rle_to_dict(rle_encode(np.ones((4, 4), dtype=bool)))
            return {"image_id": 0, "segments": [{"class": cls, "is_thing": True, "rle": rle}]}

        io.dump_json(str(tmp_path / "g.json"), [record(1), record(2)])
        io.dump_json(str(tmp_path / "p.json"), [record(1)])
        out = tmp_path / "r.json"
        code = main(["eval", "--task", "panoptic", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json"), "--out", str(out)])
        assert code == 2
        assert "image_id 0" in capsys.readouterr().err
        assert not out.exists()

    def test_panoptic_pixels_over_cap_exit_2_before_decoding(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_decode(rle):
            raise AssertionError("an oversized panoptic file must be rejected before decoding")

        monkeypatch.setattr(metrics, "rle_decode", no_decode)
        monkeypatch.setattr(io, "rle_decode", no_decode)
        side = 1 << 13  # 2^26 px per segment, the largest canvas one RLE may hold
        n = io.MAX_PANOPTIC_PIXELS // side**2 + 1
        rle = {"height": side, "width": side, "counts": [side * side]}
        seg = {"class": 1, "is_thing": True, "rle": rle}
        data = [{"image_id": i, "segments": [seg]} for i in range(n)]
        io.dump_json(str(tmp_path / "p.json"), data)
        io.dump_json(str(tmp_path / "g.json"), data)
        out = tmp_path / "r.json"
        code = main(["eval", "--task", "panoptic", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json"), "--out", str(out)])
        assert code == 2
        assert "cap" in capsys.readouterr().err
        assert not out.exists()

    def test_panoptic_canvas_mismatch_exit_3(self, tmp_path):
        def record(cls, side):
            rle = io.rle_to_dict(rle_encode(np.ones((side, side), dtype=bool)))
            return [{"image_id": 0, "segments": [{"class": cls, "is_thing": True, "rle": rle}]}]

        io.dump_json(str(tmp_path / "p.json"), record(1, 4))
        io.dump_json(str(tmp_path / "g.json"), record(2, 8))
        code = main(["eval", "--task", "panoptic", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json")])
        assert code == 3

    def test_schema_error_exit_2(self, tmp_path):
        io.dump_json(str(tmp_path / "p.json"), [{"class": 1}])  # no geometry
        io.dump_json(str(tmp_path / "g.json"), [])
        code = main(["eval", "--task", "det", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json")])
        assert code == 2

    def test_oversized_rle_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_decode(rle):
            raise AssertionError("an oversized mask must be rejected before decoding")

        monkeypatch.setattr(metrics, "rle_decode", no_decode)
        monkeypatch.setattr(io, "rle_decode", no_decode)
        huge = {"image_id": 0, "class": 1, "score": 0.9,
                "rle": {"height": 10**6, "width": 10**6, "counts": [10**12]}}
        io.dump_json(str(tmp_path / "p.json"), [huge])
        io.dump_json(str(tmp_path / "g.json"), [huge])
        out = tmp_path / "r.json"
        code = main(["eval", "--task", "seg", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json"), "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ("seg", "boundary"))
    def test_canvas_mismatch_exit_3(self, tmp_path, task):
        def rec(side):
            rle = io.rle_to_dict(rle_encode(np.ones((side, side), dtype=bool)))
            return {"image_id": 0, "class": 1, "score": 0.9, "rle": rle}

        io.dump_json(str(tmp_path / "p.json"), [rec(20)])
        io.dump_json(str(tmp_path / "g.json"), [rec(30)])
        code = main(["eval", "--task", task, "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json")])
        assert code == 3

    def test_deterministic_report_bytes(self, tmp_path):
        gts = [box_record(0, 1, [0, 0, 10, 10])]
        preds = [box_record(0, 1, [0, 1, 10, 11], 0.7)]
        io.dump_json(str(tmp_path / "g.json"), gts)
        io.dump_json(str(tmp_path / "p.json"), preds)
        for out in ("r1.json", "r2.json"):
            main(["eval", "--task", "det", "--preds", str(tmp_path / "p.json"),
                  "--gts", str(tmp_path / "g.json"), "--out", str(tmp_path / out)])
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


class TestBenchCommand:
    def test_small_bench_report(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        code = main(["bench", "--count", "3", "--canvas", "160", "--seed", "1",
                     "--top-n", "400", "--out", out] + REFINE_FAST)
        assert code == 0
        report = json.load(open(out))
        assert 0.0 < report["reduction_fraction"] < 1.0
        fr = {s["stage"]: s["active_fraction"] for s in report["stages"] if s["stage"] >= 1}
        assert fr[3] < fr[2] < fr[1]
        assert "wall_time" in capsys.readouterr().out

    def test_scipy_loaded_before_the_timed_runs(self, tmp_path):
        """The first bilinear sample imports ``scipy.sparse``; ``bench`` loads it
        before its first (dense) run, so the dense wall time leaves it out."""
        code = ("import json, sys\n"
                "from spsr import cli\n"
                "assert 'scipy.sparse' not in sys.modules\n"
                "run, calls = cli.run_refinement, []\n"
                "def spy(*args, **kwargs):\n"
                "    calls.append((kwargs['sparse'], 'scipy.sparse' in sys.modules))\n"
                "    return run(*args, **kwargs)\n"
                "cli.run_refinement = spy\n"
                "assert cli.main(json.loads(sys.argv[1])) == 0\n"
                "print(json.dumps(calls))\n")
        argv = ["bench", "--count", "1", "--canvas", "64", "--stages", "1",
                "--f0", "8", "--f-neck", "8", "--f-query", "8"]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                              env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [[False, True], [True, True]]

    def test_force_dense_active_zero_reduction(self, tmp_path):
        # a budget at the stage-3 cell count (2 RoIs x 112 x 112) keeps every cell
        out = str(tmp_path / "bench.json")
        code = main(["bench", "--count", "2", "--canvas", "160", "--seed", "2",
                     "--top-n", str(2 * 112 * 112), "--out", out] + REFINE_FAST)
        assert code == 0
        assert json.load(open(out))["reduction_fraction"] == 0.0

    @pytest.mark.parametrize("command", ["refine", "bench"])
    def test_one_weight_set_per_call(self, tmp_path, monkeypatch, command):
        """Both routes of a bench run share one seeded set. The CLI looks
        ``PipelineWeights`` up on ``pipeline`` at call time, as the engine does,
        so a wrapper set there (this spy, or a tracing span) sees every draw."""
        built = []
        weights = pipeline.PipelineWeights

        def spy(*args):
            built.append(weights(*args))
            return built[-1]

        monkeypatch.setattr(pipeline, "PipelineWeights", spy)
        if command == "refine":
            roi_path, mask_path, _ = write_inputs(tmp_path)
            argv = ["refine", "--rois", roi_path, "--ref-masks", mask_path,
                    "--out", str(tmp_path / "out")]
        else:
            argv = ["bench", "--count", "2", "--canvas", "160", "--out", str(tmp_path / "b.json")]
        assert main(argv + REFINE_FAST) == 0
        assert len(built) == 1

    def test_budget_sweep_is_one_bench_per_budget(self, tmp_path):
        """A budget sweep is one ``bench`` call per budget: each report, its
        corpus block aside, is the ledger report of the sparse run at that
        budget, whose every-cell MACs are those of one dense run over the same
        weight set, corpus and neck."""
        base = pipeline.RunConfig(f0=16, f_neck=8, f_query=8, image_hw=(160, 160))
        weights = pipeline.PipelineWeights(None, base)
        rois = synthetic.roi_corpus(2, "blob", 160, base.seed, base.final_side)
        neck = pipeline.NeckFeatures.synthesize(base.seed, (160, 160), base.f_neck)
        # each run prunes the level dict it is given, so each gets a copy
        dense = pipeline.run_refinement(rois, base, weights,
                                        pipeline.NeckFeatures(dict(neck.levels)), sparse=False)
        for budget in (300, 1000):
            sparse = pipeline.run_refinement(rois, replace(base, top_n_active=budget),
                                             weights, pipeline.NeckFeatures(dict(neck.levels)))
            out = tmp_path / f"bench-{budget}.json"
            assert main(["bench", "--count", "2", "--canvas", "160", "--top-n", str(budget),
                         "--out", str(out)] + REFINE_FAST) == 0
            report = json.load(open(out))
            del report["corpus"]
            assert report == compare(sparse.ledger)
            assert ([e.dense_macs for e in sparse.ledger.entries]
                    == [e.macs for e in dense.ledger.entries])

    def test_weights_refused_before_the_corpus(self, tmp_path, capsys, monkeypatch):
        def no_corpus(*args):
            raise AssertionError("the weights must be refused before the corpus is drawn")

        monkeypatch.setattr(synthetic, "roi_corpus", no_corpus)
        monkeypatch.setattr(cli, "roi_corpus", no_corpus)  # the name the CLI calls
        out = tmp_path / "bench.json"
        code = main(["bench", "--count", "4096", "--f0", str(1 << 30), "--out", str(out)])
        assert_exit_2_no_output(capsys, code, out)

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_refused_before_anything_is_drawn(self, tmp_path, capsys,
                                                               monkeypatch, count):
        monkeypatch.setattr(pipeline, "PipelineWeights", fail_if_called)
        monkeypatch.setattr(cli, "roi_corpus", fail_if_called)
        monkeypatch.setattr(pipeline.NeckFeatures, "synthesize", fail_if_called)
        out = tmp_path / "bench.json"
        code = main(["bench", "--count", count, "--out", str(out)] + REFINE_FAST)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: --count {count} lies outside 1..{io.MAX_ROIS}, the RoI cap\n"


class TestActiveFraction:
    """Each refinement stage's ``active_fraction`` in the refine and bench
    reports is the selected cells over the parent cells, as counted from
    ``select_active``."""

    @pytest.mark.parametrize("stages", ["1", "2", "3"])
    @pytest.mark.parametrize("top_n", ["0", "300", str(10**9)])
    @pytest.mark.parametrize("command", ["refine", "bench"])
    def test_selected_over_parent_cells(self, tmp_path, monkeypatch, command, top_n, stages):
        counted = []  # (selected, parent) cells of each stage of the budgeted route
        select_active = pipeline.select_active

        def spy(scores, budget):
            cells = select_active(scores, budget)
            if budget is not None:  # bench's dense route selects every cell
                counted.append((sum(map(len, cells)), sum(np.size(g) for g in scores)))
            return cells

        monkeypatch.setattr(pipeline, "select_active", spy)
        if command == "refine":
            roi_path, mask_path, _ = write_inputs(tmp_path)
            report_path = tmp_path / "out" / "ledger.json"
            argv = ["refine", "--rois", roi_path, "--ref-masks", mask_path,
                    "--out", str(report_path.parent)]
        else:
            report_path = tmp_path / "bench.json"
            argv = ["bench", "--count", "2", "--canvas", "160", "--out", str(report_path)]
        assert main(argv + REFINE_FAST + ["--top-n", top_n, "--stages", stages]) == 0
        stages_report = json.loads(report_path.read_text())["stages"]
        assert "active_fraction" not in stages_report[0]
        got = [st["active_fraction"] for st in stages_report[1:]]
        assert len(got) == len(counted) == int(stages)
        assert got == [selected / parent for selected, parent in counted]
        if top_n == "0":
            assert set(got) == {0.0}
        elif top_n == "300":  # 2 RoIs hold 392 stage-0 cells: the budget binds
            assert all(0.0 < f < 1.0 for f in got)
        else:
            assert set(got) == {1.0}


class TestWeightBounds:
    @pytest.mark.parametrize("flag", ["--f0", "--f-query", "--f-neck"])
    def test_huge_feature_size_exit_2(self, tmp_path, capsys, flag):
        argv = REFINE_FAST + [flag, str(1 << 30)]
        out = tmp_path / "bench.json"
        code = main(["bench", "--count", "1", "--canvas", "64", "--out", str(out)] + argv)
        assert_exit_2_no_output(capsys, code, out)
        roi_path, _, _ = write_inputs(tmp_path, n=1)
        out = tmp_path / "out"
        code = main(["refine", "--mode", "weights", "--rois", roi_path, "--out", str(out)] + argv)
        assert_exit_2_no_output(capsys, code, out / "masks.json", out / "ledger.json")

    def test_over_cap_head_refused_before_any_draw(self, tmp_path, monkeypatch):
        """``--f0 1024`` takes the weights to 67.4M values, over the cap. The
        array shapes are summed before any array is drawn, so the refusal is
        quick and small; drawing the arrays under the cap first peaked at
        548 MiB, more than an accepted ``--f0 512`` run."""
        roi_path, _, _ = write_inputs(tmp_path, n=1)
        out = tmp_path / "out"
        argv = ["refine", "--mode", "weights", "--rois", roi_path, "--out", str(out),
                "--f0", "1024"]
        proc, peak_kb = cli_peak(argv)
        assert proc.returncode == 2 and "cap" in proc.stderr, proc.stderr
        assert peak_kb < 100 * 1024 and not out.exists()
        drawn = []
        monkeypatch.setattr(pipeline, "seeded_rng", lambda *parts: drawn.append(parts))
        started = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - started < 0.5 and drawn == []


class TestOutputMode:
    """An output gets the mode a plain ``open`` gives a new file, 0o666 less the
    umask, though it is written to a temp file and renamed into place."""

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_follow_the_umask(self, tmp_path, umask, mode):
        rois, masks, _ = write_inputs(tmp_path, n=1)
        dets = str(tmp_path / "dets.json")
        io.dump_json(dets, [box_record(0, 1, [0, 0, 10, 10], 0.9)])
        out, report, bundle = tmp_path / "out", tmp_path / "report.json", tmp_path / "w.bin"
        before = os.umask(umask)
        try:
            assert main(["refine", "--mode", "oracle", "--rois", rois, "--ref-masks", masks,
                         "--out", str(out)] + REFINE_FAST) == 0
            assert main(["eval", "--task", "det", "--preds", dets, "--gts", dets,
                         "--out", str(report)]) == 0
            io.save_weights(str(bundle), {"stage0.seg.l0.bias": np.zeros(1)})
        finally:
            os.umask(before)
        for path in (out / "masks.json", out / "ledger.json", report, bundle):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path
        assert not list(tmp_path.rglob(".tmp-*"))


class TestUnwritableOutput:
    """An output path that cannot be written (a directory, or a path under an
    existing file) is malformed input: exit 2 with a message, no traceback, and
    neither the output nor a temporary file is left behind. Each command checks
    its outputs before any work, so no weights, corpus, run or report is made."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an unwritable output must be refused before any work")

        monkeypatch.setattr(pipeline, "PipelineWeights", refuse)
        for name in ("roi_corpus", "run_refinement", "ap_suite", "pq"):
            monkeypatch.setattr(cli, name, refuse)  # the names the CLI calls

    def leftovers(self, tmp_path):
        return sorted(p.name for p in tmp_path.rglob(".tmp-*"))

    def test_bench_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        for out in (tmp_path / "afile" / "report.json", tmp_path / "afile" / "sub" / "report.json"):
            code = main(["bench", "--count", "1", "--canvas", "64", "--f0", "8", "--f-neck", "2",
                         "--f-query", "2", "--out", str(out)])
            assert_exit_2_no_output(capsys, code, out)
        assert (tmp_path / "afile").read_text() == "" and not self.leftovers(tmp_path)

    def test_bench_out_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "report"
        out.mkdir()
        code = main(["bench", "--count", "1", "--canvas", "64", "--out", str(out)] + REFINE_FAST)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
        assert not any(out.iterdir()) and not self.leftovers(tmp_path)

    def test_refine_out_is_a_file(self, tmp_path, capsys):
        rois, masks, _ = write_inputs(tmp_path, n=1)
        (tmp_path / "out").write_text("")
        for out in (tmp_path / "out", tmp_path / "out" / "deeper"):
            code = main(["refine", "--mode", "oracle", "--rois", rois, "--ref-masks", masks,
                         "--out", str(out)] + REFINE_FAST)
            assert_exit_2_no_output(capsys, code, out / "masks.json", out / "ledger.json")
        assert (tmp_path / "out").read_text() == "" and not self.leftovers(tmp_path)

    def test_refine_output_file_is_a_directory(self, tmp_path, capsys):
        rois, masks, _ = write_inputs(tmp_path, n=1)
        (tmp_path / "out" / "ledger.json").mkdir(parents=True)
        code = main(["refine", "--mode", "oracle", "--rois", rois, "--ref-masks", masks,
                     "--out", str(tmp_path / "out")] + REFINE_FAST)
        assert_exit_2_no_output(capsys, code, tmp_path / "out" / "masks.json")
        assert not self.leftovers(tmp_path)

    def test_eval_out_is_a_directory(self, tmp_path, capsys, monkeypatch):
        io.dump_json(str(tmp_path / "g.json"), [box_record(0, 1, [0, 0, 10, 10], 0.9)])
        monkeypatch.setattr(io, "load_json", fail_if_called)  # no input is opened
        out = tmp_path / "report"
        out.mkdir()
        code = main(["eval", "--task", "det", "--preds", str(tmp_path / "g.json"),
                     "--gts", str(tmp_path / "g.json"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err
        assert not any(out.iterdir()) and not self.leftovers(tmp_path)
