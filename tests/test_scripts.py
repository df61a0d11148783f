"""The README's example script, and the benchmark's self-test, run end to end
at tiny sizes."""

import json
import os
import subprocess
import sys

import pytest

from spsr.cost import CostLedger, compare

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("demo_end_to_end.py", ["--count", "3", "--canvas", "96", "--f0", "8"]),
])
def test_script_exits_0(script, args, tmp_path):
    """The demo's ``ledger.json`` is the report ``refine`` writes under that
    name: :func:`compare` of the run's ledger."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args,
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    one = CostLedger()
    one.add("fcn", 0, 1, 1, 1, 1)
    assert json.load(open(tmp_path / "ledger.json")).keys() == compare(one).keys()


def test_benchmark_smoke_ok():
    """``perfbench/run.py --smoke`` runs every workload through the CLI and
    checks its outputs and metric names, so a library change that breaks the
    benchmark fails here."""
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke"] == "ok"
