import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spsr import ops, tensor


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_sps(rng, h=None, w=None, f=None, n_active=None):
    """Random SPS tensor built through from_dense (grid <= 16x16, F <= 8)."""
    h = h or int(rng.integers(1, 17))
    w = w or int(rng.integers(1, 17))
    f = f or int(rng.integers(1, 9))
    dense = rng.standard_normal((f, h, w))
    cells = [(y, x) for y in range(h) for x in range(w)]
    if n_active is None:
        n_active = int(rng.integers(0, h * w + 1))
    chosen = [cells[i] for i in rng.permutation(h * w)[:n_active]]
    return dense, tensor.from_dense(dense, chosen)


def identity_transform(f):
    return ops.LinearTransform(weights=np.eye(f), bias=np.zeros(f))


def random_linear(rng, f_in, f_out, activation="none"):
    return ops.LinearTransform(weights=rng.standard_normal((f_out, f_in)),
                               bias=rng.standard_normal(f_out), activation=activation)


def random_kernel(rng, f, k=3, dilation=1):
    return ops.ConvKernel(weights=rng.standard_normal((f, f, k, k)),
                          bias=rng.standard_normal(f), dilation=dilation)


def row_bands(rows):
    """An ``ext`` band source for ``ops.fuse_external`` or ``ops.dense_fuse``
    that returns each band of fixed ``[n, F_e]`` rows (a view of any strides)."""
    rows = np.asarray(rows, dtype=np.float64)
    return lambda band: rows[band]


def grid_bands(grid):
    """An ``ext`` band source for ``ops.dense_fuse`` that returns the cells of
    an ``[F_e, H, W]`` grid as ``[n, F_e]`` rows, a transposed view."""
    return row_bands(np.asarray(grid, dtype=np.float64).reshape(grid.shape[0], -1).T)


def traced_peak(fn, *args):
    """``fn(*args)``, and the peak of the bytes it allocated that tracemalloc saw."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# the child's own peak: ru_maxrss would carry over this process's RSS from
# the fork, so the child reports VmHWM, which exec resets
_PEAK_SCRIPT = ("import sys\n"
                "from spsr.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(next(line.split()[1] for line in open('/proc/self/status')\n"
                "           if line.startswith('VmHWM:')))\n"
                "sys.exit(code)\n")


def cli_peak(argv):
    """``spsr argv`` run in a child process, and the child's peak RSS in kB."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.stdout.split(), proc.stderr  # the child ended before reporting its peak
    return proc, int(proc.stdout.split()[-1])
