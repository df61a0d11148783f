"""The benchmark's per-layer trace patches spsr functions by name
(``perfbench/tracing.py``); a renamed or removed function must fail here."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_is_restored():
    tracing = load_tracing()
    targets = [t for table in (tracing.SPANS, tracing.COUNTERS)
               for names in table.values() for t in names]

    def current(target):
        owner, attr = tracing._resolve(target)
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    originals = {t: current(t) for t in targets}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert len(tracer._patched) == len(targets)
        assert all(current(t) is not originals[t] for t in targets)
    finally:
        tracer.uninstall()
    assert all(current(t) is originals[t] for t in targets)
