"""perfbench's tracer still finds every function it wraps.

The benchmark's per-layer metrics come from ``perfbench/tracing.py``,
which replaces each ``BINDINGS`` function on every module that binds it.
A renamed or moved function would make ``Tracer.install`` fail, or leave
a layer unmeasured; this test catches both without running a benchmark.
"""

import importlib.util
import pathlib


def _load_tracing():
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_is_patched_and_restored():
    tracing = _load_tracing()
    bound = [(module, name.rsplit(".", 1)[1])
             for name, modules, _, _ in tracing.BINDINGS
             for module in modules]
    originals = {(module.__name__, attr): getattr(module, attr)
                 for module, attr in bound}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr in bound:
            assert getattr(module, attr) is not \
                originals[module.__name__, attr], (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr in bound:
        assert getattr(module, attr) is originals[module.__name__, attr], \
            (module.__name__, attr)
