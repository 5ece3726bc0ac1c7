"""Every entry point the benchmark's tracer patches exists in the library, so
a refactor that drops or renames a traced name fails here too."""

import importlib.util
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    points = layers.entry_points()
    missing = [(owner.__name__, attr) for _, owner, attr, _ in points
               if inspect.getattr_static(owner, attr, None) is None]
    assert points and not missing
