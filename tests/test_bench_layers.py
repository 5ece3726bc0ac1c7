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


def test_thesis_builds_its_germ_groupoids_through_the_constructor(monkeypatch, capsys):
    """The benchmark times `FiniteGroupoid.__init__` as `gpd.construct` and
    counts `len(self.product)` after it: `thesis` on the edge fixture must
    build both its spectrum and its boundary germ groupoid through it."""
    from catenv import cli
    from catenv.gpd import FiniteGroupoid

    built, results = [], []
    init, analyze = FiniteGroupoid.__init__, cli.analyze_category

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def recording_analysis(*args, **kwargs):
        results.append(analyze(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(FiniteGroupoid, "__init__", recording_init)
    monkeypatch.setattr(cli, "analyze_category", recording_analysis)
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "edge.cat"
    assert cli.main(["thesis", str(fixture), "--format", "json"]) == 0
    capsys.readouterr()
    (result,) = results
    for key in ("groupoid_omega", "groupoid_boundary"):
        g = result.context[key].groupoid
        assert any(g is b for b in built), key
        assert len(g.product) > 0
