"""Tests for the benchmark's own code: generators, metric declarations,
self-time arithmetic and golden comparison. Run: python3 -m pytest bench/tests"""

import inspect
import json
import random

import pytest

import golden
import layers
import run
import spans
import speed
import workloads
from catenv.parsing import load_text

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _generated_files(workdir):
    return {p.name: p.read_text() for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    ops_a = workloads.prepare(workload, 7, tmp_path / "a")
    ops_b = workloads.prepare(workload, 7, tmp_path / "b")
    assert [op.key for op in ops_a] == [op.key for op in ops_b]
    first = _generated_files(tmp_path / "a")
    assert first == _generated_files(tmp_path / "b")
    workloads.prepare(workload, 8, tmp_path / "c")
    other = _generated_files(tmp_path / "c")
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def test_generated_dags_have_the_stated_morphism_counts():
    for key, (_, source, _, _) in workloads.WORKLOADS["germs-dag"].items():
        text = workloads.graph_path_text(random.Random(3), source.n_objects, source.arcs)
        kind, pres = load_text(text)
        want = workloads.path_count(source.n_objects, source.arcs)
        assert kind == "category" and pres.is_finite
        assert len(pres.ball(None)) == want
        assert 15 <= want <= 21, key


def test_generated_gradings_are_valid():
    for order, dim, units in ((2, 2, workloads.UPPER2), (2, 3, workloads.CORNER3),
                              (3, 3, ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)))):
        for seed in range(4):
            kind, (group, graded) = load_text(
                workloads.graded_text(random.Random(seed), order, dim, units))
            assert kind == "graded" and len(group) == order
            assert len(graded.basis) == len(units)  # dense generators stay independent


def test_workloads_match_the_declaration():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for ops in workloads.WORKLOADS.values():
        assert sum(largest for *_, largest in ops.values()) == 1


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _printed(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def _fake_run():
    ops = [workloads.Op("a", ()), workloads.Op("b", (), largest=True)]
    r = run.Run(ops=ops, goldens={}, cli_main=None)
    r.scaled_s = {"a": [2.0, 1.0, 3.0], "b": [0.5, 0.4, 0.6]}
    r.setup_s = [0.5, 0.3, 0.2]
    r.batch_s, r.traced_s = [2.5, 1.4, 3.6], [4.5, 1.9, 4.1]
    r.self_times = [{"hull.generate": 0.25}] * 3
    r.counts = [{"hull.closure_size": 12}] * 3
    return r


def test_every_printed_metric_is_declared_with_its_unit():
    r = _fake_run()
    assert _printed(run.end_to_end(r)) == _declared("end_to_end")
    metrics, problems = run.per_layer(r)
    assert problems == []
    assert _printed(metrics) == _declared("per_layer")
    assert metrics["hull.closure_size"]["value"] == 12


def test_times_are_each_operations_median():
    metrics = run.end_to_end(_fake_run())
    assert metrics["batch_s"]["value"] == pytest.approx(2.0 + 0.5)
    assert metrics["largest_s"]["value"] == pytest.approx(0.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.3)


def test_scale_is_the_mean_speed_relative_to_the_reference():
    # half the samples at the reference speed, half at half of it
    assert speed.to_reference([speed.REF_S, 2 * speed.REF_S] * 3) == pytest.approx(0.75)
    assert 0 < speed.reference_s() < 1


def test_trace_overhead_pairs_batches_of_one_round():
    metrics, _ = run.per_layer(_fake_run())
    # per-round differences 2.0, 0.5, 0.5; the medians of each side differ by 1.6
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.5)


def test_per_layer_flags_counts_that_change_between_batches():
    r = _fake_run()
    r.counts = [*r.counts, {"hull.closure_size": 13}]
    _, problems = run.per_layer(r)
    assert problems and "hull.closure_size" in problems[0]


def test_sampler_samples_while_open_and_then_stops():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    with sampler.during():
        end = time.perf_counter() + 3.5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    taken = len(sampler.kernel_s)
    assert taken >= 3  # one per tick
    assert 0 < sampler.spent_s < 3.5 * speed.INTERVAL_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    time.sleep(2 * speed.INTERVAL_S)
    assert len(sampler.kernel_s) == taken


def test_self_time_on_a_synthetic_span_tree():
    # op [0, 10] ⊃ a [1, 4] ⊃ b [2, 3]; op ⊃ a [5, 6]; op ⊃ c [7, 9]
    tree = [spans.Span("op", 0, 10, None, 0), spans.Span("a", 1, 4, 0, 0),
            spans.Span("b", 2, 3, 1, 0), spans.Span("a", 5, 6, 0, 0),
            spans.Span("c", 7, 9, 0, 0)]
    assert spans.self_times(tree) == {"op": 4, "a": 3, "b": 1, "c": 2}


def test_tracer_records_parents_and_counts():
    tr = spans.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            tr.count("n", 2)
        tr.count("n", 3)
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", None), ("inner", 0)]
    assert tr.counts == {"n": 5}
    outer, inner = tr.spans
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner.rss_mb > 0


def _report(status="certified", deviation=1e-16, mask=(1,), blocks=(1, 2)):
    return {"config": {"tol": 1e-9}, "entries": [
        {"check": "block-structure", "status": "certified",
         "data": {"omega_blocks": list(blocks), "boundary_blocks": [2]}},
        {"check": "boundary-isometry", "status": status,
         "data": {"levels": 2, "max_deviation": deviation}},
        {"check": "shilov-ideal", "status": "certified",
         "data": {"mask": list(mask), "envelope_blocks": [1]}}]}


def test_golden_tolerates_float_noise_but_not_a_verdict():
    want = golden.normal_form(0, _report())
    assert golden.differences(want, golden.normal_form(0, _report(deviation=3e-12))) == []
    assert golden.differences(want, golden.normal_form(0, _report(deviation=1e-6)))
    assert golden.differences(want, golden.normal_form(0, _report(status="rejected")))
    assert golden.differences(want, golden.normal_form(2, _report()))


def test_golden_masks_compare_by_block_size_not_index():
    want = golden.normal_form(0, _report(mask=(1,), blocks=(1, 2)))
    swapped = golden.normal_form(0, _report(mask=(0,), blocks=(2, 1)))
    assert golden.differences(want, swapped) == []
    other = golden.normal_form(0, _report(mask=(0,), blocks=(1, 2)))
    assert golden.differences(want, other)


def _edge_op():
    return workloads.Op("thesis:edge", ("thesis", str(workloads.FIXTURES / "edge.cat")), True)


def _tiny_workload(monkeypatch, tmp_path, exit_code=None):
    """A one-operation workload whose golden is the real outcome, or the real
    outcome with ``exit_code`` in place of its exit code."""
    import catenv.cli

    op = _edge_op()
    _, code, text, _ = run.run_op(catenv.cli.main, op)
    form = golden.normal_form(code, json.loads(text))
    if exit_code is not None:
        form["exit"] = exit_code
    monkeypatch.setitem(workloads.WORKLOADS, "tiny",
                        {op.key: ("thesis", workloads.Fixture("edge.cat"), (), True)})
    monkeypatch.setattr(golden, "load", lambda: {"tiny": {op.key: form}})
    monkeypatch.setattr(run, "time_setup", lambda cmd: 0.1)
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("traced", [False, True])
def test_run_exits_0_when_every_outcome_matches(monkeypatch, tmp_path, capsys, traced):
    _tiny_workload(monkeypatch, tmp_path)
    assert run.run_workload("tiny", 1, 0, traced) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("traced", [False, True])
def test_run_exits_1_when_an_outcome_is_wrong(monkeypatch, tmp_path, capsys, traced):
    _tiny_workload(monkeypatch, tmp_path, exit_code=2)
    assert run.run_workload("tiny", 1, 0, traced) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_tracing_wraps_the_real_program_and_restores_it():
    import catenv.cli

    points = layers.entry_points()
    before = [inspect.getattr_static(owner, attr) for _, owner, attr, _ in points]
    tr = spans.Tracer()
    with layers.instrument(tr):
        traced = run.run_op(catenv.cli.main, _edge_op())
    untraced = run.run_op(catenv.cli.main, _edge_op())
    assert [inspect.getattr_static(owner, attr) for _, owner, attr, _ in points] == before
    assert traced[1:] == untraced[1:]  # same exit code and report
    names = {s.name for s in tr.spans}
    assert {"categories.validate", "hull.generate", "ideals.lattice", "germs.build",
            "gpd.construct", "matrixrep.jack", "envelope.shilov", "report.render"} <= names
    assert set(tr.counts) <= set(run.COUNTS)
    assert tr.counts["hull.closure_size"] > 0
