"""Tests of the benchmark's own code: span arithmetic, names, patching."""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers  # noqa: E402
from perfbench.rep import install_clock  # noqa: E402
from perfbench.run import END_TO_END, best_of_repeats  # noqa: E402
from perfbench.trace import (Patcher, Profile, Tracer, percentile,  # noqa: E402
                             samples_beyond, self_times, tail_percentile,
                             valid_metric_name)
from perfbench.workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    # root [0,100] holds a [10,40] (which holds g [15,25]), and b [50,70]
    # and c [60,80] that overlap each other; d [90,120] runs past the root.
    spans = [("root", 0, 100, -1), ("a", 10, 40, 0), ("g", 15, 25, 1),
             ("c", 60, 80, 0), ("b", 50, 70, 0), ("d", 90, 120, 0)]
    assert self_times(spans) == [100 - (30 + 30 + 10), 20, 10, 20, 20, 30]


def test_profile_aggregates_calls_self_time_and_edges():
    spans = [("outer", 0, 50, -1, "r"), ("inner", 5, 15, 0, "r"),
             ("inner", 20, 45, 0, "r")]
    profile = Profile()
    profile.add(spans, {"hits": 2})
    profile.add([("inner", 0, 5, -1, "r")], {"hits": 1})
    assert profile.calls == {"outer": 1, "inner": 3}
    assert profile.self_ns["outer"] == 15
    assert profile.total_ns["inner"] == 40
    assert profile.edges[("outer", "inner")] == 2
    assert profile.counters["hits"] == 3
    assert profile.n_spans == 4


@pytest.mark.parametrize("name", ["wall_s", "nncore.dense_forward.self_s",
                                  "a-b_c.9", "9lives"])
def test_metric_name_grammar_accepts(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "with space", "slash/name", ".lead",
                                  "_lead", "x" * 65, "tab\tname"])
def test_metric_name_grammar_rejects(name):
    assert not valid_metric_name(name)


def test_every_declared_metric_name_is_valid_and_unique():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_mirrors_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert {w["name"]: w["why"] for w in bench["workloads"]} \
        == {w.name: w.why for w in WORKLOADS.values()}


def test_percentile_rule_keeps_ten_samples_beyond():
    assert samples_beyond(1000, 99.0) == 10
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(300) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    for n in (20, 57, 300, 999, 1000, 12_345):
        assert samples_beyond(n, tail_percentile(n)) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.0) == 99.0
    assert percentile([7.0], 99.9) == 7.0


def test_best_of_repeats_sums_each_segments_fastest_reading():
    # two repeats of one seed; command 0 has two segments, command 1 one
    repeats = [[[1.0, 5.0], [2.0]],
               [[3.0, 4.0], [1.5]]]
    assert best_of_repeats(repeats) == [1.0 + 4.0, 1.5]
    assert best_of_repeats(repeats[:1]) == [6.0, 2.0]


def test_best_of_repeats_refuses_repeats_that_did_other_work():
    with pytest.raises(ValueError):
        best_of_repeats([[[1.0, 2.0]], [[1.0, 2.0, 3.0]]])
    with pytest.raises(ValueError):
        best_of_repeats([])


def _snapshot(modules):
    return {(id(m), name): value for m in modules
            for name, value in vars(m).items()}


def test_traced_run_restores_every_attribute_and_changes_no_output(tmp_path):
    from apil_lab import harness

    owners = layers.apil_modules() + [
        cls for m in layers.apil_modules() for cls in vars(m).values()
        if isinstance(cls, type) and cls.__module__.startswith("apil_lab")]
    before = _snapshot(owners)

    def train(out, traced):
        argv = ["train", "--method", "apil", "--teacher", "twodifdetm",
                "--episodes", "4", "--probe-every", "2", "--seed", "3",
                "--out", str(out / "m.csv"), "--save", str(out / "a.ckpt")]
        tracer, patcher = Tracer("test"), Patcher()
        if traced:
            layers.install(tracer, patcher)
        try:
            assert harness.main(argv) == 0
            assert harness.main(["uncertainty-report", "--teacher",
                                 "twodifdetm", "--eval-episodes", "3",
                                 "--load", str(out / "a.ckpt"),
                                 "--out", str(out / "u.csv")]) == 0
        finally:
            patcher.restore()
        return tracer, patcher

    tracer, patcher = train(tmp_path / "traced", traced=True)
    assert len(patcher) > 40
    assert patcher.unrestored() == []
    after = _snapshot(owners)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] \
        == []
    names = {span[0] for span in tracer.spans}
    assert {"training.run_training", "uncertainty.estimate", "query.decide",
            "nncore.checkpoint", "harness.uncertainty_report"} <= names

    train(tmp_path / "plain", traced=False)
    for name in ("m.csv", "u.csv", "a.ckpt"):
        assert (tmp_path / "traced" / name).read_bytes() \
            == (tmp_path / "plain" / name).read_bytes()


def test_clock_marks_every_episode_and_estimate_and_changes_no_output(
        tmp_path):
    from apil_lab import harness
    from apil_lab.training import read_csv

    def run(out, marks):
        patcher = Patcher()
        if marks is not None:
            install_clock(patcher, marks)
        try:
            assert harness.main(
                ["train", "--method", "apil", "--teacher", "twodifdetm",
                 "--episodes", "4", "--probe-every", "2", "--seed", "3",
                 "--out", str(out / "m.csv"),
                 "--save", str(out / "a.ckpt")]) == 0
            assert harness.main(
                ["uncertainty-report", "--teacher", "twodifdetm",
                 "--eval-episodes", "3", "--load", str(out / "a.ckpt"),
                 "--out", str(out / "u.csv")]) == 0
        finally:
            patcher.restore()
        assert len(patcher) == (2 if marks is not None else 0)
        assert patcher.unrestored() == []

    marks: list[float] = []
    run(tmp_path / "clock", marks)
    states = len(read_csv(tmp_path / "clock" / "u.csv")) - 1  # less "mean"
    assert len(marks) == 4 + states
    assert marks == sorted(marks)
    run(tmp_path / "plain", None)
    for name in ("m.csv", "u.csv", "a.ckpt"):
        assert (tmp_path / "clock" / name).read_bytes() \
            == (tmp_path / "plain" / name).read_bytes()
