"""Which apil-lab functions the traced run wraps, and the per-layer metrics.

Module-level functions are rebound in every ``apil_lab`` module that holds
them (``softmax`` in ``nncore``, ``agent`` and ``query``; ``estimate`` in
``uncertainty``, ``harness`` and ``query``'s lazy import; ``run_training`` in
``training`` and ``harness``). Methods are rebound on their class. The
``gradcheck`` layer is a test oracle that no workload runs, so it has no
metrics.
"""
from __future__ import annotations

import os
import sys

from .trace import Patcher, Profile, Tracer, percentile, tail_percentile

# traced minus untraced wall_s of the same seed, measured by run.py
OVERHEAD = "trace.overhead_s"

# (metric name, unit, better); BENCHMARK.json's per_layer list mirrors this.
PER_LAYER = [
    ("nncore.dense_forward.calls", "count", "lower"),
    ("nncore.dense_forward.self_s", "s", "lower"),
    ("nncore.dense_backward.calls", "count", "lower"),
    ("nncore.dense_backward.self_s", "s", "lower"),
    ("nncore.softmax.calls", "count", "lower"),
    ("nncore.softmax.self_s", "s", "lower"),
    ("nncore.softmax_nll.calls", "count", "lower"),
    ("nncore.softmax_nll.self_s", "s", "lower"),
    ("nncore.adam_step.calls", "count", "lower"),
    ("nncore.adam_step.self_s", "s", "lower"),
    ("nncore.dropout_mask.calls", "count", "lower"),
    ("nncore.checkpoint.bytes", "bytes", "lower"),
    ("nncore.checkpoint.s", "s", "lower"),
    ("agent.mean_exe_policy.calls", "count", "lower"),
    ("agent.mean_exe_policy.self_s", "s", "lower"),
    ("agent.policy_probs.calls", "count", "lower"),
    ("agent.policy_probs.self_s", "s", "lower"),
    ("agent.identity_probs.calls", "count", "lower"),
    ("agent.exe_losses.calls", "count", "lower"),
    ("agent.exe_losses.self_s", "s", "lower"),
    ("agent.end_episode_update.self_s", "s", "lower"),
    ("uncertainty.estimate.calls", "count", "lower"),
    ("uncertainty.estimate.self_s", "s", "lower"),
    ("uncertainty.estimate.us_p50", "us", "lower"),
    ("uncertainty.estimate.us_tail", "us", "lower"),
    ("uncertainty.estimate.tail_pct", "pct", "higher"),
    ("uncertainty.entropy.calls", "count", "lower"),
    ("uncertainty.entropy.self_s", "s", "lower"),
    ("uncertainty.mean_report.calls", "count", "lower"),
    ("uncertainty.mean_report.s", "s", "lower"),
    ("uncertainty.policy_evals_per_estimate", "ratio", "lower"),
    ("query.decide.calls", "count", "lower"),
    ("query.decide.self_s", "s", "lower"),
    ("query.ask_net.self_s", "s", "lower"),
    ("query.labeller.calls", "count", "lower"),
    ("query.labeller.self_s", "s", "lower"),
    ("query.ask_update.self_s", "s", "lower"),
    ("query.query_ratio", "ratio", "lower"),
    ("envs.step.calls", "count", "lower"),
    ("envs.step.self_s", "s", "lower"),
    ("envs.encode.calls", "count", "lower"),
    ("envs.encode.self_s", "s", "lower"),
    ("teachers.respond.calls", "count", "lower"),
    ("teachers.respond.self_s", "s", "lower"),
    ("teachers.d_star.s", "s", "lower"),
    ("training.run_episode.calls", "count", "lower"),
    ("training.run_episode.self_s", "s", "lower"),
    ("training.run_episode.ms_p50", "ms", "lower"),
    ("training.run_episode.ms_tail", "ms", "lower"),
    ("training.run_episode.tail_pct", "pct", "higher"),
    ("training.probe_share", "ratio", "lower"),
    ("training.write_csv.s", "s", "lower"),
    ("harness.sweep.cells", "count", "higher"),
    ("harness.sweep.cells_failed", "count", "lower"),
    ("harness.sweep.cell_s_p50", "s", "lower"),
    ("harness.sweep.cell_s_max", "s", "lower"),
    ("harness.sweep.busy_share", "ratio", "higher"),
    ("harness.uncertainty_report.s", "s", "lower"),
    ("harness.visited_states", "count", "lower"),
    ("trace.spans", "count", "lower"),
    (OVERHEAD, "s", "lower"),
]


def _count_file_bytes(tracer, args, result) -> None:
    tracer.count("nncore.checkpoint.bytes", os.path.getsize(args[0]))


def _count_visited(tracer, args, result) -> None:
    tracer.count("harness.visited_states", len(result))


def _targets():
    """(span name, owner, attribute, result hook) for every wrapped callable.

    A module owner means "this function, wherever apil_lab binds it".
    """
    from apil_lab import (agent, envs, harness, nncore, query, teachers,
                          training, uncertainty)

    def count_decision(tracer, args, result) -> None:
        tracer.count("query.decided")
        if result == query.ASK_QUERY:
            tracer.count("query.queried")

    decide_classes = [cls for cls in vars(query).values()
                      if isinstance(cls, type)
                      and issubclass(cls, query.QueryPolicyBase)
                      and cls is not query.QueryPolicyBase
                      and "decide" in vars(cls)]
    return [
        ("nncore.dense_forward", nncore.Dense, "forward", None),
        ("nncore.dense_backward", nncore.Dense, "backward", None),
        ("nncore.softmax", nncore, "softmax", None),
        ("nncore.softmax_nll", nncore, "softmax_nll", None),
        ("nncore.adam_step", nncore.AdamState, "step", None),
        ("nncore.dropout_mask", nncore, "sample_dropout_mask", None),
        ("nncore.checkpoint", nncore, "save_checkpoint", _count_file_bytes),
        ("nncore.checkpoint", nncore, "load_checkpoint", _count_file_bytes),
        ("agent.mean_exe_policy", agent.PersonaAgent, "mean_exe_policy", None),
        ("agent.policy_probs", agent.PersonaAgent, "policy_probs", None),
        ("agent.identity_probs", agent.PersonaAgent, "identity_probs", None),
        ("agent.exe_losses", agent.PersonaAgent, "exe_losses", None),
        ("agent.end_episode_update", agent.PersonaAgent, "end_episode_update",
         None),
        ("uncertainty.estimate", uncertainty, "estimate", None),
        ("uncertainty.entropy", uncertainty, "entropy", None),
        ("uncertainty.mean_report", uncertainty, "mean_report", None),
        *[("query.decide", cls, "decide", count_decision)
          for cls in decide_classes],
        ("query.ask_net", query.QueryNet, "forward", None),
        ("query.ask_net", query.QueryNet, "accumulate_nll", None),
        ("query.ask_net", query.ErrPredNet, "predict", None),
        ("query.ask_net", query.ErrPredNet, "accumulate_sq_loss", None),
        ("query.labeller", query, "apil_labels", None),
        ("query.labeller", query, "ignore_labels", None),
        ("query.ask_update", query.HindsightQueryPolicy, "end_episode", None),
        ("query.ask_update", query.ErrPredQueryPolicy, "end_episode", None),
        ("envs.step", envs.GridWorld, "step", None),
        ("envs.step", envs.MazeGrid, "step", None),
        ("envs.encode", envs.GridWorld, "encode", None),
        ("envs.encode", envs.MazeGrid, "encode", None),
        ("teachers.respond", teachers.Committee, "respond", None),
        ("teachers.d_star", teachers, "estimate_teacher_final_distance", None),
        ("training.run_episode", training, "run_episode", None),
        ("training.run_training", training, "run_training", None),
        ("training.write_csv", training, "write_csv", None),
        ("harness.uncertainty_report", harness, "uncertainty_report_rows",
         None),
        ("harness.visited_states", harness, "visited_state_weights",
         _count_visited),
    ]


def apil_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "apil_lab" or name.startswith("apil_lab.")]


def bindings(obj, modules) -> list[tuple[object, str]]:
    """Every (module, name) under which ``obj`` is bound."""
    return [(m, name) for m in modules
            for name, value in vars(m).items() if value is obj]


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every target; module functions are rebound wherever imported."""
    modules = apil_modules()
    for span, owner, attr, hook in _targets():
        original = vars(owner)[attr]
        wrapper = tracer.wrap(span, original, hook)
        if isinstance(owner, type):
            patcher.patch(owner, attr, wrapper)
            continue
        for module, name in bindings(original, modules):
            patcher.patch(module, name, wrapper)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _latency(profile: Profile, name: str, scale: float):
    """(p50, tail, tail percentile) of one span's durations, in ``scale`` units."""
    durations = profile.durations_ns.get(name, [])
    pct = tail_percentile(len(durations))
    if pct is None:
        return 0.0, 0.0, 0.0
    return (percentile(durations, 50.0) / scale,
            percentile(durations, pct) / scale, pct)


def per_layer_metrics(profile: Profile, sweep: dict | None) -> dict[str, float]:
    """Every PER_LAYER metric but the tracing overhead, from a merged profile.

    ``sweep`` holds the sweep's ``cells``, ``cells_failed``, ``jobs`` and
    ``wall_s`` when the workload ran one; its ``training.run_training``
    spans are then the cells.
    """
    p = profile
    m: dict[str, float] = {}
    for layer_name in ("nncore.dense_forward", "nncore.dense_backward",
                       "nncore.softmax", "nncore.softmax_nll",
                       "nncore.adam_step", "agent.mean_exe_policy",
                       "agent.policy_probs", "agent.exe_losses",
                       "uncertainty.estimate", "uncertainty.entropy",
                       "query.decide", "query.labeller", "envs.step",
                       "envs.encode", "teachers.respond",
                       "training.run_episode"):
        m[f"{layer_name}.calls"] = p.calls[layer_name]
        m[f"{layer_name}.self_s"] = p.self_s(layer_name)
    for name in ("nncore.dropout_mask", "agent.identity_probs",
                 "uncertainty.mean_report"):
        m[f"{name}.calls"] = p.calls[name]
    for name in ("agent.end_episode_update", "query.ask_net",
                 "query.ask_update"):
        m[f"{name}.self_s"] = p.self_s(name)
    for name in ("nncore.checkpoint", "uncertainty.mean_report",
                 "teachers.d_star", "training.write_csv",
                 "harness.uncertainty_report"):
        m[f"{name}.s"] = p.total_s(name)
    m["nncore.checkpoint.bytes"] = p.counters["nncore.checkpoint.bytes"]

    (m["uncertainty.estimate.us_p50"], m["uncertainty.estimate.us_tail"],
     m["uncertainty.estimate.tail_pct"]) = _latency(p, "uncertainty.estimate",
                                                    1e3)
    (m["training.run_episode.ms_p50"], m["training.run_episode.ms_tail"],
     m["training.run_episode.tail_pct"]) = _latency(p, "training.run_episode",
                                                    1e6)
    m["uncertainty.policy_evals_per_estimate"] = _ratio(
        p.edges[("uncertainty.estimate", "agent.policy_probs")],
        p.calls["uncertainty.estimate"])
    m["query.query_ratio"] = _ratio(p.counters["query.queried"],
                                    p.counters["query.decided"])
    m["training.probe_share"] = _ratio(p.total_ns["uncertainty.mean_report"],
                                       p.total_ns["training.run_training"])
    m["harness.visited_states"] = p.counters["harness.visited_states"]

    cells = [d / 1e9 for d in p.durations_ns.get("training.run_training", [])]
    if sweep and cells:
        m["harness.sweep.cells"] = sweep["cells"]
        m["harness.sweep.cells_failed"] = sweep["cells_failed"]
        m["harness.sweep.cell_s_p50"] = percentile(cells, 50.0)
        m["harness.sweep.cell_s_max"] = max(cells)
        m["harness.sweep.busy_share"] = _ratio(
            sum(cells), sweep["jobs"] * sweep["wall_s"])
    else:
        for key in ("cells", "cells_failed", "cell_s_p50", "cell_s_max",
                    "busy_share"):
            m[f"harness.sweep.{key}"] = 0.0
    m["trace.spans"] = p.n_spans
    return {name: float(m[name]) for name, _, _ in PER_LAYER
            if name != OVERHEAD}
