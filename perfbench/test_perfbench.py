"""Tests of the benchmark itself, on tiny graphs.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import workloads

workloads.prepare_process()

import layers  # noqa: E402
import repro  # noqa: E402
import run  # noqa: E402

#: Scales at which each workload's graph still clears the GP-metis GPU
#: threshold (4096 vertices at k=64) but a pass takes well under a second.
TINY = {"gpmetis-delaunay": 0.005, "cpu-engines-roads": 0.0004}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], scale=TINY[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_checks(name):
    w = tiny(name)
    result, details = run.measure(w, seed=3, seconds=0, trace=False, setup_samples=2)
    assert details["problems"] == []
    assert result["correct"] is True and result["failed"] == 0
    # pass 1, one set-up probe in a fresh process, the warm passes
    assert result["attempted"] == len(w.methods) * (2 + run.MIN_PASSES)
    assert [name for name, _, _ in run.END_TO_END] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _first_pass(name="gpmetis-delaunay", seed=1):
    w = tiny(name)
    graph = repro.graphs.load_dataset(w.dataset, w.scale, seed=seed)
    calls = workloads.run_pass(repro, graph, w, seed)
    return graph, calls, workloads.evaluate(graph, calls, None)


def test_corrupted_vectors_count_as_failed():
    graph, calls, first = _first_pass()
    assert first.failed == 0
    good = np.asarray(calls[0].result.part).copy()
    a = 0
    b = int(np.flatnonzero(good != good[a])[0])
    swapped = good.copy()
    swapped[[a, b]] = swapped[[b, a]]  # still valid and balanced, but not pass 1
    out_of_range = good.copy()
    out_of_range[0] = workloads.K
    variants = {
        "label out of range": out_of_range,
        "wrong length": good[:-1],
        "imbalanced": np.zeros_like(good),
        "differs from pass 1": swapped,
    }
    for label, part in variants.items():
        calls[0].result.part = part
        check = workloads.evaluate(graph, calls, first.outcomes)
        assert check.failed == 1, label
    raised = [workloads.Call("gp-metis", 0.0, error="RuntimeError: boom")]
    assert workloads.evaluate(graph, raised, first.outcomes).failed == 1


def test_a_run_counts_a_corrupted_call(monkeypatch):
    real = repro.partition
    seen = []

    def corrupt_after_first(*args, **kwargs):
        res = real(*args, **kwargs)
        seen.append(res)
        if len(seen) > 1:
            res.part = res.part[::-1].copy()
        return res

    monkeypatch.setattr(repro, "partition", corrupt_after_first)
    result, _ = run.measure(tiny("gpmetis-delaunay"), seed=1, seconds=0,
                            trace=False, setup_samples=1)
    assert result["correct"] is False
    assert result["failed"] == run.MIN_PASSES
    assert result["attempted"] == 1 + run.MIN_PASSES


def test_host_times_are_rescaled_by_the_gauge():
    import speed

    _, _, first = _first_pass()
    slow = 2 * speed.REFERENCE_S
    values = run.end_to_end_metrics(
        setups=[(4.0, slow), (3.0, speed.REFERENCE_S), (9.0, slow)],
        # the passes ran at half, two-thirds and full reference speed
        pass_seconds=[2.0, 3.0, 2.4],
        readings=[slow, slow, speed.REFERENCE_S, speed.REFERENCE_S],
        reference=first.outcomes)
    assert values["setup_s"] == pytest.approx(3.0)
    assert values["host_s"] == pytest.approx(2.0)
    assert speed.Gauge().sample() > 0


def _program_state():
    targets = {importlib.import_module(mod) for _, mod, _, _ in layers.TARGETS}
    state = {}
    for m in layers._repro_modules():
        for key, value in vars(m).items():
            state[(m.__name__, key)] = value
            if isinstance(value, type) and m in targets:
                for attr, v in vars(value).items():
                    state[(m.__name__, key, attr)] = v
    return state


def test_traced_run_leaves_the_program_unchanged():
    before = _program_state()
    result, details = run.measure(tiny("gpmetis-delaunay"), seed=2, seconds=0,
                                  trace=True)
    after = _program_state()
    assert all(after.get(key) is value for key, value in before.items())
    assert layers.Tracer.leftovers() == []
    # every traced call repeated pass 1 exactly: vectors, modeled seconds,
    # cut and every per-layer count
    assert result["correct"] is True and result["failed"] == 0
    assert details["traced_passes"] >= run.MIN_TRACE_PASSES
    assert [name for name, _, _ in layers.PER_LAYER] == list(result["metrics"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["gpmetis.match.calls"] > 0
    assert metrics["gpusim.warp_transactions.calls"] > 0
    assert metrics["graphs.load_dataset.host_s"] > 0


def test_self_time_subtracts_children():
    t = layers.Tracer()
    t.spans.extend([
        ["a", 0.0, 10.0, -1, 1],
        ["b", 1.0, 4.0, 0, 1],
        ["a", 5.0, 7.0, 0, 1],
    ])
    prof = t.profile()[1]
    assert prof["a"] == [7.0, 2]  # self 5 + 2
    assert prof["b"] == [3.0, 1]


def test_seed_changes_the_graph_not_the_metric_names():
    w = tiny("cpu-engines-roads")
    runs = [run.measure(w, seed=s, seconds=0, trace=t, setup_samples=1)
            for s in (1, 2) for t in (False, True)]
    digests = {details["graph"]["digest"] for _, details in runs}
    assert len(digests) == 2
    untraced = [r for r, d in runs if not d["trace"]]
    traced = [r for r, d in runs if d["trace"]]
    assert untraced[0]["metrics"].keys() == untraced[1]["metrics"].keys()
    assert traced[0]["metrics"].keys() == traced[1]["metrics"].keys()


def test_benchmark_json_matches_the_code():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]

    def declared(key):
        return tuple((m["name"], m["unit"], m["better"]) for m in spec[key])

    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == layers.PER_LAYER


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gpmetis-delaunay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
