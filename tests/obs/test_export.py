"""Golden-schema tests: real pipeline traces must be valid Chrome-trace JSON.

The acceptance contract of the observability layer: a full pipeline run
(both backends) exports a document that chrome://tracing/Perfetto can load,
with the four stage spans properly nested inside ``pipeline.run`` and
non-overlapping within their lane, and the metrics block carrying the
session-cache and load-balance counters.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import repro
from repro.obs import (
    NULL_TRACER,
    Tracer,
    format_event_tree,
    load_chrome_trace,
    to_chrome_trace,
    top_spans,
    validate_chrome_trace,
)
from repro.obs.shipping import WorkerObs, merge_payload

#: Stage spans of a vectorized run (one index for the whole reference); the
#: simulated backend builds one index per tile row and adds its host merge.
STAGES = ("stage:prep", "stage:index", "stage:tile_match")
SIM_STAGES = ("stage:prep", "stage:row_index", "stage:tile_match",
              "stage:host_merge")


@pytest.fixture(scope="module")
def sequences():
    ref = repro.random_dna(3000, seed=11)
    qry = repro.mutate(ref[:2000], rate=0.02, seed=12)
    return ref, qry


def _events_by_name(doc):
    byname = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "X":
            byname.setdefault(ev["name"], []).append(ev)
    return byname


def _assert_nested(inner, outer):
    assert inner["ts"] >= outer["ts"] - 1e-6
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6


class TestVectorizedTraceSchema:
    @pytest.fixture(scope="class")
    def doc(self, sequences):
        ref, qry = sequences
        tracer = Tracer()
        matcher = repro.GpuMem(
            repro.GpuMemParams(min_length=40, seed_length=10), tracer=tracer
        )
        matcher.find_mems(ref, qry)
        return to_chrome_trace(tracer, run="golden")

    def test_schema_valid(self, doc):
        assert validate_chrome_trace(doc) == []

    def test_json_serializable(self, doc):
        json.dumps(doc)  # numpy attrs must have been coerced

    def test_all_three_stage_spans_present(self, doc):
        byname = _events_by_name(doc)
        for stage in STAGES:
            assert byname.get(stage), f"missing {stage} span"
        assert "stage:host_merge" not in byname

    def test_stage_spans_nest_inside_pipeline_run(self, doc):
        byname = _events_by_name(doc)
        (run,) = byname["pipeline.run"]
        for stage in STAGES:
            for ev in byname[stage]:
                assert ev["tid"] == run["tid"]
                _assert_nested(ev, run)

    def test_stage_spans_do_not_overlap_each_other(self, doc):
        byname = _events_by_name(doc)
        stages = sorted(
            (ev for s in STAGES for ev in byname[s]), key=lambda e: e["ts"]
        )
        for a, b in zip(stages, stages[1:], strict=False):
            assert a["ts"] + a["dur"] <= b["ts"] + 1e-6, (
                f"{a['name']} overlaps {b['name']}"
            )

    def test_metrics_block_has_cache_and_balance_counters(self, doc):
        metrics = doc["metrics"]
        assert metrics["session.cache.queries"]["value"] == 1
        assert metrics["session.cache.misses"]["value"] >= 1
        for series in (
            "load_balance.seed_slots",
            "load_balance.active_seeds",
            "load_balance.idle_threads",
            "load_balance.redistributed_threads",
        ):
            assert series in metrics, f"missing {series}"
        assert metrics["pipeline.runs{backend=vectorized}"]["value"] == 1

    def test_metadata_and_display_unit(self, doc):
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["tool"] == "repro.obs"
        assert doc["metadata"]["run"] == "golden"

    def test_file_roundtrip_and_inspection(self, doc, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        loaded = load_chrome_trace(path)
        assert validate_chrome_trace(loaded) == []
        tree = format_event_tree(loaded)
        assert "pipeline.run" in tree
        assert "stage:tile_match" in tree
        names = [name for name, _, _ in top_spans(loaded)]
        assert "pipeline.run" in names


class TestSimulatedTraceSchema:
    @pytest.fixture(scope="class")
    def doc(self):
        from repro.core.params import GpuMemParams
        from repro.core.simulated import simulated_find_mems

        ref = repro.random_dna(300, seed=21)
        qry = repro.mutate(ref[:150], rate=0.02, seed=22)
        tracer = Tracer()
        params = GpuMemParams(
            min_length=15, seed_length=6, backend="simulated"
        )
        simulated_find_mems(ref, qry, params, tracer=tracer)
        return to_chrome_trace(tracer)

    def test_schema_valid(self, doc):
        assert validate_chrome_trace(doc) == []

    def test_all_four_stage_spans_present(self, doc):
        byname = _events_by_name(doc)
        for stage in SIM_STAGES:
            assert byname.get(stage), f"missing {stage} span"

    def test_kernel_spans_nested_in_their_stages(self, doc):
        """Each kernel-launching stage holds >= 1 kernel:* span."""
        byname = _events_by_name(doc)
        kernels = [
            ev for name, evs in byname.items()
            if name.startswith("kernel:") for ev in evs
        ]
        assert kernels
        for stage in ("stage:row_index", "stage:tile_match"):
            (ev,) = byname[stage]
            inside = [
                k for k in kernels
                if ev["ts"] - 1e-6 <= k["ts"]
                and k["ts"] + k["dur"] <= ev["ts"] + ev["dur"] + 1e-6
            ]
            assert inside, f"no kernel span inside {stage}"

    def test_kernel_spans_carry_sim_time(self, doc):
        byname = _events_by_name(doc)
        (ev,) = byname["kernel:match:block"]
        assert ev["args"]["sim_seconds"] > 0
        assert ev["args"]["sim_cycles"] > 0
        assert "imbalance" in ev["args"]

    def test_kernel_and_memcpy_metrics(self, doc):
        metrics = doc["metrics"]
        assert metrics["kernel.launches{kernel=match:block}"]["value"] >= 1
        assert metrics["pipeline.runs{backend=simulated}"]["value"] == 1
        memcpy = [k for k in metrics if k.startswith("memcpy.transfers")]
        assert memcpy


class TestValidatorRejectsBadDocs:
    def test_non_dict(self):
        assert validate_chrome_trace([]) != []

    def test_missing_events(self):
        assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]

    def test_bad_phase_and_name(self):
        doc = {"traceEvents": [
            {"ph": "B", "name": "x"},
            {"ph": "X", "name": "", "ts": 0, "dur": 1},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("unsupported phase" in p for p in problems)
        assert any("missing string 'name'" in p for p in problems)

    def test_negative_timestamps(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "x", "ts": -1, "dur": 1}
        ]}
        assert any("bad 'ts'" in p for p in validate_chrome_trace(doc))

    def test_partial_overlap_in_lane(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "tid": 0},
            {"ph": "X", "name": "b", "ts": 5, "dur": 10, "tid": 0},
        ]}
        assert any("overlaps" in p for p in validate_chrome_trace(doc))

    def test_same_spans_in_different_lanes_are_fine(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "tid": 0},
            {"ph": "X", "name": "b", "ts": 5, "dur": 10, "tid": 1},
        ]}
        assert validate_chrome_trace(doc) == []


class TestDisabledOverhead:
    def test_null_tracer_hot_loop_is_cheap(self):
        """Smoke bound: 200k disabled spans + metric writes in well under 1 s."""
        t0 = time.perf_counter()
        for _ in range(200_000):
            with NULL_TRACER.span("hot", cat="x"):
                pass
            if NULL_TRACER.metrics.enabled:  # the guarded-hot-path idiom
                NULL_TRACER.metrics.counter("c").inc()
        assert time.perf_counter() - t0 < 1.0

    def test_pipeline_records_nothing_without_tracer(self, sequences):
        ref, qry = sequences
        before = len(NULL_TRACER.spans)
        matcher = repro.GpuMem(repro.GpuMemParams(min_length=40, seed_length=10))
        matcher.find_mems(ref, qry)
        assert len(NULL_TRACER.spans) == before == 0
        assert NULL_TRACER.metrics.to_dict() == {}


class TestSessionCacheSurfacing:
    def test_pipeline_stats_expose_cache_counters(self, sequences):
        ref, qry = sequences
        session = repro.MemSession(ref, min_length=40, seed_length=10)
        session.find_mems(qry)
        assert session.stats.session_cache_misses >= 1
        assert session.stats.session_cache_hits == 0
        session.find_mems(qry[: qry.size // 2])
        assert session.stats.session_cache_hits >= 1

    def test_cache_counters_reach_metrics(self, sequences):
        ref, qry = sequences
        tracer = Tracer()
        session = repro.MemSession(
            ref, min_length=40, seed_length=10, tracer=tracer
        )
        session.find_mems(qry)
        session.find_mems(qry)
        metrics = tracer.metrics.to_dict()
        assert metrics["session.cache.queries"]["value"] == 2
        assert metrics["session.cache.hits"]["value"] >= 1

    def test_np_int_attrs_serialize(self):
        tracer = Tracer()
        with tracer.span("s", n=np.int64(3)):
            pass
        doc = to_chrome_trace(tracer)
        dumped = json.dumps(
            doc, default=lambda o: o.item() if hasattr(o, "item") else str(o)
        )
        assert '"n": 3' in dumped


class TestMultiPidLanes:
    """Worker payloads merged into a parent must export as pid lane groups."""

    @pytest.fixture(scope="class")
    def doc(self):
        import os

        parent = Tracer()
        with parent.span("dispatch", cat="proc"):
            pass
        # Simulate two workers: WorkerObs payloads whose pid we rewrite so
        # the export sees lanes distinct from the parent's real pid.
        for fake_pid in (70001, 70002):
            obs = WorkerObs()
            with obs.tracer.span("task", cat="proc"):
                with obs.tracer.span("stage:tile_match", cat="pipeline"):
                    pass
            obs.tracer.metrics.counter("session.cache.queries").inc()
            payload = obs.collect()
            object.__setattr__(payload, "pid", fake_pid)
            merge_payload(parent, payload)
        trace = to_chrome_trace(parent, run="multi-pid")
        trace["_parent_pid"] = os.getpid()
        return trace

    def test_schema_valid(self, doc):
        assert validate_chrome_trace(doc) == []

    def test_worker_lanes_present(self, doc):
        pids = {
            ev["pid"] for ev in doc["traceEvents"] if ev.get("ph") == "X"
        }
        assert pids == {doc["_parent_pid"], 70001, 70002}

    def test_lane_metadata_names_workers(self, doc):
        names = {
            ev["pid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "process_name"
        }
        assert names[doc["_parent_pid"]] == "gpumem"
        assert names[70001] == "gpumem worker (pid 70001)"
        assert names[70002] == "gpumem worker (pid 70002)"

    def test_sort_index_pins_parent_first(self, doc):
        sort_keys = {
            ev["pid"]: ev["args"]["sort_index"]
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "process_sort_index"
        }
        assert sort_keys[doc["_parent_pid"]] == 0
        assert sort_keys[70001] >= 1 and sort_keys[70002] >= 1

    def test_metadata_records_parent_pid(self, doc):
        assert doc["metadata"]["parent_pid"] == doc["_parent_pid"]

    def test_merged_worker_metrics_in_block(self, doc):
        assert doc["metrics"]["session.cache.queries"]["value"] == 2
        assert doc["metrics"]["proc.obs.payloads"]["value"] == 2

    def test_event_tree_renders_worker_lanes(self, doc):
        clean = {k: v for k, v in doc.items() if not k.startswith("_")}
        tree = format_event_tree(clean)
        assert "-- lane pid=70001 tid=0 --" in tree
        assert "stage:tile_match" in tree
