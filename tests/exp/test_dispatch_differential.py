"""Full-stack dispatch differential: instrumentation never moves a run.

The kernel has two dispatch loops: a plain one for uninstrumented runs
and one that carries the trace, metrics and profiler hooks.  This suite
drives the real stack through the experiment runner and asserts that the
choice of loop -- and which hubs ride the instrumented one -- never
changes what the simulation does:

* the pinned golden scenarios (3-hop line, 100-node spatial statconn,
  churn/mobility/rotation mesh) still match their committed traces
  byte-for-byte with metrics and the wall-clock profiler armed on top;
* tree and mesh fleets give the same trace with and without those hubs;
* a run driven from a worker thread gives the same trace as one on the
  main thread;
* tracing off vs on leaves every end-of-run observable, and tracing on
  top of metrics leaves the metrics payload, unchanged.

These cases once compared serial with lookahead dispatch; that mode is
gone and the same scenarios now guard the instrumented loop.
"""

import threading
from dataclasses import replace

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment
from repro.obs.profiler import PROFILER
from repro.trace.sinks import records_to_jsonl
from tests.trace.test_golden import (
    CHURN_25,
    GOLDEN_DIR,
    SCALE_100,
    SCENARIOS,
    THREE_HOP,
)

#: Tree / mesh fleets (no committed golden: both arms run fresh).
TREE = ExperimentConfig(
    name="diff-tree",
    topology="tree",
    n_nodes=15,  # the paper tree is defined for exactly 15 nodes
    duration_s=2.0,
    warmup_s=1.0,
    drain_s=0.5,
    producer_interval_s=0.5,
    seed=23,
    trace=True,
    trace_layers="ble,ip,coap",
)

MESH = ExperimentConfig(
    name="diff-mesh",
    topology="dynamic",  # self-forming mesh (the bench "mesh" scenario)
    n_nodes=6,
    duration_s=3.0,
    warmup_s=12.0,
    drain_s=1.0,
    producer_interval_s=0.5,
    seed=29,
    trace=True,
    trace_layers="ble,ip,coap",
)


def _jsonl(config: ExperimentConfig, all_hubs: bool = False) -> str:
    """The run's JSONL trace; ``all_hubs`` adds metrics and the profiler."""
    if all_hubs:
        config = replace(config, metrics=True)
        PROFILER.configure()
    try:
        result = run_experiment(config)
    finally:
        if all_hubs:
            PROFILER.reset()
    assert result.trace_records, "trace-enabled run produced no records"
    return records_to_jsonl(result.trace_records)


def _golden_jsonl(config: ExperimentConfig) -> str:
    for filename, pinned in SCENARIOS.items():
        if pinned is config:
            return (GOLDEN_DIR / filename).read_text()
    raise AssertionError(f"no golden trace pinned for {config.name}")


GOLDEN_CASES = {
    "3hop": THREE_HOP,
    "scale100": SCALE_100,
    "churn": CHURN_25,
}


@pytest.mark.parametrize("label", sorted(GOLDEN_CASES))
def test_golden_scenarios_byte_identical_under_lookahead(label):
    config = GOLDEN_CASES[label]
    assert _jsonl(config, all_hubs=True) == _golden_jsonl(config)


@pytest.mark.parametrize("config", (TREE, MESH), ids=("tree", "mesh"))
def test_tree_and_mesh_byte_identical_under_lookahead(config):
    assert _jsonl(config, all_hubs=True) == _jsonl(config)


def test_inline_seam_matches_thread_seam():
    """A run driven from a worker thread is the same run."""
    out = []
    worker = threading.Thread(target=lambda: out.append(_jsonl(THREE_HOP)))
    worker.start()
    worker.join()
    assert len(out) == 1, "worker thread raised"
    assert out[0] == _jsonl(THREE_HOP)


def test_uninstrumented_run_same_observables():
    """With tracing off the plain loop dispatches; every end-of-run
    observable must match the traced run exactly."""
    base = replace(THREE_HOP, trace=False, trace_layers="")
    plain = run_experiment(base)
    traced = run_experiment(THREE_HOP)
    assert traced.network.sim.events_executed == plain.network.sim.events_executed
    assert traced.coap_pdr() == plain.coap_pdr()
    assert traced.rtts_s() == plain.rtts_s()
    assert traced.link_pdr_overall() == plain.link_pdr_overall()
    assert traced.num_connection_losses() == plain.num_connection_losses()


def test_metrics_snapshot_identical_under_lookahead():
    """Tracing on top of metrics must leave the whole metrics payload
    (scopes + time series) byte-equal."""
    metrics_only = run_experiment(
        replace(THREE_HOP, trace=False, trace_layers="", metrics=True)
    )
    traced = run_experiment(replace(THREE_HOP, metrics=True))
    assert traced.metrics == metrics_only.metrics
