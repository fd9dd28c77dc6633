"""The benchmark's workloads and the checks on what each simulation did.

Every workload is a closed loop over a short cycle of experiment configs
derived from the benchmark seed: one simulation at a time, the next one
starting when the previous one has returned.  The cycle holds several
seeds because the cost of a simulation depends on its seed (most of all
the 100-node layouts), and a median over several seeds moves less from one
benchmark seed to the next than one seed does.  Running the cycle more
than once is what lets every run check that a repeated seed gives an
identical digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.exp import ExperimentConfig
from repro.sim.units import SEC


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` and ``README.md`` say why each was
    chosen."""

    name: str
    #: benchmark seed -> the cycle of configs one run loops over.
    configs: Callable[[int], List[ExperimentConfig]]
    #: The layers with the most self time, as profiled when the workload
    #: was chosen (cProfile self time by package); the traced run's report
    #: says when its own ranking differs.
    expected_top: Tuple[str, ...]
    #: Whether the trace invariants and the span checker apply.
    observed: bool = False


def _seeds(seed: int, n: int) -> List[int]:
    """``n`` simulation seeds for one benchmark seed; distinct benchmark
    seeds never share a simulation seed."""
    return [seed * 16 + i + 1 for i in range(n)]


def _tree(name: str, seed: int, **fields: Any) -> ExperimentConfig:
    """The Fig. 6 tree: 15 nodes, 39 B CoAP payloads to the root."""
    return ExperimentConfig(name=name, topology="tree", n_nodes=15, payload_len=39,
                            seed=seed, **fields)


def paper_moderate(seed: int) -> List[ExperimentConfig]:
    configs = []
    for s in _seeds(seed, 3):
        for interval in ("75", "[65:85]"):
            configs.append(_tree(
                "paper-moderate", s, conn_interval=interval,
                producer_interval_s=1.0, producer_jitter_s=0.5, duration_s=60.0,
            ))
    return configs


def paper_highload(seed: int) -> List[ExperimentConfig]:
    return [
        _tree("paper-highload", s, conn_interval="75",
              producer_interval_s=0.1, producer_jitter_s=0.05, duration_s=20.0)
        for s in _seeds(seed, 8)
    ]


def mesh100(seed: int) -> List[ExperimentConfig]:
    return [
        ExperimentConfig(
            name="mesh100", topology="dynamic", geometry="rgg", spatial_index="grid",
            n_nodes=100, warmup_s=30.0, duration_s=5.0, drain_s=2.0, seed=s,
        )
        for s in _seeds(seed, 12)
    ]


def observed_tree(seed: int) -> List[ExperimentConfig]:
    return [
        _tree("observed-tree", s, conn_interval="75", producer_interval_s=1.0,
              producer_jitter_s=0.5, duration_s=20.0,
              trace=True, metrics=True, spans=True)
        for s in _seeds(seed, 3)
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-moderate",
            paper_moderate,
            ("ble", "sixlowpan", "sim"),
        ),
        Workload(
            "paper-highload",
            paper_highload,
            ("sixlowpan", "ble", "l2cap"),
        ),
        Workload(
            "mesh100",
            mesh100,
            ("ble", "sim", "sixlowpan"),
        ),
        Workload(
            "observed-tree",
            observed_tree,
            ("trace", "ble", "obs"),
            observed=True,
        ),
    )
}


# -- what a simulation did ---------------------------------------------------


def _percentile(sorted_values: List[int], q: float) -> int:
    """Nearest-rank percentile of a sorted list (0 when empty)."""
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


@dataclass
class Outcome:
    """The simulated outcome of one run, its digest, counts and problems."""

    digest: str
    counts: Dict[str, float]
    problems: List[str]


def observe(result: Any, observed: bool) -> Outcome:
    """Digest, per-layer counts and correctness problems of one result.

    Everything here is simulated state read from the result and the network
    it holds, so it is identical for every run of the same config.
    """
    net = result.network
    nodes = net.nodes
    producers = result.producers
    rtts = sorted(rtt for p in producers for _, rtt in p.rtt_samples)
    sent, acked = result.coap_sent(), result.coap_acked()
    pdr = result.coap_pdr()
    rtt_hash = hashlib.sha256(
        repr([(p.node.node_id, p.rtt_samples) for p in producers]).encode()
    ).hexdigest()
    outcome = {
        "coap_sent": sent,
        "coap_acked": acked,
        "rtt_p50_ns": _percentile(rtts, 50),
        "rtt_p99_ns": _percentile(rtts, 99),
        "rtt_samples": rtt_hash,
        "conn_losses": result.num_connection_losses(),
        "events": net.sim.events_executed,
        "loss_draws": net.medium.packets_sampled,
        "losses": net.medium.packets_lost,
    }
    digest = hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()

    attempts = retx = 0
    for series in result.link_series.values():
        if series.tx_attempts:
            attempts += series.tx_attempts[-1]
            retx += series.tx_attempts[-1] - series.tx_acked[-1]
    first_acks = [p.rtt_samples[0][0] for p in producers if p.rtt_samples]
    spans = result.spans or {}
    counts: Dict[str, float] = {
        "sim.events": outcome["events"],
        "ble.data_attempts": attempts,
        "ble.retx_share": retx / attempts if attempts else 0.0,
        "ble.adv_events": sum(n.controller.adv_events for n in nodes),
        "phy.loss_draws": outcome["loss_draws"],
        "phy.losses": outcome["losses"],
        "l2cap.sdus": sum(n.netif.tx_packets for n in nodes),
        "sixlowpan.compressions": sum(n.netif.adaptation.packets_down for n in nodes),
        "sixlowpan.decompressions": sum(n.netif.adaptation.packets_up for n in nodes),
        "net.ip_sends": sum(n.ip.originated + n.ip.forwarded for n in nodes),
        "net.pktbuf_drops": sum(n.netif.drops_pktbuf for n in nodes),
        "coap.requests": sent,
        "coap.pdr": pdr,
        "coap.rtt_p50_s": outcome["rtt_p50_ns"] / SEC,
        "coap.rtt_p99_s": outcome["rtt_p99_ns"] / SEC,
        "core.joined_s": max(first_acks) / SEC if first_acks else 0.0,
        "core.joined_share": len(first_acks) / len(producers) if producers else 0.0,
        "trace.records": len(result.trace_records),
        "spans.journeys": spans.get("summary", {}).get("journeys", 0),
    }

    problems = []
    if not 0 <= acked <= sent:
        problems.append(f"acked {acked} outside [0, sent {sent}]")
    if not 0.0 <= pdr <= 1.0:
        problems.append(f"coap.pdr {pdr} outside [0, 1]")
    if sent == 0 or outcome["events"] == 0:
        problems.append("the simulation sent nothing")
    if observed:
        from repro.trace.invariants import check_records

        if not result.trace_records:
            problems.append("no trace records")
        violations = check_records(result.trace_records)
        if violations:
            problems.append(f"{len(violations)} trace invariant violations: {violations[0]}")
        if not spans.get("journeys"):
            problems.append("no journeys in the spans payload")
        if spans.get("violations"):
            problems.append(f"{len(spans['violations'])} span checker violations")
    return Outcome(digest=digest, counts=counts, problems=problems)
