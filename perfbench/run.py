"""Benchmark of the IPv6-over-BLE simulator: one workload per process.

Untraced run (end-to-end metrics)::

    python3 perfbench/run.py --workload paper-moderate --seed 1 --seconds 25 --trace 0

Traced run (per-layer metrics)::

    python3 perfbench/run.py --workload paper-moderate --seed 1 --seconds 25 --trace 1

Run from the root of a checkout: the simulator is imported from ``src``
next to this directory.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it describe the host and the run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from heapq import heappop, heappush
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer self time is reported for these packages of ``src/repro``.
LAYERS = (
    "sim", "ble", "phy", "l2cap", "sixlowpan", "net", "coap", "core", "rpl",
    "testbed", "exp", "trace", "obs", "spans",
)


class _SetupDone(Exception):
    """Raised at the first kernel call of a set-up-only simulation."""


@dataclass
class Sample:
    """Host timings of one simulation."""

    setup_s: float  # config to the first Simulator.run call
    kernel_s: float  # inside Simulator.run
    kernel_cpu_s: float
    sim_s: float  # simulated seconds the kernel advanced
    wall_s: float  # the whole run_experiment call, less reference probes
    #: Kernel and set-up seconds on the uncontended host (see
    #: :class:`Reference`); equal to the raw ones when not probed.
    kernel_nominal_s: float = 0.0
    setup_nominal_s: float = 0.0
    result: Any = None


class _Cell:
    __slots__ = ("key", "value", "peer")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0
        self.peer: Optional["_Cell"] = None

    def bump(self, n: int) -> int:
        self.value += n
        return self.value


class Reference:
    """A fixed pure-Python workload, timed before and after every simulation.

    On a shared host the CPU's speed swings by 2x within seconds.  The
    simulator and this loop slow down together, so dividing a simulation's
    host times by the loop's slowdown against :data:`NOMINAL_S` gives the
    times it would have taken on the uncontended host.  The loop does what
    the simulator does most (attribute access, method calls, a heap, a
    dict) over 50k objects, because a loop whose data fits in the L1/L2
    caches tracks the simulator's slowdown much worse.
    """

    #: :meth:`time` on an uncontended host (2-vCPU Xeon under KVM,
    #: CPython 3.11.7): the fastest of several hundred timings.
    NOMINAL_S = 0.014

    def __init__(self, n_cells: int = 50_000) -> None:
        self.cells = [_Cell(i) for i in range(n_cells)]
        for i, cell in enumerate(self.cells):
            cell.peer = self.cells[(i * 7919) % n_cells]

    @classmethod
    def slowdown(cls, before: float, after: float) -> float:
        """The host's slowdown between two timings of the loop."""
        return (before + after) / 2 / cls.NOMINAL_S

    def time(self) -> float:
        """Host seconds for one pass of the loop."""
        cells = self.cells
        n = len(cells)
        heap: List[Tuple[int, int]] = []
        table: Dict[int, Tuple[int, int]] = {}
        start = perf_counter()
        for i in range(10_000):
            cell = cells[(i * 104729) % n].peer
            value = cell.bump(i)
            heappush(heap, (value & 4095, i))
            if len(heap) > 64:
                heappop(heap)
            table[cell.key & 2047] = (value, i)
        return perf_counter() - start


#: Host seconds of kernel time between two probes of the host's speed.
PROBE_EVERY_S = 0.25


def simulate(
    config: Any,
    tracer: Any = None,
    setup_only: bool = False,
    reference: Optional["Reference"] = None,
    ref_before: float = 0.0,
) -> Sample:
    """Run one experiment, timing set-up and the kernel separately.

    With a ``reference`` (last timed at ``ref_before`` seconds), the kernel
    runs to successive horizons one simulated second apart, and the
    reference is timed again each time :data:`PROBE_EVERY_S` of kernel
    time has passed.  Each stretch of kernel time is then normalized by
    the host's speed around it.  Successive horizons dispatch the same
    events in the same order as one run to the last: every traced run
    checks that the untraced simulation, run this way, gives the same
    digest as the traced one, whose kernel runs in one call.
    """
    from repro.exp import run_experiment
    from repro.sim.kernel import Simulator
    from repro.sim.units import SEC

    inner = Simulator.run
    marks: Dict[str, float] = {
        "kernel": 0.0, "cpu": 0.0, "sim_ns": 0.0, "nominal": 0.0, "probes": 0.0,
    }

    def probe() -> float:
        t0 = perf_counter()
        ref = reference.time()
        marks["probes"] += perf_counter() - t0
        return ref

    def timed_run(sim: Any, until: Optional[int] = None) -> int:
        marks.setdefault("first", perf_counter())
        if setup_only:
            raise _SetupDone
        executed = sim.events_executed
        ref = probe() if reference is not None else 0.0
        marks.setdefault("ref_at_kernel", ref)
        while True:
            t0, cpu0, now0 = perf_counter(), process_time(), sim.now
            done = reference is None or until is None
            if done:
                inner(sim, until)
            else:
                while perf_counter() - t0 < PROBE_EVERY_S:
                    horizon = min(until, sim.now + SEC)
                    inner(sim, horizon)
                    if sim.now < horizon or horizon == until:
                        done = True  # a callback stopped the kernel, or the end
                        break
            wall = perf_counter() - t0
            marks["kernel"] += wall
            marks["cpu"] += process_time() - cpu0
            marks["sim_ns"] += sim.now - now0
            if reference is None:
                marks["nominal"] += wall
            else:
                after = probe()
                marks["nominal"] += wall / Reference.slowdown(ref, after)
                ref = after
            if done:
                return sim.events_executed - executed

    entry = run_experiment if tracer is None else tracer.wrap("exp", run_experiment)
    Simulator.run = timed_run
    start = perf_counter()
    try:
        result = entry(config)
    except _SetupDone:
        result = None
    finally:
        end = perf_counter()
        Simulator.run = inner
    setup_s = marks["first"] - start
    setup_nominal_s = setup_s
    if reference is not None and not setup_only:
        setup_nominal_s /= Reference.slowdown(ref_before, marks["ref_at_kernel"])
    return Sample(
        setup_s=setup_s,
        kernel_s=marks["kernel"],
        kernel_cpu_s=marks["cpu"],
        sim_s=marks["sim_ns"] / 1e9,
        wall_s=end - start - marks["probes"],
        kernel_nominal_s=marks["nominal"],
        setup_nominal_s=setup_nominal_s,
        result=result,
    )


class Checker:
    """Correctness of every simulation of a run, counted per simulation."""

    def __init__(self, observed: bool) -> None:
        self.observed = observed
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, Any] = {}
        self.problems: List[str] = []

    def check(self, key: str, result: Any, repeat: Optional[Dict[str, Any]] = None) -> Any:
        """Check one result; ``key`` names the config, whose every run
        must give the same digest, as must each entry of ``repeat``."""
        from workloads import observe

        outcome = observe(result, self.observed)
        problems = list(outcome.problems)
        for name, value in dict(repeat or {}, **{key: outcome.digest}).items():
            if self.digests.setdefault(name, value) != value:
                problems.append(f"{name}: differs from an earlier run of the same seed")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return outcome


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def git_rev() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def host_record() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_rev": git_rev(),
    }


def untraced(workload: Any, seed: int, seconds: float, checker: Checker) -> Dict[str, Any]:
    """End-to-end metrics: loop over the workload's config cycle.

    Host times are reported normalized to the uncontended host (see
    :class:`Reference`); the raw figures are printed next to them.
    """
    cycle = workload.configs(seed)
    simulate(cycle[0], setup_only=True)  # imports and lazy set-up, untimed
    rows: List[Dict[str, Any]] = []
    reference = Reference()
    gc.collect()
    ref = reference.time()
    start = perf_counter()
    while perf_counter() - start < seconds or len(rows) <= len(cycle):
        index = len(rows) % len(cycle)
        sample = simulate(cycle[index], reference=reference, ref_before=ref)
        checker.check(f"config{index}", sample.result)
        sample.result = None
        gc.collect()
        ref = reference.time()
        rows.append({
            "config": index, "seed": cycle[index].seed,
            "setup_s": sample.setup_s, "setup_nominal_s": sample.setup_nominal_s,
            "kernel_s": sample.kernel_s, "kernel_cpu_s": sample.kernel_cpu_s,
            "kernel_nominal_s": sample.kernel_nominal_s, "sim_s": sample.sim_s,
        })
    rates = [r["sim_s"] / r["kernel_s"] for r in rows]
    setups = [r["setup_s"] for r in rows]
    slowdowns = [r["kernel_s"] / r["kernel_nominal_s"] for r in rows]
    print(json.dumps({"runs": rows}))
    print(
        f"{len(rows)} simulations over {len(cycle)} configs; kernel wall "
        f"{sum(r['kernel_s'] for r in rows):.3f} s, kernel cpu "
        f"{sum(r['kernel_cpu_s'] for r in rows):.3f} s; raw sim_s_per_wall_s median "
        f"{_median(rates):.2f} (min {min(rates):.2f}, max {max(rates):.2f}), raw setup_s "
        f"median {_median(setups):.5f}; host slowdown median {_median(slowdowns):.2f}"
    )
    return {
        "sim_s_per_wall_s": {
            "value": _median([r["sim_s"] / r["kernel_nominal_s"] for r in rows]),
            "unit": "sim_s/s",
        },
        "setup_s": {"value": _median([r["setup_nominal_s"] for r in rows]), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def traced(workload: Any, seed: int, seconds: float, checker: Checker) -> Dict[str, Any]:
    """Per-layer metrics: an untraced and a traced run of the cycle's first
    config, in turn, until the time is up.  Counts come from the untraced
    result; the traced one must match it digest for digest.  The untraced
    run is timed as in :func:`untraced`, so the match also shows that the
    sliced kernel run of :func:`simulate` changes nothing."""
    from layers import LayerTracer

    config = workload.configs(seed)[0]
    simulate(config, setup_only=True)
    reference = Reference()
    selfs: Dict[str, List[float]] = {}
    share_sums: List[float] = []
    plains: List[Sample] = []
    traces: List[Sample] = []
    counts: Dict[str, float] = {}
    first: Any = None  # the first traced run, whose spans are kept
    start = perf_counter()
    while not traces or perf_counter() - start < seconds:
        gc.collect()
        plain = simulate(config, reference=reference, ref_before=reference.time())
        outcome = checker.check("config0", plain.result)
        plain.result = None
        gc.collect()
        tracer = LayerTracer()
        tracer.keep_spans = first is None
        first = first or tracer
        with tracer:
            sample = simulate(config, tracer=tracer)
        boundary = {
            "ble.conn_events": tracer.conn_events,
            "ble.conn_events_idle": tracer.conn_events_idle,
            "ble.events_skipped_radio": tracer.radio_denials,
        }
        checker.check("config0", sample.result, repeat={"boundary": boundary})
        sample.result = None
        counts = dict(outcome.counts, **boundary)
        for layer, value in tracer.self_s.items():
            selfs.setdefault(layer, []).append(value)
        share_sums.append(sum(tracer.self_s.values()) / sample.wall_s)
        plains.append(plain)
        traces.append(sample)
    write_spans(first, workload.name, seed)
    print(
        f"{len(plains)} untraced + {len(traces)} traced simulations; untraced median "
        f"wall {_median([p.wall_s for p in plains]):.3f} s (kernel "
        f"{_median([p.kernel_s for p in plains]):.3f} s, kernel cpu "
        f"{_median([p.kernel_cpu_s for p in plains]):.3f} s); traced median wall "
        f"{_median([t.wall_s for t in traces]):.3f} s (kernel cpu "
        f"{_median([t.kernel_cpu_s for t in traces]):.3f} s)"
    )
    self_s = {layer: _median(values) for layer, values in selfs.items()}
    report_layers(workload, self_s, _median([t.wall_s for t in traces]), first.missing)

    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    events = counts["sim.events"]
    put("sim.events", events, "count")
    put("sim.self_us_per_event", self_s.get("sim", 0.0) / events * 1e6 if events else 0.0, "us")
    conn_events = counts["ble.conn_events"]
    put("ble.idle_share",
        counts["ble.conn_events_idle"] / conn_events if conn_events else 0.0, "ratio")
    for name, value in sorted(counts.items()):
        if name not in metrics:
            unit = "sim_s" if name.endswith("_s") else (
                "ratio" if name.endswith(("_share", ".pdr")) else "count")
            put(name, value, unit)
    for layer in LAYERS:
        put(f"{layer}.self_s", self_s.get(layer, 0.0), "s")
    overheads = [t.wall_s / p.wall_s for p, t in zip(plains, traces)]
    put("trace_overhead", _median(overheads), "ratio")
    put("layers.share_sum", _median(share_sums), "ratio")
    return metrics


def write_spans(tracer: Any, workload: str, seed: int) -> None:
    """Write the first traced simulation's spans to ``perfbench/out``."""
    import numpy as np

    spans = tracer.spans()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.npz"
    np.savez_compressed(
        path,
        names=np.array(spans["names"]),
        name=np.frombuffer(spans["name"], dtype=np.int32),
        parent=np.frombuffer(spans["parent"], dtype=np.int32),
        start=np.frombuffer(spans["start"], dtype=np.float64),
        end=np.frombuffer(spans["end"], dtype=np.float64),
    )
    print(f"{len(spans['start'])} spans written to {path.relative_to(ROOT)}")


def report_layers(
    workload: Any, self_s: Dict[str, float], total: float, missing: List[str]
) -> None:
    """Print the per-layer shares of the traced wall time ``total``,
    against the expected dominant layers."""
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    print(f"per-layer self time (share of the traced wall {total:.3f} s):")
    for layer, value in ranked:
        print(f"  {layer:10s} {value:9.4f} s  {100 * value / total:5.1f} %")
    top = [layer for layer, _ in ranked[: len(workload.expected_top)]]
    if set(top) != set(workload.expected_top):
        print(f"dominant layers {top} differ from the expected {list(workload.expected_top)}")
    else:
        print(f"dominant layers {top} as expected")
    if missing:
        print(f"entry points not found (their time stays with the caller): {missing}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    print(json.dumps({"host": host_record(), "workload": workload.name,
                      "seed": args.seed, "trace": args.trace}))
    checker = Checker(workload.observed)
    measure = traced if args.trace else untraced
    metrics = measure(workload, args.seed, args.seconds, checker)
    for problem in checker.problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
