"""Workloads of the flowcnn benchmark.

Each workload is set up from a seed and then driven as a closed loop: one
caller, one call into the library at a time, every iteration checked before
the next one starts.  Timing spans sit around the calls this file makes into
each module's public functions; nothing inside the package is patched.

  rex-stream  The running example, 16 back-to-back maps with 64 trials on
              the trailing axis, every map x trial checked against
              `ref_network`.  Heavy numpy arrays: the standard KPU with
              interleaving, the PPUs, the fully connected FCU, multi-map
              scheduling and the inter-layer FIFOs.  About a quarter of an
              iteration is the reference check.
  mbv1-025    MobileNetV1 at alpha 0.25 on one 224x224x3 map, one trial,
              with truncation (without it int64 wraps silently and the check
              passes falsely).  Scalar Python loops: depthwise KPUs,
              per-pixel pointwise FCUs, strided layers and the stalled layers
              that drive the Fraction pace path of the scheduler.
  plan-zoo    Analysis only, no engine: parse, validate, rate propagation,
              pipelined and parallel planning, pricing in all four scopes,
              over MobileNetV1 at four widths, the shipped documents and a
              seeded random population, plus the conv and separable rate
              sweeps.  Engine changes should leave it flat.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import numpy as np

from flowcnn import (ArchitecturePlan, network_cost, parse_network,
                     plan_network, propagate_rates, serialize_network,
                     sweep_rates, validate_network)
from flowcnn.alloc import plan_to_dict
from flowcnn.cost import SCOPES
from flowcnn.models import mobilenet_v1, random_network
from flowcnn.oracle import gen_network_weights, gen_random, ref_network
from flowcnn.sim import simulate_network

SETUP_REPEATS = 5          # set-up runs per benchmark run; setup_s is their median
PLAN_ZOO_POPULATION = 4096  # random networks; fewer lets the seed move the work
SWEEP_RATES = [Fraction(8, 2 ** i) for i in range(9)]   # 8 ... 1/32
SHIPPED = ("running_example.json", "sweep_conv.json", "sweep_separable.json")


def shipped_document(name: str) -> str:
    return resources.files("flowcnn").joinpath("data", name).read_text()


def timed(acc: dict | None, key: str, fn, *args, **kwargs):
    """Call fn; when acc is given, add the call's duration to acc[key]."""
    if acc is None:
        return fn(*args, **kwargs)
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    acc[key] = acc.get(key, 0.0) + time.perf_counter() - t0
    return out


@dataclass
class Measured:
    """Everything one benchmark run measured."""

    setup: list[float] = field(default_factory=list)   # s per set-up repeat
    walls: list[float] = field(default_factory=list)   # s per iteration
    rates: list[float] = field(default_factory=list)   # work per s of library time
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    samples: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, acc: dict) -> None:
        for key, value in acc.items():
            self.samples.setdefault(key, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def build_plan(doc, acc: dict):
    """Parse, validate, propagate and plan one document, timing each step."""
    spec = timed(acc, "netspec.parse_s", parse_network, doc)
    timed(acc, "netspec.validate_s", validate_network, spec)
    rates = timed(acc, "rate.propagate_s", propagate_rates, spec)
    plan = timed(acc, "alloc.plan_s", plan_network, spec, rates)
    return spec, plan


def sim_digest(result) -> str:
    """Every simulated statistic and cycle stamp, hashed."""
    stats = result.stats
    head = {
        "cycles": stats.cycles,
        "first_output_latency": stats.first_output_latency,
        "utilization": [None if u is None else str(u)
                        for u in stats.utilization],
        "fifo_peaks": stats.fifo_peaks,
        "busy": [sim.busy for sim in result.layers],
        "first_cycle": [sim.first_cycle for sim in result.layers],
    }
    h = hashlib.sha256(json.dumps(head, sort_keys=True, default=int).encode())
    for sim in result.layers:
        for arrivals in sim.arrivals:
            h.update(np.ascontiguousarray(arrivals, dtype="<i8").tobytes())
    return h.hexdigest()


def _trial(x: np.ndarray, t: int, trials: int) -> np.ndarray:
    return x[..., t] if trials > 1 else x


@dataclass
class Replay:
    """One network layer run on its own as a one-layer sub-network."""

    name: str
    index: int
    plan: ArchitecturePlan
    inputs: list[np.ndarray]       # previous layer's reference activations
    expected: list[np.ndarray]     # this layer's reference activations
    same_alloc: bool


class SimWorkload:
    """simulate_network over a fixed document, checked against ref_network."""

    work_name = "steps_per_s"

    def __init__(self, make_doc, n_maps: int, trials: int, truncate: bool):
        self.make_doc = make_doc
        self.n_maps = n_maps
        self.trials = trials
        self.truncate = truncate
        self.replays: list[Replay] | None = None

    def setup(self, seed: int, m: Measured) -> None:
        acc: dict[str, float] = {}
        t0 = time.perf_counter()
        self.spec, self.plan = build_plan(self.make_doc(), acc)
        g0 = time.perf_counter()
        self.weights = gen_network_weights(self.spec, seed)
        shape = (self.n_maps,) + tuple(self.spec.input_shape) \
            + ((self.trials,) if self.trials > 1 else ())
        self.maps = list(gen_random(shape, seed + 1,
                                    self.spec.quant.activation_bits))
        acc["oracle.gen_s"] = time.perf_counter() - g0
        m.setup.append(time.perf_counter() - t0)
        m.add(acc)

    def iterate(self, m: Measured, trace: bool) -> None:
        t0 = time.perf_counter()
        result = simulate_network(self.plan, self.weights, self.maps,
                                  truncate=self.truncate)
        t1 = time.perf_counter()
        for i, x in enumerate(self.maps):
            for t in range(self.trials):
                ref = ref_network(self.spec, self.weights,
                                  _trial(x, t, self.trials),
                                  truncate=self.truncate)
                m.check(np.array_equal(ref, _trial(result.outputs[i], t,
                                                   self.trials)),
                        f"map {i} trial {t} differs from ref_network")
        t2 = time.perf_counter()
        digest = sim_digest(result)
        m.check(m.digest in ("", digest), "simulated statistics changed")
        m.digest = digest
        m.walls.append(time.perf_counter() - t0)
        steps = sum(sum(sim.busy) for sim in result.layers)
        m.rates.append(steps / (t1 - t0))
        acc = {"engine.simulate_s": t1 - t0, "oracle.ref_s": t2 - t1,
               "engine.steps": steps, "engine.cycles": result.stats.cycles,
               "engine.us_per_step": (t1 - t0) / steps * 1e6}
        if trace:
            self._replay(result, acc, m)
        m.add(acc)

    def _replays(self) -> list[Replay]:
        """Sub-networks of one layer each, fed the previous layer's
        truncated reference activations."""
        doc = serialize_network(self.spec)
        replays = []
        inputs = self.maps
        for entry in self.plan.layers:
            ly, name = entry.layer, self.spec.layer_name(entry.index)
            row = dict(doc["layers"][entry.index], name=name)
            sub = parse_network({
                "input": {"height": ly.f, "width": ly.f, "channels": ly.d_in,
                          "rate": str(entry.rate.r_in)},
                "quant": doc["quant"], "layers": [row]})
            sub_plan = plan_network(sub)
            head = sub_plan.layers[0]
            expected = []
            for x in inputs:
                outs = [ref_network(sub, self.weights, _trial(x, t, self.trials),
                                    truncate=True)
                        for t in range(self.trials)]
                expected.append(np.stack(outs, axis=-1) if self.trials > 1
                                else outs[0])
            replays.append(Replay(name, entry.index, sub_plan, inputs,
                                  expected, head.unit == entry.unit
                                  and head.rate == entry.rate))
            inputs = expected
        return replays

    def _replay(self, result, acc: dict, m: Measured) -> None:
        if self.replays is None:
            self.replays = self._replays()
        total = 0.0
        for rp in self.replays:
            t0 = time.perf_counter()
            sub = simulate_network(rp.plan, self.weights, rp.inputs,
                                   truncate=True)
            dt = time.perf_counter() - t0
            total += dt
            steps = sum(sub.layers[0].busy)
            for i, out in enumerate(sub.outputs):
                m.check(np.array_equal(out, rp.expected[i]),
                        f"{rp.name} replay map {i} differs from ref_network")
            if not rp.same_alloc or steps != sum(result.layers[rp.index].busy):
                note = f"engine.{rp.name}: not decomposable"
                if note not in m.notes:
                    m.notes.append(note)
            acc[f"engine.{rp.name}.s"] = dt
            acc[f"engine.{rp.name}.steps"] = steps
        acc["engine.layers_sum_s"] = total
        acc["trace.overhead_s"] = total - acc["engine.simulate_s"]


def rex_stream_doc() -> str:
    return shipped_document("running_example.json")


def mobilenet_doc(alpha: float):
    return lambda: serialize_network(mobilenet_v1(alpha))


def plan_digest(plan, pplan, totals) -> str:
    doc = {"plan": plan_to_dict(plan), "parallel": plan_to_dict(pplan),
           "costs": [[dataclasses.asdict(total), fifo] for total, fifo in totals]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def sweep_digest(rows) -> str:
    doc = [[str(r.rate), dataclasses.asdict(r.vector), r.n_kpu, r.n_fcu,
            r.stalled] for r in rows]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class PlanZoo:
    """Planning and pricing over many networks; the engine is never run."""

    work_name = "networks_per_s"

    def __init__(self, population: int):
        self.population = population

    def setup(self, seed: int, m: Measured) -> None:
        t0 = time.perf_counter()
        docs = [json.dumps(serialize_network(mobilenet_v1(alpha)))
                for alpha in (0.25, 0.5, 0.75, 1.0)]
        docs += [shipped_document(name) for name in SHIPPED]
        rng = random.Random(seed)
        docs += [json.dumps(serialize_network(random_network(
                     rng.randrange(1 << 31))))
                 for _ in range(self.population)]
        self.docs = docs
        self.sweeps = []
        for name, separable in (("sweep_conv.json", False),
                                ("sweep_separable.json", True)):
            layers = parse_network(shipped_document(name)).layers
            first, last = layers[0], layers[-1]
            self.sweeps.append(((first.f, first.k, first.p, first.d_in,
                                 last.d_out), separable))
        # first outcome of every network, then every sweep; later passes
        # must equal it
        self.first: list = [None] * (len(docs) + len(self.sweeps))
        m.setup.append(time.perf_counter() - t0)

    def _same_as_first(self, m: Measured, i: int, outcome) -> None:
        if self.first[i] is None:
            self.first[i] = outcome
        m.check(outcome == self.first[i],
                f"plan-zoo item {i} changed between passes")

    def _pass(self, m: Measured, acc: dict | None) -> float:
        """One pass over every network; returns seconds spent in the
        planning and pricing calls."""
        busy = 0.0
        for i, doc in enumerate(self.docs):
            t0 = time.perf_counter()
            try:
                spec, plan = build_plan(doc, acc)
                pplan = timed(acc, "alloc.plan_s", plan_network, spec,
                              parallel=True)
                reports = [timed(acc, "cost.network_cost_s", network_cost,
                                 pplan if name == "parallel" else plan, scope)
                           for name, scope in SCOPES.items()]
            except Exception as exc:   # a network that raises is a failed check
                m.check(False, f"network {i} raised {type(exc).__name__}: {exc}")
                continue
            busy += time.perf_counter() - t0
            self._same_as_first(m, i, (plan, pplan, [(r.total, r.fifo_registers)
                                                     for r in reports]))
        for j, (geometry, separable) in enumerate(self.sweeps):
            rows = timed(acc, "cost.sweep_s", sweep_rates, *geometry,
                         SWEEP_RATES, separable=separable)
            self._same_as_first(m, len(self.docs) + j, rows)
        return busy

    def digest(self) -> str:
        """Hash of every first-pass plan, cost total and sweep row."""
        n = len(self.docs)
        parts = [plan_digest(*outcome) if outcome else "-"
                 for outcome in self.first[:n]]
        parts += [sweep_digest(rows) for rows in self.first[n:]]
        return hashlib.sha256("".join(parts).encode()).hexdigest()

    def iterate(self, m: Measured, trace: bool) -> None:
        t0 = time.perf_counter()
        busy = self._pass(m, None)
        wall = time.perf_counter() - t0
        m.walls.append(wall)
        m.rates.append(len(self.docs) / busy)
        if not m.digest:
            m.digest = self.digest()
        if trace:
            acc: dict[str, float] = {}
            t0 = time.perf_counter()
            self._pass(m, acc)
            acc["trace.overhead_s"] = time.perf_counter() - t0 - wall
            m.add(acc)


WORKLOADS = {
    "rex-stream": lambda: SimWorkload(rex_stream_doc, n_maps=16, trials=64,
                                      truncate=False),
    "mbv1-025": lambda: SimWorkload(mobilenet_doc(0.25), n_maps=1, trials=1,
                                    truncate=True),
    "plan-zoo": lambda: PlanZoo(PLAN_ZOO_POPULATION),
}


def measure(workload, seed: int, seconds: float, trace: bool) -> Measured:
    """Set the workload up SETUP_REPEATS times, then iterate it until
    `seconds` have passed (at least once)."""
    m = Measured()
    for _ in range(SETUP_REPEATS):
        workload.setup(seed, m)
    deadline = time.perf_counter() + seconds
    while True:
        workload.iterate(m, trace)
        if time.perf_counter() >= deadline:
            return m

