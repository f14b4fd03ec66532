"""Canonical network documents: the five-layer running example, MobileNetV1
variants, and a seeded generator for small valid networks used by the
property suites."""

from __future__ import annotations

import random
from importlib import resources

from .netspec import NetworkSpec, load_network_file, parse_network


def data_path(name: str) -> str:
    """Filesystem path of a shipped network document."""
    return str(resources.files("flowcnn").joinpath("data", name))


def running_example() -> NetworkSpec:
    """Five layers: two 5x5 convs with preserved-size padding, two max pools
    and a ten-way fully connected head on a 24x24 grayscale input."""
    return load_network_file(data_path("running_example.json"))


def mobilenet_v1(alpha: float = 1.0, classes: int = 1000) -> NetworkSpec:
    """MobileNetV1 body: one standard conv, thirteen depthwise-separable
    blocks, global average pooling and the classifier, with the channel
    counts scaled by alpha."""
    def ch(d: int) -> int:
        scaled = d * alpha
        if scaled != int(scaled):
            raise ValueError(f"alpha={alpha} does not give integer channels")
        return int(scaled)

    # (stride, output channels) for the thirteen separable blocks
    blocks = [(1, 64), (2, 128), (1, 128), (2, 256), (1, 256), (2, 512),
              (1, 512), (1, 512), (1, 512), (1, 512), (1, 512),
              (2, 1024), (1, 1024)]
    layers = [{"kind": "conv", "k": 3, "s": 2, "p": 1, "d_out": ch(32),
               "name": "conv1"}]
    for idx, (s, d) in enumerate(blocks, start=1):
        layers.append({"kind": "dw_separable", "k": 3, "s": s, "p": 1,
                       "d_out": ch(d), "name": f"block{idx}"})
    layers.append({"kind": "avgpool", "k": 7, "s": 7, "name": "avgpool"})
    layers.append({"kind": "fc", "d_out": classes, "name": "fc"})
    return parse_network({
        "input": {"height": 224, "width": 224, "channels": 3, "rate": "3"},
        "quant": {"weight_bits": 8, "activation_bits": 8},
        "layers": layers,
    })


def random_network(seed: int, max_layers: int = 6, max_f: int = 16,
                   max_d: int = 16) -> NetworkSpec:
    """A small random valid network with non-stalling rates.

    Channel counts are powers of two and the input streams one full pixel
    per cycle, so every derived rate divides cleanly.  Candidates whose plan
    stalls, warns (continuity breaks, or C slots outrun a layer's pace) or
    overflows an int64 accumulator are resampled.
    """
    from .alloc import AllocError, plan_network
    from .netspec import SpecError
    from .rate import Flow, propagate_rates

    rng = random.Random(seed)
    while True:
        doc = _random_document(rng, max_layers, max_f, max_d)
        if doc is None:
            continue
        try:
            spec = parse_network(doc)
            rates = propagate_rates(spec)
            if any(info.flow is Flow.STALLED for info in rates):
                continue
            plan = plan_network(spec, rates)
        except (SpecError, AllocError):
            continue
        if plan.warnings:
            continue
        if max(e.acc_width for e in plan.layers) > 62:
            continue
        return spec


def _random_document(rng: random.Random, max_layers: int, max_f: int,
                     max_d: int) -> dict | None:
    f0 = rng.choice([n for n in (6, 8, 9, 10, 12, 14, 16) if n <= max_f])
    d0 = rng.choice([1, 1, 2, 4])
    f, d = f0, d0
    layers: list[dict] = []
    n_layers = rng.randint(1, max_layers)
    mac_depth = 0  # multiplying layers widen the accumulators
    for li in range(n_layers):
        last = li == n_layers - 1
        if last and rng.random() < 0.5:
            layers.append({"kind": "fc",
                           "d_out": rng.choice([2, 4, 5, 8, 10])})
            break
        kind = rng.choice(["conv", "conv", "dw_conv", "dw_separable",
                           "maxpool", "avgpool"])
        if kind in ("maxpool", "avgpool"):
            k = rng.choice([2, 2, 3])
            if f < k:
                break
            layers.append({"kind": kind, "k": k, "s": k})
            f = (f - k) // k + 1
            if kind == "avgpool":
                mac_depth += 1
        else:
            k = rng.choice([1, 3, 3, 5])
            if k > f:
                k = 1
            p = (k - 1) // 2
            if kind == "dw_conv":
                d_out = d
            elif kind == "dw_separable":
                d_out = min(max_d, d * rng.choice([1, 2]))
            else:
                d_out = min(max_d, d * rng.choice([1, 2, 2, 4]))
            layers.append({"kind": kind, "k": k, "s": 1, "p": p,
                           "d_out": d_out})
            d = d_out
            mac_depth += 2 if kind == "dw_separable" else 1
        if mac_depth >= 3 or f < 2:
            break
    if not layers:
        return None
    return {
        "input": {"height": f0, "width": f0, "channels": d0,
                  "rate": str(d0)},
        "quant": {"weight_bits": 8, "activation_bits": 8},
        "layers": layers,
    }
