"""The abstract's claims as measured tests, one per claim, on the running
example and MobileNetV1-0.25 (ROADMAP item 21).

Each assertion message prints the planned and the measured numbers.  A
claim the code does not meet yet is a strict xfail that names the ROADMAP
item which mends it, and expects an AssertionError, so that a crash does
not pass for the known defect; the change that mends it drops the marker.
A run streams N_MAPS truncated maps back to back, and the measured period
is the gap between the last layer's first outputs of maps 1 and 2.
"""

import dataclasses
import functools

import pytest

from flowcnn.alloc import plan_network
from flowcnn.cost import SCOPES, fully_parallel_reference_cost, network_cost
from flowcnn.models import mobilenet_v1, running_example
from flowcnn.oracle import gen_network_weights, gen_random
from flowcnn.sim.engine import SimConfigError, simulate_network
from flowcnn.sim.units import WidthOverflow

NETWORKS = {"running example": running_example,
            "MobileNetV1-0.25": lambda: mobilenet_v1(0.25)}
N_MAPS = 3


def _run(plan, n_maps=N_MAPS, truncate=True):
    spec = plan.spec
    maps = [gen_random(spec.input_shape, m, spec.quant.activation_bits)
            for m in range(n_maps)]
    return simulate_network(plan, gen_network_weights(spec, 0), maps,
                            truncate=truncate)


@functools.cache
def _planned_and_measured_period(network: str, parallel: bool):
    plan = plan_network(NETWORKS[network](), parallel=parallel)
    arrivals = _run(plan).layers[-1].arrivals
    return plan.cycle_budget, int(arrivals[2].min() - arrivals[1].min())


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 1: the plan does not count implicit padding")
@pytest.mark.parametrize("network", NETWORKS)
def test_throughput_of_a_fully_parallel_implementation(network):
    planned, got = _planned_and_measured_period(network, False)
    _, parallel = _planned_and_measured_period(network, True)
    assert got <= parallel and got == planned, (
        f"{network}: rate-aware period {got} against {parallel} for the "
        f"fully parallel plan and {planned} planned")


@pytest.mark.parametrize("network", NETWORKS)
def test_logic_saved_against_the_fully_parallel_reference(network):
    spec = NETWORKS[network]()
    ours = network_cost(plan_network(spec), SCOPES["table7"]).total
    ref = fully_parallel_reference_cost(spec).total
    assert ours.multipliers < ref.multipliers, (
        f"{network}: table7 multipliers {ours.multipliers}, fully parallel "
        f"{ref.multipliers}")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2: accumulators past 63 bits wrap in int64")
def test_bit_exact_means_exact():
    # untruncated, the planned widths pass int64: the run must refuse and
    # name a layer that does not fit
    plan = plan_network(mobilenet_v1(0.25))
    wide = [(plan.spec.layer_name(e.index), e.acc_width)
            for e in plan.layers if e.acc_width > 63]
    try:
        _run(plan, n_maps=1, truncate=False)
        err = None
    except (SimConfigError, WidthOverflow) as exc:
        err = str(exc)
    assert err is not None and any(name in err for name, _ in wide), (
        f"planned widths pass 63 bits at {wide[0][0]} and reach "
        f"{max(bits for _, bits in wide)}; the run ended with {err!r}")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 17: the engine never reads n_units")
def test_priced_units_suffice():
    plan = plan_network(running_example())
    c1 = plan.layers[0]
    starved = dataclasses.replace(plan, layers=[dataclasses.replace(
        c1, unit=dataclasses.replace(c1.unit, n_units=1))] + plan.layers[1:])
    try:
        peaks = _run(starved).stats.fifo_peaks
    except SimConfigError:
        return
    raise AssertionError(
        f"C1 ran on 1 of its {c1.unit.n_units} planned units with FIFO "
        f"peaks {peaks}, the planned units' {_run(plan).stats.fifo_peaks}")
