"""Named workloads: (activation pattern, adversary) pairs used across experiments.

A *workload* is everything about an execution except the protocol under test
and the model parameters: how the devices arrive and what the interference
looks like.  Naming them in one place keeps the benchmarks, the examples, and
the tests talking about the same scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.adversary.activation import (
    ActivationSchedule,
    RandomActivation,
    SimultaneousActivation,
    StaggeredActivation,
    TrickleActivation,
)
from repro.adversary.base import InterferenceAdversary
from repro.adversary.jammers import (
    BurstyJammer,
    FixedBandJammer,
    LowBandJammer,
    NoInterference,
    RandomJammer,
    ReactiveJammer,
    SweepJammer,
)
from repro.exceptions import ExperimentError
from repro.params import ModelParameters


@dataclass(frozen=True)
class Workload:
    """A named (activation, adversary) scenario.

    Attributes
    ----------
    name:
        A short identifier used in tables.
    activation:
        The activation schedule.
    adversary:
        The interference adversary.
    description:
        A one-line human description.
    """

    name: str
    activation: ActivationSchedule
    adversary: InterferenceAdversary
    description: str


def quiet_start(node_count: int) -> Workload:
    """All nodes wake together, no interference — the easiest possible execution."""
    return Workload(
        name="quiet_start",
        activation=SimultaneousActivation(count=node_count),
        adversary=NoInterference(),
        description="simultaneous activation, no interference",
    )


def synchronized_start_low_jam(
    node_count: int, params: ModelParameters, actual_disruption: int
) -> Workload:
    """The Good Samaritan "good execution": simultaneous start, oblivious jammer with ``t' ≤ t``.

    The jammer is :class:`RandomJammer` with ``strength=actual_disruption``
    (:class:`NoInterference` at ``t' = 0``): oblivious as it is, it uses only
    ``actual_disruption`` of the allowed ``t`` channels per round and draws
    them from each trial's own adversary stream.
    """
    if actual_disruption > params.disruption_budget:
        raise ExperimentError(
            f"actual disruption t'={actual_disruption} exceeds the budget t={params.disruption_budget}"
        )
    return Workload(
        name=f"good_execution_tprime_{actual_disruption}",
        activation=SimultaneousActivation(count=node_count),
        adversary=(
            RandomJammer(strength=actual_disruption) if actual_disruption > 0 else NoInterference()
        ),
        description=f"simultaneous activation, oblivious jammer using t'={actual_disruption} channels",
    )


def crowded_cafe(node_count: int, spacing: int = 4) -> Workload:
    """Devices trickle in one by one while a random jammer uses its full budget."""
    return Workload(
        name="crowded_cafe",
        activation=StaggeredActivation(count=node_count, spacing=spacing),
        adversary=RandomJammer(),
        description=f"staggered arrivals every {spacing} rounds, full-budget random jammer",
    )


def adversarial_sweep(node_count: int, window: int = 32, seed: int = 0) -> Workload:
    """Random arrivals against a sweeping jammer (frequency-scanning interferer)."""
    return Workload(
        name="adversarial_sweep",
        activation=RandomActivation(count=node_count, window=window, seed=seed),
        adversary=SweepJammer(),
        description=f"random arrivals within {window} rounds, sweeping jammer",
    )


def reactive_attack(node_count: int, spacing: int = 2) -> Workload:
    """Staggered arrivals against an adaptive jammer targeting busy channels."""
    return Workload(
        name="reactive_attack",
        activation=StaggeredActivation(count=node_count, spacing=spacing),
        adversary=ReactiveJammer(),
        description="staggered arrivals, adaptive jammer on the busiest channels",
    )


def microwave_oven(node_count: int, on_rounds: int = 16, off_rounds: int = 16) -> Workload:
    """Simultaneous start with duty-cycled (bursty) interference."""
    return Workload(
        name="microwave_oven",
        activation=SimultaneousActivation(count=node_count),
        adversary=BurstyJammer(on_rounds=on_rounds, off_rounds=off_rounds),
        description=f"simultaneous start, bursty jammer ({on_rounds} on / {off_rounds} off)",
    )


def low_band_attack(node_count: int) -> Workload:
    """Simultaneous start with a jammer that concentrates on the low channels."""
    return Workload(
        name="low_band_attack",
        activation=SimultaneousActivation(count=node_count),
        adversary=LowBandJammer(),
        description="simultaneous start, jammer concentrated on the low-frequency prefix",
    )


def straggler(node_count: int, delay: int) -> Workload:
    """Most devices wake together; one arrives ``delay`` rounds later under a fixed-band jammer."""
    return Workload(
        name="straggler",
        activation=TrickleActivation(count=node_count, delay=delay),
        adversary=FixedBandJammer(),
        description=f"one straggler arriving {delay} rounds late, fixed-band jammer",
    )


def lower_bound_worst_case(node_count: int) -> Workload:
    """The Theorem 1 adversary: simultaneous activation, frequencies ``1..t`` always jammed."""
    return Workload(
        name="lower_bound_worst_case",
        activation=SimultaneousActivation(count=node_count),
        adversary=FixedBandJammer(),
        description="simultaneous activation, frequencies 1..t permanently disrupted",
    )


#: Registry of workload constructors that only need a node count, keyed by name.
SIMPLE_WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "quiet_start": quiet_start,
    "crowded_cafe": crowded_cafe,
    "adversarial_sweep": adversarial_sweep,
    "reactive_attack": reactive_attack,
    "microwave_oven": microwave_oven,
    "low_band_attack": low_band_attack,
    "lower_bound_worst_case": lower_bound_worst_case,
}
