"""Activation schedules.

In the model the adversary also decides *when* each of the ``n`` participating
nodes is activated.  Activation schedules are kept separate from interference
adversaries so they can be combined freely in experiments.

A schedule maps a global round to the list of node ids activated at the
beginning of that round.  The simulator queries it once per round.
"""

from __future__ import annotations

import abc
import dataclasses
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.types import GlobalRound, NodeId


class ActivationSchedule(abc.ABC):
    """Decides which nodes wake up at the beginning of each round."""

    @property
    @abc.abstractmethod
    def node_count(self) -> int:
        """Total number of nodes that will eventually be activated (``n``)."""

    @abc.abstractmethod
    def activations_for_round(self, global_round: GlobalRound, rng: random.Random) -> tuple[NodeId, ...]:
        """Node ids activated at the beginning of ``global_round``.

        Implementations must be deterministic functions of the round and the
        provided random stream, and must activate every node exactly once
        over the course of the execution.
        """

    @abc.abstractmethod
    def last_activation_round(self) -> int:
        """An upper bound on the round of the last activation (for planning)."""

    def describe(self) -> str:
        """Short human-readable description used in experiment tables."""
        return type(self).__name__

    def identity(self) -> str:
        """A stable string pinning down the schedule's behaviour.

        Identical across processes, and different whenever the schedule
        behaves differently.  Every built-in schedule is a dataclass, so the
        repr covers all its fields; a non-dataclass subclass must override
        this if ``describe()`` does not determine when each node wakes up.
        """
        if dataclasses.is_dataclass(self):
            return f"{type(self).__qualname__}: {self!r}"
        return f"{type(self).__qualname__}: {self.describe()}"


def _validate_node_count(node_count: int) -> int:
    if node_count < 1:
        raise ConfigurationError(f"an activation schedule needs at least one node, got {node_count}")
    return node_count


@dataclass
class SimultaneousActivation(ActivationSchedule):
    """All ``n`` nodes are activated in the same round (the "good execution").

    Parameters
    ----------
    count:
        The number of nodes ``n``.
    round_index:
        The global round in which they all wake up.
    """

    count: int
    round_index: int = 1

    def __post_init__(self) -> None:
        _validate_node_count(self.count)
        if self.round_index < 1:
            raise ConfigurationError(f"activation round must be >= 1, got {self.round_index}")

    @property
    def node_count(self) -> int:
        return self.count

    def activations_for_round(self, global_round: GlobalRound, rng: random.Random) -> tuple[NodeId, ...]:
        if global_round == self.round_index:
            return tuple(range(self.count))
        return ()

    def last_activation_round(self) -> int:
        return self.round_index

    def describe(self) -> str:
        return f"simultaneous (n={self.count})"


@dataclass
class StaggeredActivation(ActivationSchedule):
    """Nodes wake up one after another at a fixed spacing.

    Parameters
    ----------
    count:
        The number of nodes ``n``.
    spacing:
        Number of rounds between consecutive activations.
    first_round:
        Round of the first activation.
    """

    count: int
    spacing: int = 1
    first_round: int = 1

    def __post_init__(self) -> None:
        _validate_node_count(self.count)
        if self.spacing < 0:
            raise ConfigurationError(f"spacing must be non-negative, got {self.spacing}")
        if self.first_round < 1:
            raise ConfigurationError(f"first activation round must be >= 1, got {self.first_round}")

    @property
    def node_count(self) -> int:
        return self.count

    def activations_for_round(self, global_round: GlobalRound, rng: random.Random) -> tuple[NodeId, ...]:
        if self.spacing == 0:
            return tuple(range(self.count)) if global_round == self.first_round else ()
        offset = global_round - self.first_round
        if offset < 0 or offset % self.spacing != 0:
            return ()
        index = offset // self.spacing
        return (index,) if index < self.count else ()

    def last_activation_round(self) -> int:
        return self.first_round + self.spacing * (self.count - 1)

    def describe(self) -> str:
        return f"staggered (n={self.count}, every {self.spacing} rounds)"


@dataclass
class RandomActivation(ActivationSchedule):
    """Each node wakes up at a uniformly random round in a window.

    The draw is made lazily but deterministically from the schedule's own
    seed, so the same experiment seed reproduces the same wake-up pattern.

    Parameters
    ----------
    count:
        The number of nodes ``n``.
    window:
        Activations are drawn uniformly from ``[1 .. window]``.
    seed:
        Seed for the internal draw.
    """

    count: int
    window: int = 64
    seed: int = 0
    _assignment: Mapping[int, tuple[NodeId, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        _validate_node_count(self.count)
        if self.window < 1:
            raise ConfigurationError(f"activation window must be >= 1, got {self.window}")
        rng = random.Random(self.seed)
        assignment: dict[int, list[NodeId]] = {}
        for node_id in range(self.count):
            wake_round = rng.randint(1, self.window)
            assignment.setdefault(wake_round, []).append(node_id)
        object.__setattr__(
            self,
            "_assignment",
            {round_index: tuple(nodes) for round_index, nodes in assignment.items()},
        )

    @property
    def node_count(self) -> int:
        return self.count

    def activations_for_round(self, global_round: GlobalRound, rng: random.Random) -> tuple[NodeId, ...]:
        return self._assignment.get(global_round, ())

    def last_activation_round(self) -> int:
        return max(self._assignment) if self._assignment else 1

    def describe(self) -> str:
        return f"random (n={self.count}, window {self.window})"


@dataclass
class ExplicitActivation(ActivationSchedule):
    """An explicit per-node activation round list (round of node ``i`` at index ``i``).

    Parameters
    ----------
    rounds:
        ``rounds[i]`` is the global round at which node ``i`` wakes up.
    """

    rounds: Sequence[int]

    def __post_init__(self) -> None:
        if not self.rounds:
            raise ConfigurationError("explicit activation needs at least one node")
        for index, round_index in enumerate(self.rounds):
            if round_index < 1:
                raise ConfigurationError(
                    f"activation round for node {index} must be >= 1, got {round_index}"
                )

    @property
    def node_count(self) -> int:
        return len(self.rounds)

    def activations_for_round(self, global_round: GlobalRound, rng: random.Random) -> tuple[NodeId, ...]:
        return tuple(
            node_id for node_id, round_index in enumerate(self.rounds) if round_index == global_round
        )

    def last_activation_round(self) -> int:
        return max(self.rounds)

    def describe(self) -> str:
        return f"explicit (n={len(self.rounds)})"


@dataclass
class TrickleActivation(ActivationSchedule):
    """An adversarial "trickle": one straggler arrives long after the rest.

    All nodes but the last wake up in round 1; the final node wakes up
    ``delay`` rounds later.  This is the pattern that stresses the Good
    Samaritan protocol's handling of newly arrived devices.

    Parameters
    ----------
    count:
        The number of nodes ``n`` (must be at least 2).
    delay:
        How many rounds after the group the straggler arrives.
    """

    count: int
    delay: int = 32

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ConfigurationError(f"a trickle needs at least two nodes, got {self.count}")
        if self.delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {self.delay}")

    @property
    def node_count(self) -> int:
        return self.count

    def activations_for_round(self, global_round: GlobalRound, rng: random.Random) -> tuple[NodeId, ...]:
        if global_round == 1:
            return tuple(range(self.count - 1))
        if global_round == 1 + self.delay:
            return (self.count - 1,)
        return ()

    def last_activation_round(self) -> int:
        return 1 + self.delay

    def describe(self) -> str:
        return f"trickle (n={self.count}, straggler +{self.delay})"
