"""Baseline protocols the paper's contributions are compared against.

Each one is a member of the Trapdoor family
(:class:`~repro.protocols.contention.ContentionProtocol`): it runs the same
leader-election skeleton as the Trapdoor Protocol and declares only how a
contender contends — a broadcast probability per local round and, for
single-channel and round-robin, its frequency rule.
"""

from repro.protocols.baselines.decay_wakeup import DecayWakeupProtocol
from repro.protocols.baselines.round_robin import RoundRobinSweepProtocol
from repro.protocols.baselines.single_channel import SingleChannelAlohaProtocol
from repro.protocols.baselines.uniform_wakeup import UniformWakeupProtocol

__all__ = [
    "DecayWakeupProtocol",
    "RoundRobinSweepProtocol",
    "SingleChannelAlohaProtocol",
    "UniformWakeupProtocol",
]
