"""Synchronization protocols: the paper's contributions and the baselines."""

from repro.protocols.base import (
    ProtocolContext,
    ProtocolFactory,
    SynchronizationProtocol,
    SynchronizedOutputMixin,
)
from repro.protocols.baselines import (
    DecayWakeupProtocol,
    RoundRobinSweepProtocol,
    SingleChannelAlohaProtocol,
    UniformWakeupProtocol,
)
from repro.protocols.contention import ContentionProtocol
from repro.protocols.fault_tolerant import (
    CrashSchedule,
    FaultToleranceConfig,
    FaultTolerantTrapdoorProtocol,
    MutedProtocol,
    crashable,
)
from repro.protocols.good_samaritan import (
    GoodSamaritanConfig,
    GoodSamaritanProtocol,
    GoodSamaritanSchedule,
)
from repro.protocols.numbering import RoundNumbering
from repro.protocols.timestamps import Timestamp, draw_uid
from repro.protocols.trapdoor import TrapdoorConfig, TrapdoorProtocol, TrapdoorSchedule

__all__ = [
    "ProtocolContext",
    "ProtocolFactory",
    "SynchronizationProtocol",
    "SynchronizedOutputMixin",
    "ContentionProtocol",
    "DecayWakeupProtocol",
    "RoundRobinSweepProtocol",
    "SingleChannelAlohaProtocol",
    "UniformWakeupProtocol",
    "CrashSchedule",
    "FaultToleranceConfig",
    "FaultTolerantTrapdoorProtocol",
    "MutedProtocol",
    "crashable",
    "GoodSamaritanConfig",
    "GoodSamaritanProtocol",
    "GoodSamaritanSchedule",
    "RoundNumbering",
    "Timestamp",
    "draw_uid",
    "TrapdoorConfig",
    "TrapdoorProtocol",
    "TrapdoorSchedule",
]
