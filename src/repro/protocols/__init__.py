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
from repro.protocols.fault_tolerant import FaultToleranceConfig, FaultTolerantTrapdoorProtocol
from repro.protocols.good_samaritan import (
    GoodSamaritanConfig,
    GoodSamaritanProtocol,
    GoodSamaritanSchedule,
)
from repro.protocols.trapdoor import TrapdoorConfig, TrapdoorProtocol, TrapdoorSchedule
from repro.timestamps import Timestamp, draw_uid

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
    "FaultToleranceConfig",
    "FaultTolerantTrapdoorProtocol",
    "GoodSamaritanConfig",
    "GoodSamaritanProtocol",
    "GoodSamaritanSchedule",
    "Timestamp",
    "draw_uid",
    "TrapdoorConfig",
    "TrapdoorProtocol",
    "TrapdoorSchedule",
]
