"""The Good Samaritan Protocol (paper §7)."""

from repro.protocols.good_samaritan.config import GoodSamaritanConfig
from repro.protocols.good_samaritan.protocol import GoodSamaritanProtocol
from repro.protocols.good_samaritan.reports import SuccessLedger
from repro.protocols.good_samaritan.schedule import (
    EpochSpan,
    FallbackPosition,
    GoodSamaritanSchedule,
)

__all__ = [
    "GoodSamaritanConfig",
    "GoodSamaritanProtocol",
    "SuccessLedger",
    "EpochSpan",
    "FallbackPosition",
    "GoodSamaritanSchedule",
]
