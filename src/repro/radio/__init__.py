"""The disrupted single-hop radio network substrate (paper §2)."""

from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.events import FrequencyActivity, RoundActivity
from repro.radio.frequencies import FrequencyBand
from repro.radio.messages import (
    ContenderMessage,
    DataMessage,
    LeaderMessage,
    Message,
    SamaritanMessage,
    WakeupMessage,
)
from repro.radio.network import SingleHopRadioNetwork
from repro.radio.spectrum_log import SpectrumLog

__all__ = [
    "RadioAction",
    "broadcast",
    "listen",
    "FrequencyActivity",
    "RoundActivity",
    "FrequencyBand",
    "ContenderMessage",
    "DataMessage",
    "LeaderMessage",
    "Message",
    "SamaritanMessage",
    "WakeupMessage",
    "SingleHopRadioNetwork",
    "SpectrumLog",
]
