"""The protocol interface the simulation engine drives.

A *synchronization protocol* is the per-node state machine of §3: every round
it chooses a frequency and whether to broadcast or listen, it reacts to what
it receives, and it outputs either a round number or ``⊥`` (``None``).

The engine instantiates one protocol object per node through a
:class:`ProtocolFactory` and interacts with it only through the small
interface defined here, so the same engine runs the Trapdoor protocol, the
Good Samaritan protocol, all baselines, and the application protocols.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.params import ModelParameters
from repro.radio.actions import RadioAction
from repro.radio.messages import Message
from repro.types import LocalRound, Role, SyncOutput


@dataclass
class ProtocolContext:
    """Per-node context handed to a protocol by the engine.

    Attributes
    ----------
    params:
        The model parameters ``(F, t, N)``.
    rng:
        The node's private random stream (derived deterministically from the
        simulation master seed and the node id).
    uid:
        The node's unique identifier, drawn at activation time.
    local_round:
        The node's activation age: 1 in the round it is activated, then
        incremented by the engine before each subsequent round.
    """

    params: ModelParameters
    rng: random.Random
    uid: int
    local_round: LocalRound = field(default=0)


class SynchronizationProtocol(abc.ABC):
    """Base class for all per-node protocol state machines.

    Subclasses receive their :class:`ProtocolContext` in ``__init__`` and must
    implement :meth:`choose_action`, :meth:`on_reception`, and
    :meth:`current_output`.  The engine guarantees the call order per round::

        choose_action() -> (network resolution) -> [on_reception(message)] -> current_output()

    with ``context.local_round`` already set for the round.  ``on_reception``
    runs only in a round in which the node received a message: it listened
    on a frequency that exactly one node broadcast on and the adversary did
    not disrupt.  In any other round — it broadcast, or heard silence, a
    collision or disruption, which the model does not let it tell apart —
    the engine skips the call.
    """

    def __init__(self, context: ProtocolContext) -> None:
        self.context = context

    # -- lifecycle -------------------------------------------------------

    def on_activate(self) -> None:
        """Hook invoked once, in the node's first active round, before
        :meth:`choose_action`.  Default: no-op."""

    @abc.abstractmethod
    def choose_action(self) -> RadioAction:
        """Choose this round's frequency and broadcast/listen decision."""

    @abc.abstractmethod
    def on_reception(self, message: Message) -> None:
        """React to the message received this round (called only on receipt)."""

    @abc.abstractmethod
    def current_output(self) -> SyncOutput:
        """The value output this round: a round number, or ``None`` for ⊥."""

    # -- reporting -------------------------------------------------------

    @property
    def role(self) -> Role:
        """The node's coarse role, for metrics and traces.  Default: contender.

        Hot path: the simulator reads it once per node per round, so it
        returns a stored :class:`Role` and allocates nothing.
        """
        return Role.CONTENDER

    @property
    def synchronized(self) -> bool:
        """True once the node outputs a non-⊥ value (and hence forever after)."""
        return self.current_output() is not None

    @property
    def is_leader(self) -> bool:
        """True if this node elected itself leader (if the protocol has leaders)."""
        return self.role is Role.LEADER


def draw_one_to(rng: random.Random, width: int) -> int:
    """A uniform draw from ``[1 .. width]``: exactly ``rng.randint(1, width)``.

    It returns the same value and leaves ``rng`` in the same state, because it
    runs CPython's ``_randbelow_with_getrandbits`` inline: ``k``-bit draws,
    ``k = width.bit_length()``, until one falls below ``width``.  There is no
    power-of-two shortcut: ``bit_length`` of ``2**m`` is ``m + 1``, so a power
    of two rejects half its draws, and those rejections are part of the
    stream.  The batch kernel's ``_WordStreams.randbelow``
    (:mod:`repro.engine.batch`) replays the same algorithm on numpy words.

    Every bounded draw made per node-round calls it — protocol frequencies,
    a Byzantine node's forgeries — because it skips the three Python frames
    ``randint`` -> ``randrange`` -> ``_randbelow`` take.  Good Samaritan runs
    the same loop inline, with each width's bit count computed once.
    """
    if width < 1:
        raise ValueError(f"empty range for draw_one_to: width {width}")
    k = width.bit_length()
    value = rng.getrandbits(k)
    while value >= width:
        value = rng.getrandbits(k)
    return value + 1


#: A callable building one protocol instance per node.  The engine calls it at
#: activation time with the node's freshly initialized context.
ProtocolFactory = Callable[[ProtocolContext], SynchronizationProtocol]


@dataclass(frozen=True)
class BoundProtocolFactory:
    """A picklable :data:`ProtocolFactory`: a protocol class bound to arguments.

    The parallel trial runner ships whole simulation configurations to worker
    processes, so factories must survive pickling — which closures don't.
    Every built-in ``Protocol.factory(...)`` classmethod returns one of these:
    calling it builds ``protocol_class(context, *args)``.
    """

    protocol_class: type[SynchronizationProtocol]
    args: tuple = ()

    def __call__(self, context: ProtocolContext) -> SynchronizationProtocol:
        return self.protocol_class(context, *self.args)


class SynchronizedOutputMixin:
    """Helper managing the output counter shared by every protocol.

    A protocol using this mixin calls :meth:`adopt_round_number` once, when it
    learns the numbering (from its own election or from a leader message).
    The mixin anchors the adopted value to the node's local round at adoption
    time and derives every later output from the local round counter, so the
    *synch commit* and *correctness* properties hold by construction.

    Subclasses must expose a ``context`` attribute (they all do, via
    :class:`SynchronizationProtocol`).
    """

    context: ProtocolContext
    _adopted_value: Optional[int] = None
    _adopted_local_round: Optional[int] = None

    def adopt_round_number(self, round_number: int) -> None:
        """Adopt ``round_number`` as the output for the *current* round.

        Subsequent rounds output ``round_number + 1``, ``round_number + 2``, …
        automatically.  Re-adoption is ignored once committed (synch commit).
        """
        if self._adopted_value is not None:
            return
        self._adopted_value = round_number
        self._adopted_local_round = self.context.local_round

    def current_output(self) -> SyncOutput:
        """The committed round number for the current round, or ``None`` (⊥)."""
        if self._adopted_value is None or self._adopted_local_round is None:
            return None
        return self._adopted_value + (self.context.local_round - self._adopted_local_round)
