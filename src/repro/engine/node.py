"""Per-node runtime wrapper.

:class:`NodeRuntime` is the engine-side view of one simulated device: it owns
the node's :class:`~repro.protocols.base.ProtocolContext`, instantiates the
protocol at activation (and again at a fault's reincarnation), and holds the
per-node counter the round loop keeps: how many outputs the node has
recorded.

The per-round state transitions — advancing the activation age, driving the
protocol hooks, latching the first synchronization — live in one place, the
round loop of :meth:`repro.engine.simulator.Simulator.run`.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.exceptions import SimulationError
from repro.params import ModelParameters
from repro.protocols.base import ProtocolContext, ProtocolFactory, SynchronizationProtocol
from repro.timestamps import draw_uid
from repro.types import GlobalRound, NodeId, Role


class NodeRuntime:
    """The engine's wrapper around a single simulated node.

    Parameters
    ----------
    node_id:
        The engine-internal identifier (not visible to the protocol).
    params:
        Model parameters shared by the whole simulation.
    rng:
        The node's private random stream.
    """

    __slots__ = (
        "node_id",
        "_params",
        "_rng",
        "_protocol",
        "_context",
        "_activation_round",
        "outputs_recorded",
    )

    def __init__(self, node_id: NodeId, params: ModelParameters, rng: random.Random) -> None:
        self.node_id = node_id
        self._params = params
        self._rng = rng
        self._protocol: Optional[SynchronizationProtocol] = None
        self._context: Optional[ProtocolContext] = None
        self._activation_round: Optional[GlobalRound] = None
        self.outputs_recorded: int = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def active(self) -> bool:
        """True once the node has been activated."""
        return self._protocol is not None

    @property
    def activation_round(self) -> Optional[GlobalRound]:
        """The global round in which the node was activated (or ``None``)."""
        return self._activation_round

    @property
    def protocol(self) -> SynchronizationProtocol:
        """The protocol instance (raises if the node is not active)."""
        if self._protocol is None:
            raise SimulationError(f"node {self.node_id} is not active")
        return self._protocol

    @property
    def context(self) -> ProtocolContext:
        """The protocol context (raises if the node is not active)."""
        if self._context is None:
            raise SimulationError(f"node {self.node_id} is not active")
        return self._context

    @property
    def uid(self) -> int:
        """The node's protocol-visible unique identifier."""
        return self.context.uid

    @property
    def local_round(self) -> int:
        """The node's activation age (0 before activation)."""
        return self._context.local_round if self._context is not None else 0

    @property
    def role(self) -> Role:
        """The node's current protocol role (``PASSIVE`` before activation)."""
        return self._protocol.role if self._protocol is not None else Role.PASSIVE

    def activate(self, global_round: GlobalRound, factory: ProtocolFactory) -> None:
        """Activate the node: draw its uid, build its protocol, call ``on_activate``."""
        if self._protocol is not None:
            raise SimulationError(f"node {self.node_id} activated twice")
        uid = draw_uid(self._rng, self._params.participant_bound)
        self._context = ProtocolContext(params=self._params, rng=self._rng, uid=uid, local_round=1)
        self._protocol = factory(self._context)
        self._activation_round = global_round
        self._protocol.on_activate()

    def reincarnate(self, rng: random.Random, factory: ProtocolFactory) -> None:
        """Rebuild the node as if freshly activated (fault injection only).

        Used by churn rejoins and transient-corruption recovery: the old
        protocol instance, context, and uid are discarded and the node
        restarts at local round 1 on the provided random stream — the same
        state transitions as :meth:`activate`, minus the double-activation
        guard.  The node stays in the simulator's synced set (liveness and
        the sync-latency metric measure the *first* synchronization;
        recovery time is the stabilization tracker's job).
        """
        if self._protocol is None:
            raise SimulationError(f"node {self.node_id} reincarnated before activation")
        uid = draw_uid(rng, self._params.participant_bound)
        self._rng = rng
        self._context = ProtocolContext(params=self._params, rng=rng, uid=uid, local_round=1)
        self._protocol = factory(self._context)
        self.outputs_recorded = 0
        self._protocol.on_activate()
