"""Trace levels, the trace recorder, and trace replay.

The simulator does not buffer an execution and re-walk it post hoc: it feeds
every resolved round, as it happens, to a fixed set of consumers through
their own entry points.  The property checker, the metrics collector and,
under a fault plan, the stabilization tracker take each node's output from
the loop's one pass over the nodes and close the round once; the spectrum
log takes the round's activity.  The trace recorder is the only consumer
that keeps round records, and the simulator builds a
:class:`~repro.engine.trace.RoundRecord` only for it, at
:attr:`TraceLevel.FULL` or :attr:`TraceLevel.SAMPLED`.

The recorder sees four events, always in this order::

    on_simulation_start(params, seed)
    on_activation(node_id, global_round)     # once per node, before its round
    on_round(record)                         # once per resolved round
    on_simulation_end(rounds_simulated)

:func:`replay_trace` drives a kept ``FULL`` trace back through consumers'
``on_activation`` and ``on_round``; the checker's and the metrics' ``on_round``
replay a record through their per-node entry points, so post-hoc analysis
runs the code the live loop runs.  Consumers keep incremental state, so heavy
sweeps can run with :attr:`TraceLevel.NONE` (no buffered trace at all) and
still produce the exact same property report and metrics as a full-trace run.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.engine.trace import ExecutionTrace, RoundRecord
from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.types import GlobalRound, NodeId


class TraceLevel(enum.Enum):
    """How much per-round history an execution retains.

    FULL
        Every :class:`~repro.engine.trace.RoundRecord` is kept (the seed
        behaviour).  Required by anything that inspects the trace post hoc.
    SAMPLED
        Only every ``trace_sample_interval``-th round (plus the first and the
        final round) is kept — enough to eyeball an execution without the
        memory cost.  Reports and metrics are unaffected: they stream.
    NONE
        No trace is kept; :attr:`SimulationResult.trace` is ``None``.  This is
        the right level for large multi-seed sweeps.
    """

    FULL = "full"
    SAMPLED = "sampled"
    NONE = "none"


class TraceRecorder:
    """Builds an :class:`~repro.engine.trace.ExecutionTrace` as rounds stream by.

    Parameters
    ----------
    level:
        How much history to retain.  With :attr:`TraceLevel.NONE` the recorder
        records activations only and :attr:`trace` stays usable but empty of
        round records; callers normally just skip attaching a recorder.
    sample_interval:
        With :attr:`TraceLevel.SAMPLED`, keep one round in every
        ``sample_interval`` (the first round is always kept, and the final
        round is appended at :meth:`on_simulation_end` if it was skipped).
    """

    def __init__(self, level: TraceLevel = TraceLevel.FULL, sample_interval: int = 100) -> None:
        if sample_interval < 1:
            raise ConfigurationError(
                f"sample_interval must be positive, got {sample_interval}"
            )
        self._level = level
        self._sample_interval = sample_interval
        self._trace: Optional[ExecutionTrace] = None
        self._last_record: Optional[RoundRecord] = None

    @property
    def _records_every_round(self) -> bool:
        # Sampling at interval 1 keeps every round, so the trace is complete.
        return self._level is TraceLevel.FULL or (
            self._level is TraceLevel.SAMPLED and self._sample_interval == 1
        )

    @property
    def trace(self) -> Optional[ExecutionTrace]:
        """The trace built so far (``None`` before ``on_simulation_start``)."""
        return self._trace

    def on_simulation_start(self, params: ModelParameters, seed: int) -> None:
        self._trace = ExecutionTrace(
            params=params, seed=seed, complete=self._records_every_round
        )

    def on_activation(self, node_id: NodeId, global_round: GlobalRound) -> None:
        assert self._trace is not None
        self._trace.activation_rounds[node_id] = global_round

    def on_round(self, record: RoundRecord) -> None:
        assert self._trace is not None
        self._last_record = record
        if self._level is TraceLevel.FULL:
            self._trace.append(record)
        elif self._level is TraceLevel.SAMPLED:
            if record.global_round == 1 or record.global_round % self._sample_interval == 0:
                self._trace.append(record)

    def on_simulation_end(self, rounds_simulated: int) -> None:
        if (
            self._level is TraceLevel.SAMPLED
            and self._trace is not None
            and self._last_record is not None
            and (not self._trace.records or self._trace.records[-1] is not self._last_record)
        ):
            self._trace.append(self._last_record)


def replay_trace(trace: ExecutionTrace, *consumers: Any) -> None:
    """Feed a buffered trace through consumers, as if it were streaming.

    Each consumer gets ``on_activation(node_id, global_round)`` for every
    activation, then ``on_round(record)`` for every round in order.  This is
    what keeps the post-hoc APIs (``PropertyChecker.check``,
    ``collect_metrics``) alive on top of the streaming implementations.
    Replaying a sampled trace would feed the consumers only the retained
    subset of rounds — silently wrong — so incomplete traces are refused.
    """
    trace.require_complete("replay_trace")
    for node_id, global_round in trace.activation_rounds.items():
        for consumer in consumers:
            consumer.on_activation(node_id, global_round)
    for record in trace:
        for consumer in consumers:
            consumer.on_round(record)
