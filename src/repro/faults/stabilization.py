"""Stabilization measurement: rounds-to-reconverge after fault injections.

Each round in which at least one injection applied opens an *epoch*.  The
epoch's recovery time is the number of rounds until the first round end at
which every present honest node outputs the same non-⊥ value (0 = converged
again at the end of the injection round itself; a round with no present
honest node is not converged).  There is no closure requirement.  Epochs
that never reconverge before the run ends are charged
``rounds_simulated - epoch + 1`` — strictly greater than any in-run recovery
value, so "never recovered" always dominates "recovered late" in aggregates.

Delaët et al. (*Snap-Stabilization in Message-Passing Systems*, arXiv
0802.1123) and Altisen & Bozga (*Revisited Convergence of Dolev et al.'s BFS
Spanning Tree Algorithm*, arXiv 2502.17035) instead count rounds from an
arbitrary configuration until a *legitimate* one, where legitimacy is closed:
every execution from it stays legitimate (snap-stabilization is the case of
zero rounds).  This metric starts from an injection into a running execution
(a corrupted node is reset to a fresh protocol, not scrambled), and it is a
first hitting time, so it bounds a closure-based time from below.  Closure
does hold here by synch commit plus correctness — converged nodes keep
counting up in step — as long as no later activation or injection happens.

The property checker excludes Byzantine nodes from round 1; the tracker
excludes them only from ``byzantine_start_round`` on, since until then they
run the protocol and reconvergence waits for them.

The simulator feeds the tracker from its one pass over a round's nodes, as
it feeds the property checker: :meth:`StabilizationTracker.on_output` per
present node, then :meth:`StabilizationTracker.observe_round` once per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.types import GlobalRound, NodeId, SyncOutput


@dataclass(frozen=True, slots=True)
class StabilizationReport:
    """Per-execution stabilization measurements.

    Attributes
    ----------
    epochs:
        The global rounds at which injections applied, in order (a round with
        several simultaneous injections is one epoch).
    recovery_rounds:
        For each epoch, rounds until the present honest nodes reconverged
        (see module docstring for the never-reconverged charge).
    reconverged:
        True when every epoch reconverged before the run ended.
    """

    epochs: tuple[int, ...] = ()
    recovery_rounds: tuple[int, ...] = ()
    reconverged: bool = True

    @property
    def max_recovery_rounds(self) -> Optional[int]:
        """The worst per-epoch recovery time (``None`` when nothing fired)."""
        return max(self.recovery_rounds) if self.recovery_rounds else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "epochs": list(self.epochs),
            "recovery_rounds": list(self.recovery_rounds),
            "reconverged": self.reconverged,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "StabilizationReport":
        return cls(
            epochs=tuple(int(r) for r in doc.get("epochs", ())),
            recovery_rounds=tuple(int(r) for r in doc.get("recovery_rounds", ())),
            reconverged=bool(doc.get("reconverged", True)),
        )


class StabilizationTracker:
    """Accumulates per-epoch reconvergence times during one execution.

    The simulator opens epochs with :meth:`record_epoch`, hands every
    present node's output to :meth:`on_output` and closes each round with
    :meth:`observe_round`; :meth:`finalize` assembles the report.  The
    ``byzantine`` nodes count as honest until ``byzantine_start_round``.
    """

    def __init__(self, byzantine: frozenset[NodeId], byzantine_start_round: int) -> None:
        self._byzantine = byzantine
        self._byzantine_start_round = byzantine_start_round
        self._epochs: list[int] = []
        self._recovery: list[Optional[int]] = []
        self._pending: list[int] = []  # indices into _epochs awaiting reconvergence
        self._outputs: set[SyncOutput] = set()  # the round's honest outputs so far
        #: Whether the present honest nodes were converged at the last round end.
        self.converged = False

    def record_epoch(self, global_round: int) -> None:
        """Open an injection epoch at ``global_round`` (idempotent per round)."""
        if self._epochs and self._epochs[-1] == global_round:
            return
        self._pending.append(len(self._epochs))
        self._epochs.append(global_round)
        self._recovery.append(None)

    def on_output(self, global_round: GlobalRound, node_id: NodeId, output: SyncOutput) -> None:
        """Fold one present node's output in ``global_round`` into the round."""
        if node_id in self._byzantine and global_round >= self._byzantine_start_round:
            return
        self._outputs.add(output)

    def observe_round(self, global_round: GlobalRound) -> None:
        """Close ``global_round`` once every present node's output is in.

        The round is converged when its honest outputs are one non-⊥ value
        (so a round without a present honest node is not); a converged round
        ends every pending epoch.
        """
        outputs = self._outputs
        self.converged = len(outputs) == 1 and None not in outputs
        outputs.clear()
        if self.converged and self._pending:
            for index in self._pending:
                self._recovery[index] = global_round - self._epochs[index]
            self._pending.clear()

    def finalize(self, rounds_simulated: int) -> StabilizationReport:
        """Charge unrecovered epochs and assemble the report."""
        reconverged = not self._pending
        for index in self._pending:
            self._recovery[index] = rounds_simulated - self._epochs[index] + 1
        self._pending.clear()
        return StabilizationReport(
            epochs=tuple(self._epochs),
            recovery_rounds=tuple(r for r in self._recovery if r is not None),
            reconverged=reconverged,
        )
