#!/usr/bin/env python
"""Crash recovery: surviving the death of the elected leader (§8).

Both of the paper's protocols funnel the round numbering through a single
elected leader.  The concluding remarks sketch how to tolerate that leader
crashing: restart contention when the leader has been silent for long enough,
and delay committing to a numbering until several leader messages have been
heard.  This example kills the leader at two different points and shows the
crash-tolerant variant recovering, then contrasts it with the plain Trapdoor
Protocol, where a late arrival is stranded forever once the leader is gone.

A crash is a fault-plan departure with no rejoin.  The leader, node 0, is
activated in global round 1, so crashing it after its local round ``k`` is
``ChurnEvent(0, leave_round=k + 1)``.

Run it with::

    python examples/crash_recovery.py
"""

from __future__ import annotations

from repro import ModelParameters, RandomJammer, SimulationConfig, TrapdoorProtocol, simulate
from repro.adversary.activation import ExplicitActivation
from repro.experiments.tables import render_table
from repro.faults import ChurnEvent, FaultPlan
from repro.protocols.fault_tolerant import FaultToleranceConfig, FaultTolerantTrapdoorProtocol
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import TrapdoorSchedule

PARAMS = ModelParameters(frequencies=8, disruption_budget=2, participant_bound=16)
FT_CONFIG = FaultToleranceConfig(
    trapdoor=TrapdoorConfig(final_epoch_constant=6.0),
    commit_threshold=2,
    assist_probability=0.25,
)
SCHEDULE = TrapdoorSchedule(PARAMS, FT_CONFIG.trapdoor)


def run(factory, leave_round, activation_rounds, seed=11, max_rounds=150_000):
    """Run with node 0 departing for good at the start of ``leave_round``."""
    crash = FaultPlan(churn=(ChurnEvent(0, leave_round),)) if leave_round is not None else None
    config = SimulationConfig(
        params=PARAMS,
        protocol_factory=factory,
        activation=ExplicitActivation(rounds=activation_rounds),
        adversary=RandomJammer(),
        max_rounds=max_rounds,
        seed=seed,
        faults=crash,
    )
    return simulate(config)


def describe(result, crashed_node=0):
    rows = []
    for node in result.trace.node_ids:
        sync_round = result.trace.sync_round_of(node)
        rows.append(
            {
                "node": node,
                "crashed": "yes" if node == crashed_node else "no",
                "activated_in_round": result.trace.activation_rounds[node],
                "synchronized_in_round": sync_round if sync_round is not None else "never",
            }
        )
    return rows


def main() -> None:
    activation = [1, 3, 5, 7]
    # Leave rounds of node 0: right after the round it wins in (its local
    # round total_rounds + 1), or long after everyone synchronized.
    scenarios = {
        "no crash": None,
        "leader crashes the moment it wins": SCHEDULE.total_rounds + 2,
        "leader crashes after everyone synced": 3 * SCHEDULE.total_rounds + 1,
    }

    print(f"Crash-tolerant Trapdoor — {PARAMS.describe()}")
    print(f"schedule length {SCHEDULE.total_rounds} rounds, "
          f"restart timeout {FT_CONFIG.silence_timeout(SCHEDULE)} rounds, "
          f"commit after {FT_CONFIG.commit_threshold} leader messages\n")

    for name, leave_round in scenarios.items():
        result = run(FaultTolerantTrapdoorProtocol.factory(FT_CONFIG), leave_round, activation)
        print(render_table(describe(result), title=f"Scenario: {name}"))
        survivors = [n for n in result.trace.node_ids if n != 0]
        synced = all(result.trace.sync_round_of(n) is not None for n in survivors)
        print(f"  -> all surviving nodes synchronized: {'yes' if synced else 'NO'}"
              f" (execution took {result.rounds_simulated} rounds)\n")

    print("Contrast: the plain Trapdoor Protocol with a late arrival after the leader died.")
    # Node 3 arrives long after the leader (node 0) has crashed; without the §8
    # modification nobody ever tells it the agreed numbering, so it eventually
    # crowns itself leader with a *different* numbering and breaks agreement.
    # The group never reconverges, so the run goes to its cap, which leaves
    # the straggler time to synchronize (round 1,072 at seed 11).
    late_arrival = [1, 3, 5, 4 * SCHEDULE.total_rounds]
    straggler = late_arrival.index(max(late_arrival))
    plain = run(
        TrapdoorProtocol.factory(),
        leave_round=2 * SCHEDULE.total_rounds + 1,
        activation_rounds=late_arrival,
        max_rounds=2_000,
        seed=11,
    )
    print(render_table(describe(plain), title="Plain Trapdoor, leader crashed, straggler arrives late"))

    def straggler_agrees(result) -> bool:
        last = result.trace.records[-1]
        straggler_output = last.outputs.get(straggler)
        survivor_outputs = {
            value
            for node, value in last.outputs.items()
            if node not in (0, straggler) and value is not None
        }
        return straggler_output is not None and survivor_outputs == {straggler_output}

    print(f"  -> the straggler agrees with the group without the §8 modification: "
          f"{'yes' if straggler_agrees(plain) else 'NO (it invented its own numbering)'}")

    ft_late = run(
        FaultTolerantTrapdoorProtocol.factory(FT_CONFIG),
        leave_round=2 * SCHEDULE.total_rounds + 1,
        activation_rounds=late_arrival,
        max_rounds=200_000,
        seed=11,
    )
    print(f"  -> with restart + assist the same straggler adopts the surviving numbering: "
          f"{'yes' if straggler_agrees(ft_late) else 'no'}")


if __name__ == "__main__":
    main()
