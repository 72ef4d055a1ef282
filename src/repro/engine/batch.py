"""Vectorized batch simulation kernel: lockstep multi-seed execution.

The scalar engine (:mod:`repro.engine.simulator`) runs one trial at a time,
one Python-level round loop per seed.  For trace-free multi-seed sweeps —
campaign cells, search evaluations, benchmarks — the per-round interpreter
overhead multiplied across seeds dominates once the per-trial work is small.
This module removes it by running a whole *batch* of seeds in lockstep
through the round loop as structure-of-arrays numpy operations over a
``(trials, nodes)``-shaped state: per-round frequency choices, jammer
disruption masks, reception resolution, synchronization detection, and stop
conditions are all array ops, and early-finished trials are masked out of
every subsequent round rather than exited.

**Determinism is bit-exact.**  Every random draw comes from the very same
per-``(trial, component)`` :class:`random.Random` objects the scalar engine
would build (:mod:`repro.engine.rng`).  Node uids are drawn from them first;
after that the kernel owns the streams and reads them only in blocks of
32-bit words, which it consumes in exactly the order CPython's ``random()`` /
``getrandbits`` / ``Random.sample`` would (including rejection re-draws).
The golden equivalence suite pins the batch kernel against the scalar
engine's recorded digests for every batchable combination.

**Scope.**  The kernel covers the trace-free (``TraceLevel.NONE``) subset of
the registries whose per-round logic is expressible as array ops:

* protocols: the Trapdoor family — trapdoor, uniform-wakeup, decay-wakeup,
  single-channel, round-robin — whose
  :class:`~repro.protocols.contention.ContentionProtocol` skeleton the
  kernel replays, reading each member's horizon, probabilities and band off
  a probe and re-implementing its frequency rule
  (``_BATCHABLE_PROTOCOLS``);
* adversaries: all eight registered jammers;
* activations: all five built-in schedules (none of them consult the
  activation random stream).

:func:`batchable` probes a configuration for membership; :func:`run_batch` /
:func:`run_reduced_batch` transparently fall back to the scalar loop
otherwise, so callers can pass any configuration.
"""

from __future__ import annotations

import math
import multiprocessing
import random
from dataclasses import dataclass
from collections import Counter
from typing import Any, Callable, Sequence, cast

import numpy as np

from repro.adversary.activation import (
    ActivationSchedule,
    ExplicitActivation,
    RandomActivation,
    SimultaneousActivation,
    StaggeredActivation,
    TrickleActivation,
)
from repro.adversary.jammers import (
    BurstyJammer,
    FixedBandJammer,
    LowBandJammer,
    NoInterference,
    RandomJammer,
    ReactiveJammer,
    SweepJammer,
    TwoNodeProductJammer,
)
from repro.engine.checker import PropertyReport, PropertyViolation
from repro.engine.metrics import ExecutionMetrics
from repro.engine.observers import TraceLevel
from repro.engine.pool import ReducedTrial, simulate_one, warn_fault_batch_fallback
from repro.engine.results import SimulationResult
from repro.engine.rng import derive_seed
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.protocols.base import BoundProtocolFactory, ProtocolContext
from repro.protocols.registry import protocol_factory
from repro.timestamps import draw_uid
from repro.types import Role

__all__ = ["batchable", "run_batch", "run_reduced_batch"]

#: Protocol state encoding shared by every batchable protocol's state machine.
_CONTENDER, _KNOCKED_OUT, _LEADER, _SYNCHRONIZED = 0, 1, 2, 3
_STATE_ROLES = (Role.CONTENDER, Role.KNOCKED_OUT, Role.LEADER, Role.SYNCHRONIZED)

#: The Trapdoor-family members the kernel replays, by registry name, and the
#: frequency rule each one tunes by.  The kernel reads a member's horizon,
#: probabilities and ``band_width`` off a probe, but re-implements its
#: ``frequency()``, ``leader_frequency()`` and ``contends()`` from the rule
#: below.  So a change to those hooks, a new override of them or of
#: ``choose_action``/``on_reception``, or a new draw needs matching kernel
#: support, or the member must leave this table.
_BATCHABLE_PROTOCOLS = {
    cast(BoundProtocolFactory, protocol_factory(name)).protocol_class: rule
    for name, rule in (
        ("trapdoor", "random-freq"),
        ("uniform-wakeup", "random-freq"),
        ("decay-wakeup", "random-freq"),
        ("single-channel", "single"),
        ("round-robin", "roundrobin"),
    )
}
_BATCHABLE_JAMMERS = (
    NoInterference,
    FixedBandJammer,
    RandomJammer,
    SweepJammer,
    BurstyJammer,
    ReactiveJammer,
    LowBandJammer,
    TwoNodeProductJammer,
)
_BATCHABLE_ACTIVATIONS = (
    SimultaneousActivation,
    StaggeredActivation,
    RandomActivation,
    ExplicitActivation,
    TrickleActivation,
)

#: Exact replica of CPython's ``random()`` mantissa assembly constants.
_RANDOM_SCALE = 1.0 / 9007199254740992.0  # 2**-53
_HUGE = np.iinfo(np.int64).max


class _WordStreams:
    """Word-exact vectorized replay of a set of ``random.Random`` streams.

    The streams are owned: nothing else may read them once they are handed
    over.  A stream's block is refilled with one ``getrandbits(32 * block)``
    call, which CPython assembles from the stream's next ``block`` 32-bit
    Mersenne Twister words, lowest word first, so its little-endian bytes
    are those words in order.  Words are then handed out one at a time per
    stream, so every stream's word sequence is identical to what successive
    ``getrandbits(32)`` calls would produce.  The higher-level helpers
    (:meth:`randbelow`, :meth:`randoms`) rebuild CPython's exact consumption
    patterns — including rejection re-draws — on top of that word tape.
    """

    __slots__ = ("_rngs", "_words", "_cursor", "_block")

    def __init__(self, rngs: Sequence[random.Random], block: int = 512) -> None:
        self._rngs = list(rngs)
        count = len(self._rngs)
        self._block = block
        self._words = np.zeros((max(count, 1), block), dtype=np.uint32)
        # Cursor starts exhausted: the first take() refills lazily, so streams
        # that are never consumed never generate a block.
        self._cursor = np.full(max(count, 1), block, dtype=np.int64)

    def take(self, ids: np.ndarray) -> np.ndarray:
        """One 32-bit word from each stream in ``ids`` (ids must be unique)."""
        cursor = self._cursor
        block = self._block
        exhausted = ids[cursor[ids] >= block]
        if exhausted.size:
            words = self._words
            rngs = self._rngs
            for index in exhausted.tolist():
                bits = rngs[index].getrandbits(32 * block)
                words[index] = np.frombuffer(bits.to_bytes(4 * block, "little"), dtype="<u4")
            cursor[exhausted] = 0
        positions = cursor[ids]
        out = self._words[ids, positions]
        cursor[ids] = positions + 1
        return out

    def randbelow(self, ids: np.ndarray, n: int) -> np.ndarray:
        """CPython's ``_randbelow_with_getrandbits(n)`` for each stream in ``ids``."""
        if n <= 0:  # pragma: no cover - callers guarantee n >= 1
            return np.zeros(len(ids), dtype=np.int64)
        k = n.bit_length()
        if k > 32:  # pragma: no cover - frequency draws never exceed 32 bits
            raise ConfigurationError(f"batched randbelow limited to 32-bit ranges, got {n}")
        shift = np.uint32(32 - k)
        # No power-of-two shortcut: ``bit_length`` of 2**m is m + 1, so even an
        # exact power of two rejects half its k-bit draws, exactly as CPython.
        result = np.zeros(len(ids), dtype=np.int64)
        pending = np.arange(len(ids))
        while pending.size:
            drawn = (self.take(ids[pending]) >> shift).astype(np.int64)
            accepted = drawn < n
            result[pending[accepted]] = drawn[accepted]
            pending = pending[~accepted]
        return result

    def randoms(self, ids: np.ndarray) -> np.ndarray:
        """CPython's ``random()`` (two words -> 53-bit float) per stream in ``ids``."""
        a = (self.take(ids) >> np.uint32(5)).astype(np.float64)
        b = (self.take(ids) >> np.uint32(6)).astype(np.float64)
        return (a * 67108864.0 + b) * _RANDOM_SCALE

    def sample_mask(self, ids: np.ndarray, population: np.ndarray, k: int, width: int) -> np.ndarray:
        """A membership mask replaying ``Random.sample(population, k)`` per stream.

        Returns a boolean array of shape ``(len(ids), width)`` with
        ``mask[i, value]`` set for each sampled value.  The word consumption
        replicates CPython's two ``sample`` branches exactly: the pool-copy
        branch for small populations and the rejection-set branch otherwise.
        """
        n = len(population)
        rows = len(ids)
        mask = np.zeros((rows, width), dtype=bool)
        if k <= 0 or rows == 0:
            return mask
        row_index = np.arange(rows)
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            pools = np.tile(population, (rows, 1))
            for i in range(k):
                j = self.randbelow(ids, n - i)
                mask[row_index, pools[row_index, j]] = True
                pools[row_index, j] = pools[row_index, n - i - 1]
        else:
            selected = np.zeros((rows, n), dtype=bool)
            for _ in range(k):
                chosen = np.zeros(rows, dtype=np.int64)
                pending = row_index
                while pending.size:
                    j = self.randbelow(ids[pending], n)
                    fresh = ~selected[pending, j]
                    chosen[pending[fresh]] = j[fresh]
                    pending = pending[~fresh]
                selected[row_index, chosen] = True
                mask[row_index, population[chosen]] = True
        return mask


@dataclass(frozen=True)
class _ProtocolProgram:
    """What the kernel replays of one family member, read from a probe instance.

    The round loop never touches protocol objects.  ``kind`` is the member's
    frequency rule: ``random-freq`` draws from ``[1 .. band_width]``,
    ``single`` stays on ``channel``, and ``roundrobin`` sweeps the band with
    uid-slotted contenders and random-frequency leaders.
    """

    kind: str  # "random-freq" | "single" | "roundrobin"
    horizon: int
    leader_probability: float
    contender_probability: Callable[[int], float]
    band_width: int
    channel: int
    slots: int


def _protocol_program(config: SimulationConfig) -> _ProtocolProgram:
    """Read the template's family member off a probe instance (may raise)."""
    factory = config.protocol_factory
    if type(factory) is not BoundProtocolFactory:
        raise ConfigurationError("not a registry-bound protocol factory")
    kind = _BATCHABLE_PROTOCOLS.get(factory.protocol_class)
    if kind is None:
        raise ConfigurationError(f"{factory.protocol_class.__name__} is not batchable")
    probe: Any = factory(
        ProtocolContext(params=config.params, rng=random.Random(0), uid=1, local_round=1)
    )
    return _ProtocolProgram(
        kind=kind,
        horizon=probe.victory_rounds,
        leader_probability=probe.leader_broadcast_probability,
        contender_probability=probe.contender_probability,
        band_width=probe.band_width,
        channel=probe.channel if kind == "single" else 0,
        slots=probe.slots if kind == "roundrobin" else 0,
    )


@dataclass(frozen=True)
class _JammerPlan:
    """How the template's jammer is replayed in the lockstep loop."""

    kind: str
    needs_rng: bool
    adaptive: bool
    static_mask: np.ndarray  # (F+1,) — shared deterministic part, if any
    count: int  # frequencies drawn randomly per round (random/bursty/lowband)
    others: np.ndarray  # lowband: the ascending non-prefix population
    step: int  # sweep
    on_rounds: int  # bursty
    period: int  # bursty


def _jammer_plan(config: SimulationConfig) -> _JammerPlan:
    """Build the disruption replay plan for the template's jammer (may raise)."""
    adversary = config.adversary
    params = config.params
    budget = params.disruption_budget
    band_size = params.frequencies
    empty = np.zeros(band_size + 1, dtype=bool)
    none = np.array([], dtype=np.int64)

    def plan(kind: str, **overrides: Any) -> _JammerPlan:
        values: dict[str, Any] = {
            "kind": kind,
            "needs_rng": False,
            "adaptive": False,
            "static_mask": empty,
            "count": 0,
            "others": none,
            "step": 1,
            "on_rounds": 0,
            "period": 1,
        }
        values.update(overrides)
        return _JammerPlan(**values)

    kind = type(adversary)
    if kind is NoInterference:
        return plan("none")
    if kind is FixedBandJammer:
        mask = empty.copy()
        mask[1 : min(budget, band_size - 1) + 1] = True
        return plan("fixed", static_mask=mask)
    if kind is RandomJammer:
        strength = adversary.strength  # type: ignore[attr-defined]
        count = budget if strength is None else min(strength, budget)
        if count <= 0:
            return plan("none")
        return plan("random", needs_rng=True, count=count)
    if kind is SweepJammer:
        if budget <= 0:
            return plan("none")
        return plan("sweep", step=adversary.step, count=budget)  # type: ignore[attr-defined]
    if kind is BurstyJammer:
        if budget <= 0:
            return plan("none")
        on = adversary.on_rounds  # type: ignore[attr-defined]
        period = on + adversary.off_rounds  # type: ignore[attr-defined]
        return plan("bursty", needs_rng=True, count=budget, on_rounds=on, period=max(period, 1))
    if kind is ReactiveJammer:
        if budget <= 0:
            return plan("none")
        return plan("reactive", adaptive=True, count=budget)
    if kind is TwoNodeProductJammer:
        if budget <= 0:
            return plan("none")
        return plan("twoprod", adaptive=True, count=budget)
    if kind is LowBandJammer:
        if budget <= 0:
            return plan("none")
        width = budget if adversary.prefix_width is None else adversary.prefix_width  # type: ignore[attr-defined]
        prefix = list(params.band.prefix(width))  # raises on width < 1, like the scalar path
        chosen = prefix[:budget]
        mask = empty.copy()
        mask[chosen] = True
        remaining = budget - len(chosen)
        if remaining <= 0:
            return plan("lowband", static_mask=mask)
        chosen_set = set(chosen)
        others = np.array(
            [f for f in params.band.all_frequencies() if f not in chosen_set], dtype=np.int64
        )
        return plan(
            "lowband",
            needs_rng=True,
            static_mask=mask,
            count=min(remaining, len(others)),
            others=others,
        )
    raise ConfigurationError(f"{kind.__name__} is not batchable")


def _programs(config: SimulationConfig) -> tuple[_ProtocolProgram, _JammerPlan] | None:
    """The template's protocol program and jammer plan, or ``None`` if not batchable."""
    if config.trace_level is not TraceLevel.NONE:
        return None
    if config.faults is not None:
        # Fault injection (churn/Byzantine/corruption) rewrites per-node state
        # mid-run — inherently scalar; the fallback loop handles it.
        return None
    if type(config.activation) not in _BATCHABLE_ACTIVATIONS:
        return None
    try:
        return _protocol_program(config), _jammer_plan(config)
    except ConfigurationError:
        return None


def batchable(config: SimulationConfig) -> bool:
    """Whether the lockstep kernel can replay ``config`` bit-identically.

    True only for trace-free configurations built from the batchable subset
    of the registries (see the module docstring).  A configuration that is
    *invalid* (e.g. a schedule whose effective band collapses) also reports
    False: the scalar fallback then raises exactly the error the scalar
    engine would.
    """
    return _programs(config) is not None


def _activation_rows(
    activation: ActivationSchedule, max_rounds: int
) -> tuple[list[int], np.ndarray]:
    """Node ids and activation rounds, in activation order, within the cap.

    The batchable schedules never consult the activation stream, so the
    layout is shared by every trial in the batch.
    """
    throwaway = random.Random(0)
    node_ids: list[int] = []
    rounds: list[int] = []
    for global_round in range(1, min(max_rounds, activation.last_activation_round()) + 1):
        for node_id in activation.activations_for_round(global_round, throwaway):
            node_ids.append(node_id)
            rounds.append(global_round)
    return node_ids, np.array(rounds, dtype=np.int64)


def _disruption_masks(
    plan: _JammerPlan,
    streams: _WordStreams,
    adversary_sids: np.ndarray,
    global_round: int,
    alive: np.ndarray,
    trials: int,
    band_size: int,
    cum_broadcasts: np.ndarray | None,
    cum_deliveries: np.ndarray | None,
) -> np.ndarray:
    """The per-trial disruption mask ``(trials, F+1)`` for one round.

    Random draws are taken only for trials still alive — finished trials
    consume no further adversary randomness, exactly like the scalar loop
    that stopped running them.
    """
    width = band_size + 1
    kind = plan.kind
    if kind in ("none", "fixed", "lowband") and not plan.needs_rng:
        return np.broadcast_to(plan.static_mask, (trials, width))
    if kind == "sweep":
        start = ((global_round - 1) * plan.step) % band_size
        mask = np.zeros(width, dtype=bool)
        mask[(start + np.arange(plan.count)) % band_size + 1] = True
        return np.broadcast_to(mask, (trials, width))
    disrupted = np.zeros((trials, width), dtype=bool)
    alive_idx = np.flatnonzero(alive)
    if alive_idx.size == 0:
        return disrupted
    if kind == "random":
        population = np.arange(1, band_size + 1, dtype=np.int64)
        disrupted[alive_idx] = streams.sample_mask(
            adversary_sids[alive_idx], population, plan.count, width
        )
        return disrupted
    if kind == "bursty":
        phase = (global_round - 1) % plan.period
        if phase >= plan.on_rounds:
            return disrupted
        population = np.arange(1, band_size + 1, dtype=np.int64)
        disrupted[alive_idx] = streams.sample_mask(
            adversary_sids[alive_idx], population, plan.count, width
        )
        return disrupted
    if kind == "lowband":
        disrupted[alive_idx] = plan.static_mask
        if plan.count > 0:
            disrupted[alive_idx] |= streams.sample_mask(
                adversary_sids[alive_idx], plan.others, plan.count, width
            )
        return disrupted
    # Adaptive jammers: rank by history through the previous round.  A stable
    # argsort on the negated usage counts reproduces the scalar tie-break
    # (ascending frequency index).
    assert cum_broadcasts is not None
    usage = cum_broadcasts[:, 1:]
    if kind == "twoprod":
        assert cum_deliveries is not None
        usage = usage + cum_deliveries[:, 1:]
    order = np.argsort(-usage, axis=1, kind="stable")
    np.put_along_axis(disrupted[:, 1:], order[:, : plan.count], True, axis=1)
    return disrupted


def _lockstep(
    config: SimulationConfig,
    seeds: Sequence[int],
    program: _ProtocolProgram,
    plan: _JammerPlan,
) -> list[SimulationResult]:
    """Run every seed of a batchable template in lockstep.  Bit-exact."""
    params = config.params
    band_size = params.frequencies
    width = band_size + 1
    trials = len(seeds)
    node_ids, activation_rounds = _activation_rows(config.activation, config.max_rounds)
    total_rows = len(node_ids)
    node_total = config.activation.node_count
    last_activation_bound = config.activation.last_activation_round()
    max_rounds = config.max_rounds

    # -- stream setup: uids first, then the kernel owns every stream -------
    rngs: list[random.Random] = []
    uid = np.zeros((trials, total_rows), dtype=np.int64)
    for t, seed in enumerate(seeds):
        for r, node_id in enumerate(node_ids):
            rng = random.Random(derive_seed(seed, "node", node_id))
            uid[t, r] = draw_uid(rng, params.participant_bound)
            rngs.append(rng)
    adversary_sids = np.array([], dtype=np.int64)
    if plan.needs_rng:
        adversary_sids = np.arange(trials, dtype=np.int64) + trials * total_rows
        for seed in seeds:
            rngs.append(random.Random(derive_seed(seed, "adversary")))
    streams = _WordStreams(rngs)
    node_sids = (
        np.arange(trials, dtype=np.int64)[:, None] * total_rows
        + np.arange(total_rows, dtype=np.int64)[None, :]
    )

    # -- lockstep state ----------------------------------------------------
    state = np.zeros((trials, total_rows), dtype=np.int64)
    adopted = np.zeros((trials, total_rows), dtype=bool)
    offset = np.zeros((trials, total_rows), dtype=np.int64)
    first_sync_round = np.zeros((trials, total_rows), dtype=np.int64)
    leader_ever = np.zeros((trials, total_rows), dtype=bool)
    synced_count = np.zeros(trials, dtype=np.int64)
    alive = np.ones(trials, dtype=bool)
    grace = np.full(trials, -1, dtype=np.int64)  # -1 = "no grace period running"
    rounds_simulated = np.zeros(trials, dtype=np.int64)
    metric_names = ("broadcasts", "deliveries", "collisions", "prevented", "disrupted")
    counters = {name: np.zeros(trials, dtype=np.int64) for name in metric_names}
    role_rounds = np.zeros((trials, 4), dtype=np.int64)
    violations: list[list[PropertyViolation]] = [[] for _ in range(trials)]
    cum_broadcasts = np.zeros((trials, width), dtype=np.int64) if plan.adaptive else None
    cum_deliveries = (
        np.zeros((trials, width), dtype=np.int64) if plan.kind == "twoprod" else None
    )

    trial_column = np.arange(trials, dtype=np.int64)[:, None]
    leader_probability = program.leader_probability
    # contender_probability[lr]: a contender's broadcast threshold at local
    # round lr (index 0 unused).  A node past the horizon is no contender, so
    # the table stops there; round-robin contenders follow their slots.
    horizon = min(program.horizon, max_rounds)
    if program.kind != "roundrobin":
        contender_probability = np.array(
            [0.0] + [program.contender_probability(lr) for lr in range(1, horizon + 1)]
        )
    stop_enabled = config.stop_when_synchronized
    extra_after_sync = config.extra_rounds_after_sync

    active_rows = 0
    for global_round in range(1, max_rounds + 1):
        if not alive.any():
            break
        while active_rows < total_rows and activation_rounds[active_rows] == global_round:
            active_rows += 1
        R = active_rows

        disrupted = _disruption_masks(
            plan,
            streams,
            adversary_sids,
            global_round,
            alive,
            trials,
            band_size,
            cum_broadcasts,
            cum_deliveries,
        )
        counters["disrupted"] += np.where(alive, disrupted[:, 1:].sum(axis=1), 0)

        if R > 0:
            state_r = state[:, :R]
            uid_r = uid[:, :R]
            local_round = global_round - activation_rounds[:R] + 1  # shared across trials
            act2d = alive[:, None] & np.ones(R, dtype=bool)[None, :]

            # Promotion: a contender that outlived its horizon becomes leader
            # and adopts its own activation age as the numbering.
            promoted = act2d & (state_r == _CONTENDER) & (local_round > program.horizon)
            if promoted.any():
                state_r[promoted] = _LEADER
                adopted[:, :R][promoted] = True
                offset[:, :R][promoted] = 0

            # Stage A: frequency draws, in each node's own stream.
            sids = node_sids[:, :R]
            frequency = np.zeros((trials, R), dtype=np.int64)
            if program.kind == "single":
                frequency[act2d] = program.channel
                needs_b = act2d & ((state_r == _CONTENDER) | (state_r == _LEADER))
            elif program.kind == "roundrobin":
                sweep = (local_round[None, :] + uid_r) % band_size + 1
                frequency = np.where(act2d, sweep, 0)
                leaders = act2d & (state_r == _LEADER)
                if leaders.any():
                    frequency[leaders] = 1 + streams.randbelow(sids[leaders], program.band_width)
                needs_b = leaders
            else:
                if act2d.any():
                    frequency[act2d] = 1 + streams.randbelow(sids[act2d], program.band_width)
                needs_b = act2d & ((state_r == _CONTENDER) | (state_r == _LEADER))

            # Stage B: broadcast-probability draws, after the frequency draw
            # in every stream, exactly like the scalar protocols.
            draws = np.zeros((trials, R), dtype=np.float64)
            if needs_b.any():
                draws[needs_b] = streams.randoms(sids[needs_b])
            if program.kind == "roundrobin":
                slot_hit = (local_round[None, :] % program.slots) == (uid_r % program.slots)
                broadcasting = (act2d & (state_r == _CONTENDER) & slot_hit) | (
                    needs_b & (draws < leader_probability)
                )
            else:
                threshold = np.where(
                    state_r == _CONTENDER,
                    contender_probability[np.minimum(local_round, horizon)][None, :],
                    leader_probability,
                )
                broadcasting = needs_b & (draws < threshold)

            # Reception, as in ``resolve_round``: a listener on a frequency with
            # exactly one broadcaster and no disruption gets that broadcaster's
            # message.  ``sender`` holds a broadcaster's row per (trial,
            # frequency): where ``counts`` is 1, the lone sender's.
            bt, br = np.nonzero(broadcasting)
            bf = frequency[bt, br]
            counts = np.zeros((trials, width), dtype=np.int64)
            np.add.at(counts, (bt, bf), 1)
            sender = np.zeros((trials, width), dtype=np.int64)
            sender[bt, bf] = br
            delivered = (counts == 1) & ~disrupted

            # Per-listener effects (broadcasters never receive): each listener
            # reads its sender's state, output and timestamp as they were
            # when the message went out.
            got = delivered[trial_column, frequency] & act2d & ~broadcasting
            source = sender[trial_column, frequency]
            from_leader = state_r[trial_column, source] == _LEADER
            message_ts_round = local_round[source]
            message_ts_uid = uid_r[trial_column, source]
            message_round = offset[:, :R][trial_column, source] + message_ts_round
            hears_leader = got & from_leader & (state_r != _LEADER)
            newly_adopting = hears_leader & ~adopted[:, :R]
            knocked_out = (
                got
                & ~from_leader
                & (state_r == _CONTENDER)
                & (
                    (message_ts_round > local_round[None, :])
                    | (
                        (message_ts_round == local_round[None, :])
                        & (message_ts_uid > uid_r)
                    )
                )
            )
            offset[:, :R][newly_adopting] = (message_round - local_round[None, :])[newly_adopting]
            adopted[:, :R][newly_adopting] = True
            state_r[hears_leader] = _SYNCHRONIZED
            state_r[knocked_out] = _KNOCKED_OUT

            # Outputs, latches, roles — mirrors the scalar post-reception pass.
            producing = act2d & adopted[:, :R]
            newly_synced = producing & (first_sync_round[:, :R] == 0)
            first_sync_round[:, :R][newly_synced] = global_round
            synced_count += newly_synced.sum(axis=1)
            leader_ever[:, :R] |= act2d & (state_r == _LEADER)
            for s in range(4):
                role_rounds[:, s] += (act2d & (state_r == s)).sum(axis=1)

            # Agreement: any trial with two distinct non-⊥ outputs this round.
            outputs_after = offset[:, :R] + local_round[None, :]
            lowest = np.where(producing, outputs_after, _HUGE).min(axis=1)
            highest = np.where(producing, outputs_after, -1).max(axis=1)
            disagreeing = alive & (lowest != _HUGE) & (highest > lowest)
            for t in np.flatnonzero(disagreeing):
                distinct = np.unique(outputs_after[t][producing[t]]).tolist()
                violations[t].append(
                    PropertyViolation(
                        property_name="agreement",
                        global_round=global_round,
                        node_id=None,
                        detail=f"distinct non-⊥ outputs {distinct} in the same round",
                    )
                )

            counters["broadcasts"] += broadcasting.sum(axis=1)
            counters["deliveries"] += delivered[:, 1:].sum(axis=1)
            counters["collisions"] += (counts[:, 1:] >= 2).sum(axis=1)
            counters["prevented"] += ((counts[:, 1:] == 1) & disrupted[:, 1:]).sum(axis=1)
            if cum_broadcasts is not None:
                cum_broadcasts += counts
            if cum_deliveries is not None:
                cum_deliveries += delivered.astype(np.int64)

        rounds_simulated[alive] = global_round

        if stop_enabled and R == node_total and global_round >= last_activation_bound and R > 0:
            stopping = alive & (synced_count == node_total)
            entering = stopping & (grace < 0)
            grace = np.where(entering, extra_after_sync, grace)
            finished = stopping & (grace <= 0)
            alive &= ~finished
            grace = np.where(stopping & ~finished, grace - 1, grace)
            grace = np.where(~stopping, -1, grace)
        else:
            grace[:] = -1

    # -- per-trial result assembly ----------------------------------------
    results: list[SimulationResult] = []
    for t in range(trials):
        rounds = int(rounds_simulated[t])
        row_count = int(np.searchsorted(activation_rounds, rounds, side="right"))
        sync_rounds = first_sync_round[t, :row_count]
        latencies = {
            node_ids[r]: int(sync_rounds[r] - activation_rounds[r] + 1)
            for r in range(row_count)
            if sync_rounds[r] > 0
        }
        roles = Counter(
            {
                _STATE_ROLES[s]: int(role_rounds[t, s])
                for s in range(4)
                if role_rounds[t, s] > 0
            }
        )
        leader_uids = uid[t, :row_count][leader_ever[t, :row_count]]
        metrics = ExecutionMetrics(
            rounds_simulated=rounds,
            broadcasts=int(counters["broadcasts"][t]),
            deliveries=int(counters["deliveries"][t]),
            collisions=int(counters["collisions"][t]),
            disrupted_frequency_rounds=int(counters["disrupted"][t]),
            disrupted_deliveries_prevented=int(counters["prevented"][t]),
            leader_count=int(np.unique(leader_uids).size),
            sync_latencies=latencies,
            role_rounds=roles,
            activation_rounds={
                node_ids[r]: int(activation_rounds[r]) for r in range(row_count)
            },
        )
        report = PropertyReport()
        report.violations.extend(violations[t])
        achieved = row_count > 0 and bool((sync_rounds > 0).all())
        report.liveness_achieved = achieved
        if achieved:
            report.synchronization_round = int(sync_rounds.max())
        else:
            unsynced = sorted(
                node_ids[r] for r in range(row_count) if sync_rounds[r] == 0
            )
            report.violations.append(
                PropertyViolation(
                    property_name="liveness",
                    global_round=0,
                    node_id=unsynced[0] if unsynced else None,
                    detail=(
                        f"{len(unsynced)} node(s) never synchronized within "
                        f"{rounds} rounds"
                    ),
                )
            )
        results.append(SimulationResult(trace=None, report=report, metrics=metrics))
    return results


def _in_pool_worker() -> bool:
    """Whether this process is a pool worker (its dispatch already warned)."""
    return multiprocessing.current_process().name != "MainProcess"


def run_batch(template: SimulationConfig, seeds: Sequence[int]) -> list[SimulationResult]:
    """Run a multi-seed batch, vectorized when possible, in seed order.

    Results are bit-identical to running each seed through the scalar engine
    (the golden equivalence suite pins this).  A template outside the
    batchable subset transparently falls back to the scalar loop.
    """
    seed_list = list(seeds)
    if not seed_list:
        return []
    programs = _programs(template)
    if programs is None:
        if template.faults is not None and not _in_pool_worker():
            warn_fault_batch_fallback(template.faults)
        return [simulate_one(template, seed) for seed in seed_list]
    return _lockstep(template, seed_list, *programs)


def run_reduced_batch(template: SimulationConfig, seeds: Sequence[int]) -> list[ReducedTrial]:
    """Like :func:`run_batch`, reduced to the campaign store's scalar rows."""
    return [
        ReducedTrial.from_result(seed, result)
        for seed, result in zip(seeds, run_batch(template, seeds))
    ]
