"""Vectorized batch simulation kernel: lockstep multi-seed execution.

The scalar engine (:mod:`repro.engine.simulator`) runs one trial at a time,
one Python-level round loop per seed.  For trace-free multi-seed sweeps —
campaign cells, search evaluations, benchmarks — the per-round interpreter
overhead multiplied across seeds dominates once the per-trial work is small.
This module removes it by running a whole *batch* of seeds in lockstep
through the round loop as structure-of-arrays numpy operations over a
``(trials, nodes)``-shaped state: per-round frequency choices, jammer
disruption masks, reception resolution, synchronization detection, and stop
conditions are all array ops.  Only live trials are stepped: a trial that
stops has its totals written out and its row compacted out of every working
array, so the remaining steps run on smaller arrays.

**Determinism is bit-exact.**  Every random draw comes from the very same
per-``(trial, component)`` :class:`random.Random` objects the scalar engine
would build (:mod:`repro.engine.rng`).  Node uids are drawn from them first;
after that the kernel owns the streams and reads them only in blocks of
32-bit words, which it consumes in exactly the order CPython's ``random()`` /
``getrandbits`` / ``Random.sample`` would (including rejection re-draws);
reading a window of words ahead changes nothing, because the words it does
not take stay unread.  The golden equivalence suite pins the batch kernel
against the scalar engine's recorded digests for every batchable
combination.

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

import bisect
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
from repro.engine.checker import PropertyViolation, agreement_violation, property_report
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
#: Planes of the kernel's per-(trial, frequency) tallies.
_BROADCASTS, _DELIVERIES, _COLLISIONS, _PREVENTED, _DISRUPTED = range(5)

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
    over.  Each stream has one slot of ``block + WINDOW`` words in a flat
    ``uint32`` tape and a cursor at its next unread word.  A refill moves the
    stream's unread words to the front of its slot and appends one
    ``getrandbits(32 * block)`` call, which CPython assembles from the
    stream's next ``block`` 32-bit Mersenne Twister words, lowest word first,
    so its little-endian bytes are those words in order; it repeats until the
    read fits.  Every stream's word sequence is therefore identical to what
    successive ``getrandbits(32)`` calls would produce.

    :meth:`randbelow` gathers a window of ``WINDOW`` words per stream, takes
    the first one CPython would accept and moves the cursor just past it;
    only streams whose whole window was rejected (under 1 in 256 at the worst
    rejection rate) read again.  :meth:`randoms` reads two words per stream.
    Words read ahead stay unread, so the helpers rebuild CPython's exact
    consumption — rejection re-draws included — on top of the tape.
    """

    #: Words ``randbelow`` reads per stream and pass.  A slot holds one block
    #: plus one window: a refill starts with fewer than ``WINDOW`` words left.
    WINDOW = 8

    __slots__ = ("_rngs", "_words", "_windows", "_cursor", "_end", "_block")

    def __init__(self, rngs: Sequence[random.Random], block: int = 512) -> None:
        self._rngs = list(rngs)
        self._block = block
        count = max(len(self._rngs), 1)
        slot = block + self.WINDOW
        self._words = np.zeros(count * slot, dtype=np.uint32)
        # Row p of this view is the window of words p .. p + WINDOW - 1.
        self._windows = np.lib.stride_tricks.sliding_window_view(self._words, self.WINDOW)
        # Cursor and end are positions on the tape: a stream's next unread
        # word and one past its last word read from the Python stream.  Both
        # start at the slot's front, so the first read refills lazily and a
        # stream that is never read never generates a block.
        self._cursor = np.arange(count, dtype=np.int64) * slot
        self._end = self._cursor.copy()

    def _ready(self, ids: np.ndarray, need: int) -> np.ndarray:
        """The cursors of ``ids``, each with at least ``need`` unread words behind it."""
        cursor = self._cursor[ids]
        unread = self._end[ids] - cursor
        if not ids.size or unread.min() >= need:
            return cursor
        short = unread < need
        words, rngs, block = self._words, self._rngs, self._block
        slot = block + self.WINDOW
        refills = zip(ids[short].tolist(), cursor[short].tolist(), unread[short].tolist())
        for index, start, left in refills:
            front = index * slot
            words[front : front + left] = words[start : start + left]
            while left < need:
                bits = rngs[index].getrandbits(32 * block)
                words[front + left : front + left + block] = np.frombuffer(
                    bits.to_bytes(4 * block, "little"), "<u4"
                )
                left += block
            self._cursor[index] = front
            self._end[index] = front + left
        return self._cursor[ids]

    def take(self, ids: np.ndarray) -> np.ndarray:
        """One 32-bit word from each stream in ``ids`` (ids must be unique)."""
        cursor = self._ready(ids, 1)
        self._cursor[ids] = cursor + 1
        return self._words[cursor]

    def randbelow(self, ids: np.ndarray, n: int) -> np.ndarray:
        """CPython's ``_randbelow_with_getrandbits(n)`` for each stream in ``ids``."""
        if n <= 0:  # pragma: no cover - callers guarantee n >= 1
            return np.zeros(len(ids), dtype=np.int64)
        k = n.bit_length()
        if k > 32:  # pragma: no cover - frequency draws never exceed 32 bits
            raise ConfigurationError(f"batched randbelow limited to 32-bit ranges, got {n}")
        # No power-of-two shortcut: ``bit_length`` of 2**m is m + 1, so even an
        # exact power of two rejects half its k-bit draws, exactly as CPython.
        cursor = self._ready(ids, self.WINDOW)
        drawn = self._windows[cursor] >> np.uint32(32 - k)
        accepted = drawn < n
        first = accepted.argmax(axis=1)
        picked = np.arange(0, accepted.size, self.WINDOW) + first
        hit = accepted.ravel()[picked]
        self._cursor[ids] = cursor + np.where(hit, first + 1, self.WINDOW)
        result = drawn.ravel()[picked].astype(np.int64)
        if not hit.all():
            missed = np.flatnonzero(~hit)
            result[missed] = self.randbelow(ids[missed], n)
        return result

    def randoms(self, ids: np.ndarray) -> np.ndarray:
        """CPython's ``random()`` (two words -> 53-bit float) per stream in ``ids``."""
        cursor = self._ready(ids, 2)
        self._cursor[ids] = cursor + 2
        a = (self._words[cursor] >> np.uint32(5)).astype(np.float64)
        b = (self._words[cursor + 1] >> np.uint32(6)).astype(np.float64)
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
    """How the template's jammer is replayed in the lockstep loop.

    ``kind`` is ``none``; ``static``, the same set every round; ``sweep``;
    ``sampled``, ``static_mask`` plus ``Random.sample(population, count)``
    in the first ``on_rounds`` rounds of every ``period``; or ``adaptive``,
    the ``count`` busiest frequencies so far, by broadcasts and, when
    ``deliveries`` is set, deliveries.
    """

    kind: str
    static_mask: np.ndarray  # (F+1,)
    population: np.ndarray
    count: int
    step: int = 1  # sweep
    on_rounds: int = 1  # sampled
    period: int = 1  # sampled
    deliveries: bool = False  # adaptive


def _jammer_plan(config: SimulationConfig) -> _JammerPlan:
    """Build the disruption replay plan for the template's jammer (may raise)."""
    adversary = config.adversary
    params = config.params
    budget = params.disruption_budget
    band_size = params.frequencies
    static = np.zeros(band_size + 1, dtype=bool)
    band = np.arange(1, band_size + 1, dtype=np.int64)
    none = _JammerPlan("none", static, band, 0)

    kind = type(adversary)
    if kind is NoInterference:
        return none
    if kind is FixedBandJammer:
        static[1 : min(budget, band_size - 1) + 1] = True
        return _JammerPlan("static", static, band, 0)
    if kind is RandomJammer:
        strength = cast(RandomJammer, adversary).strength
        count = budget if strength is None else min(strength, budget)
        return _JammerPlan("sampled", static, band, count) if count > 0 else none
    if kind not in _BATCHABLE_JAMMERS:
        raise ConfigurationError(f"{kind.__name__} is not batchable")
    if budget <= 0:
        return none
    jammer: Any = adversary
    if kind is SweepJammer:
        return _JammerPlan("sweep", static, band, budget, step=jammer.step)
    if kind is BurstyJammer:
        period = max(jammer.on_rounds + jammer.off_rounds, 1)
        return _JammerPlan("sampled", static, band, budget, on_rounds=jammer.on_rounds, period=period)
    if kind is not LowBandJammer:
        deliveries = kind is TwoNodeProductJammer
        return _JammerPlan("adaptive", static, band, budget, deliveries=deliveries)
    width = budget if jammer.prefix_width is None else jammer.prefix_width
    prefix = list(params.band.prefix(width))  # raises on width < 1, like the scalar path
    chosen = prefix[:budget]
    static[chosen] = True
    remaining = budget - len(chosen)
    if remaining <= 0:
        return _JammerPlan("static", static, band, 0)
    others = band[~static[1:]]
    return _JammerPlan("sampled", static, others, min(remaining, len(others)))


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


def _disruption_mask(
    plan: _JammerPlan,
    streams: _WordStreams,
    adversary_sids: np.ndarray,
    tallies: np.ndarray,
    global_round: int,
) -> np.ndarray | None:
    """The frequencies the jammer disrupts this round, per live trial.

    ``None`` when it disrupts nothing, else a mask over ``[0 .. F]``, shaped
    ``(trials, F+1)`` or broadcastable to it.  Only live trials draw, so a
    finished trial consumes no further adversary randomness, exactly like
    the scalar loop that stopped running it.
    """
    kind = plan.kind
    if kind == "static":
        return plan.static_mask
    if kind == "sweep":
        band_size = plan.static_mask.size - 1
        start = ((global_round - 1) * plan.step) % band_size
        mask = np.zeros(band_size + 1, dtype=bool)
        mask[(start + np.arange(plan.count)) % band_size + 1] = True
        return mask
    if kind == "sampled":
        if (global_round - 1) % plan.period >= plan.on_rounds:
            return None
        sampled = streams.sample_mask(
            adversary_sids, plan.population, plan.count, plan.static_mask.size
        )
        return sampled | plan.static_mask
    if kind == "adaptive":
        # Rank by history through the previous round.  A stable argsort on the
        # negated usage counts reproduces the scalar tie-break (ascending
        # frequency index).
        usage = tallies[:, _BROADCASTS, 1:]
        if plan.deliveries:
            usage = usage + tallies[:, _DELIVERIES, 1:]
        mask = np.zeros((len(tallies), plan.static_mask.size), dtype=bool)
        order = np.argsort(-usage, axis=1, kind="stable")
        np.put_along_axis(mask[:, 1:], order[:, : plan.count], True, axis=1)
        return mask
    return None


def _lockstep(
    config: SimulationConfig,
    seeds: Sequence[int],
    program: _ProtocolProgram,
    plan: _JammerPlan,
) -> list[SimulationResult]:
    """Run every seed of a batchable template in lockstep.  Bit-exact.

    The working arrays hold one row per live trial.  When a trial stops, its
    totals go to the per-trial result arrays and its row leaves every
    working array, so it draws no further words and costs no further work.
    """
    params = config.params
    band_size = params.frequencies
    width = band_size + 1
    trials = len(seeds)
    node_ids, activation_rounds = _activation_rows(config.activation, config.max_rounds)
    rows = len(node_ids)
    node_total = config.activation.node_count
    last_activation = config.activation.last_activation_round()
    max_rounds = config.max_rounds

    # -- stream setup: uids first, then the kernel owns every stream -------
    rngs: list[random.Random] = []
    uids: list[int] = []
    for seed in seeds:
        for node_id in node_ids:
            rng = random.Random(derive_seed(seed, "node", node_id))
            uids.append(draw_uid(rng, params.participant_bound))
            rngs.append(rng)
    if plan.kind == "sampled":
        rngs.extend(random.Random(derive_seed(seed, "adversary")) for seed in seeds)
    streams = _WordStreams(rngs)
    all_uids = np.array(uids, dtype=np.int64).reshape(trials, rows)

    # -- per-trial results, written as each trial stops --------------------
    rounds = np.full(trials, max_rounds, dtype=np.int64)
    totals = np.zeros((trials, 5), dtype=np.int64)  # summed tallies
    role_totals = np.zeros((trials, 4), dtype=np.int64)
    first_sync = np.zeros((trials, rows), dtype=np.int64)
    leader = np.zeros((trials, rows), dtype=bool)
    violations: list[list[PropertyViolation]] = [[] for _ in range(trials)]
    # A leader numbers rounds by its own local round, and a node that hears
    # one adopts that numbering for good; nobody renumbers.  So an adopted
    # node outputs ``global_round + 1 - origin``, where ``origin`` is the
    # activation round of the leader it follows, and a trial disagrees from
    # the round its adopted nodes first follow two origins.
    origins: list[set[int]] = [set() for _ in range(trials)]
    disagreeing: set[int] = set()

    def adopt(ids: np.ndarray, node_rows: np.ndarray, origin: np.ndarray, round_: int) -> None:
        first_sync[ids, node_rows] = round_
        for trial, origin_round in zip(ids.tolist(), origin.tolist()):
            followed = origins[trial]
            followed.add(origin_round)
            if len(followed) > 1:
                disagreeing.add(trial)

    # -- working arrays, one row per live trial ----------------------------
    lane = np.arange(trials)  # each live trial's row in the result arrays
    state = np.zeros((trials, rows), dtype=np.int8)  # every node starts a contender
    uid = all_uids
    sids = np.arange(trials * rows, dtype=np.int64).reshape(trials, rows)
    adversary_sids = trials * rows + lane
    due = np.full(trials, _HUGE)  # the round a synchronized trial stops at
    # Broadcasts, deliveries, collisions, prevented deliveries and
    # disruptions per frequency: the adaptive jammers' history, and summed
    # over the band, the trial's counters.
    tallies = np.zeros((trials, 5, width), dtype=np.int64)
    roles = np.zeros((trials, 4), dtype=np.int64)
    cell_base = lane[:, None] * width
    role_base = lane[:, None] * 4

    activated = activation_rounds.tolist()
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

    R = ripe = 0
    for global_round in range(1, max_rounds + 1):
        while R < rows and activated[R] == global_round:
            R += 1
        live = lane.size

        disrupted = _disruption_mask(plan, streams, adversary_sids, tallies, global_round)
        if disrupted is not None:
            tallies[:, _DISRUPTED] += disrupted
        if R == 0:
            continue
        state_r = state[:, :R]
        local_round = global_round + 1 - activation_rounds[:R]  # shared across trials

        # Promotion: a contender whose local round passes the horizon becomes
        # leader.  Only rows activated exactly ``horizon`` rounds ago cross it.
        crossed = ripe
        while ripe < R and activated[ripe] + program.horizon <= global_round:
            ripe += 1
        if ripe > crossed:
            pt, pr = (state[:, crossed:ripe] == _CONTENDER).nonzero()
            pr += crossed
            state[pt, pr] = _LEADER
            leader[lane[pt], pr] = True
            adopt(lane[pt], pr, activation_rounds[pr], global_round)

        # Frequency draws, then broadcast coins, in each node's own stream.
        sids_r = sids[:, :R]
        contending = state_r == _CONTENDER
        leading = state_r == _LEADER
        drawing = contending | leading
        if program.kind == "random-freq":
            frequency = 1 + streams.randbelow(sids_r.ravel(), program.band_width).reshape(live, R)
        elif program.kind == "single":
            frequency = np.full((live, R), program.channel)
        else:
            frequency = (local_round + uid[:, :R]) % band_size + 1
            frequency[leading] = 1 + streams.randbelow(sids_r[leading], program.band_width)
            drawing = leading
        coin = np.full((live, R), np.inf)
        coin[drawing] = streams.randoms(sids_r[drawing])
        if program.kind == "roundrobin":
            slot_hit = local_round % program.slots == uid[:, :R] % program.slots
            broadcasting = (contending & slot_hit) | (coin < leader_probability)
        else:
            threshold = np.where(
                contending,
                contender_probability[np.minimum(local_round, horizon)],
                leader_probability,
            )
            broadcasting = coin < threshold

        # Reception, as in ``resolve_round``: a listener on a frequency with
        # exactly one broadcaster and no disruption gets that broadcaster's
        # message.  Cells are ``(trial, frequency)`` pairs, flattened.
        cells = cell_base + frequency
        bt, br = broadcasting.nonzero()
        sent = cells[bt, br]
        counts = np.bincount(sent, minlength=live * width).reshape(live, width)
        sender = np.empty(live * width, dtype=np.int64)  # read only where counts is 1
        sender[sent] = br
        lone = counts == 1
        delivered = lone
        if disrupted is not None:
            delivered = lone & ~disrupted
            tallies[:, _PREVENTED] += lone & disrupted
        tallies[:, _BROADCASTS] += counts
        tallies[:, _DELIVERIES] += delivered
        tallies[:, _COLLISIONS] += counts >= 2
        got = delivered.ravel()[cells] & ~broadcasting

        # Listener effects, on the listeners that got a message: each reads
        # its sender's state and timestamp as they were when it went out.
        gt, gr = got.nonzero()
        if gt.size:
            source = sender[cells[gt, gr]]
            own = state_r[gt, gr]
            from_leader = state_r[gt, source] == _LEADER
            hears_leader = from_leader & (own != _LEADER)
            newer = (activation_rounds[source] < activation_rounds[gr]) | (
                (activation_rounds[source] == activation_rounds[gr])
                & (uid[gt, source] > uid[gt, gr])
            )
            knocked_out = ~from_leader & (own == _CONTENDER) & newer
            state_r[gt, gr] = np.where(
                hears_leader, _SYNCHRONIZED, np.where(knocked_out, _KNOCKED_OUT, own)
            )
            adopting = hears_leader & (own != _SYNCHRONIZED)
            if adopting.any():
                leaders = source[adopting]
                adopt(lane[gt[adopting]], gr[adopting], activation_rounds[leaders], global_round)

        for trial in disagreeing:
            violations[trial].append(
                agreement_violation(global_round, [global_round + 1 - a for a in origins[trial]])
            )
        tally = np.bincount((role_base + state_r).ravel(), minlength=4 * live).reshape(live, 4)
        roles += tally

        if stop_enabled and R == node_total and global_round >= last_activation:
            synchronized = tally[:, _CONTENDER] + tally[:, _KNOCKED_OUT] == 0
            due = np.where(synchronized, np.minimum(due, global_round + extra_after_sync), due)
            finished = due <= global_round
            if finished.any():
                # Flush the finished trials' totals, then drop their rows
                # from every working array.
                done = lane[finished]
                rounds[done] = global_round
                totals[done] = tallies[finished].sum(axis=2)
                role_totals[done] = roles[finished]
                disagreeing.difference_update(done.tolist())
                keep = ~finished
                lane, state, uid, sids, adversary_sids, due, tallies, roles = (
                    array[keep]
                    for array in (lane, state, uid, sids, adversary_sids, due, tallies, roles)
                )
                if not lane.size:
                    break
                cell_base = np.arange(lane.size)[:, None] * width
                role_base = np.arange(lane.size)[:, None] * 4
    totals[lane] = tallies.sum(axis=2)
    role_totals[lane] = roles

    # -- per-trial result assembly ----------------------------------------
    results: list[SimulationResult] = []
    for t, (trial_rounds, role_total, total) in enumerate(
        zip(rounds.tolist(), role_totals.tolist(), totals.tolist())
    ):
        row_count = bisect.bisect_right(activated, trial_rounds)
        sync_rounds = first_sync[t, :row_count].tolist()
        broadcasts, deliveries, collisions, prevented, disrupted_rounds = total
        metrics = ExecutionMetrics(
            rounds_simulated=trial_rounds,
            broadcasts=broadcasts,
            deliveries=deliveries,
            collisions=collisions,
            disrupted_frequency_rounds=disrupted_rounds,
            disrupted_deliveries_prevented=prevented,
            leader_count=len(set(all_uids[t, :row_count][leader[t, :row_count]].tolist())),
            sync_latencies={
                node_ids[r]: sync - activated[r] + 1 for r, sync in enumerate(sync_rounds) if sync
            },
            role_rounds=Counter(
                {_STATE_ROLES[s]: count for s, count in enumerate(role_total) if count > 0}
            ),
            activation_rounds={node_ids[r]: activated[r] for r in range(row_count)},
        )
        report = property_report(
            violations[t],
            {node_ids[r]: sync or None for r, sync in enumerate(sync_rounds)},
            trial_rounds,
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
