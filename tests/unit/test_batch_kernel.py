"""Golden-output equivalence suite for the vectorized batch kernel.

:mod:`repro.engine.batch` re-implements the trace-free round loop as numpy
array ops over a whole chunk of seeds at once.  Speed is the only thing it is
allowed to change: for every batchable configuration the kernel must replay
the scalar engine's randomness in exact consumption order and land on
bit-identical results.

This suite pins that equivalence four ways:

* the kernel's word streams are compared draw for draw with clones of the
  same ``random.Random`` objects, at block sizes small enough that every
  read crosses many refills and smaller than the lookahead window;
* every batchable ``protocol|jammer|activation`` combination of the golden
  matrix (the same matrix :mod:`tests.unit.test_engine_equivalence` pins,
  trace-free) is digest-compared against goldens recorded from the *scalar*
  engine — the kernel never gets to define its own truth;
* multi-seed lockstep execution is compared seed-for-seed against scalar
  runs, so compacting early-finished trials out of the working arrays
  provably cannot bleed state across lanes;
* the pooled/campaign plumbing (``batch=True``) is compared row-for-row
  against the serial scalar path, down to the bytes SQLite hands back.

Regenerate the goldens (from the scalar engine, deliberately) with::

    PYTHONPATH=src python tests/unit/test_batch_kernel.py --regen
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.adversary.registry import ADVERSARY_FACTORIES
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.engine import batch
from repro.engine.batch import _WordStreams, batchable, run_batch, run_reduced_batch
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool, ReducedTrial, _run_chunk
from repro.engine.runner import run_reduced_trials
from repro.engine.serialization import execution_digest
from repro.engine.simulator import SimulationConfig, simulate
from repro.protocols.base import ProtocolContext
from repro.protocols.registry import protocol_factory
from repro.protocols.trapdoor.protocol import TrapdoorProtocol

# The same pinned matrix the scalar golden suite uses (tests/unit is not a
# package: both under pytest's rootdir import mode and as a __main__ script,
# sibling test modules import flat by module name).
from test_engine_equivalence import ACTIVATIONS, MAX_ROUNDS, PARAMS, SEED, matrix_keys

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "engine_equivalence_batch.json"


def config_for(key: str, seed: int = SEED) -> SimulationConfig:
    """The trace-free configuration one matrix key names (batch kernel scope)."""
    protocol, jammer, activation = key.split("|")
    return SimulationConfig(
        params=PARAMS,
        protocol_factory=protocol_factory(protocol),
        activation=ACTIVATIONS[activation],
        adversary=ADVERSARY_FACTORIES[jammer](),
        max_rounds=MAX_ROUNDS,
        seed=seed,
        trace_level=TraceLevel.NONE,
    )


def batchable_keys() -> list[str]:
    """The deterministically ordered batchable slice of the golden matrix."""
    return [key for key in matrix_keys() if batchable(config_for(key))]


def load_goldens() -> dict[str, str]:
    with GOLDEN_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def goldens() -> dict[str, str]:
    assert GOLDEN_PATH.exists(), (
        f"golden file {GOLDEN_PATH} is missing; regenerate with "
        "`PYTHONPATH=src python tests/unit/test_batch_kernel.py --regen`"
    )
    return load_goldens()


class TestBatchableProbe:
    def test_batchable_matrix_is_pinned(self, goldens):
        """The batchable slice of the matrix is stable — and the goldens cover it.

        Every registered batchable protocol rides the kernel for every jammer
        and activation; a newly registered protocol/jammer must either gain a
        golden entry here or be (deliberately) classified scalar-only.
        """
        keys = batchable_keys()
        assert sorted(goldens) == keys
        batchable_protocols = {key.split("|")[0] for key in keys}
        assert batchable_protocols == {
            "decay-wakeup", "round-robin", "single-channel", "trapdoor", "uniform-wakeup",
        }
        # Every jammer and activation appears: nothing silently drops to scalar.
        assert {key.split("|")[1] for key in keys} == set(ADVERSARY_FACTORIES)
        assert {key.split("|")[2] for key in keys} == set(ACTIVATIONS)

    def test_traced_configurations_are_not_batchable(self):
        key = batchable_keys()[0]
        protocol, jammer, activation = key.split("|")
        traced = SimulationConfig(
            params=PARAMS,
            protocol_factory=protocol_factory(protocol),
            activation=ACTIVATIONS[activation],
            adversary=ADVERSARY_FACTORIES[jammer](),
            max_rounds=MAX_ROUNDS,
            seed=SEED,
            trace_level=TraceLevel.FULL,
        )
        assert not batchable(traced)


class TestWordStreams:
    """``_WordStreams`` against clones of the very streams it reads.

    Blocks of at most 5 words make every run of reads cross many refills, and each
    stream is first advanced by an odd-length ``getrandbits`` (as
    ``draw_uid`` does), so no refill starts at Mersenne Twister position 0.
    """

    STREAMS = 6

    @classmethod
    def streams(
        cls, count: int = STREAMS, block: int = 5
    ) -> tuple[_WordStreams, list[random.Random]]:
        rngs = []
        for index in range(count):
            rng = random.Random(1_000 + index)
            rng.getrandbits(2 * index + 7)
            rngs.append(rng)
        clones = []
        for rng in rngs:
            clone = random.Random()
            clone.setstate(rng.getstate())
            clones.append(clone)
        return _WordStreams(rngs, block=block), clones

    def test_take_equals_successive_getrandbits(self):
        streams, clones = self.streams()
        for step in range(60):
            # A varying subset, so the streams' cursors drift apart.
            ids = np.array([i for i in range(self.STREAMS) if (i + step) % 3], dtype=np.int64)
            assert streams.take(ids).tolist() == [clones[i].getrandbits(32) for i in ids]

    def test_randbelow_equals_randrange(self):
        streams, clones = self.streams()
        ids = np.arange(self.STREAMS, dtype=np.int64)
        for n in range(1, 41):
            for _ in range(3):
                assert streams.randbelow(ids, n).tolist() == [c.randrange(n) for c in clones], n

    def test_randoms_equal_random(self):
        streams, clones = self.streams()
        ids = np.arange(self.STREAMS, dtype=np.int64)
        for _ in range(30):
            assert streams.randoms(ids).tolist() == [c.random() for c in clones]

    @pytest.mark.parametrize(
        "population, k",
        [
            (list(range(1, 9)), 3),  # n <= setsize: CPython copies a pool
            ([2, 3, 5, 7, 11, 13, 17], 6),  # pool branch, values that are not indices
            (list(range(1, 31)), 3),  # n > setsize: CPython rejects repeats via a set
            (list(range(3, 200, 2)), 7),  # rejection branch with the larger k > 5 set
        ],
    )
    def test_sample_mask_equals_sample(self, population, k):
        streams, clones = self.streams()
        ids = np.arange(self.STREAMS, dtype=np.int64)
        values = np.array(population, dtype=np.int64)
        width = max(population) + 1
        for _ in range(12):
            mask = streams.sample_mask(ids, values, k, width)
            for row, clone in enumerate(clones):
                assert np.flatnonzero(mask[row]).tolist() == sorted(clone.sample(population, k))
            # Both sides consumed the same words: the next ones still agree.
            assert streams.take(ids).tolist() == [c.getrandbits(32) for c in clones]

    @pytest.mark.parametrize("block", [1, 3, 5])
    def test_interleaved_reads_across_refills(self, block):
        """Every read kind, on shifting subsets of many streams, with tiny blocks.

        ``randbelow(2**m + 1)`` rejects just under half its draws, so some
        streams reject several words in a row and read past a refill while
        their neighbours accept at once; blocks smaller than any lookahead
        make each such read span refills.
        """
        count = 200
        streams, clones = self.streams(count, block)
        picker = random.Random(block)
        for step in range(150):
            ids = np.array(
                sorted(picker.sample(range(count), picker.randint(1, count))), dtype=np.int64
            )
            read = step % 3
            if read == 0:
                n = 2 ** (step // 3 % 7 + 1) + 1
                expected = [clones[i].randrange(n) for i in ids]
                assert streams.randbelow(ids, n).tolist() == expected, (step, n)
            elif read == 1:
                assert streams.randoms(ids).tolist() == [clones[i].random() for i in ids], step
            else:
                assert streams.take(ids).tolist() == [clones[i].getrandbits(32) for i in ids], step


class TestGoldenEquivalence:
    @pytest.mark.parametrize("key", batchable_keys())
    def test_batch_kernel_matches_scalar_golden(self, key, goldens):
        """The kernel reproduces the scalar engine's recorded output bit-for-bit."""
        assert key in goldens, f"no golden recorded for {key}; regenerate the golden file"
        config = config_for(key)
        assert batchable(config)
        [result] = run_batch(config, [SEED])
        assert execution_digest(result) == goldens[key], (
            f"batch-kernel digest changed for {key}: the lockstep kernel no longer "
            "reproduces the scalar engine (metrics, latencies, or checker verdicts differ)"
        )

    @pytest.mark.parametrize(
        "key",
        [
            "trapdoor|random|staggered",
            "trapdoor|reactive|trickle",
            "uniform-wakeup|sweep|simultaneous",
            "decay-wakeup|bursty|staggered",
            "single-channel|low-band|trickle",
            "round-robin|two-node-product|staggered",
        ],
    )
    def test_multi_seed_lockstep_matches_scalar_per_seed(self, key):
        """A whole lockstep chunk equals the seed-by-seed scalar runs.

        Seeds finish at different rounds, so this is the test that pins the
        compaction of finished trials: a finished lane consuming (or starving)
        one word of anyone's randomness, or a row whose state moves to another
        lane, would shift every digest after it.
        """
        seeds = [7, 3, 11, 0, 25, 11 + 64, 2, 19]
        batch_results = run_batch(config_for(key), seeds)
        for seed, batched in zip(seeds, batch_results):
            scalar = simulate(config_for(key, seed=seed))
            assert execution_digest(batched) == execution_digest(scalar), (
                f"lockstep seed {seed} diverged from the scalar engine for {key}"
            )

    def test_non_batchable_template_falls_back_to_scalar(self):
        """run_batch on a scalar-only protocol is exactly the scalar engine."""
        config = SimulationConfig(
            params=PARAMS,
            protocol_factory=protocol_factory("good-samaritan"),
            activation=ACTIVATIONS["simultaneous"],
            adversary=ADVERSARY_FACTORIES["random"](),
            max_rounds=MAX_ROUNDS,
            seed=SEED,
            trace_level=TraceLevel.NONE,
        )
        assert not batchable(config)
        [fallback] = run_batch(config, [SEED])
        assert execution_digest(fallback) == execution_digest(simulate(config))

    def test_run_batch_builds_each_program_once(self, monkeypatch):
        """One kernel call builds the template's programs once, probe included.

        The kernel builds a contender-probability table per call, up to the
        contention horizon (no contender outlives it), so a second build is
        pure waste; a pool chunk, which runs the kernel and then reports
        whether it did, builds it once too.  The counters also see a
        non-batchable template fall back without building a program.
        """
        built = {"protocol": 0, "jammer": 0}

        def counted(name, original):
            def build(config):
                built[name] += 1
                return original(config)

            return build

        monkeypatch.setattr(batch, "_protocol_program", counted("protocol", batch._protocol_program))
        monkeypatch.setattr(batch, "_jammer_plan", counted("jammer", batch._jammer_plan))
        key = "trapdoor|random|staggered"
        seeds = [0, 5, 9]
        for calls in (1, 2):
            results = run_batch(config_for(key), seeds)
            assert built == {"protocol": calls, "jammer": calls}
        for seed, batched in zip(seeds, results):
            assert execution_digest(batched) == execution_digest(simulate(config_for(key, seed)))

        built.update(protocol=0, jammer=0)
        traced = replace(config_for(key), trace_level=TraceLevel.FULL)
        [fallback] = run_batch(traced, [SEED])
        assert built == {"protocol": 0, "jammer": 0}
        assert execution_digest(fallback) == execution_digest(simulate(traced))

        lookups: list[int] = []
        original = TrapdoorProtocol.contender_probability

        def looked_up(protocol, local_round):
            lookups.append(local_round)
            return original(protocol, local_round)

        monkeypatch.setattr(TrapdoorProtocol, "contender_probability", looked_up)
        chunk = _run_chunk(((config_for(key), (0, 1, 2, 3)),), True, True)
        horizon = TrapdoorProtocol(
            ProtocolContext(params=PARAMS, rng=random.Random(0), uid=1, local_round=1)
        ).victory_rounds
        assert horizon < MAX_ROUNDS
        assert lookups == list(range(1, horizon + 1))
        assert (chunk.stats.batch_trials, chunk.stats.scalar_trials) == (4, 0)
        assert list(chunk.rows) == run_reduced_batch(config_for(key), [0, 1, 2, 3])
        chunk = _run_chunk(((traced, (0, 1)),), True, True)
        assert (chunk.stats.batch_trials, chunk.stats.scalar_trials) == (0, 2)

        # A run shorter than the horizon stops the table at ``max_rounds``.
        lookups.clear()
        short = replace(config_for(key), max_rounds=horizon // 2)
        results = run_batch(short, seeds)
        assert lookups == list(range(1, horizon // 2 + 1))
        for seed, batched in zip(seeds, results):
            assert execution_digest(batched) == execution_digest(simulate(replace(short, seed=seed)))


class TestPlumbing:
    def test_reduced_batch_rows_equal_scalar_reduction(self):
        config = config_for("trapdoor|random|staggered")
        seeds = [0, 1, 2, 3]
        reduced = run_reduced_batch(config, seeds)
        expected = [
            ReducedTrial.from_result(seed, simulate(config_for("trapdoor|random|staggered", seed)))
            for seed in seeds
        ]
        assert reduced == expected

    def test_pooled_batch_execution_matches_serial_scalar(self):
        """``batch=True`` through the persistent pool changes nothing but speed.

        Both full results and in-worker-reduced rows, same insertion order —
        the property that lets campaign stores and search scores turn the
        kernel on without invalidating anything recorded before.
        """
        seeds = [4, 0, 9, 2]
        keys = ["trapdoor|random|staggered", "round-robin|sweep|trickle"]
        with ExecutionPool(workers=2, chunk_size=2) as pool:
            for key in keys:
                batched = pool.run_seeds(config_for(key), seeds, batch=True)
                for seed, result in zip(seeds, batched):
                    assert execution_digest(result) == execution_digest(
                        simulate(config_for(key, seed))
                    )
                reduced = pool.run_seeds(config_for(key), seeds, reduce=True, batch=True)
                assert reduced == [
                    ReducedTrial.from_result(seed, simulate(config_for(key, seed)))
                    for seed in seeds
                ]

    def test_run_reduced_trials_batch_flag_is_invisible_in_the_rows(self):
        from repro.experiments.workloads import quiet_start

        workload = quiet_start(4)
        config = SimulationConfig(
            params=PARAMS,
            protocol_factory=protocol_factory("trapdoor"),
            activation=workload.activation,
            adversary=workload.adversary,
            max_rounds=MAX_ROUNDS,
            seed=0,
            trace_level=TraceLevel.NONE,
        )
        serial = run_reduced_trials(config, seeds=range(5))
        batched = run_reduced_trials(config, seeds=range(5), plan=ExecutionPlan(batch=True))
        assert batched == serial

    def test_campaign_store_rows_are_byte_identical_serial_vs_batch(self, tmp_path):
        """A ``--batch`` campaign persists the exact bytes a serial one does.

        The grid deliberately mixes a batchable protocol (trapdoor) with a
        scalar-only one (good-samaritan), so both the kernel path and the
        transparent fallback are driven through the store; cells must come
        back in identical insertion order with identical trial rows.
        """
        spec = dict(
            protocols=("trapdoor", "good-samaritan"),
            workloads=("quiet_start",),
            frequencies=(4,),
            budgets=(1,),
            participants=(8,),
            node_counts=(2, 3),
            seeds=2,
            max_rounds=5_000,
        )
        with ResultStore(tmp_path / "serial.db") as serial_store:
            with CampaignRunner(CampaignSpec(name="s", **spec), serial_store) as runner:
                assert runner.run().complete
            serial_cells = list(serial_store.iter_cells())
        with ResultStore(tmp_path / "batch.db") as batch_store:
            with CampaignRunner(
                CampaignSpec(name="s", **spec), batch_store, plan=ExecutionPlan(batch=True)
            ) as runner:
                assert runner.run().complete
            batch_cells = list(batch_store.iter_cells())
        assert batch_cells == serial_cells


def regenerate() -> None:
    """Record the *scalar* engine's trace-free digest for every batchable key.

    The goldens are deliberately computed by :func:`simulate`, not the kernel:
    they pin the kernel to the scalar engine, never to itself.
    """
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    goldens = {key: execution_digest(simulate(config_for(key))) for key in batchable_keys()}
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} golden digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
