"""The resumable search driver, plus status and export read-backs.

:class:`StrategySearch` runs the ask–evaluate–tell loop: each generation's
candidates are looked up in the checkpoint store first (content-hashed
dedup), only the missing ones are evaluated live, as one group through the
campaign runner's :func:`~repro.campaigns.runner.run_missing`, and every
fresh evaluation is committed atomically, in candidate order.  Kill the
process anywhere and re-run the same spec on the same store: cached
generations replay instantly, proposals re-derive from the master seed, and
the resumed search is bit-identical to an uninterrupted one — same
candidates, same scores, same best strategy.

:func:`search_status` and :func:`export_search` reconstruct a search's state
purely from the store (no live evaluation), which is what the CLI's
``search status`` / ``search export`` subcommands print.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.campaigns.runner import check_run_cap, run_missing
from repro.campaigns.store import ResultStore
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool, ReducedTrial
from repro.exceptions import ExperimentError
from repro.search.checkpoint import SearchCheckpoint, SearchSpec
from repro.search.optimizers import CandidateOutcome, make_optimizer
from repro.search.space import StrategySpace
from repro.telemetry import Telemetry, as_telemetry
from repro.telemetry.events import (
    BestCandidateImproved,
    GenerationCompleted,
    SearchCompleted,
    SearchStarted,
)

logger = logging.getLogger("repro.search.runner")


@dataclass(frozen=True)
class SearchResult:
    """The outcome of one :meth:`StrategySearch.run` invocation.

    Attributes
    ----------
    spec:
        The search spec that ran.
    best:
        The best-scoring candidate seen (ties keep the earliest), or None
        when the run stopped before any evaluation.
    evaluations_total:
        Distinct candidates in the store after this invocation.
    executed:
        Candidates evaluated live by this invocation.
    reused:
        Candidate lookups served from the checkpoint store.
    generations_completed:
        Fully processed generations (including the warm start).
    complete:
        True once every generation of the spec has been processed.
    """

    spec: SearchSpec
    best: Optional[CandidateOutcome]
    evaluations_total: int
    executed: int
    reused: int
    generations_completed: int
    complete: bool

    def describe(self) -> str:
        """One-line progress summary for logs and the CLI."""
        state = "complete" if self.complete else "stopped (resume by re-running)"
        best = f"best score {self.best.score:g}" if self.best is not None else "no best yet"
        return (
            f"{self.generations_completed} generation(s), {self.evaluations_total} "
            f"evaluation(s) stored ({self.executed} executed now, {self.reused} reused); "
            f"{best}; {state}"
        )


class StrategySearch:
    """Runs a search spec against a checkpoint store.

    Parameters
    ----------
    spec:
        The declarative search description.
    store:
        The persistent result store evaluations checkpoint into.
    pool:
        Optional externally owned pool to share with other subsystems;
        overrides the plan's worker count for dispatch.  The search never
        shuts down a pool it was handed.
    plan:
        The :class:`~repro.engine.plan.ExecutionPlan` for every candidate's
        seed batch.  A parallel plan makes the search hold one persistent
        :class:`~repro.engine.pool.ExecutionPool` across *all* candidates
        and generations (instead of paying pool spin-up per candidate) with
        the plan's chunk size, submitting a generation's missing candidates
        at once; ``plan.batch`` evaluates candidates on the vectorized
        lockstep kernel where their configurations are batchable (scalar
        fallback otherwise).  No plan ever changes scores or stored records.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  The search
        emits lifecycle events (search/generation start and completion),
        counts executed vs. reused evaluations, tracks the best score as a
        gauge, and times the wait for each live evaluation's rows — all
        without affecting checkpoints or scores.

    Use as a context manager (or call :meth:`close`) to reclaim the search's
    own workers deterministically.
    """

    def __init__(
        self,
        spec: SearchSpec,
        store: ResultStore,
        *,
        pool: Optional["ExecutionPool"] = None,
        telemetry: Optional[Telemetry] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        self._spec = spec
        self._checkpoint = SearchCheckpoint(store, spec)
        self._plan = plan or ExecutionPlan()
        self._batch = self._plan.batch
        self._owns_pool = pool is None and self._plan.parallel
        self._telemetry = as_telemetry(telemetry)
        self._pool = self._plan.pool(telemetry=self._telemetry) if self._owns_pool else pool
        self._metric_executed = self._telemetry.counter(
            "search.evaluations_executed", help="candidates evaluated live"
        )
        self._metric_reused = self._telemetry.counter(
            "search.evaluations_reused", help="candidate lookups served from the store"
        )
        self._metric_generations = self._telemetry.counter(
            "search.generations_completed", help="fully processed generations"
        )
        self._metric_best = self._telemetry.gauge(
            "search.best_score", help="best candidate score seen so far"
        )
        self._metric_rate = self._telemetry.gauge(
            "search.evaluations_per_second", help="live evaluation throughput of the last run"
        )

    @property
    def spec(self) -> SearchSpec:
        """The spec this search completes."""
        return self._spec

    @property
    def plan(self) -> ExecutionPlan:
        """The execution plan this search follows."""
        return self._plan

    @property
    def pool(self) -> Optional["ExecutionPool"]:
        """The execution pool live evaluations dispatch on (None = serial)."""
        return self._pool

    def close(self) -> None:
        """Shut down the search's own pool (a shared ``pool=`` is left alone)."""
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "StrategySearch":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(
        self,
        max_evaluations: Optional[int] = None,
        on_candidate: Optional[Callable[[CandidateOutcome], None]] = None,
    ) -> SearchResult:
        """Run (or resume) the search.

        Parameters
        ----------
        max_evaluations:
            Optional cap, at least 1, on *live* evaluations this invocation
            (cache hits are free) — the search budget can be spent
            incrementally across invocations, and an interrupt between two
            candidates is indistinguishable from hitting the cap.  Nothing
            past the first candidate the budget cannot pay for is submitted.
        on_candidate:
            Optional callback invoked after each candidate is scored (used by
            the CLI for live status lines).  One that raises stops the run
            and cancels the queued chunks of the generation's later
            candidates.
        """
        check_run_cap(max_evaluations, "max_evaluations")
        spec = self._spec
        objective = spec.objective
        self._checkpoint.register()
        space = StrategySpace(params=objective.params)
        optimizer = make_optimizer(spec.optimizer, spec.population)
        optimizer.bind(space, spec.master_seed, warm_start=spec.warm_start)

        telemetry = self._telemetry
        started = time.perf_counter()
        if telemetry.enabled:
            logger.info(
                "search %s: optimizer=%s population=%d generations=%d",
                spec.name,
                spec.optimizer,
                spec.population,
                spec.generations,
            )
            telemetry.emit(
                SearchStarted(
                    search=spec.name,
                    optimizer=spec.optimizer,
                    population=spec.population,
                    generations=spec.generations,
                    workers=self._pool.workers if self._pool is not None else 1,
                    batch=self._batch,
                )
            )

        best: Optional[CandidateOutcome] = None
        executed = 0
        reused = 0
        generations_completed = 0
        stopped = False
        for generation in range(spec.generations + 1):
            generation_started = time.perf_counter()
            generation_executed = 0
            genomes = optimizer.ask(generation)
            keys = [self._checkpoint.key_for(genome) for genome in genomes]
            stored, to_run, rows = run_missing(
                self._checkpoint.store, spec.name, keys,
                lambda index: (objective.config_for(genomes[index]), objective.seeds),
                limit=None if max_evaluations is None else max_evaluations - executed,
                pool=self._pool, plan=self._plan, telemetry=telemetry,
            )
            recorded: set[str] = set()
            outcomes: list[CandidateOutcome] = []
            try:
                for index, (genome, key) in enumerate(zip(genomes, keys)):
                    records: Sequence[ReducedTrial]
                    if key in stored or key in recorded:
                        # Includes a genome proposed twice in one generation:
                        # its second occurrence reads the first one's record.
                        records = self._checkpoint.store.trial_records(key)
                        reused += 1
                        self._metric_reused.inc()
                        was_reused = True
                    elif len(recorded) < len(to_run):
                        with telemetry.span(
                            "search.evaluate", generation=generation, index=index
                        ):
                            records = next(rows)
                        self._checkpoint.record(genome, generation, key, records)
                        recorded.add(key)
                        executed += 1
                        generation_executed += 1
                        self._metric_executed.inc()
                        was_reused = False
                    else:
                        stopped = True  # the budget cannot pay for this candidate
                        break
                    outcome = CandidateOutcome(
                        genome=genome,
                        key=key,
                        score=objective.score_records(records),
                        generation=generation,
                        index=index,
                        reused=was_reused,
                    )
                    outcomes.append(outcome)
                    if best is None or outcome.score > best.score:
                        best = outcome
                        self._metric_best.set(outcome.score)
                        if telemetry.enabled:
                            # Lets a live monitor report *which* strategy leads,
                            # not just the best-score gauge's value.
                            telemetry.emit(
                                BestCandidateImproved(
                                    search=spec.name,
                                    generation=generation,
                                    index=index,
                                    score=outcome.score,
                                    strategy=genome.describe(),
                                    key=key,
                                )
                            )
                    if on_candidate is not None:
                        on_candidate(outcome)
            finally:
                # A run stopped early (an on_candidate that raises) cancels
                # the chunks of later candidates no worker has started.
                rows.close()
            if stopped:
                break
            optimizer.tell(generation, outcomes)
            generations_completed = generation + 1
            self._metric_generations.inc()
            if telemetry.enabled:
                telemetry.emit(
                    GenerationCompleted(
                        search=spec.name,
                        generation=generation,
                        executed=generation_executed,
                        reused=len(outcomes) - generation_executed,
                        best_score=best.score if best is not None else None,
                        seconds=time.perf_counter() - generation_started,
                    )
                )

        seconds = time.perf_counter() - started
        rate = executed / seconds if seconds > 0 else 0.0
        self._metric_rate.set(rate)
        evaluations_total = self._checkpoint.evaluation_count()
        if telemetry.enabled:
            telemetry.emit(
                SearchCompleted(
                    search=spec.name,
                    executed=executed,
                    reused=reused,
                    evaluations_total=evaluations_total,
                    best_score=best.score if best is not None else None,
                    seconds=seconds,
                    evaluations_per_second=rate,
                )
            )

        return SearchResult(
            spec=spec,
            best=best,
            evaluations_total=evaluations_total,
            executed=executed,
            reused=reused,
            generations_completed=generations_completed,
            complete=not stopped,
        )


def _scored_evaluations(checkpoint: SearchCheckpoint) -> list[dict[str, Any]]:
    """All stored evaluations as rows, in evaluation order, with scores."""
    objective = checkpoint.spec.objective
    rows = []
    for key, genome, generation, records in checkpoint.iter_evaluations():
        effective = objective.effective_latencies(records)
        rows.append(
            {
                "key": key,
                "kind": genome.kind,
                "strategy": genome.describe(),
                "genome": genome.to_dict(),
                "generation": generation,
                "score": objective.score_records(records),
                "trials": len(records),
                "failures": sum(1 for record in records if not record.synchronized),
                "max_effective_latency": max(effective),
            }
        )
    return rows


def search_status(store: ResultStore, name: str) -> dict[str, Any]:
    """A machine-readable status snapshot of one stored search."""
    checkpoint = SearchCheckpoint.load(store, name)
    spec = checkpoint.spec
    rows = _scored_evaluations(checkpoint)
    best = max(rows, key=lambda row: row["score"], default=None) if rows else None
    return {
        "search": name,
        "objective": spec.objective.describe(),
        "metric": spec.objective.metric,
        "optimizer": spec.optimizer,
        "population": spec.population,
        "generations": spec.generations,
        "master_seed": spec.master_seed,
        "evaluations": len(rows),
        "best_score": best["score"] if best else None,
        "best_strategy": best["strategy"] if best else None,
        "best_key": best["key"] if best else None,
    }


def export_search(
    store: ResultStore, name: str, path: str | Path, top: int = 10
) -> Path:
    """Write a search's spec, best strategy, and top-``top`` table as JSON.

    The best strategy's full genome description is included, so an exported
    strategy can be rebuilt with
    :func:`~repro.search.space.genome_from_dict` and replayed anywhere.
    """
    checkpoint = SearchCheckpoint.load(store, name)
    rows = _scored_evaluations(checkpoint)
    if not rows:
        raise ExperimentError(f"search {name!r} in store {store.path!r} has no evaluations yet")
    # Stable ranking: score descending, earliest evaluation wins ties.
    ranked = sorted(enumerate(rows), key=lambda pair: (-pair[1]["score"], pair[0]))
    ordered = [row for _index, row in ranked]
    document = {
        "search": name,
        "spec": checkpoint.spec.to_dict(),
        "evaluations": len(rows),
        "best": ordered[0],
        "top": ordered[: max(1, top)],
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    # Encoded in one piece and written once: json.dump writes each token.
    target.write_text(json.dumps(document, indent=2), encoding="utf-8")
    return target
