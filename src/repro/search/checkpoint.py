"""Search persistence: spec pinning and candidate checkpoints in a ResultStore.

A search persists into the same SQLite
:class:`~repro.campaigns.store.ResultStore` campaigns use:

* the **search spec** (objective + optimizer + budgets + master seed) is
  registered as the campaign's ``spec_json``.  Re-opening the same search
  name with a different spec raises — one name always means one search, so a
  resume can never silently continue a *different* search;
* every **evaluated candidate** is one store cell whose key is the content
  hash of ``(objective description, genome description)`` and whose trial
  rows are the per-seed outcomes.  Re-proposed candidates (same genome, any
  generation, any process) dedup to a single evaluation, and a killed search
  resumes exactly where it stopped.

Scores are *not* persisted: they are recomputed from the stored trial
scalars through :meth:`~repro.search.objective.SearchObjective.score_records`,
which guarantees a resumed run sees bit-identical scores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.campaigns.spec import cell_key
from repro.campaigns.store import ResultStore, TrialRecord
from repro.exceptions import ConfigurationError
from repro.search.objective import SearchObjective
from repro.search.optimizers import OPTIMIZERS
from repro.search.space import StrategyGenome, genome_from_dict

#: Version of the persisted search-spec layout.
SEARCH_SCHEMA_VERSION = 1

#: The ``kind`` tag distinguishing search specs from campaign grids inside a
#: shared store (``campaign status`` uses it to skip grid-diffing them).
SEARCH_SPEC_KIND = "adversary-search"


def is_search_spec_json(spec_json: Optional[str]) -> bool:
    """True when a stored campaign ``spec_json`` describes an adversary search."""
    if not spec_json:
        return False
    try:
        data = json.loads(spec_json)
    except ValueError:
        return False
    return isinstance(data, dict) and data.get("kind") == SEARCH_SPEC_KIND


@dataclass(frozen=True)
class SearchSpec:
    """Everything that determines a search run, declaratively.

    Attributes
    ----------
    name:
        The search's name in the store (the campaign cells group under it).
    objective:
        The pinned evaluation configuration.
    optimizer:
        A registered optimizer name (see
        :data:`~repro.search.optimizers.OPTIMIZERS`).
    population:
        Candidates per optimizer generation.
    generations:
        Optimizer generations *after* the warm start (the search evaluates
        generations ``0 .. generations`` inclusive, with generation 0 being
        the warm start when enabled).
    master_seed:
        The single seed all proposal randomness derives from.
    warm_start:
        Whether generation 0 enumerates the registered hand-written jammers.
    """

    name: str
    objective: SearchObjective
    optimizer: str = "hill-climb"
    population: int = 8
    generations: int = 4
    master_seed: int = 0
    warm_start: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a search needs a non-empty name")
        if self.optimizer not in OPTIMIZERS:
            known = ", ".join(sorted(OPTIMIZERS))
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}; known: {known}")
        if self.population < 1:
            raise ConfigurationError(f"population must be positive, got {self.population}")
        if self.generations < 0:
            raise ConfigurationError(f"generations must be non-negative, got {self.generations}")

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable description of the search."""
        return {
            "schema": SEARCH_SCHEMA_VERSION,
            "kind": SEARCH_SPEC_KIND,
            "name": self.name,
            "objective": self.objective.describe_dict(),
            "optimizer": self.optimizer,
            "population": self.population,
            "generations": self.generations,
            "master_seed": self.master_seed,
            "warm_start": self.warm_start,
        }

    def to_json(self) -> str:
        """Canonical JSON form (stable across processes, used by the store)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        if data.get("kind") != SEARCH_SPEC_KIND:
            raise ConfigurationError(
                f"not an adversary-search spec (kind={data.get('kind')!r})"
            )
        schema = data.get("schema", SEARCH_SCHEMA_VERSION)
        if schema != SEARCH_SCHEMA_VERSION:
            raise ConfigurationError(
                f"search spec schema {schema} is not supported "
                f"(this build writes schema {SEARCH_SCHEMA_VERSION})"
            )
        return cls(
            name=data["name"],
            objective=SearchObjective.from_dict(data["objective"]),
            optimizer=data["optimizer"],
            population=data["population"],
            generations=data["generations"],
            master_seed=data["master_seed"],
            warm_start=data["warm_start"],
        )

    @classmethod
    def from_json(cls, text: str) -> "SearchSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


class SearchCheckpoint:
    """One search's view of a result store: keys, lookups, and recording.

    Parameters
    ----------
    store:
        The (shared) campaign result store.
    spec:
        The search spec; registered on :meth:`register` and pinned by the
        store thereafter.
    """

    def __init__(self, store: ResultStore, spec: SearchSpec) -> None:
        self._store = store
        self._spec = spec

    @property
    def spec(self) -> SearchSpec:
        """The pinned search spec."""
        return self._spec

    @property
    def store(self) -> ResultStore:
        """The underlying result store."""
        return self._store

    @classmethod
    def load(cls, store: ResultStore, name: str) -> "SearchCheckpoint":
        """Open an existing search by name, rebuilding its spec from the store."""
        spec_json = store.spec_json_for(name)
        if not is_search_spec_json(spec_json):
            raise ConfigurationError(
                f"campaign {name!r} in store {store.path!r} is not an adversary search"
            )
        assert spec_json is not None
        return cls(store, SearchSpec.from_json(spec_json))

    def register(self) -> None:
        """Pin the spec in the store (raises if the name means a different spec)."""
        self._store.register_campaign(self._spec.name, self._spec.to_json())

    # -- candidate identity ----------------------------------------------

    def key_for(self, genome: StrategyGenome) -> str:
        """The content-hashed store key of one candidate evaluation.

        Covers the objective's *evaluation* description (everything that
        determines the simulated trial records — not the score metric) and
        the genome description, and nothing else, so identical candidates
        dedup across generations, optimizers, metrics, and searches sharing
        a store, while any change to the evaluation configuration changes
        every key.
        """
        return cell_key(self._key_fields(genome))

    def _key_fields(self, genome: StrategyGenome) -> dict[str, Any]:
        return {
            "kind": "search-evaluation",
            "objective": self._spec.objective.evaluation_dict(),
            "genome": genome.to_dict(),
        }

    # -- lookup / record --------------------------------------------------

    def stored_records(self, key: str) -> Optional[tuple[TrialRecord, ...]]:
        """The persisted trial records of a candidate, or None if unevaluated."""
        if not self._store.has_cell(key):
            return None
        return self._store.trial_records(key)

    def record(
        self,
        genome: StrategyGenome,
        generation: int,
        key: str,
        records: Sequence[TrialRecord],
    ) -> None:
        """Atomically checkpoint one evaluated candidate.

        The stored description carries the key fields plus display metadata
        (first proposing generation, genome label); the key is computed from
        the key fields only, so re-proposals in later generations dedup.
        """
        description = dict(self._key_fields(genome))
        description["generation"] = generation
        description["label"] = genome.describe()
        self._store.record_cell(self._spec.name, key, description, list(records))

    # -- read-back --------------------------------------------------------

    def evaluation_count(self) -> int:
        """Number of distinct candidates this search has evaluated."""
        return self._store.cell_count(self._spec.name)

    def iter_evaluations(
        self,
    ) -> Iterator[tuple[str, StrategyGenome, int, tuple[TrialRecord, ...]]]:
        """Yield ``(key, genome, generation, records)`` in evaluation order.

        Evaluation order is the store's insertion order, which for a single
        (possibly resumed) search matches the deterministic proposal order.
        """
        for key, description, records in self._store.iter_cells(self._spec.name):
            genome = genome_from_dict(description["genome"])
            yield key, genome, description.get("generation", 0), records
