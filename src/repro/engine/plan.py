"""The one public spelling of how a batch executes: :class:`ExecutionPlan`.

Execution knobs accreted across several call sites as the orchestration
stack grew — worker count and pool chunk size.  They live in one frozen,
JSON-round-trippable plan object:

* :func:`~repro.engine.runner.run_trials`,
  :func:`~repro.engine.runner.run_reduced_trials`,
  :class:`~repro.campaigns.runner.CampaignRunner`,
  :class:`~repro.search.runner.StrategySearch`, and
  :meth:`~repro.search.objective.SearchObjective.evaluate` all take it as
  ``plan=``, their only execution spelling;
* a service :class:`~repro.service.protocol.JobRequest` embeds the plan's
  JSON form verbatim, so the wire schema and the Python API are one surface.

A plan never changes results: it only chooses *where* work executes (serial
or on a worker pool).  Which engine runs a batch is not part of it either:
:func:`~repro.engine.pool.seed_rows` picks the vectorized lockstep kernel or
the scalar loop from the work itself.  A ``batch`` keyword or JSON key, which
once asked for the kernel, is still accepted as a boolean and ignored, so
stored job requests keep loading.  Telemetry outputs are not part of the
plan: the CLI's ``--telemetry``, ``--telemetry-rotate-bytes`` and
``--metrics-out`` flags write them.
The golden-equivalence suite pins ``plan=`` dispatch bit-identical to the
serial engine.  A live :class:`~repro.engine.pool.ExecutionPool` is
deliberately **not** part of the plan — pools are process-local handles that
cannot cross a serialization boundary; callers that share one pool across
subsystems keep passing ``pool=`` alongside the plan (the pool wins for
dispatch).
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.pool import ExecutionPool
    from repro.telemetry import Telemetry

#: Schema tag embedded in every serialized plan.  Bump on any breaking field
#: change — the service refuses job requests whose plan schema it cannot read.
PLAN_SCHEMA = "repro.execution-plan/v1"

#: Keys that plans written by older builds carry, always as ``null``: the
#: fields were never read, so :meth:`ExecutionPlan.from_dict` skips a null
#: one and refuses any other value rather than drop it silently.
_RETIRED_FIELDS = ("telemetry_events", "telemetry_rotate_bytes", "metrics_out")


def is_strict_int(value: object) -> bool:
    """Whether ``value`` is a true integer: ``bool`` is an ``int`` subclass, so refuse it."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class ExecutionPlan:
    """How a batch of simulations should execute — one serializable object.

    Attributes
    ----------
    workers:
        Worker processes (``1`` = serial in-process execution).
    pool_chunk:
        Seeds per dispatched pool chunk (``None`` = automatic sizing).
    batch:
        Accepted as a boolean and ignored; not a field, so it is absent
        from :meth:`to_dict`, ``==`` and :meth:`describe`.  The engine is
        chosen per segment (:func:`~repro.engine.pool.seed_rows`).

    None of these fields ever changes results — stores, checkpoints, and
    digests are bit-identical under every plan (the golden suite pins it).
    """

    workers: int = 1
    pool_chunk: Optional[int] = None
    batch: InitVar[bool] = False

    def __post_init__(self, batch: bool) -> None:
        if not is_strict_int(self.workers) or self.workers < 1:
            raise ConfigurationError(f"workers must be an integer >= 1, got {self.workers!r}")
        chunk = self.pool_chunk
        if chunk is not None and (not is_strict_int(chunk) or chunk < 1):
            raise ConfigurationError(
                f"pool_chunk must be a positive integer or null, got {chunk!r}"
            )
        if not isinstance(batch, bool):
            raise ConfigurationError(f"batch must be true or false, got {batch!r}")

    # -- derived views ------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True when the plan asks for worker processes."""
        return self.workers > 1

    def serial(self) -> "ExecutionPlan":
        """This plan forced onto one in-process worker (degrade paths)."""
        return replace(self, workers=1, pool_chunk=None)

    def pool(self, telemetry: "Optional[Telemetry]" = None) -> "Optional[ExecutionPool]":
        """A fresh :class:`~repro.engine.pool.ExecutionPool` per the plan.

        Returns ``None`` for a serial plan — callers treat that exactly like
        an absent pool.  The pool is *not* started here (it forks lazily on
        first dispatch); the caller owns its lifecycle.
        """
        if not self.parallel:
            return None
        from repro.engine.pool import ExecutionPool

        return ExecutionPool(self.workers, chunk_size=self.pool_chunk, telemetry=telemetry)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The plan as a JSON-shaped dict (schema-tagged, every field present)."""
        return {
            "schema": PLAN_SCHEMA,
            "workers": self.workers,
            "pool_chunk": self.pool_chunk,
        }

    def to_json(self) -> str:
        """The plan as canonical JSON text."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_dict` output (schema-checked, strict).

        Unknown keys are refused rather than silently dropped — a job request
        with a misspelled knob must fail admission, not run with defaults.
        Keys of removed fields (``_RETIRED_FIELDS``) are read only as ``null``,
        and ``batch`` only as a boolean, which is ignored.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"an execution plan must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ConfigurationError(
                f"unsupported execution-plan schema {schema!r} "
                f"(this build reads {PLAN_SCHEMA!r})"
            )
        for name in _RETIRED_FIELDS:
            if data.get(name) is not None:
                raise ConfigurationError(
                    f"execution plan field {name!r} was removed and must be null, got "
                    f"{data[name]!r} (the CLI's telemetry flags write telemetry outputs)"
                )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known - {"schema", "batch", *_RETIRED_FIELDS})
        if unknown:
            raise ConfigurationError(
                f"execution plan has unknown fields: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(
            **{name: data[name] for name in known if name in data},
            batch=data.get("batch", False),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"execution plan is not valid JSON: {error}") from error
        return cls.from_dict(data)

    def describe(self) -> str:
        """One-line summary for logs and CLI banners."""
        parts = [f"{self.workers} worker(s)"]
        if self.pool_chunk is not None:
            parts.append(f"chunk {self.pool_chunk}")
        return ", ".join(parts)

