"""The one public spelling of how a batch executes: :class:`ExecutionPlan`.

Execution knobs accreted across several call sites as the orchestration
stack grew — worker count, pool chunk size, the batch kernel, and the
telemetry output options.  They live in one frozen, JSON-round-trippable plan
object:

* :func:`~repro.engine.runner.run_trials`,
  :func:`~repro.engine.runner.run_reduced_trials`,
  :class:`~repro.campaigns.runner.CampaignRunner`,
  :class:`~repro.search.runner.StrategySearch`, and
  :meth:`~repro.search.objective.SearchObjective.evaluate` all take it as
  ``plan=``, their only execution spelling;
* a service :class:`~repro.service.protocol.JobRequest` embeds the plan's
  JSON form verbatim, so the wire schema and the Python API are one surface.

A plan never changes results: it only chooses *where* work executes (serial,
worker pool, vectorized lockstep kernel) and what observability rides along.
The golden-equivalence suite pins ``plan=`` dispatch bit-identical to the
serial engine.  A live :class:`~repro.engine.pool.ExecutionPool` is
deliberately **not** part of the plan — pools are process-local handles that
cannot cross a serialization boundary; callers that share one pool across
subsystems keep passing ``pool=`` alongside the plan (the pool wins for
dispatch; the plan still contributes ``batch``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.pool import ExecutionPool
    from repro.telemetry import Telemetry

#: Schema tag embedded in every serialized plan.  Bump on any breaking field
#: change — the service refuses job requests whose plan schema it cannot read.
PLAN_SCHEMA = "repro.execution-plan/v1"


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
        Run same-template seed batches on the vectorized lockstep kernel
        (:mod:`repro.engine.batch`) where the configuration is batchable,
        with transparent scalar fallback otherwise.
    telemetry_events:
        Optional JSONL path for structured telemetry events.
    telemetry_rotate_bytes:
        Optional size cap for the events JSONL (one ``.1`` predecessor kept).
    metrics_out:
        Optional final metrics-snapshot path (JSON, or Prometheus text when
        the suffix is ``.prom``).

    None of these fields ever changes results — stores, checkpoints, and
    digests are bit-identical under every plan (the golden suite pins it).
    """

    workers: int = 1
    pool_chunk: Optional[int] = None
    batch: bool = False
    telemetry_events: Optional[str] = None
    telemetry_rotate_bytes: Optional[int] = None
    metrics_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"an execution plan needs >= 1 worker, got {self.workers}")
        if self.pool_chunk is not None and self.pool_chunk < 1:
            raise ConfigurationError(f"pool_chunk must be positive, got {self.pool_chunk}")
        if self.telemetry_rotate_bytes is not None and self.telemetry_rotate_bytes < 1:
            raise ConfigurationError(
                f"telemetry_rotate_bytes must be positive, got {self.telemetry_rotate_bytes}"
            )

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
            "batch": self.batch,
            "telemetry_events": self.telemetry_events,
            "telemetry_rotate_bytes": self.telemetry_rotate_bytes,
            "metrics_out": self.metrics_out,
        }

    def to_json(self) -> str:
        """The plan as canonical JSON text."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_dict` output (schema-checked, strict).

        Unknown keys are refused rather than silently dropped — a job request
        with a misspelled knob must fail admission, not run with defaults.
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
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known - {"schema"})
        if unknown:
            raise ConfigurationError(
                f"execution plan has unknown fields: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**{name: data[name] for name in known if name in data})

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
        parts.append("batch kernel" if self.batch else "scalar loop")
        return ", ".join(parts)

