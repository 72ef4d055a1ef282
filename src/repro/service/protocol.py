"""The campaign service's wire schema: schema-versioned job requests.

A :class:`JobRequest` is the one unit of work a client can submit: a campaign
grid or a strategy search, as the *same* canonical dict the Python API
round-trips (:meth:`~repro.campaigns.spec.CampaignSpec.to_dict` /
:meth:`~repro.search.checkpoint.SearchSpec.to_dict`), plus the
:class:`~repro.engine.plan.ExecutionPlan` describing how it should execute —
the wire schema and the Python API are one surface, so anything runnable from
Python is submittable over the wire and vice versa.

Requests are validated *at admission*: :meth:`JobRequest.from_dict` parses
the embedded spec through the real spec constructors, so a malformed grid is
refused with a :class:`~repro.exceptions.ConfigurationError` before it ever
reaches the queue, not discovered mid-run by the executor.

Everything here is plain JSON-shaped data — no live handles — because a
request crosses a socket, lands in a queue, and may be re-submitted verbatim
to resume a cancelled job (exact resume is the store's diff-and-checkpoint
contract; an identical request simply completes the missing suffix).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.campaigns.spec import CampaignSpec
from repro.engine.plan import ExecutionPlan, is_strict_int
from repro.exceptions import ConfigurationError
from repro.search.checkpoint import SearchSpec

#: Schema tag on every serialized job request.  Bump on breaking change —
#: the service refuses requests whose schema it cannot read.
JOB_SCHEMA = "repro.service.job/v1"

#: The work kinds the service executes.
JOB_KINDS = ("campaign", "search")


@dataclass(frozen=True)
class JobRequest:
    """One schema-versioned unit of submittable work.

    Attributes
    ----------
    kind:
        ``"campaign"`` or ``"search"``.
    spec:
        The canonical spec dict (``CampaignSpec.to_dict()`` /
        ``SearchSpec.to_dict()`` output) — validated eagerly.
    store:
        Result-store path the job writes to.  Relative paths resolve against
        the service's run directory, so clients need not know the server's
        filesystem layout.
    plan:
        The job's :class:`~repro.engine.plan.ExecutionPlan` (embedded in the
        wire form as its JSON dict).
    priority:
        Queue priority — higher runs first; ties run in submission order.
    limit:
        Optional work cap for this submission (``max_cells`` for campaigns,
        ``max_evaluations`` for searches); resubmit to continue.
    """

    kind: str
    spec: Mapping[str, Any]
    store: str
    plan: ExecutionPlan = field(default_factory=ExecutionPlan)
    priority: int = 0
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; known: {', '.join(JOB_KINDS)}"
            )
        if not isinstance(self.store, str) or not self.store.strip():
            raise ConfigurationError("a job request needs a non-empty store path")
        if not is_strict_int(self.priority):
            raise ConfigurationError(f"job priority must be an integer, got {self.priority!r}")
        if self.limit is not None and (not is_strict_int(self.limit) or self.limit < 1):
            raise ConfigurationError(
                f"job limit must be a positive integer or null, got {self.limit!r}"
            )
        # Admission-time validation: parsing through the real constructors
        # rejects malformed grids/objectives before they reach the queue.
        self.parsed_spec()

    # -- parsed views ------------------------------------------------------

    def parsed_spec(self) -> Union[CampaignSpec, SearchSpec]:
        """The embedded spec as its real object (raises on a malformed one)."""
        if self.kind == "campaign":
            return CampaignSpec.from_dict(self.spec)
        return SearchSpec.from_dict(self.spec)

    @property
    def name(self) -> str:
        """The campaign/search name inside the store."""
        name = self.spec.get("name")
        return str(name) if name is not None else "unnamed"

    # -- construction helpers ---------------------------------------------

    @classmethod
    def for_campaign(
        cls,
        spec: CampaignSpec,
        store: str,
        plan: Optional[ExecutionPlan] = None,
        priority: int = 0,
        limit: Optional[int] = None,
    ) -> "JobRequest":
        """A campaign request from a live spec object."""
        return cls(
            kind="campaign",
            spec=spec.to_dict(),
            store=store,
            plan=plan if plan is not None else ExecutionPlan(),
            priority=priority,
            limit=limit,
        )

    @classmethod
    def for_search(
        cls,
        spec: SearchSpec,
        store: str,
        plan: Optional[ExecutionPlan] = None,
        priority: int = 0,
        limit: Optional[int] = None,
    ) -> "JobRequest":
        """A search request from a live spec object."""
        return cls(
            kind="search",
            spec=spec.to_dict(),
            store=store,
            plan=plan if plan is not None else ExecutionPlan(),
            priority=priority,
            limit=limit,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The request as a JSON-shaped dict (schema-tagged)."""
        return {
            "schema": JOB_SCHEMA,
            "kind": self.kind,
            "spec": dict(self.spec),
            "store": self.store,
            "plan": self.plan.to_dict(),
            "priority": self.priority,
            "limit": self.limit,
        }

    def to_json(self) -> str:
        """The request as canonical JSON text."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRequest":
        """Rebuild (and fully validate) a request from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a job request must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema", JOB_SCHEMA)
        if schema != JOB_SCHEMA:
            raise ConfigurationError(
                f"unsupported job-request schema {schema!r} (this build reads {JOB_SCHEMA!r})"
            )
        missing = [name for name in ("kind", "spec", "store") if name not in data]
        if missing:
            raise ConfigurationError(
                f"job request is missing fields: {', '.join(missing)}"
            )
        plan_data = data.get("plan")
        plan = ExecutionPlan.from_dict(plan_data) if plan_data is not None else ExecutionPlan()
        return cls(
            kind=data["kind"],
            spec=data["spec"],
            store=data["store"],
            plan=plan,
            priority=data.get("priority", 0),
            limit=data.get("limit"),
        )

    @classmethod
    def from_json(cls, text: str) -> "JobRequest":
        """Rebuild a request from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"job request is not valid JSON: {error}") from error
        return cls.from_dict(data)
