"""Campaign service contracts: identity, resume, priority, admission, wire.

The properties pinned here are the ones the service's design exists for:

- **Byte-identity** — stores produced through the service, including under
  concurrent client submissions, equal the stores a direct serial run
  produces row for row (single-executor serialization is the mechanism).
- **Exact cancel/resume** — cancelling a running job mid-run leaves a clean
  committed prefix; resubmitting the identical request yields a store equal
  to the never-interrupted one.
- **Priority and admission** — higher-priority queued jobs run first;
  submissions past the admission bound are refused, not buffered.
- **Wire schema** — the NDJSON progress stream and the status documents are
  schema-complete and validate against the monitor's status schema.
- **Kept connections** — the executor reuses one writer and the loop one
  reader while requests name the same file, every job leaves its store
  checkpointed before its final record, and a ``store-status`` never
  checkpoints or waits on a writer.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time

import pytest

from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.engine.plan import ExecutionPlan
from repro.exceptions import ConfigurationError
from repro.search.checkpoint import SearchSpec
from repro.search.objective import SearchObjective
from repro.search.runner import StrategySearch
from repro.service import server as service_server
from repro.service import (
    AdmissionError,
    CampaignService,
    Job,
    JobQueue,
    JobRequest,
    JobState,
    ServiceClient,
    ServiceError,
    connect_from_announce,
)
from repro.telemetry.events import read_jsonl_events
from repro.telemetry.monitor import validate_status


def campaign_spec(name: str, cells: int = 1, seeds: int = 2) -> CampaignSpec:
    """A tiny grid: ``cells`` budgets × 1 protocol × 1 workload."""
    return CampaignSpec(
        name=name,
        protocols=("trapdoor",),
        workloads=("quiet_start",),
        frequencies=(4,),
        budgets=tuple(range(1, cells + 1)),
        participants=(16,),
        node_counts=(3,),
        seeds=tuple(range(seeds)),
        max_rounds=2_000,
    )


def search_spec(name: str) -> SearchSpec:
    objective = SearchObjective(
        protocol="trapdoor",
        workload="quiet_start",
        frequencies=4,
        budget=1,
        participants=16,
        node_count=3,
        seeds=(0, 1),
        max_rounds=2_000,
    )
    return SearchSpec(
        name=name,
        objective=objective,
        optimizer="hill-climb",
        population=2,
        generations=1,
        master_seed=0,
    )


def cells_of(store_path, name: str) -> list:
    with ResultStore(str(store_path)) as store:
        return list(store.iter_cells(name))


@pytest.fixture
def service(tmp_path):
    with CampaignService(
        tmp_path / "run", max_queued=8, monitor_interval=0.05, http_port=0
    ) as svc:
        yield svc


def make_request(job: Job) -> JobRequest:
    return job.request


class TestJobQueue:
    def _job(self, seq: int, priority: int = 0) -> Job:
        request = JobRequest.for_campaign(
            campaign_spec(f"q{seq}"), store=f"q{seq}.sqlite", priority=priority
        )
        return Job(id=f"job-{seq:04d}", seq=seq, request=request)

    def test_pop_orders_by_priority_then_submission(self):
        queue = JobQueue()
        first = self._job(1, priority=0)
        second = self._job(2, priority=5)
        third = self._job(3, priority=5)
        for job in (first, second, third):
            queue.offer(job)
        assert [queue.pop().id for _ in range(3)] == [second.id, third.id, first.id]

    def test_admission_bound_refuses_not_buffers(self):
        queue = JobQueue(max_queued=1)
        queue.offer(self._job(1))
        with pytest.raises(AdmissionError, match="admission refused"):
            queue.offer(self._job(2))
        assert queue.depth == 1

    def test_close_wakes_blocked_pop_with_none(self):
        queue = JobQueue()
        popped = []
        thread = threading.Thread(target=lambda: popped.append(queue.pop()))
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert popped == [None]
        with pytest.raises(AdmissionError, match="shutting down"):
            queue.offer(self._job(1))

    def test_withdraw_removes_only_queued_jobs(self):
        queue = JobQueue()
        job = self._job(1)
        queue.offer(job)
        assert queue.withdraw(job) is True
        assert queue.withdraw(job) is False


class TestByteIdentity:
    def test_concurrent_clients_produce_stores_identical_to_direct_serial_runs(
        self, tmp_path, service
    ):
        """Two clients submit concurrently; each resulting store equals the
        store a direct serial :class:`CampaignRunner` run produces."""
        specs = [campaign_spec("alpha", cells=2), campaign_spec("beta", cells=2)]
        outcomes: dict[str, dict] = {}

        def submit(spec: CampaignSpec) -> None:
            request = JobRequest.for_campaign(spec, store=f"{spec.name}.sqlite")
            with ServiceClient("127.0.0.1", service.port) as client:
                outcomes[spec.name] = client.submit(request, wait=True)

        threads = [threading.Thread(target=submit, args=(spec,)) for spec in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)

        for spec in specs:
            finished = outcomes[spec.name]["finished"]
            assert finished["state"] == "completed", finished
            direct = tmp_path / f"direct-{spec.name}.sqlite"
            with ResultStore(str(direct)) as store:
                with CampaignRunner(spec, store) as runner:
                    runner.run()
            assert cells_of(service.resolve_store(f"{spec.name}.sqlite"), spec.name) == cells_of(
                direct, spec.name
            )

    def test_search_job_store_matches_direct_run(self, tmp_path, service):
        spec = search_spec("svc-search")
        request = JobRequest.for_search(spec, store="search.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            response = client.submit(request, wait=True)
        assert response["finished"]["state"] == "completed"
        assert response["finished"]["result"]["best"] is not None

        direct = tmp_path / "direct-search.sqlite"
        with ResultStore(str(direct)) as store:
            with StrategySearch(spec, store) as search:
                search.run()
        assert cells_of(service.resolve_store("search.sqlite"), spec.name) == cells_of(
            direct, spec.name
        )


class TestCancelResume:
    def test_cancel_mid_run_then_resubmit_resumes_exactly(
        self, tmp_path, service, monkeypatch
    ):
        """Cancel after the first committed cell; the resubmitted identical
        request completes a store equal to the uninterrupted one.

        The job's second commit waits until the cancel is acknowledged, so
        the 3-cell job cannot finish before the cancel lands.
        """
        spec = campaign_spec("resumable", cells=3)
        request = JobRequest.for_campaign(spec, store="resumable.sqlite")
        cancel_acknowledged = threading.Event()
        commits = 0
        record_cell = ResultStore.record_cell

        def gated_record_cell(store, *args, **kwargs):
            nonlocal commits
            commits += 1
            if commits == 2:
                cancel_acknowledged.wait(timeout=30.0)
            return record_cell(store, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "record_cell", gated_record_cell)
        with ServiceClient("127.0.0.1", service.port) as client:
            response = client.request({"op": "submit", "request": request.to_dict()})
            job_id = response["job"]
            # Cancel as soon as the first cell commits (streamed live).  A
            # watch owns its connection, so the cancel goes over a second one
            # — exactly what `repro client cancel` does.
            for record in client.watch(job_id):
                if record.get("kind") == "cell-committed" and not cancel_acknowledged.is_set():
                    with ServiceClient("127.0.0.1", service.port) as canceller:
                        canceller.cancel(job_id)
                    cancel_acknowledged.set()
                if record.get("final"):
                    final = record
            assert final["state"] == "cancelled"
            status = client.status(job_id)
            assert status["state"] == "cancelled"

            committed_after_cancel = cells_of(
                service.resolve_store(request.store), spec.name
            )
            assert 0 < len(committed_after_cancel) < len(spec.cells())

            resumed = client.submit(request, wait=True)
            assert resumed["finished"]["state"] == "completed"
            # The resumed run found the cancelled prefix already committed.
            assert (
                resumed["finished"]["result"]["already_complete"]
                == len(committed_after_cancel)
            )

        direct = tmp_path / "uninterrupted.sqlite"
        with ResultStore(str(direct)) as store:
            with CampaignRunner(spec, store) as runner:
                runner.run()
        assert cells_of(service.resolve_store(request.store), spec.name) == cells_of(
            direct, spec.name
        )

    def test_cancelling_a_queued_job_withdraws_it(self, service):
        request = JobRequest.for_campaign(campaign_spec("queued-cancel"), store="qc.sqlite")
        job = Job(id="job-9999", seq=9999, request=request)
        service._queue.offer(job)
        assert service.cancel(job) is True
        assert job.state is JobState.CANCELLED
        assert service.cancel(job) is False  # already terminal


class TestPriorityAndAdmission:
    def test_higher_priority_queued_jobs_run_first(self, tmp_path):
        """While the executor is pinned on a first job, queue one low- and
        two high-priority jobs; the high-priority pair must run first."""
        with CampaignService(
            tmp_path / "run", max_queued=8, monitor_interval=0.05
        ) as service:
            gate = threading.Event()
            started: list[str] = []
            original = service._execute

            def gated_execute(job):
                started.append(job.request.name)
                if job.request.name == "first":
                    gate.wait(timeout=30.0)
                original(job)

            service._execute = gated_execute

            def req(name: str, priority: int) -> JobRequest:
                return JobRequest.for_campaign(
                    campaign_spec(name), store=f"{name}.sqlite", priority=priority
                )

            service.submit(req("first", 0))
            deadline = time.monotonic() + 30.0
            while "first" not in started:  # the rest must truly queue
                assert time.monotonic() < deadline
                time.sleep(0.01)
            low = service.submit(req("low", 0))
            high_a = service.submit(req("high-a", 9))
            high_b = service.submit(req("high-b", 9))
            gate.set()
            for job in (low, high_a, high_b):
                deadline = time.monotonic() + 120.0
                while not job.state.terminal:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            assert started == ["first", "high-a", "high-b", "low"]

    def test_submissions_past_the_bound_are_refused_over_the_wire(self, tmp_path):
        with CampaignService(
            tmp_path / "run", max_queued=1, monitor_interval=0.05
        ) as service:
            # Stall the executor so offers pile up in the queue.
            gate = threading.Event()
            original = service._execute

            def gated_execute(job):
                gate.wait(timeout=30.0)
                original(job)

            service._execute = gated_execute
            try:
                def req(name: str) -> dict:
                    return JobRequest.for_campaign(
                        campaign_spec(name), store=f"{name}.sqlite"
                    ).to_dict()

                with ServiceClient("127.0.0.1", service.port) as client:
                    client.request({"op": "submit", "request": req("running")})
                    deadline = time.monotonic() + 30.0
                    while service._queue.depth > 0:  # executor holds 'running'
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    client.request({"op": "submit", "request": req("waiting")})
                    with pytest.raises(ServiceError, match="admission refused") as excinfo:
                        client.request({"op": "submit", "request": req("refused")})
                    # The refusal is marked so clients can distinguish
                    # back-pressure from malformed requests.
                    assert excinfo.value.response["refused"] == "admission"
                    # A refused job leaves no residue in the job table.
                    names = [row["name"] for row in client.jobs()]
                    assert "refused" not in names
            finally:
                gate.set()


class TestWireSchema:
    def test_watch_stream_is_schema_complete(self, service):
        """The NDJSON stream: every record is a dict with a ``kind``, the
        lifecycle markers appear in order, and exactly the last record is
        final."""
        request = JobRequest.for_campaign(campaign_spec("wire"), store="wire.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            records = list(client.watch(client.submit(request)["job"]))
        assert all(isinstance(record, dict) and "kind" in record for record in records)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "job-queued"
        assert "job-started" in kinds
        assert "campaign-started" in kinds
        assert "cell-committed" in kinds
        assert "campaign-completed" in kinds
        assert kinds[-1] == "job-finished"
        finals = [record.get("final", False) for record in records]
        assert finals == [False] * (len(records) - 1) + [True]
        finished = records[-1]
        assert finished["state"] == "completed"
        assert finished["result"]["complete"] is True

    @pytest.mark.parametrize("kind", ["campaign", "search"])
    def test_watch_stream_equals_the_job_event_file(self, service, kind):
        """Between the lifecycle markers, the stream is the job's
        ``events.jsonl``, record for record and in order (without ``seq``):
        a hand-off that drops or reorders a record fails here."""
        if kind == "campaign":
            request = JobRequest.for_campaign(campaign_spec("mirror", cells=3), store="m.sqlite")
        else:
            request = JobRequest.for_search(search_spec("mirror-search"), store="ms.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            job_id = client.submit(request)["job"]
            records = list(client.watch(job_id))
        kinds = [record["kind"] for record in records]
        assert kinds[:2] == ["job-queued", "job-started"]
        assert kinds[-1] == "job-finished"
        on_disk = read_jsonl_events(service.job_dir(job_id) / "events.jsonl")
        assert len(on_disk) > 5
        for record in on_disk:
            del record["seq"]
        assert records[2:-1] == on_disk

    def test_wait_returns_the_record_a_watch_ends_with(self, service):
        request = JobRequest.for_campaign(campaign_spec("waited", cells=2), store="w.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            # Waited on while it runs, and again once it is terminal.
            job_id = client.submit(request)["job"]
            running = client.wait(job_id)
            submitted = client.submit(request, wait=True)
            with ServiceClient("127.0.0.1", service.port) as watcher:
                first = list(watcher.watch(job_id))[-1]
                second = list(watcher.watch(submitted["job"]))[-1]
            assert client.wait(job_id) == running == first
        assert first["kind"] == "job-finished" and first["final"] is True
        assert first["state"] == "completed"
        assert submitted["finished"] == second
        assert second["result"]["already_complete"] == 2

    def test_wait_on_an_unknown_job_is_refused(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            with pytest.raises(ServiceError, match="unknown job"):
                client.wait("job-9999")
            for op in ("wait", "watch"):
                with pytest.raises(ServiceError, match="unknown job"):
                    client.request({"op": op, "job": ["job-0001"]})
            with pytest.raises(ServiceError, match="known: .*wait, watch"):
                client.request({"op": "follow"})
            assert client.ping()["ok"] is True  # the connection stays usable

    def test_search_watch_streams_generation_and_best_events(self, service):
        request = JobRequest.for_search(search_spec("wire-search"), store="ws.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            kinds = [r["kind"] for r in client.watch(client.submit(request)["job"])]
        assert "search-started" in kinds
        assert "generation-completed" in kinds
        assert "best-candidate-improved" in kinds
        assert kinds[-1] == "job-finished"

    def test_job_status_documents_validate_against_the_monitor_schema(self, service):
        request = JobRequest.for_campaign(campaign_spec("statusdoc"), store="sd.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            job_id = client.submit(request, wait=True)["job"]
            doc = client.status(job_id)
        validate_status(doc)  # raises on a schema violation
        assert doc["final"] is True
        assert doc["state"] == "completed"
        assert doc["unit"] == "cells"
        assert doc["progress"]["done"] == len(campaign_spec("statusdoc").cells())
        assert doc["progress"]["total"] == len(campaign_spec("statusdoc").cells())

    def test_queued_job_status_is_synthesized_schema_complete(self, tmp_path):
        with CampaignService(tmp_path / "run", monitor_interval=0.05) as service:
            gate = threading.Event()
            original = service._execute

            def gated_execute(job):
                gate.wait(timeout=30.0)
                original(job)

            service._execute = gated_execute
            try:
                service.submit(
                    JobRequest.for_campaign(campaign_spec("busy"), store="b.sqlite")
                )
                queued = service.submit(
                    JobRequest.for_campaign(campaign_spec("held"), store="h.sqlite")
                )
                doc = service.job_status(queued.id)
                validate_status(doc)
                assert doc["state"] == "queued"
                assert doc["final"] is False
            finally:
                gate.set()

    def test_service_status_counts_jobs(self, service):
        request = JobRequest.for_campaign(campaign_spec("svc-doc"), store="sv.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            client.submit(request, wait=True)
            doc = client.status()
        assert doc["unit"] == "jobs"
        assert doc["progress"] == {"done": 1, "total": 1, "fraction": 1.0}

    def test_store_status_is_served_from_the_wal_store(self, service):
        request = JobRequest.for_campaign(campaign_spec("stored"), store="st.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            client.submit(request, wait=True)
            doc = client.store_status("st.sqlite")
            assert doc["campaigns"] == [{"campaign": "stored", "completed": 1}]
            with pytest.raises(ServiceError, match="no store at"):
                client.store_status("never-created.sqlite")

    def test_malformed_submissions_are_refused_with_errors(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client.request({"op": "frobnicate"})
            with pytest.raises(ServiceError, match="unknown op"):
                client.request({"op": ["frobnicate"]})
            with pytest.raises(ServiceError, match="unknown job"):
                client.status("job-7777")
            with pytest.raises(ServiceError, match="schema"):
                client.request(
                    {"op": "submit", "request": {"schema": "bogus/v9", "kind": "campaign"}}
                )
            bad_spec = {
                "op": "submit",
                "request": {
                    "kind": "campaign",
                    "spec": {"name": "x", "protocols": ["no-such-protocol"]},
                    "store": "x.sqlite",
                },
            }
            with pytest.raises(ServiceError):
                client.request(bad_spec)
            bad_plan = JobRequest.for_campaign(campaign_spec("bad-plan"), store="b.sqlite")
            wire = bad_plan.to_dict()
            wire["plan"]["pool_chunk"] = 2.5
            with pytest.raises(ServiceError, match="pool_chunk"):
                client.request({"op": "submit", "request": wire})

    def test_http_facade_serves_monitor_compatible_job_status(self, service):
        import urllib.request

        request = JobRequest.for_campaign(campaign_spec("http"), store="ht.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            job_id = client.submit(request, wait=True)["job"]
        base = f"http://127.0.0.1:{service.http_port}"
        with urllib.request.urlopen(f"{base}/jobs/{job_id}/status", timeout=10) as reply:
            doc = json.loads(reply.read())
        validate_status(doc)
        assert doc["final"] is True
        from repro.telemetry.monitor import read_status

        # monitor watch appends /status itself: the URL a user types.
        assert read_status(f"{base}/jobs/{job_id}")["state"] == "completed"

    def test_announce_file_handshake(self, tmp_path):
        announce = tmp_path / "svc.json"
        with CampaignService(
            tmp_path / "run", monitor_interval=0.05, announce_path=announce
        ) as service:
            with connect_from_announce(announce) as client:
                assert client.ping()["ok"] is True
            doc = json.loads(announce.read_text())
            assert doc["port"] == service.port


class TestKeptConnections:
    """The executor's writer and the loop's reader outlive their requests."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        """The paths of the stores the service opens, one entry per construction."""
        paths: list[str] = []

        class CountingStore(ResultStore):
            def __init__(self, path):
                paths.append(str(path))
                super().__init__(path)

        monkeypatch.setattr(service_server, "ResultStore", CountingStore)
        return paths

    def test_jobs_on_one_store_share_one_writer(self, service, constructed):
        with ServiceClient("127.0.0.1", service.port) as client:
            for request in (
                JobRequest.for_campaign(campaign_spec("shared"), store="shared.sqlite"),
                JobRequest.for_search(search_spec("shared-search"), store="shared.sqlite"),
            ):
                assert client.submit(request, wait=True)["finished"]["state"] == "completed"
        assert constructed == [str(service.resolve_store("shared.sqlite"))]

    @pytest.mark.parametrize("change", ["deleted", "replaced"])
    def test_a_job_writes_into_the_file_now_at_its_store_path(self, tmp_path, service, change):
        path = service.resolve_store("moved.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            request = JobRequest.for_campaign(campaign_spec("before"), store="moved.sqlite")
            assert client.submit(request, wait=True)["finished"]["state"] == "completed"
            if change == "deleted":
                path.unlink()
            else:
                other = tmp_path / "other.sqlite"
                with ResultStore(str(other)) as store:
                    store.register_campaign("other")
                os.replace(other, path)
            request = JobRequest.for_campaign(campaign_spec("after"), store="moved.sqlite")
            assert client.submit(request, wait=True)["finished"]["state"] == "completed"
        with ResultStore(str(path)) as store:
            names = store.campaign_names()
        assert names == (["after"] if change == "deleted" else ["after", "other"])

    def test_every_job_leaves_its_store_checkpointed_before_it_finishes(
        self, service, monkeypatch
    ):
        """Completed and failed jobs alike: once ``wait`` returns, the kept
        writer's WAL is empty and the rows are in the main database file."""
        record_cell = ResultStore.record_cell
        commits = 0
        inserted = 0

        def fail_the_fourth_commit(store, *args, **kwargs):
            nonlocal commits, inserted
            commits += 1
            if commits == 4:
                raise RuntimeError("store refused the cell")
            recorded = record_cell(store, *args, **kwargs)
            inserted += recorded
            return recorded

        monkeypatch.setattr(ResultStore, "record_cell", fail_the_fourth_commit)
        path = service.resolve_store("durable.sqlite")
        wal = path.with_name(path.name + "-wal")
        requests = [
            JobRequest.for_campaign(campaign_spec("one", cells=2), store="durable.sqlite"),
            JobRequest.for_campaign(campaign_spec("two", cells=2, seeds=3), store="durable.sqlite"),
            JobRequest.for_search(search_spec("three"), store="durable.sqlite"),
        ]
        states = []
        with ServiceClient("127.0.0.1", service.port) as client:
            for request in requests:
                states.append(client.submit(request, wait=True)["finished"]["state"])
                assert wal.stat().st_size == 0
                raw = sqlite3.connect(path)
                try:
                    assert raw.execute("SELECT COUNT(*) FROM cells").fetchone()[0] == inserted
                finally:
                    raw.close()
        assert states == ["completed", "failed", "completed"]

    def test_store_status_reads_through_one_kept_reader(self, service, constructed):
        request = JobRequest.for_campaign(campaign_spec("read"), store="read.sqlite")
        with ServiceClient("127.0.0.1", service.port) as client:
            client.submit(request, wait=True)
            del constructed[:]
            for _ in range(10):
                doc = client.store_status("read.sqlite")
                assert doc["campaigns"] == [{"campaign": "read", "completed": 1}]
        assert constructed == [str(service.resolve_store("read.sqlite"))]

    def test_store_status_leaves_a_writers_wal_alone(self, service):
        request = JobRequest.for_campaign(campaign_spec("wal"), store="wal.sqlite")
        path = service.resolve_store("wal.sqlite")
        wal = path.with_name(path.name + "-wal")
        with ServiceClient("127.0.0.1", service.port) as client:
            client.submit(request, wait=True)
            writer = ResultStore(str(path))
            try:
                writer.register_campaign("pending")
                size = wal.stat().st_size
                assert size > 0
                doc = client.store_status("wal.sqlite")
                assert wal.stat().st_size == size
            finally:
                writer.close()
        assert {"campaign": "pending", "completed": 0} in doc["campaigns"]

    def test_store_status_does_not_wait_on_a_write_transaction(self, service):
        request = JobRequest.for_campaign(campaign_spec("busy"), store="busy.sqlite")
        path = service.resolve_store("busy.sqlite")
        began = threading.Event()

        def hold_a_write_transaction() -> None:
            connection = sqlite3.connect(path, isolation_level=None)
            try:
                connection.execute("BEGIN IMMEDIATE")
                connection.execute("INSERT INTO campaigns (name) VALUES ('held')")
                began.set()
                time.sleep(0.3)
                connection.execute("COMMIT")
            finally:
                connection.close()

        with ServiceClient("127.0.0.1", service.port) as client:
            client.submit(request, wait=True)
            holder = threading.Thread(target=hold_a_write_transaction)
            holder.start()
            try:
                assert began.wait(timeout=10.0)
                sent = time.perf_counter()
                doc = client.store_status("busy.sqlite")
                elapsed = time.perf_counter() - sent
            finally:
                holder.join(timeout=10.0)
            assert not holder.is_alive()
        # The read saw the last committed snapshot, without the held row.
        assert doc["campaigns"] == [{"campaign": "busy", "completed": 1}]
        assert elapsed < 0.1


class TestJobRequestValidation:
    def test_round_trip(self):
        request = JobRequest.for_campaign(
            campaign_spec("rt"), store="rt.sqlite",
            plan=ExecutionPlan(workers=2, pool_chunk=1), priority=3, limit=2,
        )
        assert JobRequest.from_json(request.to_json()) == request

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            JobRequest(kind="bake", spec={}, store="s.sqlite")

    def test_malformed_spec_is_rejected_at_admission(self):
        with pytest.raises(Exception):
            JobRequest(kind="campaign", spec={"name": "x"}, store="s.sqlite")

    def test_missing_fields_are_named(self):
        with pytest.raises(ConfigurationError, match="missing fields: kind, spec"):
            JobRequest.from_dict({"store": "s.sqlite"})

    @pytest.mark.parametrize(
        "field,value,named",
        [
            ("limit", 2.5, "limit"),
            ("limit", True, "limit"),
            ("limit", 0, "limit"),
            ("plan", {"workers": 2, "pool_chunk": 2.5}, "pool_chunk"),
            ("plan", {"workers": "2"}, "workers"),
            ("plan", {"batch": "false"}, "batch"),
        ],
    )
    def test_malformed_plan_or_limit_is_refused_at_admission(self, field, value, named):
        wire = JobRequest.for_campaign(campaign_spec("types"), store="t.sqlite").to_dict()
        wire[field] = value
        with pytest.raises(ConfigurationError, match=named):
            JobRequest.from_dict(wire)

    @pytest.mark.parametrize("value", [True, False, 1.5, "2", None])
    def test_non_integer_priority_is_refused(self, value):
        wire = JobRequest.for_campaign(campaign_spec("types"), store="t.sqlite").to_dict()
        wire["priority"] = value
        with pytest.raises(ConfigurationError, match="priority"):
            JobRequest.from_dict(wire)
        with pytest.raises(ConfigurationError, match="priority"):
            JobRequest.for_campaign(campaign_spec("types"), store="t.sqlite", priority=value)


class _FakeSocket:
    """Just enough socket for ServiceClient.__init__ to finish."""

    def makefile(self, mode):
        import io

        return io.BytesIO()

    def close(self):
        pass


class TestConnectBackoff:
    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError, match="connect_retries"):
            ServiceClient("127.0.0.1", 1, connect_retries=-1)

    def test_rejects_non_positive_backoff(self):
        with pytest.raises(ConfigurationError, match="connect_backoff"):
            ServiceClient("127.0.0.1", 1, connect_backoff=0.0)

    def test_zero_retries_fails_immediately(self, monkeypatch):
        attempts = []

        def refuse(address, timeout=None):
            attempts.append(address)
            raise ConnectionRefusedError("service not up")

        monkeypatch.setattr("repro.service.client.socket.create_connection", refuse)
        with pytest.raises(OSError):
            ServiceClient("127.0.0.1", 1)
        assert len(attempts) == 1

    def test_retries_until_the_service_comes_up(self, monkeypatch):
        attempts = []
        sleeps = []

        def flaky(address, timeout=None):
            attempts.append(address)
            if len(attempts) < 3:
                raise ConnectionRefusedError("service not up yet")
            return _FakeSocket()

        monkeypatch.setattr("repro.service.client.socket.create_connection", flaky)
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        client = ServiceClient("127.0.0.1", 1, connect_retries=5, connect_backoff=0.2)
        client.close()
        assert len(attempts) == 3  # two refusals absorbed, no error surfaced
        # Jittered exponential backoff: attempt k waits in [base*2^k/2, base*2^k].
        assert len(sleeps) == 2
        assert 0.1 <= sleeps[0] <= 0.2
        assert 0.2 <= sleeps[1] <= 0.4

    def test_budget_exhaustion_raises_the_last_error(self, monkeypatch):
        attempts = []

        def refuse(address, timeout=None):
            attempts.append(address)
            raise ConnectionRefusedError("service never came up")

        monkeypatch.setattr("repro.service.client.socket.create_connection", refuse)
        monkeypatch.setattr("repro.service.client.time.sleep", lambda _s: None)
        with pytest.raises(ConnectionRefusedError, match="never came up"):
            ServiceClient("127.0.0.1", 1, connect_retries=2, connect_backoff=0.01)
        assert len(attempts) == 3

    def test_connect_from_announce_forwards_the_budget(self, tmp_path, monkeypatch):
        announce = tmp_path / "svc.json"
        announce.write_text(json.dumps({"host": "127.0.0.1", "port": 1}))
        seen = {}
        real_init = ServiceClient.__init__

        def spy(self, host, port, timeout=60.0, *, connect_retries=0, connect_backoff=0.2):
            seen["retries"] = connect_retries
            seen["backoff"] = connect_backoff
            self._sock = _FakeSocket()
            self._file = self._sock.makefile("rwb")

        monkeypatch.setattr(ServiceClient, "__init__", spy)
        connect_from_announce(announce, connect_retries=4, connect_backoff=0.5).close()
        assert seen == {"retries": 4, "backoff": 0.5}
        monkeypatch.setattr(ServiceClient, "__init__", real_init)
