"""The persistent, resumable campaign result store.

:class:`ResultStore` is an SQLite database holding one row per completed
*cell* (a simulation configuration) and one row per *trial* (a seed of that
cell).  Three properties make campaigns durable:

* **append-only** — trials are only ever inserted, never updated, so the
  store can be extended by later campaigns that share cells;
* **dedup by cell key** — a cell is identified by its content hash (see
  :mod:`repro.campaigns.spec`), so re-running a spec skips everything already
  recorded, no matter which process or machine recorded it;
* **atomic per-cell commits** — a cell's trials and its completion marker are
  written in one SQLite transaction, so a process killed mid-campaign leaves
  either a fully recorded cell or no trace of it, never a torn one.

The store is schema-versioned: opening a database written by an incompatible
layout raises instead of silently misreading it.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.engine.pool import ReducedTrial
from repro.exceptions import ConfigurationError, ExperimentError

#: Version of the on-disk layout.  Bump on any incompatible schema change.
#: (Stores written by older builds may hold one more table, of benchmark
#: rows; it is left in place, unread, so they still open as version 1.)
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    name      TEXT PRIMARY KEY,
    spec_json TEXT
);
CREATE TABLE IF NOT EXISTS cells (
    key       TEXT PRIMARY KEY,
    cell_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_cells (
    campaign  TEXT NOT NULL,
    cell_key  TEXT NOT NULL,
    PRIMARY KEY (campaign, cell_key)
);
CREATE TABLE IF NOT EXISTS trials (
    cell_key        TEXT    NOT NULL,
    seed            INTEGER NOT NULL,
    synchronized    INTEGER NOT NULL,
    agreement       INTEGER NOT NULL,
    safety          INTEGER NOT NULL,
    leader_count    INTEGER NOT NULL,
    max_sync_latency INTEGER,
    rounds_simulated INTEGER NOT NULL,
    stabilization_rounds INTEGER,
    PRIMARY KEY (cell_key, seed)
);
"""


#: One execution's headline outcome, as persisted per (cell, seed): the
#: engine's per-trial row itself, under the name :mod:`repro.campaigns`
#: exports.
TrialRecord = ReducedTrial


class ResultStore:
    """An SQLite-backed store of campaign cells and their trial outcomes.

    Parameters
    ----------
    path:
        Database file (created on first open); ``":memory:"`` works for tests.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = str(path)
        self._connection = sqlite3.connect(self._path)
        self._connection.execute("PRAGMA foreign_keys = ON")
        # Write-ahead logging turns the per-cell commits campaigns hammer the
        # store with into sequential appends (readers never block the writer),
        # and synchronous=NORMAL drops the per-commit fsync to one per WAL
        # checkpoint — safe here because every cell commit is atomic and a
        # torn tail is discarded on recovery, so an interrupted campaign
        # resumes bit-identically either way.  Filesystems that cannot take
        # WAL (read-only mounts, some network filesystems) refuse the pragma;
        # fall back to the default rollback journal silently.
        self._wal = False
        try:
            row = self._connection.execute("PRAGMA journal_mode=WAL").fetchone()
            self._wal = row is not None and str(row[0]).lower() == "wal"
        except sqlite3.OperationalError:  # pragma: no cover - fs-dependent
            self._wal = False
        if self._wal:
            self._connection.execute("PRAGMA synchronous=NORMAL")
        with self._connection:
            self._connection.executescript(_SCHEMA)
            # Additive migration (no schema-version bump):
            # databases written before fault injection lack the
            # stabilization_rounds column; their rows read back as NULL, which
            # is exactly what fault-free trials store anyway.
            columns = {
                row[1]
                for row in self._connection.execute("PRAGMA table_info(trials)").fetchall()
            }
            if "stabilization_rounds" not in columns:
                self._connection.execute(
                    "ALTER TABLE trials ADD COLUMN stabilization_rounds INTEGER"
                )
            row = self._connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
            elif int(row[0]) != STORE_SCHEMA_VERSION:
                raise ConfigurationError(
                    f"result store {self._path!r} has schema version {row[0]}, "
                    f"but this build reads version {STORE_SCHEMA_VERSION}"
                )

    # -- lifecycle -------------------------------------------------------

    @property
    def path(self) -> str:
        """The database location this store was opened on."""
        return self._path

    @property
    def wal_enabled(self) -> bool:
        """True when the store runs in write-ahead-logging mode."""
        return self._wal

    def flush(self) -> None:
        """Force everything committed so far onto stable storage.

        Commits any open transaction and, in WAL mode, checkpoints the whole
        log back into the main database file — after this returns, the rows
        survive a power cut and the database is readable by tools that do not
        speak WAL.  A no-op-safe call at any point; :meth:`close` (and the
        context-manager exit) invokes it, so a cleanly closed store is always
        durable.
        """
        self._connection.commit()
        if self._wal:
            try:
                self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.OperationalError:  # pragma: no cover - fs-dependent
                pass

    def close(self) -> None:
        """Flush and close the underlying connection (idempotent)."""
        try:
            self.flush()
        except sqlite3.ProgrammingError:
            return  # already closed
        self._connection.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- campaigns -------------------------------------------------------

    def register_campaign(self, name: str, spec_json: Optional[str] = None) -> None:
        """Record a campaign name (and its spec, when declarative).

        Re-registering the same name with the same spec is a no-op; with a
        *different* spec it raises — one name must always mean one grid, or
        resume semantics would silently change under the caller.
        """
        row = self._connection.execute(
            "SELECT spec_json FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if row is not None:
            if row[0] != spec_json:
                raise ExperimentError(
                    f"campaign {name!r} is already registered with a different spec; "
                    "use a new campaign name (or a new store) for a changed grid"
                )
            return
        with self._connection:
            self._connection.execute(
                "INSERT INTO campaigns (name, spec_json) VALUES (?, ?)", (name, spec_json)
            )

    def campaign_names(self) -> list[str]:
        """All registered campaign names, sorted."""
        rows = self._connection.execute("SELECT name FROM campaigns ORDER BY name").fetchall()
        return [row[0] for row in rows]

    def spec_json_for(self, name: str) -> Optional[str]:
        """The stored spec JSON for a campaign.

        ``None`` for a campaign registered without a spec — older builds
        recorded imperative sweeps that way, and their stores still read.
        """
        row = self._connection.execute(
            "SELECT spec_json FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise ExperimentError(f"no campaign {name!r} in store {self._path!r}")
        return row[0]

    # -- cells -----------------------------------------------------------

    def completed_keys(self, campaign: Optional[str] = None) -> set[str]:
        """Keys of every completed cell (optionally restricted to a campaign)."""
        if campaign is None:
            rows = self._connection.execute("SELECT key FROM cells").fetchall()
        else:
            rows = self._connection.execute(
                "SELECT cell_key FROM campaign_cells WHERE campaign = ?", (campaign,)
            ).fetchall()
        return {row[0] for row in rows}

    def has_cell(self, key: str) -> bool:
        """True if a completed cell with this key exists (under any campaign)."""
        row = self._connection.execute("SELECT 1 FROM cells WHERE key = ?", (key,)).fetchone()
        return row is not None

    def add_cells_to_campaign(self, campaign: str, keys: Sequence[str]) -> None:
        """Attribute already-completed cells to a campaign.

        Cell data is shared store-wide (the content hash is the identity);
        attribution is per campaign, so a campaign that *reuses* another's
        cells must claim them to see them in its own status and aggregates.
        Claiming is idempotent.
        """
        missing = [key for key in keys if not self.has_cell(key)]
        if missing:
            raise ExperimentError(
                f"cannot attribute unrecorded cells to campaign {campaign!r}: {missing}"
            )
        with self._connection:
            self._connection.executemany(
                "INSERT OR IGNORE INTO campaign_cells (campaign, cell_key) VALUES (?, ?)",
                [(campaign, key) for key in keys],
            )

    def record_cell(
        self,
        campaign: str,
        key: str,
        cell: Mapping[str, Any],
        records: Sequence[ReducedTrial],
    ) -> bool:
        """Atomically record one completed cell, all its trials, and its
        attribution to ``campaign``.

        Returns ``False`` when the cell data was already present — the dedup
        path — in which case only the campaign attribution is (idempotently)
        added.  The dedup check and the insert are one ``INSERT OR IGNORE``
        inside one transaction, so two processes racing on the same cell
        cannot conflict: exactly one records the trials, the other just gains
        the attribution.  An interrupt can never leave a partially recorded
        cell.
        """
        if not records:
            raise ExperimentError(f"cell {key} has no trial records to store")
        with self._connection:
            cursor = self._connection.execute(
                "INSERT OR IGNORE INTO cells (key, cell_json) VALUES (?, ?)",
                (key, json.dumps(dict(cell), sort_keys=True)),
            )
            inserted = cursor.rowcount == 1
            if inserted:
                self._insert_trials(key, records)
            self._connection.execute(
                "INSERT OR IGNORE INTO campaign_cells (campaign, cell_key) VALUES (?, ?)",
                (campaign, key),
            )
        return inserted

    def _insert_trials(self, key: str, records: Sequence[ReducedTrial]) -> None:
        self._connection.executemany(
                "INSERT INTO trials (cell_key, seed, synchronized, agreement, safety,"
                " leader_count, max_sync_latency, rounds_simulated, stabilization_rounds)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        key,
                        record.seed,
                        int(record.synchronized),
                        int(record.agreement),
                        int(record.safety),
                        record.leader_count,
                        record.max_sync_latency,
                        record.rounds_simulated,
                        record.stabilization_rounds,
                    )
                    for record in records
                ],
            )

    def cell_description(self, key: str) -> dict[str, Any]:
        """The canonical description a cell was recorded under."""
        row = self._connection.execute(
            "SELECT cell_json FROM cells WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            raise ExperimentError(f"no cell {key!r} in store {self._path!r}")
        return json.loads(row[0])

    def trial_records(self, key: str) -> tuple[ReducedTrial, ...]:
        """The stored trials of one cell, in seed order."""
        rows = self._connection.execute(
            "SELECT seed, synchronized, agreement, safety, leader_count,"
            " max_sync_latency, rounds_simulated, stabilization_rounds FROM trials"
            " WHERE cell_key = ? ORDER BY seed",
            (key,),
        ).fetchall()
        return tuple(
            ReducedTrial(
                seed=row[0],
                synchronized=bool(row[1]),
                agreement=bool(row[2]),
                safety=bool(row[3]),
                leader_count=row[4],
                max_sync_latency=row[5],
                rounds_simulated=row[6],
                stabilization_rounds=row[7],
            )
            for row in rows
        )

    def iter_cells(
        self, campaign: Optional[str] = None
    ) -> Iterator[tuple[str, dict[str, Any], tuple[ReducedTrial, ...]]]:
        """Yield ``(key, description, trials)`` for every completed cell.

        Cells come back in insertion order, which for a campaign run matches
        the spec's deterministic expansion order.
        """
        if campaign is None:
            rows = self._connection.execute(
                "SELECT key, cell_json FROM cells ORDER BY rowid"
            ).fetchall()
        else:
            rows = self._connection.execute(
                "SELECT cells.key, cells.cell_json FROM campaign_cells"
                " JOIN cells ON cells.key = campaign_cells.cell_key"
                " WHERE campaign_cells.campaign = ? ORDER BY cells.rowid",
                (campaign,),
            ).fetchall()
        for key, cell_json in rows:
            yield key, json.loads(cell_json), self.trial_records(key)

    def cell_count(self, campaign: Optional[str] = None) -> int:
        """Number of completed cells (optionally restricted to a campaign)."""
        return len(self.completed_keys(campaign))
