"""Sweep matrices and their keyed result.

A :class:`Matrix` is one sweep: named axes, one
:class:`~repro.harness.experiment.Experiment` per cell (built from the
cell's axis values), a table (title, header lines, columns, rows,
footer), and the payload its fingerprint folds.
:func:`~repro.harness.runner.run_sweep` runs a matrix and returns a
:class:`SweepResult` with one :class:`Cell` per experiment, in input
order.  The result has one ``render``, one ``rows`` view, one
``to_json``, one ``lanes`` view and one digest fold, so every paper
figure and the ``faults`` and ``tenants`` commands differ only in their
matrices.  A row is a dict; each column names its header and
the row key it shows once, so the printed table and the rows that
claims read (:mod:`repro.harness.claims`) come from one spec.  A bare
experiment list is a one-axis matrix keyed by ``name``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..analysis.determinism import fingerprint_digest
from .experiment import Experiment, ExperimentSummary
from .report import format_table


@dataclass
class Matrix:
    """Named axes over experiments, and how a swept result reads."""

    axes: Sequence[str]
    #: One tuple of axis values per cell, in run order.
    keys: List[tuple]
    experiments: List[Experiment]
    title: str = ""
    #: ``(header, key)`` per table column (a bare ``key`` is its own
    #: header); ``rows`` yields one row dict at a time, one or more per
    #: cell (without ``rows``: each cell's axis values and status).  Rows
    #: with no columns print no table.
    columns: Sequence[Union[str, Tuple[str, str]]] = ()
    rows: Optional[Callable[["SweepResult"], Iterable[Dict[str, Any]]]] = None
    #: Lines printed above and under the table.
    header: Optional[Callable[["SweepResult"], Iterable[str]]] = None
    footer: Optional[Callable[["SweepResult"], Iterable[str]]] = None
    #: The payload the sweep fingerprint hashes (default: every cell's
    #: axis values and digest).
    fold: Optional[Callable[["SweepResult"], object]] = None
    #: Sweep-level ``to_json`` fields, and the fields of a cell that has
    #: a summary beyond its axis values, status and digest.
    info: Optional[Callable[["SweepResult"], Dict[str, Any]]] = None
    cell_info: Optional[Callable[["Cell"], Dict[str, Any]]] = None
    #: Trace lanes (:class:`~repro.obs.events.LaneSeries`), built only on
    #: request.
    lanes: Optional[Callable[["SweepResult"], Iterable[Any]]] = None

    @property
    def table_columns(self) -> List[Tuple[str, str]]:
        """``(header, key)`` per printed column."""
        columns = self.columns if self.rows else (*self.axes, "status")
        return [(col, col) if isinstance(col, str) else col for col in columns]

    def __post_init__(self) -> None:
        shadowed = [axis for axis in self.axes if hasattr(Cell, axis)]
        if shadowed:
            raise ValueError(f"axes {shadowed} would be shadowed by Cell attributes")

    @classmethod
    def build(
        cls,
        axes: Sequence[str],
        keys: Iterable[tuple],
        cell: Callable[..., Experiment],
        **view: Any,
    ) -> "Matrix":
        """A matrix whose experiment for each key is ``cell(*key)``."""
        keys = [tuple(key) for key in keys]
        return cls(tuple(axes), keys, [cell(*key) for key in keys], **view)

    @classmethod
    def of(cls, experiments: Iterable[Experiment]) -> "Matrix":
        """A bare experiment list as a one-axis matrix keyed by name."""
        batch = list(experiments)
        return cls(("name",), [(exp.name,) for exp in batch], batch)


class Cell:
    """One swept cell: its axis values as attributes, plus ``status``,
    ``cached``, ``digest`` and ``summary``."""

    __slots__ = ("result", "index")

    def __init__(self, result: "SweepResult", index: int) -> None:
        self.result = result
        self.index = index

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_") or name in Cell.__slots__:
            raise AttributeError(name)
        matrix = self.result.matrix
        try:
            return matrix.keys[self.index][list(matrix.axes).index(name)]
        except ValueError:
            raise AttributeError(f"no axis {name!r} in {list(matrix.axes)}") from None

    @property
    def key(self) -> tuple:
        return self.result.matrix.keys[self.index]

    @property
    def status(self) -> str:
        return self.result.records[self.index].status

    @property
    def cached(self) -> bool:
        return self.status == "cached"

    @property
    def summary(self) -> Optional[ExperimentSummary]:
        return self.result.summaries[self.index]

    @property
    def experiment(self) -> Experiment:
        return self.result.matrix.experiments[self.index]

    @property
    def digest(self) -> str:
        """The summary's fingerprint digest (``""`` when the cell failed)."""
        return self.result.digest(self.index) if self.summary is not None else ""

    def to_json(self) -> Dict[str, Any]:
        """Axis values, ``status``, ``cached``, ``digest``, then the
        matrix's own fields when the cell has a summary."""
        info = self.result.matrix.cell_info
        return {
            **dict(zip(self.result.matrix.axes, self.key)),
            "status": self.status,
            "cached": self.cached,
            "digest": self.digest,
            **(info(self) if info is not None and self.summary is not None else {}),
        }


@dataclass
class SweepRecord:
    """The fate of one experiment inside a sweep."""

    name: str
    #: "ok", "retried" (succeeded after >= 1 crash), "cached" (served
    #: from the result cache, no simulation), "timeout", "failed".
    status: str
    attempts: int
    error: Optional[str] = None
    wall_seconds: float = 0.0
    #: ``fingerprint_digest`` of the summary: the digest the result cache
    #: verified on a hit or stored with a fresh result, else ``None`` until
    #: :meth:`SweepResult.digest` computes it.
    fingerprint: Optional[str] = None
    #: The exception the last attempt raised ("failed" records only);
    #: :func:`~repro.harness.runner.run_experiments` re-raises it.
    exception: Optional[BaseException] = field(default=None, repr=False, compare=False)

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "retried", "cached")


@dataclass
class SweepResult:
    """Partial-result report of one sweep: every cell is accounted for,
    whether it produced a summary or not.

    ``summaries[i]`` is ``None`` exactly when ``records[i]`` reports a
    timeout or failure, so positional pairing with the matrix's cells is
    preserved even through losses.
    """

    summaries: List[Optional[ExperimentSummary]] = field(default_factory=list)
    records: List[SweepRecord] = field(default_factory=list)
    #: The swept matrix (:func:`~repro.harness.runner.run_sweep` sets it).
    matrix: Matrix = field(default_factory=lambda: Matrix.of([]))

    @property
    def cells(self) -> List[Cell]:
        return [Cell(self, index) for index in range(len(self.records))]

    def cell(self, **values: Any) -> Cell:
        """The one cell whose axis values include ``values``."""
        found = [c for c in self.cells if all(getattr(c, k) == v for k, v in values.items())]
        if len(found) != 1:
            raise KeyError(f"{len(found)} cells match {values}")
        return found[0]

    def rows(self) -> List[Dict[str, Any]]:
        """The matrix's row dicts (the table's rows, before formatting)."""
        if self.matrix.rows is not None:
            return list(self.matrix.rows(self))
        axes = self.matrix.axes
        return [{**dict(zip(axes, c.key)), "status": c.status} for c in self.cells]

    def digest(self, index: int) -> str:
        """``fingerprint_digest`` of ``summaries[index]``, hashed at most once."""
        record = self.records[index]
        if record.fingerprint is None:
            summary = self.summaries[index]
            if summary is None:
                raise ValueError(f"{record.name!r} has no summary ({record.status})")
            record.fingerprint = fingerprint_digest(summary)
        return record.fingerprint

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the matrix's fold payload: equal for a serial, a
        pool-sharded and a cache-served sweep of the same seeded matrix."""
        fold = self.matrix.fold
        payload = fold(self) if fold else tuple(c.key + (c.digest,) for c in self.cells)
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()

    def render(self) -> str:
        """The matrix's header lines, its table, then its footer lines."""
        matrix = self.matrix
        columns = matrix.table_columns
        table = [
            format_table(
                [header for header, _ in columns],
                [[row.get(key) for _, key in columns] for row in self.rows()],
                title=matrix.title or None,
            )
        ] if columns else []
        return "\n".join([
            *(matrix.header(self) if matrix.header else ()),
            *table,
            *(matrix.footer(self) if matrix.footer else ()),
        ])

    def to_json(self) -> Dict[str, Any]:
        """A JSON-able dict (the CLI ``--out`` artifact of a matrix)."""
        matrix = self.matrix
        return {
            "axes": list(matrix.axes),
            **(matrix.info(self) if matrix.info else {}),
            "fingerprint": self.fingerprint,
            "exit_code": self.exit_code,
            "cells": [cell.to_json() for cell in self.cells],
        }

    def lanes(self) -> List[Any]:
        """The matrix's trace lanes, in the order a recorder draws them."""
        return list(self.matrix.lanes(self)) if self.matrix.lanes else []

    def counts(self) -> Dict[str, int]:
        """``{status: count}`` over every record (absent statuses omitted)."""
        out: Dict[str, int] = {}
        for rec in self.records:
            out[rec.status] = out.get(rec.status, 0) + 1
        return out

    def raise_first_failure(self) -> None:
        """Re-raise the first failed experiment's exception, in input order."""
        for record in self.records:
            if record.exception is not None:
                raise record.exception

    @property
    def exit_code(self) -> int:
        """0 = all succeeded; 1 = partial failure; 2 = nothing succeeded."""
        failed = sum(1 for rec in self.records if not rec.succeeded)
        if failed == 0:
            return 0
        if failed == len(self.records):
            return 2
        return 1

    def failure_manifest(self) -> Dict[str, Any]:
        """A JSON-able report of the sweep's losses (for CI artifacts)."""
        return {
            "total": len(self.records),
            "counts": self.counts(),
            "exit_code": self.exit_code,
            "failures": [
                {
                    "name": rec.name,
                    "status": rec.status,
                    "attempts": rec.attempts,
                    "error": rec.error,
                    "wall_seconds": round(rec.wall_seconds, 3),
                }
                for rec in self.records
                if not rec.succeeded
            ],
        }


__all__ = ["Cell", "Matrix", "SweepRecord", "SweepResult"]
