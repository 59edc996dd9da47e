"""`ResultSet`: one uniform, tidy result schema for every execution path.

Every trial the :class:`~repro.api.runner.Runner` executes — batch, compiled,
streaming, grid cell, admission or set cover — lands as one
:class:`ResultRow` with the same columns.  The set is *tidy* in the dataframe
sense: one observation (trial) per row, one variable per column, so
aggregation is a group-by; ``repro sweep``'s report
(:class:`~repro.engine.sweep.SweepResult`) renders from it too.

Rows round-trip through JSON (one document) and JSONL (one row per line):
``ResultSet.load(ResultSet.save(path))`` is lossless for every serialisable
field.  The live :class:`~repro.analysis.competitive.CompetitiveRecord` of
each trial stays attached in memory (``row.record``) for callers that need
bounds or diagnostics, but is runtime-only state, not part of the schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.competitive import CompetitiveRecord
from repro.analysis.report import format_table
from repro.analysis.stats import SummaryStats, summarize

__all__ = ["ResultRow", "ResultSet", "RESULT_SCHEMA"]

#: Version stamp of the serialised row schema; loaders reject versions they
#: do not know instead of guessing (same discipline as checkpoints).
RESULT_SCHEMA = 1


def _json_safe(value: Any) -> Any:
    """Coerce a diagnostic value into something ``json.dumps`` accepts."""
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


@dataclass
class ResultRow:
    """One trial of one spec: the tidy unit every aggregation builds on."""

    source: str
    algorithm: str
    backend: str
    mode: str
    problem: str
    trial: int
    label: str
    instance: str
    online_cost: float
    offline_cost: float
    offline_kind: str
    ratio: float
    bound: Optional[float] = None
    normalized_ratio: Optional[float] = None
    feasible: bool = True
    seed: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)
    #: The live evaluation record (runtime-only; not serialised).
    record: Optional[CompetitiveRecord] = None

    def to_dict(self) -> Dict[str, Any]:
        """The serialisable view of this row (drops the live record)."""
        return {
            "source": self.source,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "mode": self.mode,
            "problem": self.problem,
            "trial": self.trial,
            "label": self.label,
            "instance": self.instance,
            "online_cost": self.online_cost,
            "offline_cost": self.offline_cost,
            "offline_kind": self.offline_kind,
            "ratio": self.ratio,
            "bound": self.bound,
            "normalized_ratio": self.normalized_ratio,
            "feasible": self.feasible,
            "seed": self.seed,
            "extra": {k: _json_safe(v) for k, v in self.extra.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ResultRow":
        """Rebuild a row from :meth:`to_dict` output."""
        known = {f for f in cls.__dataclass_fields__ if f != "record"}
        return cls(**{k: v for k, v in payload.items() if k in known})


class ResultSet:
    """An ordered collection of :class:`ResultRow` with aggregation helpers."""

    def __init__(self, rows: Optional[Iterable[ResultRow]] = None):
        self.rows: List[ResultRow] = list(rows or [])

    # -- collection protocol -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> ResultRow:
        return self.rows[index]

    def extend(self, other: Union["ResultSet", Iterable[ResultRow]]) -> "ResultSet":
        """Append another set's rows (in place); returns self for chaining."""
        self.rows.extend(other.rows if isinstance(other, ResultSet) else other)
        return self

    def filter(self, **criteria: Any) -> "ResultSet":
        """Rows whose attributes equal every given criterion, as a new set.

        ``results.filter(algorithm="fractional", backend="numpy")``
        """
        out = self.rows
        for name, wanted in criteria.items():
            out = [row for row in out if getattr(row, name) == wanted]
        return ResultSet(out)

    # -- scalar views --------------------------------------------------------------
    def ratios(self) -> List[float]:
        """Measured competitive ratios, one per row, in order."""
        return [row.ratio for row in self.rows]

    def ratio_stats(self) -> SummaryStats:
        """Summary statistics of the measured ratios."""
        return summarize(self.ratios())

    def all_feasible(self) -> bool:
        """True if every row reported a feasible online solution."""
        return all(row.feasible for row in self.rows)

    # -- aggregation ---------------------------------------------------------------
    def aggregate(
        self, by: Sequence[str] = ("source", "algorithm")
    ) -> List[Dict[str, Any]]:
        """Group rows by the given columns and aggregate the measurements.

        Returns one flat dict per group, in first-seen order, with ``trials``,
        ``ratio_mean``/``ratio_max``, ``online_mean``/``offline_mean`` and
        ``feasible`` (the all-trials conjunction) — the rows of ``repro
        sweep``'s long table, whose ``source`` column it names ``scenario``.
        """
        groups: Dict[Tuple[Any, ...], List[ResultRow]] = {}
        for row in self.rows:
            key = tuple(getattr(row, name) for name in by)
            groups.setdefault(key, []).append(row)
        out: List[Dict[str, Any]] = []
        for key, members in groups.items():
            stats = summarize(r.ratio for r in members)
            record: Dict[str, Any] = dict(zip(by, key))
            record.update(
                {
                    "trials": len(members),
                    "ratio_mean": stats.mean,
                    "ratio_max": stats.maximum,
                    "online_mean": summarize(r.online_cost for r in members).mean,
                    "offline_mean": summarize(r.offline_cost for r in members).mean,
                    "feasible": all(r.feasible for r in members),
                }
            )
            out.append(record)
        return out

    def table(
        self,
        by: Sequence[str] = ("source", "algorithm"),
        *,
        title: Optional[str] = None,
        float_format: str = ".3f",
    ) -> str:
        """The aggregated long-form table: one row per group."""
        return format_table(
            self.aggregate(by), title=title or "Run results", float_format=float_format
        )

    def comparison_table(
        self,
        index: str = "source",
        columns: str = "algorithm",
        *,
        float_format: str = ".3f",
    ) -> str:
        """A pivot of mean competitive ratio: ``index`` rows x ``columns`` keys."""
        column_keys: List[Any] = []
        index_keys: List[Any] = []
        cells: Dict[Tuple[Any, Any], List[float]] = {}
        for row in self.rows:
            i, c = getattr(row, index), getattr(row, columns)
            if i not in index_keys:
                index_keys.append(i)
            if c not in column_keys:
                column_keys.append(c)
            cells.setdefault((i, c), []).append(row.ratio)
        table_rows = []
        for i in index_keys:
            rendered: Dict[str, Any] = {index: i}
            for c in column_keys:
                ratios = cells.get((i, c))
                rendered[f"ratio[{c}]"] = summarize(ratios).mean if ratios else float("nan")
            table_rows.append(rendered)
        return format_table(
            table_rows,
            title=f"Comparison (mean competitive ratio) — {index} x {columns}",
            float_format=float_format,
        )

    # -- serialisation ---------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The full JSON document: schema stamp plus every row."""
        return {"schema": RESULT_SCHEMA, "rows": [row.to_dict() for row in self.rows]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ResultSet":
        """Rebuild a set from :meth:`to_dict` output (strict on the schema)."""
        schema = payload.get("schema")
        if schema != RESULT_SCHEMA:
            raise ValueError(
                f"unknown result schema {schema!r}; this build reads schema {RESULT_SCHEMA}"
            )
        return cls(ResultRow.from_dict(row) for row in payload["rows"])

    def save(self, path: Union[str, Path]) -> Path:
        """Write the set to ``path``: ``.jsonl`` as one row per line, else JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".jsonl":
            lines = [json.dumps({"schema": RESULT_SCHEMA, **row.to_dict()}, sort_keys=True)
                     for row in self.rows]
            path.write_text("\n".join(lines) + ("\n" if lines else ""))
        else:
            path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ResultSet":
        """Read a set written by :meth:`save` (either format)."""
        path = Path(path)
        if path.suffix == ".jsonl":
            rows = []
            for line_number, line in enumerate(path.read_text().splitlines(), start=1):
                if not line.strip():
                    continue
                payload = json.loads(line)
                schema = payload.pop("schema", None)
                if schema != RESULT_SCHEMA:
                    raise ValueError(
                        f"{path}:{line_number}: unknown result schema {schema!r}; "
                        f"this build reads schema {RESULT_SCHEMA}"
                    )
                rows.append(ResultRow.from_dict(payload))
            return cls(rows)
        return cls.from_dict(json.loads(path.read_text()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({len(self.rows)} rows)"
