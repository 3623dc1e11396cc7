"""Experiment reports: per-row CSV, aggregate JSON, both seed-replayable.

Every row carries the seed and parameters needed to rerun it; aggregates are
recomputable from the rows. Rows are emitted sorted by key so output does not
depend on evaluation order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class Report:
    experiment: str
    params: dict
    rows: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def add_row(self, **fields) -> None:
        self.rows.append(fields)

    def finish(self) -> "Report":
        self.rows.sort(key=lambda r: tuple(sorted(r.items())))
        return self

    def to_json_obj(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "params": self.params,
            "aggregates": self.aggregates,
            "n_rows": len(self.rows),
            "rows": self.rows,
        }

    def write_csv(self, path) -> None:
        self.finish()
        keys = sorted({k for r in self.rows for k in r})
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["schema_version", "experiment"] + keys)
            for r in self.rows:
                writer.writerow(
                    [self.schema_version, self.experiment] + [r.get(k, "") for k in keys]
                )

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def mean(xs) -> float:
    xs = list(xs)
    return math.fsum(xs) / len(xs) if xs else 0.0


def stderr_of_mean(xs) -> float:
    xs = list(xs)
    n = len(xs)
    if n < 2:
        return 0.0
    m = mean(xs)
    var = math.fsum((x - m) ** 2 for x in xs) / (n - 1)
    return math.sqrt(var / n)


def loglog_slope(ns, vals) -> float:
    """Least-squares slope of log(vals) against log(ns)."""
    pts = [(math.log(n), math.log(v)) for n, v in zip(ns, vals) if v > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive points")
    mx = mean(p[0] for p in pts)
    my = mean(p[1] for p in pts)
    num = math.fsum((x - mx) * (y - my) for x, y in pts)
    den = math.fsum((x - mx) ** 2 for x, y in pts)
    if den == 0:
        raise ValueError("need at least two distinct sizes")
    return num / den
