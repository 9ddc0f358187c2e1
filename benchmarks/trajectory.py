"""Reduce perfbench run records to one tracked ``BENCH_<label>.json``.

    python3 benchmarks/trajectory.py RECORDS [--parent RECORDS] \\
        [--label L] [--out PATH]

``RECORDS`` is a ``.perfbench-work/records`` directory: one JSON record
per ``perfbench/run.py`` run, named ``<workload>-s<seed>-t<trace>-
<stamp>-<pid>.json``.  The runs of the change are required; with
``--parent`` the runs of the commit it is measured against are reduced
beside them and paired.  Per workload and side the output holds the run
count, the share of failed operations (``failed / attempted`` summed
over runs), the number of runs whose output checks failed and the input
variants; per metric the unit, the direction ``BENCHMARK.json`` gives
it, and each side's median, quartiles and run count.  With a parent,
the runs of a metric pair up in run order (the first parent run with
the first change run, and so on), and ``wins`` counts the pairs where
the change is strictly better in the metric's direction.

Every record in a directory is reduced, so it should hold only the runs
being compared: ``perfbench/selftest.py`` leaves its ``--tiny`` runs
there too.  Each side lists the input variants its runs measured, so a
mix shows.

Writes ``--out`` (default: stdout).  Nothing under ``perfbench/`` is
read or written except the records themselves; ``BENCHMARK.json`` is
read for the metric directions only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
from typing import Dict, List, Optional

SCHEMA = "repro-bench-trajectory/1"

_RECORD = re.compile(
    r"^(?P<workload>.+)-s(?P<seed>\d+)-t(?P<trace>[01])-(?P<stamp>\d{8}T\d{6})-(?P<pid>\d+)\.json$"
)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory: str) -> Dict[str, List[dict]]:
    """``{workload: [record, ...]}`` in run order (stamp, then pid)."""
    found = []
    for name in os.listdir(directory):
        match = _RECORD.match(name)
        if match is None:
            continue  # e.g. the ``.spans.json`` beside a traced record
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            record = json.load(handle)
        key = (match["stamp"], int(match["pid"]))
        found.append((key, match["workload"], record))
    runs: Dict[str, List[dict]] = {}
    for _key, workload, record in sorted(found, key=lambda item: item[0]):
        runs.setdefault(workload, []).append(record)
    return runs


def directions() -> Dict[str, str]:
    """``{metric: "lower"|"higher"}`` from the repository's ``BENCHMARK.json``."""
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        entry["name"]: entry["better"]
        for section in ("end_to_end", "per_layer")
        for entry in spec.get(section, [])
    }


def spread(values: List[float]) -> dict:
    """Median, quartiles (inclusive method) and count of ``values``."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def _metric_values(records: List[dict]) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def _units(records: List[dict]) -> Dict[str, str]:
    return {
        name: metric["unit"]
        for record in records
        for name, metric in record["result"]["metrics"].items()
    }


def side_summary(records: List[dict]) -> dict:
    attempted = sum(record["result"]["attempted"] for record in records)
    failed = sum(record["result"]["failed"] for record in records)
    return {
        "runs": len(records),
        "incorrect_runs": sum(1 for record in records if not record["result"]["correct"]),
        "failed_share": failed / attempted if attempted else 0.0,
        "variants": sorted({record["inputs"]["variant"] for record in records}),
    }


def wins(parent: List[float], change: List[float], better: Optional[str]) -> Optional[int]:
    """Pairs (in run order) where the change is strictly better."""
    if better not in ("lower", "higher"):
        return None
    pairs = zip(parent, change)
    if better == "lower":
        return sum(1 for old, new in pairs if new < old)
    return sum(1 for old, new in pairs if new > old)


def reduce_runs(
    change: Dict[str, List[dict]],
    parent: Optional[Dict[str, List[dict]]] = None,
    better: Optional[Dict[str, str]] = None,
    label: Optional[str] = None,
) -> dict:
    """The trajectory document for one change (and optionally its parent)."""
    better = better or {}
    sides = {"change": change}
    if parent is not None:
        sides["parent"] = parent
    workloads = {}
    for workload in sorted(set().union(*(runs.keys() for runs in sides.values()))):
        per_side = {side: runs.get(workload, []) for side, runs in sides.items()}
        values = {side: _metric_values(records) for side, records in per_side.items()}
        units: Dict[str, str] = {}
        for records in per_side.values():
            units.update(_units(records))
        metrics = {}
        for name in sorted(units):
            entry = {"unit": units[name], "better": better.get(name)}
            for side in sides:
                if values[side].get(name):
                    entry[side] = spread(values[side][name])
            if parent is not None and values["parent"].get(name) and values["change"].get(name):
                old, new = values["parent"][name], values["change"][name]
                entry["pairs"] = min(len(old), len(new))
                entry["wins"] = wins(old, new, better.get(name))
            metrics[name] = entry
        workloads[workload] = {
            "sides": {side: side_summary(records) for side, records in per_side.items()},
            "metrics": metrics,
        }
    return {"schema": SCHEMA, "label": label, "workloads": workloads}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", help="the change's .perfbench-work/records")
    parser.add_argument("--parent", help="the parent's .perfbench-work/records")
    parser.add_argument("--label", help="the <label> of BENCH_<label>.json")
    parser.add_argument("--out", help="write here instead of stdout")
    args = parser.parse_args(argv)
    document = reduce_runs(
        load_runs(args.records),
        load_runs(args.parent) if args.parent else None,
        directions(),
        args.label,
    )
    text = json.dumps(document, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
