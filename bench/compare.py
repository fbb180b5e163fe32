"""Compare a parent result set with a change result set.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of the result files run.py writes (its --out).
Measure both commits with the same benchmark code and --seconds, at least ten
runs per workload on each side, alternating which side runs first. The i-th
parent run and the i-th change run of a workload (in start order) form a pair.

For each workload and end-to-end metric this prints each side's median and
quartiles, the change's win fraction over the pairs, and a verdict:

- improved: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither), the medians differ in the better direction by
  more than the parent's quartile spread, and no more operations failed
  than at the parent;
- unresolved: the spread (quartile distance over median) of either side is
  wider than the metric's bound, and not every change run beats every
  parent run;
- worse: the change median is worse than the parent median by more than the
  bound (a share of the parent median);
- no worse: otherwise.

Bounds and directions come from BENCHMARK.json. The exit code is 0 when
every verdict is improved or no worse, 1 when one is unresolved or a side
has no runs of a workload, and 2 when one is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(result_dir: Path) -> dict:
    """workload -> timed-run records in start order."""
    runs = defaultdict(list)
    for path in sorted(result_dir.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs[rec["workload"]].append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["started_unix"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, failed_p, failed_c):
    """Returns (verdict, wins, pairs) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > p3 - p1 and failed_c <= failed_p):
        return "improved", wins, len(pairs)
    spread = max((p3 - p1) / max(abs(pm), 1e-300),
                 (c3 - c1) / max(abs(cm), 1e-300))
    if spread > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "no worse", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(pm):
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    parent, change = load(args.parent), load(args.change)
    worst = 0
    rank = {"improved": 0, "no worse": 0, "unresolved": 1, "worse": 2}
    print(f"{'workload':13s} {'metric':20s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'wins':>7s}  verdict")
    for wl in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(wl, []), change.get(wl, [])
        if not p_runs or not c_runs:
            print(f"{wl:13s} missing runs: parent {len(p_runs)}, change "
                  f"{len(c_runs)}")
            worst = max(worst, 1)
            continue
        if {r["seconds"] for r in p_runs} != {r["seconds"] for r in c_runs}:
            print(f"{wl:13s} warning: the two sides ran for different "
                  f"--seconds")
        failed_p = sum(r["result"]["failed"] for r in p_runs)
        failed_c = sum(r["result"]["failed"] for r in c_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            v, wins, n = verdict(pv, cv, m["better"], m["bound"], failed_p,
                                 failed_c)
            worst = max(worst, rank[v])
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{wl:13s} {name:20s} "
                  f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>30s} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>30s} "
                  f"{f'{wins}/{n}':>7s}  {v}")
        if failed_c > failed_p:
            print(f"{wl:13s} more failed operations than the parent: "
                  f"{failed_c} vs {failed_p}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
