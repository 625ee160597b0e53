#!/usr/bin/env python3
"""Compare benchmark result sets, or check one set for steadiness.

Result records are the JSON files run.py leaves in <build dir>/results/
(one per run: workload, seed, trace flag, host block, result). Arguments may
be record files or directories holding them. Only untraced (--trace 0)
records are compared; metric directions and bounds come from BENCHMARK.json.

Steadiness of one commit (N repeat runs):

    python3 scanbench/compare.py steady .bench_build/results

  prints, per (workload, end-to-end metric), the median, the quartiles and
  the spread (Q3 - Q1) / median against the metric's bound. A spread above a
  third of the bound is marked "wide"; above the bound, "unresolved".

Parent against change (at least ten alternating pairs per workload):

    python3 scanbench/compare.py ab --parent P_DIR --change C_DIR

  pairs the i-th parent run with the i-th change run of each workload (in
  file-name order, which run.py makes chronological) and prints one row per
  (end-to-end metric, workload): both medians and quartiles, wins of the
  change out of the pairs (ties count for neither), and the ratio
  change / parent with its base. Verdicts:
    gain        the change wins >= 9/10 of the pairs and the medians differ
                by more than the parent's IQR, in the better direction;
    regression  the change's median is worse than the parent's by more than
                the metric's bound;
    unresolved  the parent's own spread exceeds the bound, and not every
                change run beats every parent run;
    same        none of the above.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path):
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_records(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(os.path.join(p, n) for n in os.listdir(p)
                            if n.endswith(".json"))
        else:
            files.append(p)
    by_workload = {}
    for path in files:
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        if rec.get("trace") != 0:
            continue
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med if med else float("inf")


def steady(args, spec):
    data = load_records(args.paths)
    worst = 0.0
    print(f"{'workload':14s} {'metric':22s} {'n':>3s} {'median':>14s} "
          f"{'q1':>14s} {'q3':>14s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in sorted(data):
        recs = data[workload]
        bad = [r for r in recs if not r["result"].get("correct")]
        if bad:
            print(f"{workload}: {len(bad)} run(s) reported incorrect answers")
        for name, m in spec.items():
            vals = values(recs, name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            verdict = ("unresolved" if s > m["bound"] else
                       "wide" if s > m["bound"] / 3 else "ok")
            if name != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"{workload:14s} {name:22s} {len(vals):3d} {med:14.6g} "
                  f"{q1:14.6g} {q3:14.6g} {s:7.3f} {m['bound']:6.2f}  "
                  f"{verdict}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a > b if metric["better"] == "higher" else a < b


def ab(args, spec):
    parent = load_records(args.parent)
    change = load_records(args.change)
    status = 0
    print(f"{'workload':14s} {'metric':22s} {'pairs':>5s} {'parent med':>12s} "
          f"{'[q1, q3]':>27s} {'change med':>12s} {'[q1, q3]':>27s} "
          f"{'wins':>6s} {'ratio':>7s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_recs, c_recs = parent[workload], change[workload]
        pairs = min(len(p_recs), len(c_recs))
        if pairs < 10:
            print(f"{workload}: only {pairs} pairs; at least ten are needed "
                  "for a claim")
        for name, m in spec.items():
            pv = values(p_recs[:pairs], name)
            cv = values(c_recs[:pairs], name)
            if len(pv) != pairs or len(cv) != pairs or pairs == 0:
                continue
            wins = sum(1 for a, b in zip(cv, pv) if better(m, a, b))
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            ratio = cmed / pmed if pmed else float("inf")
            worse_by = ((pmed - cmed) / pmed if m["better"] == "higher"
                        else (cmed - pmed) / pmed) if pmed else 0.0
            all_better = all(better(m, c, p) for c in cv for p in pv)
            if (wins >= 0.9 * pairs and abs(cmed - pmed) > (pq3 - pq1)
                    and better(m, cmed, pmed)):
                verdict = "gain"
            elif spread(pv) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "regression"
                status = 1
            else:
                verdict = "same"
            print(f"{workload:14s} {name:22s} {pairs:5d} {pmed:12.6g} "
                  f"[{pq1:12.6g}, {pq3:12.6g}] {cmed:12.6g} "
                  f"[{cq1:12.6g}, {cq3:12.6g}] {wins:3d}/{pairs:<2d} "
                  f"{ratio:7.3f}  {verdict}")
    print("ratio = change median / parent median (base: the parent median)")
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(HERE),
                                                       "BENCHMARK.json"),
                        help="benchmark definition (default: BENCHMARK.json)")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_steady = sub.add_parser("steady", help="spread of one commit's runs")
    p_steady.add_argument("paths", nargs="+")
    p_ab = sub.add_parser("ab", help="parent against change")
    p_ab.add_argument("--parent", nargs="+", required=True)
    p_ab.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    spec = load_spec(args.spec)
    return steady(args, spec) if args.mode == "steady" else ab(args, spec)


if __name__ == "__main__":
    sys.exit(main())
