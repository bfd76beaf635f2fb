#!/usr/bin/env python3
"""Compare two BENCH_*.json result files (bench_util.cc BenchReport format).

Usage:
    bench_diff.py BASELINE.json CANDIDATE.json [--threshold-pct N]
                  [--metric-filter SUBSTR]

Prints per-metric deltas for the benchmark results and the embedded
telemetry section (counters/gauges flattened by name+labels, histograms by
count/p50).

Exit code 1 when any *timing* metric regressed beyond the threshold
(default 5%): metrics named *_seconds regress when the candidate is slower,
*speedup / *improvement_pct / *rows_per_sec regress when the candidate is
smaller. Metrics already in percent (*_pct) are compared by their
difference in percentage points against the same threshold: a relative
change of a difference of two totals mostly measures the noise of both.
Everything else is informational.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit("bench_diff: cannot read %s: %s" % (path, e))


def result_map(doc):
    """(config, metric) -> value from the results array."""
    out = {}
    for row in doc.get("results", []):
        out[(row["config"], row["metric"])] = row["value"]
    return out


def flatten_labels(labels):
    return "{%s}" % ",".join("%s=%s" % kv for kv in sorted(labels.items()))


def telemetry_map(doc):
    """Flattened name{labels} -> value for every telemetry sample.

    Counters/gauges contribute their value; histograms contribute
    name.count and name.p50 entries so both volume and latency shift are
    visible in the diff.
    """
    out = {}
    telemetry = doc.get("telemetry") or {}
    for s in telemetry.get("metrics", []):
        key = s["name"] + (flatten_labels(s["labels"]) if s.get("labels") else "")
        if s.get("kind") == "histogram":
            out[key + ".count"] = s.get("count", 0)
            out[key + ".p50"] = s.get("p50", 0)
        else:
            out[key] = s.get("value", 0)
    return out


def fmt(v):
    if isinstance(v, float) and v != int(v):
        return "%.6g" % v
    return str(v)


def delta_pct(a, b):
    if a == 0:
        return None
    return (b - a) / abs(a) * 100.0


LOWER_IS_BETTER = ("_seconds",)
HIGHER_IS_BETTER = ("speedup", "improvement_pct", "rows_per_sec")


def is_pct(metric):
    """Percentages compare in points, not relative to themselves."""
    return metric.endswith("_pct")


def classify(metric):
    """'lower' / 'higher' / None (informational)."""
    if any(metric.endswith(s) for s in LOWER_IS_BETTER):
        return "lower"
    if any(s in metric for s in HIGHER_IS_BETTER):
        return "higher"
    return None


def print_table(title, rows, headers):
    if not rows:
        return
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print("\n=== %s ===" % title)
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def main():
    ap = argparse.ArgumentParser(
        description="Diff two BenchReport JSON files (results + telemetry).")
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold-pct", type=float, default=5.0,
                    help="timing regression threshold (default 5)")
    ap.add_argument("--metric-filter", default="",
                    help="only show metrics containing this substring")
    args = ap.parse_args()

    a_doc, b_doc = load(args.baseline), load(args.candidate)
    if a_doc.get("bench") != b_doc.get("bench"):
        print("warning: comparing different benches: %s vs %s"
              % (a_doc.get("bench"), b_doc.get("bench")))
    print("bench:    %s" % a_doc.get("bench"))
    print("baseline: %s (sf %s, %s reps, %s backend)"
          % (args.baseline, a_doc.get("scale_factor"), a_doc.get("reps"),
             a_doc.get("backend")))
    print("candidate: %s (sf %s, %s reps, %s backend)"
          % (args.candidate, b_doc.get("scale_factor"), b_doc.get("reps"),
             b_doc.get("backend")))
    if a_doc.get("scale_factor") != b_doc.get("scale_factor"):
        print("warning: scale factors differ; timing deltas are meaningless")

    regressions = []

    # --- benchmark results -----------------------------------------------------
    a_res, b_res = result_map(a_doc), result_map(b_doc)
    rows = []
    for key in sorted(set(a_res) | set(b_res)):
        config, metric = key
        name = "%s/%s" % (config, metric)
        if args.metric_filter and args.metric_filter not in name:
            continue
        va, vb = a_res.get(key), b_res.get(key)
        if va is None or vb is None:
            rows.append((name, fmt(va) if va is not None else "-",
                         fmt(vb) if vb is not None else "-", "-", "added"
                         if va is None else "removed"))
            continue
        if is_pct(metric):
            d = vb - va
            d_str = "%+.2fpp" % d
        else:
            d = delta_pct(va, vb)
            d_str = "%+.2f%%" % d if d is not None else "-"
        direction = classify(metric)
        flag = ""
        if d is not None and direction == "lower" and d > args.threshold_pct:
            flag = "REGRESSION"
        elif d is not None and direction == "higher" and d < -args.threshold_pct:
            flag = "REGRESSION"
        if flag:
            regressions.append(name)
        rows.append((name, fmt(va), fmt(vb), d_str, flag))
    print_table("results (threshold %.1f%%; *_pct in points)"
                % args.threshold_pct, rows,
                ["metric", "baseline", "candidate", "delta", ""])

    # --- telemetry -------------------------------------------------------------
    a_tel, b_tel = telemetry_map(a_doc), telemetry_map(b_doc)
    rows = []
    added = removed = 0
    for key in sorted(set(a_tel) | set(b_tel)):
        if args.metric_filter and args.metric_filter not in key:
            continue
        va, vb = a_tel.get(key), b_tel.get(key)
        if va is None:
            added += 1
            continue
        if vb is None:
            removed += 1
            continue
        if va == vb:
            continue  # unchanged telemetry is noise at this volume
        d = delta_pct(va, vb)
        rows.append((key, fmt(va), fmt(vb),
                     "%+.2f%%" % d if d is not None else "-"))
    print_table("telemetry (changed samples)", rows,
                ["sample", "baseline", "candidate", "delta"])
    if added or removed:
        print("telemetry samples only in candidate: %d, only in baseline: %d"
              % (added, removed))

    # --- verdict ---------------------------------------------------------------
    if regressions:
        print("\n%d regression(s) beyond %.1f%%:" % (len(regressions),
                                                     args.threshold_pct))
        for name in regressions:
            print("  " + name)
        return 1
    print("\nno regressions beyond %.1f%%" % args.threshold_pct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
