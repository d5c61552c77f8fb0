#!/usr/bin/env python3
"""Render a markdown dashboard from a directory of BENCH_*.json records.

Reads every BENCH_*.json emitted by `dcolor-bench --json-dir` (schema
dcolor-bench/3, see docs/BENCH_SCHEMA.md), and writes a markdown
report: a summary table (wall-clock medians, throughput, verification
flags), the per-phase wall-time breakdown, the per-phase latency
percentiles from the histograms, and an
optional median-vs-baseline comparison column. CI runs it after the
bench gate and uploads the result as an artifact next to the raw
records; it is equally usable locally:

    python3 scripts/bench_report.py bench-json --baseline bench/baselines

Stdlib only — runnable anywhere CI is. Exit status is 1 only when the
input directory yields no parseable records (a report of nothing is a
broken pipeline, not an empty table).
"""
import argparse
import json
import sys
from pathlib import Path

KNOWN_SCHEMAS = ("dcolor-bench/3",)


def load_records(directory: Path):
    """Parse every BENCH_*.json in `directory`; returns (records, warnings)."""
    records, warnings = [], []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            rec = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            warnings.append(f"{path.name}: unreadable ({e})")
            continue
        schema = rec.get("schema", "")
        if schema not in KNOWN_SCHEMAS:
            warnings.append(f"{path.name}: unknown schema '{schema}', skipped")
            continue
        rec["_file"] = path.name
        records.append(rec)
    return records, warnings


def throughput(rec):
    """nodes*rounds/s, as the record states it."""
    return float(rec.get("nodes_rounds_per_sec", 0.0))


def fmt_throughput(v):
    if v <= 0:
        return "-"
    if v >= 1e6:
        return f"{v / 1e6:.1f}M"
    if v >= 1e3:
        return f"{v / 1e3:.1f}k"
    return f"{v:.0f}"


def fmt_delta(cur, base):
    if not base:
        return "-"
    pct = (cur - base) / base * 100.0
    return f"{pct:+.1f}%"


def instance_label(rec):
    name = rec["_file"]
    if name.startswith("BENCH_") and name.endswith(".json"):
        name = name[len("BENCH_"):-len(".json")]
    return name


def summary_table(records, baselines, out):
    have_baseline = baselines is not None
    header = ["instance", "transport", "n", "threads", "wall ms", "min..max",
              "rounds", "nodes·rounds/s", "rss KB", "ok"]
    if have_baseline:
        header.append("Δ vs baseline")
    out.append("| " + " | ".join(header) + " |")
    out.append("|" + "---|" * len(header))
    for rec in records:
        ok = rec.get("verified", False) and rec.get("checksum_stable", False)
        row = [
            instance_label(rec),
            rec.get("transport", "-"),
            str(rec.get("n", "-")),
            str(rec.get("threads", "-")),
            f"{rec.get('wall_ms', 0.0):.3f}",
            f"{rec.get('wall_ms_min', 0.0):.3f}..{rec.get('wall_ms_max', 0.0):.3f}",
            str(rec.get("rounds", "-")),
            fmt_throughput(throughput(rec)),
            str(rec.get("rss_peak_kb", "-")),
            "yes" if ok else "**NO**",
        ]
        if have_baseline:
            base = baselines.get(rec["_file"])
            row.append(fmt_delta(rec.get("wall_ms", 0.0),
                                 base.get("wall_ms", 0.0) if base else None))
        out.append("| " + " | ".join(row) + " |")


def trajectory_table(records, baselines, out):
    """Throughput trajectory: nodes·rounds/s per instance vs baseline.

    The wall-clock Δ in the summary answers "did this run regress"; this
    table answers "where is the round-loop heading" — the throughput
    ratio against the checked-in baselines, sorted so the biggest moves
    (either direction) lead. Without baselines it degrades to absolute
    throughput, so the weekly full-size report still shows the ranking.
    """
    rows = []
    for rec in records:
        cur = throughput(rec)
        if cur <= 0:
            continue
        base = None
        if baselines is not None:
            base_rec = baselines.get(rec["_file"])
            if base_rec is not None:
                base = throughput(base_rec) or None
        rows.append((instance_label(rec), cur, base))
    if not rows:
        out.append("_No throughput data._")
        return
    ratios = sorted(cur / base for _, cur, base in rows if base)
    # Biggest movers first; baseline-less rows by throughput at the end.
    rows.sort(key=lambda r: (r[2] is None, -(r[1] / r[2]) if r[2] else -r[1]))
    out.append("| instance | nodes·rounds/s | baseline | speedup |")
    out.append("|---|---|---|---|")
    for name, cur, base in rows:
        out.append(f"| {name} | {fmt_throughput(cur)} | {fmt_throughput(base or 0)} | "
                   + (f"{cur / base:.2f}x |" if base else "- |"))
    if ratios:
        out.append("")
        median = ratios[len(ratios) // 2] if len(ratios) % 2 else \
            (ratios[len(ratios) // 2 - 1] + ratios[len(ratios) // 2]) / 2.0
        out.append(f"Median speedup vs baseline: **{median:.2f}x** over "
                   f"{len(ratios)} instance(s).")


def phase_tables(records, out):
    """Per-record phase breakdown plus a cross-record aggregate."""
    with_phases = [r for r in records if r.get("phase_wall_ms")]
    if not with_phases:
        out.append("_No per-phase data (tracing-free runs)._")
        return
    totals = {}
    out.append("| instance | phase breakdown (ms) |")
    out.append("|---|---|")
    for rec in with_phases:
        phases = rec["phase_wall_ms"]
        parts = [f"{name} {ms:.2f}" for name, ms in
                 sorted(phases.items(), key=lambda kv: -kv[1])]
        out.append(f"| {instance_label(rec)} | {', '.join(parts)} |")
        for name, ms in phases.items():
            totals[name] = totals.get(name, 0.0) + ms
    out.append("")
    out.append("Aggregate across all records:")
    out.append("")
    out.append("| phase | total ms | share |")
    out.append("|---|---|---|")
    grand = sum(totals.values()) or 1.0
    for name, ms in sorted(totals.items(), key=lambda kv: -kv[1]):
        out.append(f"| {name} | {ms:.2f} | {ms / grand * 100.0:.1f}% |")


def percentile_table(records, out):
    """Per-phase latency percentiles from the histogram snapshots.

    The phase breakdown above shows WHERE time went in total; this table
    shows the SHAPE — a phase whose p99 pulls far away from its p50 has
    stragglers the totals hide. Only "phase/..." histogram keys are
    aggregated (metric/pool histograms carry counts, not latencies);
    percentiles are per-record estimates, so across records the table
    reports their worst case, which is what a regression hunt wants.
    """
    rows = {}
    dropped = []
    for rec in records:
        for key, h in (rec.get("histograms") or {}).items():
            if not key.startswith("phase/"):
                continue
            phase = key[len("phase/"):]
            row = rows.setdefault(phase, {"count": 0, "total": 0, "p50": 0,
                                          "p90": 0, "p99": 0, "max": 0})
            row["count"] += h.get("count", 0)
            row["total"] += h.get("total", 0)
            for q in ("p50", "p90", "p99", "max"):
                row[q] = max(row[q], h.get(q, 0))
        if rec.get("dropped_events", 0) > 0:
            dropped.append((instance_label(rec), rec["dropped_events"]))
    if not rows:
        out.append("_No phase histograms (tracing-free runs)._")
        return
    out.append("| phase | spans | p50 | p90 | p99 | max |")
    out.append("|---|---|---|---|---|---|")

    def ms(ns):
        return f"{ns / 1e6:.3f}"

    for phase, row in sorted(rows.items(), key=lambda kv: -kv[1]["total"]):
        out.append(f"| {phase} | {row['count']} | {ms(row['p50'])} | {ms(row['p90'])} | "
                   f"{ms(row['p99'])} | {ms(row['max'])} |")
    if dropped:
        out.append("")
        out.append("Dropped trace events (timelines truncated; stats complete): "
                   + ", ".join(f"{name} ({n})" for name, n in dropped) + ".")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("json_dir", type=Path, help="directory of BENCH_*.json records")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="baseline record directory for a Δ column (matched by filename)")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the markdown here instead of stdout")
    args = ap.parse_args()

    records, warnings = load_records(args.json_dir)
    if not records:
        print(f"bench_report: no parseable BENCH_*.json in {args.json_dir}", file=sys.stderr)
        return 1
    baselines = None
    if args.baseline is not None:
        base_records, base_warnings = load_records(args.baseline)
        warnings.extend(f"baseline {w}" for w in base_warnings)
        baselines = {r["_file"]: r for r in base_records}

    schemas = {}
    for rec in records:
        schemas[rec["schema"]] = schemas.get(rec["schema"], 0) + 1
    gits = sorted({rec.get("git", "?") for rec in records})

    out = []
    out.append("# dcolor-bench report")
    out.append("")
    out.append(f"{len(records)} record(s) from `{args.json_dir}`; schema census: "
               + ", ".join(f"`{k}`×{v}" for k, v in sorted(schemas.items()))
               + f"; git: {', '.join(gits)}.")
    out.append("")
    out.append("## Summary")
    out.append("")
    summary_table(records, baselines, out)
    out.append("")
    out.append("## Throughput trajectory")
    out.append("")
    trajectory_table(records, baselines, out)
    out.append("")
    out.append("## Phase wall-time breakdown")
    out.append("")
    out.append("Per-phase span totals from the instrumented profiled rep "
               "(phases may nest across layers, so columns need not sum to "
               "wall ms — see docs/OBSERVABILITY.md).")
    out.append("")
    phase_tables(records, out)
    out.append("")
    out.append("## Phase latency percentiles")
    out.append("")
    out.append("Worst per-record percentile estimate per phase, in ms, from "
               "the histogram snapshots (log-bucketed upper bounds — "
               "see docs/BENCH_SCHEMA.md).")
    out.append("")
    percentile_table(records, out)
    bad = [instance_label(r) for r in records
           if not (r.get("verified", False) and r.get("checksum_stable", False))]
    if bad:
        out.append("")
        out.append("## Verification failures")
        out.append("")
        for name in bad:
            out.append(f"- **{name}**")
    if warnings:
        out.append("")
        out.append("## Warnings")
        out.append("")
        for w in warnings:
            out.append(f"- {w}")
    text = "\n".join(out) + "\n"

    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        print(f"bench_report: wrote {args.out} ({len(records)} records)")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
