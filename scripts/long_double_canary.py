#!/usr/bin/env python3
"""Build and test the tree as it would run with a 64-bit long double.

    python3 scripts/long_double_canary.py WORKDIR [--jobs N]

Copies the working tree (tracked and untracked, not ignored files) into
WORKDIR/src-canary, which must not exist yet, and rewrites every C++
file under src/, tests/ and bench/ with three substitutions: `long
double` -> `double`, `ldexpl` -> `ldexp`, and the `L` suffix dropped
from floating literals (`1.0L` -> `1.0`). That is the value path of a
compiler whose long double is IEEE double (MSVC). The copy is then
configured and built in WORKDIR/build-canary and its tier-1 ctest label
is run. That label holds `dcolor_bench_drift`, which checks every quick
scenario against bench/baselines on drift alone; its DRIFT lines are
read from the ctest output.

Prints the failed ctest entries and the drifted records, and appends
the same summary to $GITHUB_STEP_SUMMARY when that is set. Exits 1 when
any ctest entry failed, 2 when the copy did not build. Stdlib only.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REWRITTEN_DIRS = ("src", "tests", "bench")
CXX_SUFFIXES = {".h", ".cpp"}

# A floating literal with an L suffix: digits with a point and/or an
# exponent. Integer literals (1L, 0UL) have neither and are left alone.
FLOAT_L_RE = re.compile(r"\b((?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)[lL]\b")
# A drifted record's line in dcolor-bench's gate table. Searched, not
# matched: ctest merges the bench's stderr into its stdout, and the
# closing stderr note can land in the middle of a table line.
DRIFT_RE = re.compile(r"(BENCH_\S+?\.json)\s.*\sDRIFT\s")


def rewrite(text):
    text = text.replace("long double", "double")
    text = re.sub(r"\bldexpl\b", "ldexp", text)
    return FLOAT_L_RE.sub(r"\1", text)


def copy_tree(dst):
    files = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode().split("\0")
    changed = 0
    for rel in filter(None, files):
        src = ROOT / rel
        if not src.is_file():
            continue  # deleted in the working tree
        out = dst / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, out)
        if rel.split("/", 1)[0] in REWRITTEN_DIRS and out.suffix in CXX_SUFFIXES:
            before = out.read_text()
            after = rewrite(before)
            if after != before:
                out.write_text(after)
                changed += 1
    return changed


def run(cmd, **kw):
    print("+ " + " ".join(str(c) for c in cmd), flush=True)
    return subprocess.run(cmd, **kw)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--jobs", type=int, default=max(1, min(4, os.cpu_count() or 1)))
    args = ap.parse_args()

    src = args.workdir / "src-canary"
    build = args.workdir / "build-canary"
    if src.exists():
        sys.exit(f"canary: {src} exists; give an empty or new WORKDIR")
    changed = copy_tree(src)
    print(f"canary: rewrote {changed} file(s) under {', '.join(REWRITTEN_DIRS)}", flush=True)

    jobs = str(args.jobs)
    for cmd in (["cmake", "-S", src, "-B", build, "-DDCOLOR_BUILD_EXAMPLES=OFF"],
                ["cmake", "--build", build, "-j", jobs]):
        if run(cmd).returncode != 0:
            print("canary: the rewritten tree did not build", file=sys.stderr)
            return 2

    ctest = run(["ctest", "--test-dir", build, "-L", "tier1", "-j", jobs,
                 "--output-on-failure"], capture_output=True, text=True)
    sys.stdout.write(ctest.stdout)
    # ctest's closing list: "The following tests FAILED:" then one
    # "  <n> - <name> (<reason>)" line per failed entry.
    tail = ctest.stdout.partition("The following tests FAILED:")[2]
    failed = re.findall(r"^\s*\d+ - (\S+) \(", tail, re.M)

    # Only dcolor_bench_drift prints DRIFT table lines, and ctest shows
    # them only when that entry fails.
    drifted = DRIFT_RE.findall(ctest.stdout)

    summary = [
        "## 64-bit long double canary",
        "",
        f"- {len(drifted)} DRIFT record(s) against `bench/baselines`"
        + (": " + ", ".join(f"`{d}`" for d in drifted) if drifted else ""),
        f"- {len(failed)} failed tier-1 ctest entr{'y' if len(failed) == 1 else 'ies'}"
        + (": " + ", ".join(f"`{t}`" for t in failed) if failed else ""),
    ]
    print("\n".join(summary))
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as f:
            f.write("\n".join(summary) + "\n")
    return 1 if failed or ctest.returncode != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
