#!/usr/bin/env python3
"""Alternating benchmark pairs of two revisions, from clean copies.

    tools/pairs.py --parent REV --change REV --workload W

Each REV (a commit, or a tree from ``git write-tree``) is ``git
archive``d into ``parent`` or ``change``, names of equal length because
the checkout's path moves peak RSS.  Both lose ``__pycache__`` and
``.bench_work`` before every run of ``BENCHMARK.json``'s command, which
runs for its ``run_seconds`` at the benchmark's default seed, and the
side that runs first alternates, ``PAIRS`` times.  Prints every pair,
then for each end-to-end metric the medians, the change's wins, the
parent's IQR/median and a verdict: ``unresolved`` when that spread is
wider than the metric's bound and not every change run beats every
parent run, else whether the change's median is within the bound.  A run
that is not ``correct`` or has ``failed`` commands is reported, not
dropped.  Standard library only; run it from the repository.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
#: alternating pairs a workload runs
PAIRS = 10


def checkout(rev: str, where: Path) -> Path:
    where.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(where)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")
    return where


def run(copy: Path, command: list) -> dict:
    for cache in [*copy.rglob("__pycache__"), copy / ".bench_work"]:
        shutil.rmtree(cache, ignore_errors=True)
    done = subprocess.run(command, cwd=copy, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {done.returncode}: {done.stderr[-300:]}"}


def value(result: dict, name: str):
    return result["metrics"].get(name, {}).get("value")


def shown(number) -> str:
    return "-" if number is None else f"{number:.4g}"


def verdict(pairs: list, metric: dict) -> str:
    higher = metric["better"] == "higher"
    p, c = zip(*pairs)
    mp, mc = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4)
    wins = sum((b > a) if higher else (b < a) for a, b in pairs)
    change = (mc - mp) / mp
    spread = (q3 - q1) / mp
    if spread > metric["bound"] and not (
            min(c) > max(p) if higher else max(c) < min(p)):
        within = "unresolved, the parent's spread is wider than the bound"
    else:
        within = "yes" if (-change if higher else change) \
            <= metric["bound"] else "NO"
    return (f"median {mp:.4g} -> {mc:.4g} ({change:+.1%}), change better "
            f"{wins}/{len(pairs)}, parent IQR/median {spread:.1%}, within "
            f"its {metric['bound']:.0%} bound: {within}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="pairs.") as work:
        copies = {side: checkout(getattr(args, side), Path(work) / side)
                  for side in SIDES}
        bench = json.loads((copies["change"] / "BENCHMARK.json").read_text())
        metrics = bench["end_to_end"]
        command = [sys.executable if word in ("python", "python3") else word
                   for word in bench["command"]]
        command += ["--workload", args.workload,
                    "--seconds", str(bench["run_seconds"])]
        results = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                results[side].append(run(copies[side], command))
            line = []
            for side in SIDES:
                r = results[side][-1]
                values = " ".join(f"{m['name']}={shown(value(r, m['name']))}"
                                  for m in metrics)
                clean = r["correct"] and r["failed"] == 0
                line.append(f"{side} {values}" + ("" if clean else
                            f" NOT CLEAN: correct={r['correct']} "
                            f"failed={r['failed']} {r.get('error', '')}"))
            print(f"pair {i} ({SIDES[i % 2]} first): " + " | ".join(line),
                  flush=True)
    print(f"{args.workload}, {PAIRS} pairs of {bench['run_seconds']} s runs:")
    for m in metrics:
        pairs = [(value(a, m["name"]), value(b, m["name"]))
                 for a, b in zip(*results.values())]
        pairs = [pair for pair in pairs if None not in pair]
        print(f"  {m['name']}: " + (verdict(pairs, m) if len(pairs) >= 2
                                    else "fewer than two pairs with a value"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
