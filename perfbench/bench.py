"""One benchmark run: set-up, timed passes, output checks and metrics.

A pass runs every command of the workload once, each in a fresh process,
as a user would.  With ``--trace 1`` untraced and traced passes alternate:
the untraced ones give ``trace.overhead_frac`` and the traced ones the
per-layer metrics, so the two kinds of numbers are never mixed.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import oracle
import tracer
from workloads import WORKLOADS, CheckFailed

WORK_DIR = ".bench_work"
#: a run must end within 180 s: commands are killed at this budget, and no
#: pass starts that would end within 15 s of it (checks and clean-up follow)
RUN_BUDGET_S = 165.0
#: builds of the inputs per run; ``setup_s`` is their median
SETUP_BUILDS = 3
#: what the ``pcedit`` console script runs
CLI_ENTRY = "from pcedit.cli import main; main()"
WARM_UP = "import pcedit.cli"
TRACER = str(Path(tracer.__file__).resolve())


def _digests(workdir: Path, outputs) -> dict[str, str]:
    found = {}
    for name in outputs:
        path = workdir / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) \
            if path.is_dir() else [path]
        for f in files:
            key = str(f.relative_to(workdir))
            found[key] = oracle.sha256_file(f) if f.exists() else "missing"
    return found


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def machine_facts(root: Path) -> dict:
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "laspy": importlib.util.find_spec("laspy") is not None,
            "git_sha": sha, "platform": platform.platform()}


class Run:
    def __init__(self, args, root: Path, launcher):
        self.workload = WORKLOADS[args.workload]
        self.n = self.workload.sizes[args.size]
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.workdir = root / WORK_DIR / self.workload.name
        self.launcher = launcher
        self.commands = self.workload.commands()
        self.started = time.perf_counter()
        env = {k: v for k, v in os.environ.items()
               if k not in ("PCEDIT_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env
        # digests of each command's outputs once the oracle accepted them
        self.verified: list[dict | None] = [None] * len(self.commands)
        self.attempted = 0
        self.failures: list[str] = []

    def build_inputs(self, where: Path) -> dict:
        """One timed set-up: the inputs built from the seed, in ``where``."""
        where.mkdir(exist_ok=True)
        for name in self.workload.inputs:
            _remove(where / name)
        start = time.perf_counter()
        data = self.workload.generate(self.seed, self.n)
        self.workload.write_inputs(data, where)
        self.setup_samples.append(time.perf_counter() - start)
        digests = _digests(where, self.workload.inputs)
        if self.input_digests not in (None, digests):
            raise RuntimeError("the same seed built different inputs")
        self.input_digests = digests
        return data

    def set_up(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.setup_samples, self.input_digests = [], None
        data = self.build_inputs(self.workdir)
        for _ in range(SETUP_BUILDS - 1):
            self.build_inputs(self.workdir / "rebuild")
        shutil.rmtree(self.workdir / "rebuild")
        # the oracles are not part of the set-up time
        self.expected = self.workload.expect(data, self.workdir)

    def run_pass(self, number: int, traced: bool) -> dict:
        for cmd in self.commands:
            for name in cmd.outputs:
                _remove(self.workdir / name)
        logs = self.workdir / "logs"
        spans = self.workdir / "spans"
        for directory in (logs, spans):
            directory.mkdir(exist_ok=True)
        requests = []
        for i, cmd in enumerate(self.commands):
            prefix = [sys.executable, TRACER,
                      str(spans / f"pass{number}-op{i}.json"),
                      f"{number}.{i}"] if traced \
                else [sys.executable, "-c", CLI_ENTRY]
            requests.append({"argv": prefix + list(cmd.argv),
                             "cwd": str(self.workdir), "env": self.env,
                             "stdout": str(logs / f"{i}.out"),
                             "stderr": str(logs / f"{i}.err")})
        timeout = max(1.0, RUN_BUDGET_S - (time.perf_counter() - self.started))
        reply = self.launcher.run(requests, timeout)
        reply["traced"] = traced
        for i, (cmd, result) in enumerate(zip(self.commands,
                                              reply["commands"])):
            self.attempted += 1
            error = self.judge(i, cmd, result)
            if error is not None:
                self.failures.append(
                    f"pass {number} command {i} ({cmd.argv[0]}): {error}")
        if traced:
            files = [spans / f"pass{number}-op{i}.json"
                     for i in range(len(self.commands))]
            # a command killed at the time limit leaves no span file
            reply["ops"] = [tracer.op_metrics(json.loads(f.read_text()))
                            for f in files if f.exists()]
        return reply

    def judge(self, i: int, cmd, result: dict) -> str | None:
        if result["returncode"] != 0:
            err = (self.workdir / "logs" / f"{i}.err").read_text(
                errors="replace").strip().splitlines()
            return f"exit code {result['returncode']}: " \
                   f"{err[-1] if err else ''}"
        result["digests"] = _digests(self.workdir, cmd.outputs)
        if self.verified[i] is None:
            try:
                self.workload.check(i, self.workdir, self.expected)
            except CheckFailed as exc:
                return str(exc)
            except (OSError, ValueError, KeyError) as exc:
                return f"unreadable output: {exc!r}"
            self.verified[i] = result["digests"]
        elif result["digests"] != self.verified[i]:
            return "outputs differ from an earlier pass's checked outputs"
        return None

    def measure(self) -> list[dict]:
        """Passes until the next would end after ``--seconds``.

        A fresh process first imports pcedit, so that byte-code is
        compiled and the libraries are in the page cache; the inputs are
        there already, as the set-up has just written them.  The stop
        rule takes the median pass so far as the cost of the next, so a
        single slow pass does not end the run early; against the run's
        hard budget it takes the slowest.
        """
        deadline = time.perf_counter() + self.seconds
        self.launcher.run([{"argv": [sys.executable, "-c", WARM_UP],
                            "cwd": str(self.workdir), "env": self.env,
                            "stdout": os.devnull, "stderr": os.devnull}],
                          timeout=60.0)
        passes, costs = [], []
        while True:
            start = time.perf_counter()
            passes.append(self.run_pass(len(passes) + 1, traced=False))
            if self.traced:
                passes.append(self.run_pass(len(passes) + 1, traced=True))
            now = time.perf_counter()
            costs.append(now - start)
            if now + statistics.median(costs) > deadline or \
                    now + max(costs) - self.started > RUN_BUDGET_S - 15:
                return passes

    def metrics(self, passes: list[dict]) -> dict:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        median = statistics.median
        if not self.traced:
            points = self.n * len(self.commands)
            return {
                "mpts_per_s": (median(points / p["wall_s"] / 1e6
                                      for p in plain), "Mpts/s"),
                "peak_rss_mb": (median(max(c["maxrss_kib"]
                                           for c in p["commands"])
                                       * 1024 / 1e6 for p in plain), "MB"),
                "setup_s": (median(self.setup_samples), "s"),
            }
        per_pass = [tracer.pass_metrics(p["ops"]) for p in traced]
        out = {}
        for name, unit, _ in tracer.METRICS:
            if name == "trace.overhead_frac":
                value = median(p["wall_s"] for p in traced) / \
                    median(p["wall_s"] for p in plain) - 1.0
            else:
                value = median(m[name] for m in per_pass)
            out[name] = (value, unit)
        return out


def run(args, root: Path, launcher) -> dict:
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: "
                         f"{', '.join(WORKLOADS)}")
    bench = Run(args, root, launcher)
    try:
        bench.set_up()
        passes = bench.measure()
    finally:
        # inputs and outputs are large; results are kept below
        shutil.rmtree(bench.workdir, ignore_errors=True)
    metrics = bench.metrics(passes)
    failed = len(bench.failures)
    record = {
        "workload": bench.workload.name, "seed": bench.seed,
        "size": args.size, "points": bench.n, "trace": int(bench.traced),
        "machine": machine_facts(root),
        "setup_s_samples": bench.setup_samples,
        "input_sha256": bench.input_digests,
        "commands": [" ".join(("pcedit",) + c.argv) for c in bench.commands],
        "passes": passes, "failures": bench.failures,
        "attempted": bench.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{bench.workload.name}-seed{bench.seed}-trace{int(bench.traced)}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1))
    _print_summary(record, len(bench.commands))
    return {"correct": failed == 0, "attempted": bench.attempted,
            "failed": failed, "metrics": record["metrics"]}


def _print_summary(record: dict, per_pass: int) -> None:
    plain = [p for p in record["passes"] if not p["traced"]]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"({record['points']} points, {len(plain)} untraced and "
          f"{len(record['passes']) - len(plain)} traced passes of "
          f"{per_pass} commands)")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("timings are medians over passes; a pass holds too few commands "
          "for a tail percentile, so none is reported")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"error_rate {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:g}")
    first = next((p for p in record["passes"]
                  if all("digests" in c for c in p["commands"])), None)
    if first is not None:
        for result in first["commands"]:
            for path, digest in sorted(result["digests"].items()):
                print(f"sha256 {digest} {path}")
    traced = next((p for p in record["passes"] if p["traced"]), None)
    if traced is not None:
        for cmd, op in zip(record["commands"], traced["ops"]):
            print(f"op {cmd}")
            print("   " + " ".join(f"{k}={v:.4g}" for k, v in op.items()
                                   if v))
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
