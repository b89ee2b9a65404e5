"""Runs a pass of commands and reports each child's own peak RSS.

``ru_maxrss`` of a child that was started by vfork or fork includes the
high-water mark of the process that started it.  The benchmark process
grows to hundreds of MB while it builds inputs and oracles, so it starts
this small stdlib-only process first and lets it spawn every command.

Protocol: one JSON request per stdin line, ``{"commands": [...],
"timeout": s}`` where each command has ``argv``, ``cwd``, ``env``,
``stdout`` and ``stderr``, and ``timeout`` bounds the whole pass; one JSON
reply per line with the pass wall time (spawn of the first command to exit
of the last) and, per command, its exit code, wall time and peak RSS in
KiB from ``os.wait4``.  ``Launcher`` is the benchmark's side of the pipe.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_command(command: dict, timeout: float) -> dict:
    start = time.perf_counter()
    with open(command["stdout"], "wb") as out, \
            open(command["stderr"], "wb") as err:
        proc = subprocess.Popen(command["argv"], cwd=command["cwd"],
                                env=command["env"], stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "seconds": end - start,
            "maxrss_kib": usage.ru_maxrss}


def run_pass(request: dict) -> dict:
    start = time.perf_counter()
    deadline = start + request["timeout"]
    results = [run_command(c, max(0.1, deadline - time.perf_counter()))
               for c in request["commands"]]
    return {"wall_s": time.perf_counter() - start, "commands": results}


class Launcher:
    """Client end: starts the launcher process and sends it passes."""

    def __init__(self):
        script = os.path.abspath(__file__)
        self._proc = subprocess.Popen([sys.executable, script],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def run(self, commands: list[dict], timeout: float) -> dict:
        request = {"commands": commands, "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher process exited")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    for line in sys.stdin:
        reply = run_pass(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
