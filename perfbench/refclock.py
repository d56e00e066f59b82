"""A clock that reads CPU time in seconds of a reference machine.

On a shared machine the speed of a core changes by up to a factor of two,
for seconds or minutes at a time, as other tenants come and go.  The CPU
time of a process grows with its wall time then, so neither divides the
change out.  This module runs a fixed pure-Python loop (breadth-first
search over tuples, with set and dict traffic like the program's own hot
paths) in a separate process pinned to one CPU.  The timed processes run
pinned to the same CPU, so the scheduler interleaves them with the loop a
few milliseconds at a time, and both see the same core at the same speed.
The loop records the CPU time of every round.  A timed process's CPU time,
divided by the mean CPU time of the rounds that ran while it lived and
multiplied by the duration of one round on the baseline machine, is its CPU
time on that machine: slow periods slow the rounds as much as the program,
and cancel.  The loop belongs to the benchmark, not to the program, so a
change to the program moves the reading and a change of machine speed does
not.

    python3 perfbench/refclock.py     # the loop alone; stops at input on stdin
"""

from __future__ import annotations

import bisect
import json
import os
import select
import subprocess
import sys
import time
from collections import deque

# Median CPU time of one round on the baseline machine (see baseline.json),
# so that a reading is in CPU seconds of that machine.
ROUND_S = 0.0095

# The loop runs at this niceness, so that the timed process gets most of the
# shared CPU while the loop still runs every few milliseconds beside it.
NICE = 10

_START = (6, 5, 4, 3, 2, 1)


def one_round() -> int:
    """Every composition reachable from _START by moving one unit left,
    with a per-sorted-shape tally; 2496 tuples."""
    seen = {_START}
    queue = deque([_START])
    tally: dict[tuple, dict[int, int]] = {}
    while queue:
        cur = queue.popleft()
        for i in range(1, len(cur)):
            if cur[i]:
                nxt = cur[: i - 1] + (cur[i - 1] + 1, cur[i] - 1) + cur[i + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        shape = tally.setdefault(tuple(sorted(cur)), {})
        shape[cur[0]] = shape.get(cur[0], 0) + 1
    return len(seen)


def _loop() -> None:
    """Say "ready", run rounds until stdin has input or EOF, then print
    [end, cpu] for each round: its end on the monotonic clock that
    ``time.perf_counter`` reads in every process, and its CPU time."""
    os.nice(NICE)
    rounds = []
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while not select.select([sys.stdin], [], [], 0)[0]:
        cpu = time.process_time()
        one_round()
        rounds.append((time.perf_counter(), time.process_time() - cpu))
    sys.stdout.write(json.dumps(rounds))


class ClockError(RuntimeError):
    """The calibration loop failed, or did not run over a span asked about."""


class RefClock:
    """For the length of a ``with`` block, this process and every process
    it starts are pinned to one CPU, and the calibration loop runs there.
    Afterwards ``seconds(cpu_s, t0, t1)`` turns the CPU time of a process
    that ran from ``t0`` to ``t1`` (``perf_counter``) into reference
    seconds."""

    def __init__(self, env: dict):
        self._env = env
        self._ends: list[float] = []
        self._cpus: list[float] = []
        self._proc = None
        self._affinity = None

    def __enter__(self) -> "RefClock":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})  # inherited by children
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self._env,
            text=True,
        )
        if self._proc.stdout.readline() != "ready\n":
            self.__exit__()
        return self

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        out = None
        try:
            out, _ = proc.communicate(input="stop\n", timeout=10)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            os.sched_setaffinity(0, self._affinity)
        if out is None or proc.returncode != 0:
            raise ClockError(f"the calibration loop failed ({proc.returncode})")
        rounds = json.loads(out)
        self._ends = [end for end, _ in rounds]
        self._cpus = [cpu for _, cpu in rounds]

    @property
    def rounds(self) -> int:
        return len(self._ends)

    def round_cpu(self, t0: float, t1: float) -> float:
        """Mean CPU time of the rounds that ended between t0 and t1, or of
        the next round if none did."""
        lo = bisect.bisect_left(self._ends, t0)
        hi = max(bisect.bisect_right(self._ends, t1), lo + 1)
        if hi > len(self._ends):
            raise ClockError("the calibration loop did not run over this span")
        return sum(self._cpus[lo:hi]) / (hi - lo)

    def seconds(self, cpu_s: float, t0: float, t1: float) -> float:
        return cpu_s / self.round_cpu(t0, t1) * ROUND_S


if __name__ == "__main__":
    _loop()
