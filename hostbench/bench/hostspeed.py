"""Host speed: a fixed reference computation, timed all through a run.

The hosts this benchmark runs on are VMs on shared machines, and their
speed drifts by a third or more over minutes: the same operation, or the
same interpreter start, takes 1.3x as long in a slow stretch as in a
fast one. Longer runs do not average that out. So every timed phase of a
run also times :func:`reference_work` — pure-Python loops and object
churn, and numpy bitwise passes over 2 MB and 8 MB arrays, the kinds of
work the program does — just before each operation, and reports each
timing at the reference host's speed::

    reported = measured * REFERENCE_SECONDS / (the reference sample taken just before it)

A sample right before each timing follows the drift more closely than
one factor for a whole run, which averages over stretches of a run the
operation did not see.

The reference computation lives here and never calls the program, so a
change to the program moves the reported figures exactly as much as the
measured ones. It runs in a process of its own (:class:`Reference`), so
its arrays never touch the memory of the process being measured. The
measured figures and every reference sample are kept in the result file.

Run as a script, this file is that process: it reads one line per
sample from standard input and answers with the sample's seconds.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: Median wall time of :func:`reference_work` on the reference host
#: (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6). A reported timing is the
#: time the operation would have taken had the host run at that speed.
REFERENCE_SECONDS = 0.040
STOP_TIMEOUT = 10.0

_MIX = np.uint64(0x9E3779B97F4A7C15)


def reference_work() -> int:
    """About 40 ms of fixed work on the reference host."""
    total = 0
    for i in range(40_000):
        total += i * i & 7
    table = {}
    for i in range(6_000):
        table[str(i)] = (i, [i, i + 1])
    total += len(sorted(table.items(), key=lambda item: item[1][0] % 97))
    for size, passes in ((1 << 18, 8), (1 << 20, 1)):
        base = np.arange(size, dtype=np.uint64) * _MIX
        x = base
        for _ in range(passes):
            x = (x << np.uint64(1)) ^ base | (x >> np.uint64(3))
        total += int(x[-1] & np.uint64(1))
    return total


def serve() -> None:
    """The reference process: one timed :func:`reference_work` per input line."""
    for _ in sys.stdin:
        started = time.perf_counter()
        reference_work()
        print(time.perf_counter() - started, flush=True)


class Reference:
    """The reference process, started on entry and stopped and waited for on exit."""

    def __init__(self) -> None:
        self.process: subprocess.Popen | None = None

    def __enter__(self) -> Reference:
        self.process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *_exc: object) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        assert process.stdin is not None and process.stdout is not None
        process.stdin.close()
        try:
            process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def time(self) -> float:
        """Seconds one :func:`reference_work` took in the reference process."""
        assert self.process is not None and self.process.stdin and self.process.stdout
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited {self.process.wait()}")
        return float(line)


@dataclass
class HostSpeed:
    """The reference samples of one timed phase."""

    reference: Reference
    samples: list[float] = field(default_factory=list)
    #: Wall seconds the sampling took here, to leave out of a phase's elapsed time.
    spent: float = 0.0

    def sample(self, count: int = 1) -> float:
        """Take *count* reference samples now, and return the factor that
        brings the timing taken next to the reference host's speed."""
        started = time.perf_counter()
        taken = [self.reference.time() for _ in range(count)]
        self.spent += time.perf_counter() - started
        self.samples += taken
        return REFERENCE_SECONDS / statistics.median(taken)


if __name__ == "__main__":
    serve()
