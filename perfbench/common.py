"""Shared helpers: statistics, resource readings, and the box tag."""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


def tail_percentile(samples: Sequence[float], min_beyond: int = 10
                    ) -> Optional[Dict[str, float]]:
    """The highest of p50/p90/p99/p99.9/p99.99 that still has at least
    ``min_beyond`` samples above it, with the sample count.

    Returns ``{"pct": 99.0, "value": ..., "n": ..., "beyond": ...}``,
    or ``None`` when not even the median has ``min_beyond`` samples
    beyond it.  Values use the nearest-rank rule on the sorted samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for pct in (50.0, 90.0, 99.0, 99.9, 99.99):
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond < min_beyond:
            break
        best = {"pct": pct, "value": ordered[rank - 1], "n": n,
                "beyond": beyond}
    return best


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size of this process (or of its largest waited
    child) in MB."""
    rss = resource.getrusage(who).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return rss / divisor


def children_cpu_s() -> float:
    """User + system CPU seconds of all waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    ticks = os.sysconf("SC_CLK_TCK")
    # fields[0] is the state (field 3); utime/stime are fields 14/15
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def calibration_ms(rounds: int = 9) -> float:
    """Median wall milliseconds of a fixed pure-Python loop (dict, list,
    arithmetic and sort work), so a slower box can be told apart from a
    regression.  Reported beside every run, never used to normalise."""
    timings: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[acc & 4095] = i
        keys = sorted(table, key=lambda k: (table[k] % 97, k))
        acc += sum(keys[::7])
        timings.append((time.perf_counter() - start) * 1000.0)
        if acc < 0:  # keep the work observable
            raise AssertionError
    return statistics.median(timings)


def steal_s() -> Optional[float]:
    """CPU seconds the hypervisor has taken from this virtual machine
    since boot, summed over its CPUs (``None`` where ``/proc/stat``
    does not report it).  A run's difference shows a neighbour's load,
    which slows every time metric without any change to the program."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


#: Keeps one CPU from idling: lowest scheduling class (any other task
#: that wakes on the CPU preempts it at once); reports ready once it is
#: there, and exits with its parent.
_SPINNER = """\
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
sys.stdout.write("ready\\n")
sys.stdout.flush()
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


@contextlib.contextmanager
def cpus_kept_awake(cpus: Iterable[int]) -> Iterator[None]:
    """Run the body with a lowest-priority spinner on each of ``cpus``.

    On a virtual machine an idle CPU halts, and waking it (a pipe or a
    socket becoming readable) waits for the host's scheduler; on a busy
    host that wait is counted as steal time and reached milliseconds
    per wake-up, which swamped the programs' own time wherever
    processes wait on each other.  A spinner keeps its CPU awake and
    yields at once to any task that wakes there.  Its CPU time is its
    own.  Where the scheduling class is missing the body runs alone."""
    procs: List[subprocess.Popen] = []
    try:
        if hasattr(os, "SCHED_IDLE"):
            for cpu in sorted(cpus):
                proc = subprocess.Popen(
                    [sys.executable, "-c", _SPINNER, str(cpu)],
                    stdout=subprocess.PIPE, text=True)
                procs.append(proc)
                if proc.stdout.readline() != "ready\n":
                    raise RuntimeError(f"no spinner on CPU {cpu}")
        yield
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()
            proc.stdout.close()


#: a paced workload calls the reference at most this often (wall s)
PACE_S = 0.05
#: ``setup_s`` is given in seconds of a box on which one reference call
#: takes this long (about its time on the box of the first baseline)
REFERENCE_CALL_S = 0.007
REFERENCE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "reference.py")


class Yardstick:
    """The reference computation (``reference.py``) in a child process,
    called in lock-step with a workload.

    The box's speed swings with its neighbours' load, in stretches from
    seconds to minutes, with little steal reported: the same
    control-plane run took 2.3 s to 4.2 s within four minutes.  A time
    taken alone moves with the share of slow stretches a run met; the
    same time over the reference's, taken within the same tens of
    milliseconds on the same CPU, moves far less.  The reference runs
    in its own process, so its memory is not the workload's, and the
    workloads leave its time out of theirs.  ``cpus`` pins it."""

    def __init__(self, cpus: Optional[Iterable[int]] = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, REFERENCE_SCRIPT], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if cpus:
            os.sched_setaffinity(self.proc.pid, set(cpus))
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError("the reference process did not start")
        #: wall seconds spent waiting for calls, reference included
        self.spent_s = 0.0
        self._calls = 0
        self._call_s = 0.0
        self._last = time.perf_counter()

    def call(self) -> None:
        began = time.perf_counter()
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self._call_s += float(self.proc.stdout.readline())
        self._calls += 1
        self._last = time.perf_counter()
        self.spent_s += self._last - began

    def pace(self) -> None:
        """One call if ``PACE_S`` has passed since the last one ended."""
        if time.perf_counter() - self._last >= PACE_S:
            self.call()

    def take(self) -> float:
        """Mean wall seconds of the calls since the last ``take``."""
        mean = self._call_s / self._calls
        self._calls = 0
        self._call_s = 0.0
        return mean

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def box_tag() -> Dict[str, object]:
    """The machine a run came from."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_ms": round(calibration_ms(), 3),
    }
