"""Calibration sidecar: how fast the measuring CPU runs, sampled over time.

    python3 perfbench/calib.py CPU OUT

``run.py`` starts this beside the measured children, on the one CPU it
pins them to.  Every :data:`PERIOD_S` it wakes, times one fixed piece of
reference work in thread CPU time, and keeps ``(CLOCK_MONOTONIC start,
seconds)``.  It prints ``ready`` once the first sample is in; on SIGTERM
it writes every sample to ``OUT`` as JSON and exits.  Should ``run.py``
die without stopping it, it notices that its parent is gone and exits.

On a shared VM the CPU a process runs on is slowed, for seconds at a
time, by whatever else the host puts on that core; processor time then
grows although the program did the same work.  The reference loop is
slowed alike, so ``run.py`` divides each measured operation's processor
time by the reference's slowdown over the same interval (its mean time
there over :data:`NOMINAL_S`).  The reference is fixed code that does not
depend on the program: a change to the program moves the operations'
times, never the reference's.  It mirrors what the analyzer spends its
time on — splitting config lines into words and counting tuple keys in
dicts — and it is short (about half a millisecond), so that each sample
also pays for refilling the caches the measured process just used.
Longer samples, or a loop of another kind (pointer-chasing over a large
heap), are slowed by other amounts than the program is.  The sidecar
uses about 2% of the CPU.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

#: Sleep between two samples.
PERIOD_S = 0.04

#: Reference time of one sample on an unloaded core: an Intel Xeon VM
#: (2 vCPUs, Python 3.11) at its quietest.  It only sets the scale of the
#: calibrated times; the same constant serves every run and every commit.
NOMINAL_S = 0.00055

_STANZAS = "\n".join(
    f"interface GigabitEthernet0/{i}\n"
    f" ip address 10.{i % 250}.{i % 7}.1 255.255.255.252\n"
    f" ip ospf cost {i % 50}\n"
    "!"
    for i in range(60)
)

#: Passes over ``_STANZAS`` per sample.
PASSES = 4


def reference() -> int:
    """The fixed piece of work one sample times."""
    total = 0
    for _ in range(PASSES):
        seen = {}
        for line in _STANZAS.split("\n"):
            words = line.split()
            if not words:
                continue
            key = tuple(words[:2])
            seen[key] = seen.get(key, 0) + 1
            total += len(words)
        total += len(sorted(seen))
    return total


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    cpu, out = int(argv[0]), argv[1]
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    samples = []
    while not stopping and os.getppid() == parent:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        cpu_start = time.thread_time()
        reference()
        samples.append((start, time.thread_time() - cpu_start))
        if len(samples) == 1:
            print("ready", flush=True)
        time.sleep(PERIOD_S)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
