"""Keeps the benchmark's one process on the least disturbed CPU it may use.

The benchmark was tuned in a virtual machine whose CPUs share the host's
cores with other tenants.  Each CPU's speed moves on its own: at one moment
the same scripts ran 1.5 times slower on one CPU than on the other, for
seconds at a time, while the guest scheduler left the process where it was.
A Placer pins the process to one CPU and, between scripts, checks that CPU
with a fixed spin loop at most every CHECK_EVERY_S seconds.  When the loop
is more than SLOWER times slower than the fastest reading of the run, it
times the loop on every allowed CPU and moves to the fastest.  Checks run
outside the timed region; the program's work and its timing are unchanged.
"""

import os

CHECK_EVERY_S = 0.05
SLOWER = 1.1
SPINS = 60


def _spin():
    total = 0
    for i in range(200):
        total += i * i
    return total


def _speed(clock):
    """Median time of a short fixed loop on the current CPU."""
    times = []
    for _ in range(SPINS):
        t0 = clock()
        _spin()
        times.append(clock() - t0)
    times.sort()
    return times[len(times) // 2]


class Placer:
    def __init__(self, clock):
        self.clock = clock
        self.cpus = sorted(os.sched_getaffinity(0))
        self.best = float("inf")
        self.last = float("-inf")
        self.moves = 0
        if len(self.cpus) > 1:
            self.place(force=True)

    def place(self, force=False):
        """Move to the fastest CPU if the current one has slowed down."""
        if len(self.cpus) < 2 or (not force and self.clock() - self.last < CHECK_EVERY_S):
            return
        speed = _speed(self.clock)
        if force or speed > SLOWER * self.best:
            here = os.sched_getaffinity(0)
            speeds = {}
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speeds[cpu] = _speed(self.clock)
            cpu = min(speeds, key=speeds.get)
            os.sched_setaffinity(0, {cpu})
            speed = speeds[cpu]
            self.moves += here != {cpu}
        self.best = min(self.best, speed)
        self.last = self.clock()
