"""Host-speed probe: short slices of a fixed loop, run between the engine's calls.

On the shared 2-vCPU host this benchmark was tuned on, the speed a process
gets drifts by up to a third, in spells of a few seconds to minutes, and
each vCPU drifts on its own.  A whole run can sit inside one spell, so no
statistic over one run's passes removes the drift.  The probe does: at
most every ``EVERY_S`` seconds of a pass it runs one slice of a fixed
pure-Python loop in the same process, and the pass's times are scaled by
``REFERENCE_S`` over the median slice time seen during that pass.

Measured on that host: over 48 curves passes in two noisy minutes, each
pass's time and its median slice time correlated at 0.97, and scaling cut
the quartile spread of the pass times from 0.29 to 0.04 of their median.
A probe run beside the passes on the other vCPU correlated at 0.2 to 0.4
and did not help.  Code gains unequally from a fast spell: the engine's
step loop about as much as a small stepping loop, lt's rule-table scans
less.  So each workload names the loop most like its own work (``step`` or
``scan``); scaled with the step loop, lt's fast-spell runs read 10-15%
slower than its others.

The loops are the benchmark's own code and are the same at every commit,
so a change to the package moves the scaled times as it moves the raw
ones.  The collector is off during a slice and the slice frees what it
allocates, so it neither triggers nor shifts the collections the package's
runs see.  Slice time is kept out of every interval measured with
``clock()``.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time

# A slice's median time on the host the benchmark was tuned on, in a calm
# spell (both loops are sized to it): scaled times are seconds on a host
# that runs a slice in this long.
REFERENCE_S = 0.001
EVERY_S = 0.04
STEP_CELLS = 60
STEP_STEPS = 70
SCAN_PATTERNS = 6000
SCAN_KEYS = 3

# A one-dimensional automaton over 4 states; the step loop runs it much as
# the engine steps a configuration: triple lookups, tuple building, a
# seen-table.
_RULE = {
    (a, b, c): (a + 2 * b + 3 * c + a * c) % 4
    for a in range(4) for b in range(4) for c in range(4)
}
_START = tuple((i * 7) % 4 for i in range(STEP_CELLS))


def step_loop() -> int:
    """Step the probe automaton; returns how many distinct configurations it saw."""
    rule, cells, n = _RULE, _START, STEP_CELLS
    seen = {}
    for step in range(STEP_STEPS):
        cells = tuple([rule[cells[i - 1], cells[i], cells[(i + 1) % n]] for i in range(n)])
        seen[cells] = step
    return len(seen)


def scan_table() -> tuple[list, list]:
    """Patterns of state names, each its own string as a parsed table's are,
    and keys that match none of them."""
    names = SCAN_PATTERNS // 16
    patterns = [
        (f"s{i * 7 % names}", f"s{i * 13 % names}", f"s{i * 31 % names}", f"out{i}")
        for i in range(SCAN_PATTERNS)
    ]
    keys = [(f"s{k}", f"s{k + 1}", "none") for k in range(SCAN_KEYS)]
    return patterns, keys


def scan_loop(table) -> int:
    """A first-match scan over the whole pattern list per key, as a rule-table miss makes."""
    patterns, keys = table
    hits = 0
    for z1, z2, z3 in keys:
        for x, y, z, w in patterns:
            if (x == "*" or x == z1) and (y == "*" or y == z2) and (z == "*" or z == z3):
                hits += 1
                break
    return hits


class SpeedProbe:
    """Runs slices at most every ``every_s`` seconds and keeps their times.

    ``kind`` names the loop: ``"step"`` steps a small automaton, for work
    spent in the engine's step loop; ``"scan"`` scans a list of a few
    megabytes, for work spent scanning rule tables, which gains less from a
    fast spell than the step loop does.
    """

    def __init__(self, kind: str = "step", every_s: float = EVERY_S):
        if kind == "scan":
            self.loop = functools.partial(scan_loop, scan_table())
        else:
            self.loop = step_loop
        self.every_s = every_s
        self.slices: list[float] = []
        self.spent = 0.0  # seconds inside slices so far
        self._due = 0.0

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in slices."""
        return time.perf_counter() - self.spent

    def slice(self) -> None:
        # Collection stays off inside a slice; everything the slice allocates
        # is freed by its end, so the collector's counts come back as they were.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.loop()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.slices.append(dt)
        self.spent += dt
        self._due = t0 + dt + self.every_s

    def tick(self) -> None:
        """A slice, if ``every_s`` has passed since the last one ended."""
        if time.perf_counter() >= self._due:
            self.slice()

    def ticking(self, fn):
        """``fn`` with a tick before each call."""
        tick = self.tick

        def ticked(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return ticked

    def scale(self, since: int) -> float:
        """``REFERENCE_S`` over the median of the slices from index ``since`` on."""
        return REFERENCE_S / statistics.median(self.slices[since:])
