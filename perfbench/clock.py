"""Op times scaled to a reference speed of the machine.

On shared hosts every CPU-bound program here runs up to twice as slow
for stretches of tens of seconds while other tenants are busy, so raw
wall times of two runs of the same code differ by more than any bound a
benchmark could set. A fixed pure-Python probe, timed right before and
after each measured interval, slows down with it. The probe walks a few
megabytes of small tuples, like the package's partition code does, so
that it feels contention for caches and memory as well as for the core.
Each interval is reported as

    scaled = wall * REF_S / mean(probe before, probe after)

that is, in seconds at the speed at which the probe takes ``REF_S``.
``REF_S`` is the probe's best time on an idle 2-core x86_64 host with
Python 3.11, where the benchmark was written; there, when the host is
idle, scaled and wall times agree. Raw wall times are printed beside
the scaled ones.
"""

import gc
import time

REF_S = 1.7e-3


def _probe_once() -> float:
    t0 = time.perf_counter()
    pairs = [(i, 3 * i) for i in range(20000)]
    s = 0
    for a, b in reversed(pairs):
        s += a ^ b
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the fixed probe takes now: the best of three tries.

    An untimed first try maps the memory the probe needs, and the garbage
    collector is off meanwhile: a page fault or a collection over a large
    heap would time the process, not the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_once()
        return min(_probe_once() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


def scaled(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` at reference speed, given probes either side of it."""
    return wall_s * REF_S * 2.0 / (before + after)
