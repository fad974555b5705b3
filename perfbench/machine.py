"""The machine's speed, measured with fixed pure-Python work.

The CPU speed of a shared host flips between a fast and a slow state, from
tenths of a second to a minute at a time: a loop of integer arithmetic runs
1.45x slower in the slow state, the probe below about 1.8x.  A time averaged
over a 40-second run therefore depends on how much of the run the machine
spent in each state: the same loop's 40-second median varied by a quarter
between runs.  The benchmark samples the speed with a short probe between
jobs and reports times scaled to a fixed nominal speed (see run.py).

The probe multiplies two sparse polynomials held as dicts of exponent tuples
with Fraction coefficients and sorts the product's monomials: the same kind
of work as the program, with none of its code, so a change to the program
does not change the probe.  Its slowdown tracked the program's to within
3% over 10-second windows, where a loop of integer arithmetic missed by 10%.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

# The probe's time in the machine's fast state on the 2-core host the
# benchmark was tuned on; corrected times are in seconds at that speed.
PROBE_NOMINAL_S = 0.005
_POLY = {(i, j): Fraction(i - 2 * j + 1, j + 1) for i in range(6) for j in range(6 - i)}


def probe_s() -> float:
    """Seconds the probe takes now.  The collector is off while it runs, so
    the size of the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            out: dict = {}
            for (a, b), c in _POLY.items():
                for (d, e), f in _POLY.items():
                    key = (a + d, b + e)
                    value = out.get(key, 0) + c * f
                    if value:
                        out[key] = value
                    else:
                        out.pop(key, None)
            sorted(out, key=lambda m: (m[0] + m[1], m), reverse=True)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def ref_loop_s() -> float:
    """A fixed loop of integer arithmetic, timed at the start and end of a
    run so that drift can be told apart from a code change."""
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    return time.perf_counter() - start
