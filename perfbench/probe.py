"""Reference probes that track the machine's momentary speed.

On a shared machine the same call can take twice as long from one minute to
the next, because other tenants load the same cores.  The benchmark times a
fixed pure-Python probe around the ops and scales each op's time by
NOMINAL_S / (probe time measured around it): the result is the op's time on
a machine whose probe runs in NOMINAL_S.  Contention slows different kinds
of interpreter work by different amounts, so each workload's probe does the
kind of work its ops do at the commit that added the benchmark: exact
Fraction arithmetic for forward and cli (the M tensor), recursive float
quadrature for kernel (linalg.integrate).  The probes never change, so the
scaling is the same for every version of nmqem.

The correction is exact only while the ops slow under load as their probe
does.  A change that replaces the ops' kind of work (a closed-form kernel
instead of quadrature, floats instead of Fractions) keeps the old probe, so
its scaled times can be off by the difference; compare the unscaled times,
which every report keeps, as well (README.md).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# About each probe's time on an idle 2-core Intel Xeon machine (CPython 3.11).
NOMINAL_S = 0.002


def _fractions():
    acc = Fraction(0)
    for i in range(1, 360):
        acc += Fraction(i, i + 1) * Fraction(1, 3)
    return acc


def _quadrature():
    def f(t):
        return math.sin(7.0 * t) / (1.0 + t * t)

    def simpson(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth == 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right
        return simpson(a, m, fa, flm, fm, left, tol / 2, depth - 1) + simpson(
            m, b, fm, frm, fb, right, tol / 2, depth - 1
        )

    fa, fm, fb = f(0.0), f(2.0), f(4.0)
    return simpson(0.0, 4.0, fa, fm, fb, 4.0 / 6.0 * (fa + 4.0 * fm + fb), 1e-11, 50)


WORK = {"forward": _fractions, "kernel": _quadrature, "cli": _fractions}


def probe(workload: str, repeats: int = 3) -> float:
    """Seconds the workload's probe takes right now: the median of `repeats`
    back-to-back runs, so that one preempted run does not count."""
    work = WORK[workload]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[repeats // 2]
