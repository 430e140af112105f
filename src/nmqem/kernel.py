"""Decoherence function k(t) of the ohmic-bath two-qubit noise model.

Three evaluators are exposed on purpose:

* ``re_k_approx`` -- the quadratic short-time approximation. This is the
  canonical form behind all figure data and parameter fits.
* ``k_printed`` -- the closed sine-integral expression as printed (with the
  one reading of the imaginary bracket under which Im k(0) = 0 holds).
* ``k_quadrature`` -- the double time integral of the bath correlator,
  (pi gamma0 / 2) sin(wc' s) / s for Re and delta0 d/ds[sin(wc' s)/(wc' s)]
  for Im.

Both closed forms are evaluated exactly through F(x) = x Si(x) + cos x - 1,
the integral of Si from 0 to x, with x = wc' u. Re k and Im k share one
Si(x) per point; below x = 1/2, where both brackets, F(x) and
u - Si(x) / wc', cancel, each is a series in x^2 instead. Si costs a fixed
amount below x = 16.5: one Horner polynomial per unit cell [j - 1/2,
j + 1/2), Si's degree-16 Taylor polynomial about the node j, with
coefficients derived at import from Si(j) and the recurrence of sin t / t,
and below 1/2 a Maclaurin polynomial in x^2. A cell's polynomial is written
out as one Horner expression in its 17 coefficients: the multiplications
and additions of a Horner loop, in the same order, without the loop's
interpreter cost. From 16.5 on, a continued fraction summed bottom-up at a
fixed depth. The two readings differ in two explicit identities, which the
tests pin:

* Im k_printed = -Im k_quadrature (opposite sign);
* Re k_printed = (4 / pi^2) Re k_quadrature + gamma0 (wc' - 1) u
  (a 2/pi prefactor against pi/2, plus a stray linear term).

Time enters only through the dimensionless ratio u = t / tau_s and the
cutoff only through wc' = omega_c * tau_s.
"""

from __future__ import annotations

import math

__all__ = [
    "KernelParams",
    "si_shifted",
    "si_standard",
    "re_k_approx",
    "k_printed",
    "k_quadrature",
]

_HALF_PI = 0.5 * math.pi
_TWO_OVER_PI = 2.0 / math.pi


class KernelParams:
    """Bath/coupling parameters: gamma0 and delta0 lump the microscopic
    constants, wc_ts is the cutoff times the switching time."""

    __slots__ = ("gamma0", "delta0", "wc_ts")

    def __init__(self, gamma0: float, delta0: float, wc_ts: float):
        if not math.isfinite(gamma0):
            raise ValueError("gamma0 must be finite")
        if not math.isfinite(delta0):
            raise ValueError("delta0 must be finite")
        if not math.isfinite(wc_ts):
            raise ValueError("wc_ts must be finite")
        if gamma0 < 0 or delta0 < 0:
            raise ValueError("gamma0 and delta0 must be nonnegative")
        if wc_ts <= 0:
            raise ValueError("wc_ts must be positive")
        self.gamma0, self.delta0, self.wc_ts = gamma0, delta0, wc_ts

    @property
    def coupling(self) -> float:
        """gamma0 * wc_ts, the strength entering the quadratic approximation."""
        return self.gamma0 * self.wc_ts


def _si_taylor(x: float) -> float:
    # sum_{n>=0} (-1)^n x^(2n+1) / ((2n+1) (2n+1)!) over its terms down to
    # 1e-18, added without intermediate rounding (fsum); it gives the table's
    # nodes Si(1), Si(2) and Si(3)
    term = x  # (-1)^n x^(2n+1) / (2n+1)!
    terms = []
    n = 0
    while abs(term) > 1e-18:
        terms.append(term / (2 * n + 1))
        n += 1
        term *= -x * x / ((2 * n) * (2 * n + 1))
    return math.fsum(terms)


def _si_continued_fraction(x: float) -> float:
    # Si(x) = pi/2 + Im[e^(-ix) / t] with t = 1 + ix - 1/(3 + ix - 4/(5 + ix
    # - ...)), the even form of DLMF 6.9.1 for E1(ix) e^(ix), summed bottom-up
    # from a fixed depth N: t = 2N + 1 + ix, then t = 2n - 1 + ix - n^2 / t
    # for n = N..1. It serves x >= _SI_TOP and the table's nodes Si(4) ...
    # Si(16). N = 8 + floor(200 / x) reaches 2.2e-16 against mpmath on
    # (4, 50] and on log-uniform x up to 1e15; so does the shallower
    # 6 + floor(150 / x), while 4 + floor(120 / x) misses by 2.5e-14.
    n = 8 + int(200.0 / x)
    ix = 1j * x
    t = 2 * n + 1 + ix
    for k in range(n, 0, -1):
        t = 2 * k - 1 + ix - k * k / t
    return _HALF_PI + (complex(math.cos(x), -math.sin(x)) / t).imag


def _horner(coefficients, h: float) -> float:
    # the polynomial with these coefficients, highest power first, at h
    total = 0.0
    for c in coefficients:
        total = total * h + c
    return total


# Si below _SI_TOP in constant time, one polynomial per interval:
# * [0, 1/2): x + x^3 P(x^2), the Maclaurin series of Si cut after
#   _SMALL_TERMS terms, which keeps Si's relative precision at tiny x;
# * [j - 1/2, j + 1/2) for j = 1 .. _SI_NODES: the degree-_SI_DEGREE Taylor
#   polynomial of Si about the node j, in h = x - j (see _si_cell).
# Each is its first term plus a correction, so the last addition rounds
# once; the terms left out weigh less than 1e-20 of Si.
_SMALL_TERMS = 8
_SI_DEGREE = 16  # si_standard writes its cell polynomial out for this degree
_SI_NODES = 16
_SI_TOP = _SI_NODES + 0.5


def _series_tail(denominator) -> tuple:
    # sum_{0 < n < _SMALL_TERMS} (-1)^n y^(n-1) / denominator(n) as Horner
    # coefficients in y = x^2, highest power first: a series in x^2 past its
    # first term, which is 1 / denominator(0)
    return tuple((-1) ** n / denominator(n) for n in range(_SMALL_TERMS - 1, 0, -1))


def _si_cell(j: int) -> tuple:
    """Horner coefficients, highest power first, of Si(j + h) to order
    h^_SI_DEGREE. With f(t) = sin t / t, Si(j + h) = Si(j) + sum_{n>=0}
    a_n h^(n+1) / (n + 1), where a_n = f^(n)(j) / n!. Differentiating
    t f(t) = sin t n times gives t f^(n) + n f^(n-1) = sin(t + n pi/2), so
    a_n = (sin(j + n pi/2) / n! - a_(n-1)) / j from a_0 = sin(j) / j; an
    error in a_(n-1) enters a_n divided by j. The node Si(j) comes from the
    series below 4 and from the continued fraction from 4 on."""
    s, c = math.sin(j), math.cos(j)
    sines = (s, c, -s, -c)  # sin(j + n pi/2) for n mod 4
    a = s / j
    factorial = 1.0
    coefficients = [_si_taylor(j) if j < 4 else _si_continued_fraction(j), a]
    for n in range(1, _SI_DEGREE):
        factorial *= n
        a = (sines[n % 4] / factorial - a) / j
        coefficients.append(a / (n + 1))
    return tuple(reversed(coefficients))


# sum (-1)^n x^(2n+1) / ((2n+1) (2n+1)!) = x + x^3 P(x^2)
_SI_SMALL = _series_tail(lambda n: (2 * n + 1) * math.factorial(2 * n + 1))
# _SI_CELLS[j] for the cell [j - 1/2, j + 1/2); index 0 is unused
_SI_CELLS = (None,) + tuple(_si_cell(j) for j in range(1, _SI_NODES + 1))


def si_standard(x: float) -> float:
    """The standard sine integral: integral of sin(t)/t from 0 to x."""
    if not 0.0 <= x < math.inf:
        raise ValueError("si_standard requires finite x >= 0")
    if x < 0.5:
        y = x * x
        return x + x * y * _horner(_SI_SMALL, y)
    if x < _SI_TOP:
        j = int(x + 0.5)
        h = x - j
        (c16, c15, c14, c13, c12, c11, c10, c9, c8,
         c7, c6, c5, c4, c3, c2, c1, c0) = _SI_CELLS[j]
        return (((((((((((((((c16 * h + c15) * h + c14) * h + c13) * h + c12)
                          * h + c11) * h + c10) * h + c9) * h + c8) * h + c7)
                     * h + c6) * h + c5) * h + c4) * h + c3) * h + c2)
                * h + c1) * h + c0
    return _si_continued_fraction(x)


def si_shifted(x: float) -> float:
    """Sine integral shifted by -pi/2, the convention used by the kernel:
    tends to -pi/2 at 0 and to 0 at infinity."""
    return si_standard(x) - _HALF_PI


def re_k_approx(coupling: float, u: float) -> float:
    """Quadratic approximation of Re k at normalized time u, for the lumped
    coupling strength gamma0 * wc_ts. Exactly linear in the coupling."""
    if not coupling >= 0:  # NaN fails too
        raise ValueError("coupling must be nonnegative")
    if not u >= 0:
        raise ValueError("u must be nonnegative")
    if coupling == 0.0:
        return coupling  # its signed zero, not 0 * inf = nan once u * u overflows
    return _TWO_OVER_PI * coupling * (_HALF_PI * u + 0.5 * u * u)


# sum (-1)^n x^(2n+2) / ((2n+1) (2n+2)!) = x^2/2 + x^4 Q(x^2), F(x) below 1/2
_F_SMALL = _series_tail(lambda n: (2 * n + 1) * math.factorial(2 * n + 2))


def _brackets(p: KernelParams, u: float):
    # F(x) = x Si(x) + cos x - 1, the integral of Si over [0, x], and
    # u - Si(x) / wc', at x = wc' u: the two brackets of k's closed forms,
    # from one Si(x). Both cancel for small x, so below 1/2 each is its
    # series in y = x^2 instead, cut after _SMALL_TERMS terms:
    # F = y/2 + y^2 Q(y) and, as Si = x + x y P(y), u - Si(x) / wc' = -u y P(y),
    # which is +0 at u = 0.
    if not 0.0 <= u < math.inf:
        raise ValueError("u must be finite and nonnegative")
    wc = p.wc_ts
    x = wc * u
    if x < 0.5:
        y = x * x
        return 0.5 * y + y * y * _horner(_F_SMALL, y), u * y * -_horner(_SI_SMALL, y)
    si = si_standard(x)
    return x * si + math.cos(x) - 1.0, u - si / wc


def k_printed(p: KernelParams, u: float) -> complex:
    """The closed sine-integral form of k at u = t / tau_s.

    Real part: (2/pi) * gamma0 * [ (pi/2) wc' u + int_0^u Si_shifted(wc' s) ds ]
    = (2/pi) * gamma0 * [ (pi/2) (wc' - 1) u + F(wc' u) / wc' ].
    Imaginary part: delta0 * [ u - Si_standard(wc' u) / wc' ], the reading of
    the printed bracket under which Im k(0) = 0.
    """
    f, si_bracket = _brackets(p, u)
    wc = p.wc_ts
    re = 0.0
    if p.gamma0 != 0.0:
        bracket = _HALF_PI * (wc - 1.0) * u + f / wc
        re = _TWO_OVER_PI * p.gamma0 * bracket
    im = 0.0
    if p.delta0 != 0.0:
        im = p.delta0 * si_bracket
    return complex(re, im)


def k_quadrature(p: KernelParams, u: float) -> complex:
    """The double time integral of the bath correlator, in closed form.

    Real part: (pi gamma0 / 2) F(wc' u) / wc'.
    Imaginary part: delta0 * [ Si_standard(wc' u) / wc' - u ].
    """
    f, si_bracket = _brackets(p, u)
    re = 0.0
    if p.gamma0 != 0.0:
        re = _HALF_PI * p.gamma0 * f / p.wc_ts
    im = 0.0
    if p.delta0 != 0.0:
        im = p.delta0 * (0.0 - si_bracket)  # 0 - b, not -b, keeps Im k(0) at +0
    return complex(re, im)
