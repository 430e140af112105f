import math

import pytest

from nmqem import kernel
from nmqem.kernel import (
    KernelParams,
    k_printed,
    k_quadrature,
    re_k_approx,
    si_shifted,
    si_standard,
)


def si_series(x):
    """Independent series oracle, accurate for moderate x."""
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / ((2 * n) * (2 * n + 1))
    return total


class TestParams:
    def test_coupling_property(self):
        p = KernelParams(gamma0=7e-4, delta0=0.0, wc_ts=10.0)
        assert p.coupling == pytest.approx(7e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma0=-1.0, delta0=0.0, wc_ts=10.0),
            dict(gamma0=1.0, delta0=-0.5, wc_ts=10.0),
            dict(gamma0=1.0, delta0=0.0, wc_ts=0.0),
            dict(gamma0=float("nan"), delta0=0.0, wc_ts=10.0),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            KernelParams(**kwargs)


class TestSineIntegral:
    def test_limits(self):
        assert si_standard(0.0) == 0.0
        assert si_shifted(0.0) == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_against_series_oracle(self):
        for x in (0.5, 1.0, 2.0, 3.9, 4.0, 5.0, 10.0):
            assert si_standard(x) == pytest.approx(si_series(x), abs=1e-10)

    def test_frozen_value(self):
        # si_shifted(1) = Si(1) - pi/2, Si(1) = 0.9460830703671830
        assert si_shifted(1.0) == pytest.approx(-0.6247132564277136, abs=1e-12)

    def test_large_argument_decays(self):
        assert abs(si_shifted(1e6)) < 1e-5

    def test_continuity_at_branch_switch(self):
        below = si_standard(4.0 - 1e-9)
        above = si_standard(4.0 + 1e-9)
        assert abs(below - above) < 1e-8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            si_standard(-0.1)


class TestReKApprox:
    def test_zero_time(self):
        assert re_k_approx(7e-3, 0.0) == 0.0

    def test_frozen_value(self):
        # (2/pi) * 7e-3 * (pi/2 + 1/2) = 7e-3 * (1 + 1/pi)
        assert re_k_approx(7e-3, 1.0) == pytest.approx(9.228169203286537e-3, abs=1e-15)

    def test_linear_in_coupling(self):
        for u in (0.1, 0.5, 1.0):
            assert re_k_approx(1.4e-2, u) == pytest.approx(2 * re_k_approx(7e-3, u), rel=1e-14)

    def test_monotone_in_u(self):
        values = [re_k_approx(7e-3, u / 50) for u in range(51)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            re_k_approx(-1.0, 0.5)
        with pytest.raises(ValueError):
            re_k_approx(1.0, -0.5)


class TestKPrinted:
    def test_zero_time(self):
        p = KernelParams(1.0, 0.5, 10.0)
        assert k_printed(p, 0.0) == 0.0

    def test_frozen_real_part(self):
        # independently checked against an arbitrary-precision evaluation
        p = KernelParams(1.0, 0.0, 10.0)
        assert k_printed(p, 1.0).real == pytest.approx(9.93865793811711, abs=1e-8)

    def test_imag_zero_when_delta0_zero(self):
        p = KernelParams(1.0, 0.0, 10.0)
        assert k_printed(p, 0.7).imag == 0.0

    def test_frozen_imag_part(self):
        p = KernelParams(1.0, 0.5, 10.0)
        assert k_printed(p, 1.0).imag == pytest.approx(0.41708262028906, abs=1e-10)

    def test_linear_in_gamma0(self):
        a = k_printed(KernelParams(1.0, 0.0, 10.0), 0.8).real
        b = k_printed(KernelParams(3.0, 0.0, 10.0), 0.8).real
        assert b == pytest.approx(3 * a, rel=1e-10)

    def test_real_part_nondecreasing(self):
        p = KernelParams(1.0, 0.0, 10.0)
        values = [k_printed(p, u / 20).real for u in range(21)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_short_time_matches_quadratic_form(self):
        # for wc' u << 1 and wc' >> 1 the closed form approaches the
        # quadratic approximation at coupling = gamma0 * wc'
        p = KernelParams(1.0, 0.0, 100.0)
        u = 1e-3
        closed = k_printed(p, u).real
        quad = re_k_approx(p.coupling, u)
        assert closed == pytest.approx(quad, rel=0.1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            k_printed(KernelParams(1.0, 0.0, 10.0), -0.1)


class TestKQuadrature:
    def test_zero_time(self):
        assert k_quadrature(KernelParams(1.0, 0.5, 10.0), 0.0) == 0.0

    def test_frozen_real_part(self):
        p = KernelParams(1.0, 0.0, 10.0)
        assert k_quadrature(p, 1.0).real == pytest.approx(2.3160456292895, abs=1e-9)

    def test_frozen_imag_part(self):
        p = KernelParams(1.0, 0.5, 10.0)
        assert k_quadrature(p, 1.0).imag == pytest.approx(-0.41708262028906, abs=1e-9)

    def test_imag_magnitude_matches_printed_form(self):
        # the two evaluators agree on |Im k| but disagree on its sign;
        # both values are exposed rather than one being forced onto the other
        p = KernelParams(1.0, 0.5, 10.0)
        for u in (0.3, 1.0):
            assert abs(k_quadrature(p, u).imag) == pytest.approx(
                abs(k_printed(p, u).imag), abs=1e-8
            )

    def test_short_time_closed_form(self):
        # Re k -> (pi gamma0 wc'/4) u^2 as u -> 0
        p = KernelParams(1.0, 0.0, 10.0)
        u = 0.01
        expected = 0.25 * math.pi * p.gamma0 * p.wc_ts * u * u
        assert k_quadrature(p, u).real == pytest.approx(expected, rel=0.01)

    def test_imag_zero_when_delta0_zero(self):
        assert k_quadrature(KernelParams(1.0, 0.0, 10.0), 0.5).imag == 0.0

    def test_real_part_linear_in_gamma0(self):
        a = k_quadrature(KernelParams(1.0, 0.0, 10.0), 0.6).real
        b = k_quadrature(KernelParams(2.0, 0.0, 10.0), 0.6).real
        assert b == pytest.approx(2 * a, rel=1e-8)


class TestOneSineIntegralPerPoint:
    """Re k and Im k share one Si(wc' u) per point, on every branch."""

    @pytest.mark.parametrize("evaluator", [k_printed, k_quadrature], ids=["printed", "quadrature"])
    @pytest.mark.parametrize("delta0", [0.0, 0.5])
    # x = wc' u = 0.3, 2 and 9: the series of F, then Si's series and its tail
    @pytest.mark.parametrize("u", [0.03, 0.2, 0.9])
    def test_one_call(self, evaluator, delta0, u, monkeypatch):
        calls = []

        def counting(x):
            calls.append(x)
            return si_standard(x)

        monkeypatch.setattr(kernel, "si_standard", counting)
        evaluator(KernelParams(1.0, delta0, 10.0), u)
        assert calls == [10.0 * u]


class TestReadings:
    """The two readings of k differ by two explicit identities."""

    CASES = [
        (KernelParams(1.0, 0.5, 10.0), u) for u in (0.01, 0.049, 0.051, 0.3, 0.399, 0.401, 1.0)
    ] + [(KernelParams(6.7e-5, 0.2, 10.75), 0.964), (KernelParams(0.3, 1.0, 0.5), 2.0)]

    def test_imag_parts_opposite(self):
        for p, u in self.CASES:
            assert k_printed(p, u).imag == pytest.approx(-k_quadrature(p, u).imag, rel=1e-14, abs=1e-300)

    def test_real_parts_related(self):
        # (2/pi) prefactor against pi/2, plus the stray (pi/2)(wc' - 1) u term
        for p, u in self.CASES:
            expected = 4.0 / math.pi**2 * k_quadrature(p, u).real + p.gamma0 * (p.wc_ts - 1.0) * u
            assert k_printed(p, u).real == pytest.approx(expected, rel=1e-13)

    def test_non_finite_time_rejected(self):
        p = KernelParams(1.0, 0.5, 10.0)
        for u in (math.nan, math.inf):
            with pytest.raises(ValueError):
                k_printed(p, u)
            with pytest.raises(ValueError):
                k_quadrature(p, u)
            with pytest.raises(ValueError):
                si_standard(u)
