"""Pressure laws, potentials, Bregman divergence, certificates."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import mvflow.pressure
from helpers import (broadcast_bregman_H, broadcast_h_increment, dQ,
                     gathered_integral_over_z2, table_value_and_slope)
from mvflow.errors import (DomainError, InsufficientGridError, InvalidLawError,
                           SpecParseError)
from mvflow.experiments import law_from_config, law_to_config
from mvflow.pressure import (
    CompactBump,
    PowerLawH,
    PressureLaw,
    TabulatedH,
    bregman_H,
    certify,
    h_increment,
    potential,
)


def power_law(a=1.0, gamma=2.0, bump=None):
    return PressureLaw(h_part=PowerLawH(a=a, gamma=gamma), bump=bump)


def simpson(f, lo, hi, n=20001):
    # independent quadrature oracle (composite Simpson, n odd)
    x = np.linspace(lo, hi, n)
    y = f(x)
    h = (hi - lo) / (n - 1)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def quad_over_z2(f, rho, knots=()):
    """Adaptive-quadrature oracle for int_1^rho f(z)/z^2 dz, one point at a time.

    f's kinks (bump ends, table knots) are passed as breakpoints so that
    every subinterval is smooth; the tolerance is far below the 1e-9 the
    closed forms are held to.
    """
    lo, hi = min(rho, 1.0), max(rho, 1.0)
    if lo == hi:
        return 0.0
    pts = [k for k in knots if lo < k < hi] or None
    val, _ = quad(lambda z: float(f(z)) / z**2, lo, hi, points=pts,
                  epsabs=1e-13, epsrel=1e-13, limit=400)
    return val if rho >= 1.0 else -val


def bench_table():
    # the tabulated-solve benchmark law: h = rho^2 + 0.1 rho at 9 points on [0, 4]
    rho = np.linspace(0.0, 4.0, 9)
    return TabulatedH(tuple(rho), tuple(rho**2 + 0.1 * rho), gamma_tail=2.0)


# PCHIP's end slope is zero on these samples, and extrapolating the last
# cubic piece turned h down to h(5) = -0.2 and h(20) = -576
REPRODUCER = ((0.0, 0.5, 1.0, 2.0, 3.0), (0.0, 0.2, 1.0, 1.6, 1.8))


# -- bump ---------------------------------------------------------------------

def test_bump_peak_and_support():
    q = CompactBump(q1=1.0, q2=2.0, amp=0.1)
    assert q.value(1.5) == pytest.approx(0.1, abs=1e-15)   # peak value is amp
    assert q.value(0.5) == 0.0
    assert q.value(2.5) == 0.0
    assert q.slope(1.0) == 0.0
    assert q.slope(2.0) == 0.0


def test_bump_rejects_bad_support():
    with pytest.raises(InvalidLawError):
        CompactBump(q1=0.0, q2=2.0, amp=0.1)
    with pytest.raises(InvalidLawError):
        CompactBump(q1=2.0, q2=1.0, amp=0.1)


@given(q1=st.floats(0.05, 3.0), width=st.floats(0.05, 3.0),
       amp=st.floats(-0.5, 0.5))
@settings(max_examples=60, deadline=None)
def test_bump_is_c1_at_endpoints(q1, width, amp):
    q = CompactBump(q1=q1, q2=q1 + width, amp=amp)
    eps = 1e-7 * width
    for edge in (q.q1, q.q2):
        fd = (q.value(edge + eps) - q.value(edge - eps)) / (2.0 * eps)
        assert abs(fd) < 1e-4 * max(1.0, abs(amp))
    assert q.value(q.q1) == 0.0 and q.value(q.q2) == 0.0


# -- pressure / potential -----------------------------------------------------

def test_pressure_power_law_values():
    law = power_law(a=1.0, gamma=2.0)
    assert law.p(2.0) == pytest.approx(4.0)
    assert law.p(0.0) == 0.0


def _same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(a=st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
       gamma=st.one_of(st.sampled_from([1.0, 1.4, 2.0, 3.0]), st.floats(1.0, 3.0)),
       shape=st.sampled_from([(9,), (3, 7)]), seed=st.integers(0, 2**32 - 1))
def test_power_law_skips_change_no_bit(a, gamma, shape, seed):
    # value, slope and potential skip the multiply by a = 1, rho^1 at
    # gamma = 2 and the divide by gamma - 1 = 1; each must keep the bytes of
    # the textbook expression, and return a fresh array (callers add into it)
    rho = np.random.default_rng(seed).uniform(0.0, 4.0, size=shape)
    rho.flat[:2] = [0.0, 1.0]
    h = PowerLawH(a=a, gamma=gamma)
    value = a * np.power(rho, gamma)
    slope = a * gamma * np.power(rho, gamma - 1.0)
    if gamma == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            pot = np.where(rho > 0.0, a * rho * np.log(rho), 0.0)
    else:
        pot = a * (np.power(rho, gamma) - rho) / (gamma - 1.0)
    pair = h.value_and_slope(rho)
    for got, want in ((h.value(rho), value), (h.slope(rho), slope), (pair[0], value),
                      (pair[1], slope), (h.potential(rho), pot)):
        assert _same_bytes(got, want)
        assert not np.shares_memory(got, rho)


def test_pressure_with_bump():
    law = power_law(bump=CompactBump(q1=1.0, q2=2.0, amp=0.1))
    assert law.p(1.5) == pytest.approx(2.35)


def test_potential_closed_forms():
    assert potential(power_law(a=1.0, gamma=2.0), 2.0) == pytest.approx(2.0, abs=1e-12)
    assert potential(power_law(a=1.0, gamma=2.0), 1.0) == pytest.approx(0.0, abs=1e-14)
    e = float(np.e)
    assert potential(power_law(a=1.0, gamma=1.0), e) == pytest.approx(e, rel=1e-12)


def test_potential_zero_density_limit():
    for gamma in (1.0, 1.4, 2.0, 3.0):
        assert potential(power_law(gamma=gamma), 0.0) == 0.0


def test_bump_potential_matches_independent_quadrature():
    bump = CompactBump(q1=1.0, q2=2.0, amp=0.1)
    law = power_law(bump=bump)
    for rho in (0.5, 1.3, 1.7, 3.0, 8.0):
        lo, hi = min(rho, 1.0), max(rho, 1.0)
        a, b = max(lo, 1.0), min(hi, 2.0)
        ref = 0.0
        if a < b:
            ref = simpson(lambda z: bump.value(z) / z**2, a, b)
            ref = rho * (ref if rho >= 1.0 else -ref)
        got = potential(law, rho) - law.H(np.asarray(rho))
        assert got == pytest.approx(ref, abs=1e-9)
        assert float(law.Q(np.asarray(rho))) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("amp", [0.1, -0.05])
def test_bump_closed_form_matches_quadrature_oracle(amp):
    bump = CompactBump(q1=0.8, q2=2.3, amp=amp)
    law = power_law(bump=bump)
    rho = np.array([0.05, 0.5, 0.8, 0.9, 1.0, 1.4, 2.3, 3.0, 12.0])
    ref = np.array([r * quad_over_z2(bump.value, r, (bump.q1, bump.q2)) for r in rho])
    np.testing.assert_allclose(law.Q(rho), ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(potential(law, rho), law.H(rho) + ref, rtol=0, atol=1e-9)
    ref_slope = np.array([quad_over_z2(bump.value, r, (bump.q1, bump.q2)) for r in rho])
    np.testing.assert_allclose(dQ(law, rho), ref_slope + bump.value(rho) / rho,
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
@pytest.mark.parametrize("with_bump", [False, True])
def test_potential_identities(gamma, with_bump):
    # rho H' - H = h and rho Q' - Q = q on (0, 10]
    bump = CompactBump(q1=1.0, q2=2.0, amp=0.1) if with_bump else None
    law = power_law(a=1.0, gamma=gamma, bump=bump)
    rho = np.linspace(0.01, 10.0, 400)
    assert np.max(np.abs(rho * law.dH(rho) - law.H(rho) - law.h(rho))) < 1e-8
    assert np.max(np.abs(rho * dQ(law, rho) - law.Q(rho) - law.q(rho))) < 1e-8
    # rho H'' = h' away from the endpoint kinks of the bump
    assert np.max(np.abs(rho * law.d2H(rho) - law.dh(rho))) < 1e-8


def test_tabulated_law_tracks_samples():
    rho = np.linspace(0.0, 4.0, 17)
    law = PressureLaw(h_part=TabulatedH(tuple(rho), tuple(rho**2), gamma_tail=2.0))
    # exact at the nodes, monotone-interpolant accuracy between them
    np.testing.assert_allclose(law.h(rho), rho**2, atol=1e-12)
    x = np.linspace(0.1, 3.9, 50)
    assert np.max(np.abs(law.h(x) - x**2)) < 1e-2
    # potential identity through the closed forms
    pts = np.array([0.5, 1.5, 3.0])
    assert np.max(np.abs(pts * law.dH(pts) - law.H(pts) - law.h(pts))) < 1e-7


@pytest.mark.parametrize("table", [bench_table(), TabulatedH(*REPRODUCER, gamma_tail=2.0),
                                   TabulatedH(*REPRODUCER, gamma_tail=1.0),
                                   TabulatedH((0.0, 0.2, 0.6), (0.0, 0.1, 0.5), 2.5)],
                         ids=["bench", "reproducer", "gamma1-tail", "short-gamma2.5"])
def test_tabulated_closed_form_matches_quadrature_oracle(table):
    # points inside the table, on its knots, around rho = 1 and in the tail
    rho = np.array([1e-3, 0.1, 0.3, 0.5, 0.77, 1.0, 1.3, 2.0, 2.5, 3.0, 3.5,
                    4.0, 5.0, 20.0])
    knots = table.rho_samples
    ref = np.array([quad_over_z2(table.value, r, knots) for r in rho])
    np.testing.assert_allclose(table.integral_over_z2(rho), ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(table.potential(rho), rho * ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(table.potential_slope(rho), ref + table.value(rho) / rho,
                               rtol=0, atol=1e-9)


def test_tabulated_reproducer_tail_is_monotone():
    h = TabulatedH(*REPRODUCER, gamma_tail=2.0)
    # zero PCHIP end slope: the tail is the pure power through the last sample
    assert float(h.slope(3.0)) == 0.0
    assert h.a == pytest.approx(1.8 / 9.0, rel=1e-15)
    assert float(h.value(5.0)) == pytest.approx(1.8 * 25.0 / 9.0, rel=1e-14)
    assert float(h.value(20.0)) == pytest.approx(1.8 * 400.0 / 9.0, rel=1e-14)
    x = np.linspace(0.0, 30.0, 6001)
    assert np.all(np.diff(h.value(x)) > 0.0)
    # the certificate, which scans past the table, now holds as well
    law, grid = PressureLaw(h_part=h), np.linspace(0.0, 10.0, 4001)
    cert = certify(law, (0.5, 2.0), grid)
    assert cert.c_min > 0.0
    assert cert.valid


def test_tabulated_tail_matches_value_and_slope():
    # h = rho^2 + 0.1 rho on [0, 4]: positive end slope, so the tail is C^1
    h = bench_table()
    end, eps = 4.0, 1e-7
    s_end = float(h.slope(end))
    assert s_end > 0.0
    assert float(h.value(end + eps)) == pytest.approx(float(h.value(end)), abs=1e-6)
    assert float(h.slope(end + eps)) == pytest.approx(s_end, rel=1e-6)
    assert h.a == pytest.approx(s_end / (2.0 * end), rel=1e-15)
    # far out the benign table no longer turns down (plain PCHIP: h(20) = -193)
    assert float(h.value(20.0)) > float(h.value(4.0))
    law = PressureLaw(h_part=h)
    x = np.linspace(4.0 - 0.5, 4.0 + 0.5, 101)
    assert np.all(np.diff(law.H(x)) > 0.0)
    assert np.max(np.abs(law.d2H(x) * x - law.dh(x))) < 1e-12


@st.composite
def increasing_tables(draw):
    n = draw(st.integers(3, 10))
    dr = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    dh = draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1, max_size=n - 1))
    rho = np.concatenate([[0.0], np.cumsum(dr)])
    h = np.concatenate([[0.0], np.cumsum(dh)])
    return TabulatedH(tuple(rho), tuple(h), gamma_tail=draw(st.floats(1.0, 3.0)))


@given(table=increasing_tables())
@settings(max_examples=60, deadline=None)
def test_tabulated_law_increasing_with_exact_potential(table):
    law = PressureLaw(h_part=table)
    x = np.linspace(0.0, 10.0 * table.rho_max, 4001)
    assert np.all(np.diff(law.h(x)) > 0.0)
    xp = x[1:]
    dP = law.dH(xp) + dQ(law, xp)
    assert np.max(np.abs(xp * dP - law.P(xp) - law.h(xp))) < 1e-8


@given(table=increasing_tables(), gamma=st.floats(1.0, 3.5),
       q1=st.floats(0.05, 3.0), width=st.floats(0.05, 3.0), amp=st.floats(-0.2, 0.2))
@settings(max_examples=60, deadline=None)
def test_p_and_dp_is_p_and_dp_bit_for_bit(table, gamma, q1, width, amp):
    bump = CompactBump(q1=q1, q2=q1 + width, amp=amp)
    knots = np.asarray(table.rho_samples)
    edges = np.array([bump.q1, bump.q2])
    rho = np.concatenate([
        [0.0], knots, np.nextafter(knots, np.inf), knots[-1] * np.array([1.5, 4.0]),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        np.linspace(0.0, 2.0 * max(knots[-1], bump.q2), 37)])
    # the table's one-gather evaluations against the rows taken one by one,
    # inside the table and past it
    for x in (np.asarray(0.0), rho, rho.reshape(2, -1)):
        want = [np.asarray(v).tobytes() for v in table_value_and_slope(table, x)]
        for got in (table.value_and_slope(x), (table.value(x), table.slope(x))):
            assert [np.asarray(v).tobytes() for v in got] == want
    for h_part in (table, PowerLawH(a=1.3, gamma=gamma)):
        for law in (PressureLaw(h_part=h_part), PressureLaw(h_part=h_part, bump=bump)):
            # one cell, a row and a stack of rows, as the solver passes them
            for x in (np.asarray(0.0), rho, rho.reshape(2, -1)):
                p, dp = law.p_and_dp(x)
                assert np.asarray(p).tobytes() == np.asarray(law.p(x)).tobytes()
                assert np.asarray(dp).tobytes() == np.asarray(law.dp(x)).tobytes()


@pytest.mark.parametrize("gamma_tail", [1.0, 1.3, 1.5, 2.0, 2.5, 3.3])
def test_tabulated_potential_equals_per_cell_gathers_bit_for_bit(gamma_tail):
    # the piece table's constants, folded at construction (c^(gamma_tail - 1)
    # over the anchors), against each formed per cell from gathered rows:
    # numpy picks its float64 power loop by CPU and layout, so compare bytes
    bump = CompactBump(q1=1.0, q2=2.0, amp=0.05)
    for base in bench_table(), TabulatedH(*REPRODUCER):
        table = TabulatedH(base.rho_samples, base.h_samples, gamma_tail=gamma_tail)
        knots = table.rho_samples[1:]
        x = np.concatenate([[1e-300], knots, [np.nextafter(knots[-1], np.inf), 100.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            for rho in (x, np.concatenate([[0.0], x])):
                shapes = [rho, np.stack([rho, rho[::-1]]), rho[:, None], *rho]
                for v in map(np.asarray, shapes):
                    want = gathered_integral_over_z2(table, v)
                    if rho[0] > 0.0:
                        assert np.asarray(table.integral_over_z2(v)).tobytes() == want.tobytes()
                    H = np.where(v > 0.0, v * want, 0.0)
                    dH = want + table_value_and_slope(table, v)[0] / v
                    assert np.asarray(table.potential(v)).tobytes() == H.tobytes()
                    for law in PressureLaw(h_part=table), PressureLaw(h_part=table, bump=bump):
                        P = H if law.bump is None else H + law.Q(v)
                        assert np.asarray(law.P(v)).tobytes() == P.tobytes()
                    assert np.asarray(table.potential_slope(v)).tobytes() == dH.tobytes()


@pytest.mark.parametrize("law", [bench_table(), PowerLawH(a=1.0, gamma=1.4)],
                         ids=["tabulated", "power"])
def test_potential_on_2d_arrays_equals_row_wise(law):
    law = PressureLaw(h_part=law, bump=CompactBump(q1=1.0, q2=2.0, amp=0.05))
    rho = np.random.default_rng(3).uniform(0.2, 6.0, size=(5, 7))
    P, dP = law.P(rho), law.dH(rho) + dQ(law, rho)
    assert P.shape == dP.shape == rho.shape
    for i, row in enumerate(rho):
        np.testing.assert_array_equal(P[i], law.P(row))
        np.testing.assert_array_equal(dP[i], law.dH(row) + dQ(law, row))
    np.testing.assert_array_equal(potential(law, rho), P)


def test_production_paths_make_no_quadrature_calls(monkeypatch):
    from mvflow.solver import Grid1D, SolverConfig, perturb_density, pulse_flow_init, run

    def tripwire(*args, **kwargs):
        raise AssertionError("scipy quad called from a production path")

    monkeypatch.setattr(mvflow.pressure, "quad", tripwire)
    tab = PressureLaw(h_part=bench_table())
    grid = Grid1D(n=48, length=1.0)
    init = perturb_density(pulse_flow_init(1.0), 1.0, 1e-2, np.random.default_rng(5))
    traj = run(SolverConfig(law=tab, lam=0.1, T=0.005), init.sample(grid), grid)
    assert traj.complete and traj.n_steps > 0

    both = PressureLaw(h_part=bench_table(), bump=CompactBump(q1=1.0, q2=2.0, amp=0.05))
    rho_grid = np.linspace(0.0, 10.0, 4001)
    assert certify(both, (0.5, 2.0), rho_grid).valid

    bump_law = power_law(bump=CompactBump(q1=1.0, q2=2.0, amp=0.05))
    assert np.all(np.isfinite(bump_law.P(np.linspace(0.0, 5.0, 11))))
    assert np.isfinite(potential(bump_law, 1.5))


def test_tabulated_rejects_nonmonotone():
    with pytest.raises(InvalidLawError):
        TabulatedH((0.0, 1.0, 2.0), (0.0, 2.0, 1.0))
    with pytest.raises(InvalidLawError):
        TabulatedH((0.5, 1.0, 2.0), (0.5, 1.0, 2.0))  # must start at (0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tabulated_rejects_non_finite_samples(bad, monkeypatch):
    # rejected before the interpolant's coefficients are built
    def no_spline(*args, **kwargs):
        raise AssertionError("the interpolant was built")

    monkeypatch.setattr(mvflow.pressure, "_pchip_coefficients", no_spline)
    for rho, h in (((0.0, 1.0, bad), (0.0, 1.0, 2.0)), ((0.0, 1.0, 2.0), (0.0, bad, 2.0))):
        with pytest.raises(InvalidLawError, match="finite"):
            TabulatedH(rho, h)
    with pytest.raises(InvalidLawError, match="finite"):
        TabulatedH((0.0, 1.0, 2.0), (0.0, 1.0, 2.0), gamma_tail=bad)
    # a valid table does reach the patched builder
    with pytest.raises(AssertionError, match="was built"):
        TabulatedH((0.0, 1.0, 2.0), (0.0, 1.0, 2.0))


@st.composite
def pchip_tables(draw):
    """3-20 strictly increasing samples from (0, 0)."""
    n = draw(st.integers(3, 20))
    steps = st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1)
    rho = np.concatenate([[0.0], np.cumsum(draw(steps))])
    h = np.concatenate([[0.0], np.cumsum(draw(steps))])
    return rho, h


@given(table=pchip_tables(), inside=st.lists(st.floats(0.0, 1.0), max_size=8))
@settings(max_examples=200, deadline=None)
def test_numpy_pchip_matches_scipy_bit_for_bit(table, inside):
    from scipy.interpolate import PchipInterpolator

    rho, h = table
    spline = PchipInterpolator(rho, h, extrapolate=True)
    dspline = spline.derivative()
    law = TabulatedH(tuple(rho), tuple(h))
    assert np.array_equal(mvflow.pressure._pchip_coefficients(rho, h), spline.c)
    assert np.array_equal(law._paired[5::-2], dspline.c)
    # 0, the knots (the last one included), points between them, and beyond
    # the table, where the cubic extrapolates as scipy's does
    table_pts = np.concatenate([[0.0], rho, rho[-1] * np.asarray(inside, dtype=float)])
    beyond = rho[-1] * np.array([1.0 + 1e-9, 1.5, 4.0])
    pts = np.concatenate([table_pts, beyond])
    cubic, dcubic = table_value_and_slope(law, pts, tail=False)
    assert np.array_equal(cubic, spline(pts))
    assert np.array_equal(dcubic, dspline(pts))
    assert np.array_equal(law.value(table_pts), spline(table_pts))
    assert np.array_equal(law.slope(table_pts), dspline(table_pts))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bump_rejects_non_finite_parameters(bad):
    for q1, q2, amp in ((1.0, 2.0, bad), (bad, 2.0, 0.1), (1.0, bad, 0.1)):
        with pytest.raises(InvalidLawError, match="finite"):
            CompactBump(q1=q1, q2=q2, amp=amp)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_power_law_rejects_non_finite_parameters(bad):
    with pytest.raises(InvalidLawError, match="finite"):
        PowerLawH(a=bad, gamma=2.0)
    with pytest.raises(InvalidLawError, match="finite"):
        PowerLawH(a=1.0, gamma=bad)


# -- Bregman ------------------------------------------------------------------

def test_bregman_frozen_values():
    # expand H(rho)-H(r)-H'(r)(rho-r) with H = rho^2 - rho by hand:
    # (9-3) - 0 - 1*(3-1) = 4  and  0 - 0 - 1*(0-1) = 1
    law = power_law(a=1.0, gamma=2.0)
    assert bregman_H(law, 3.0, 1.0) == pytest.approx(4.0, rel=1e-14)
    assert bregman_H(law, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_bregman_gamma2_closed_form_relative():
    # a (rho - r)^2 to 1e-12 relative, including rho within one cell of r
    rng = np.random.default_rng(7)
    a = 2.5
    law = power_law(a=a, gamma=2.0)
    rho = rng.uniform(1e-3, 10.0, size=10_000)
    for r in (0.5, 1.0, 2.0, 7.5):
        got = bregman_H(law, rho, r)
        want = a * (rho - r) ** 2
        rel = np.abs(got - want) / np.maximum(want, 1e-300)
        assert np.max(rel) < 1e-12


def test_bregman_at_zero_equals_h_of_r():
    # B(0, r) = h(r): follows from rho H' - H = h
    for gamma in (1.0, 1.4, 2.0, 3.0):
        law = power_law(a=1.3, gamma=gamma)
        for r in (0.5, 1.0, 2.0):
            assert bregman_H(law, 0.0, r) == pytest.approx(
                float(law.h(np.asarray(r))), rel=1e-12)


def test_bregman_rejects_bad_arguments():
    law = power_law()
    with pytest.raises(DomainError):
        bregman_H(law, 1.0, 0.0)
    with pytest.raises(DomainError):
        bregman_H(law, -0.5, 1.0)


@given(gamma=st.sampled_from([1.0, 1.2, 1.4, 2.0, 2.5, 3.0]),
       rho=st.floats(0.0, 20.0), r=st.floats(1e-3, 10.0))
@settings(max_examples=200, deadline=None)
def test_bregman_nonnegative(gamma, rho, r):
    val = bregman_H(power_law(a=1.0, gamma=gamma), rho, r)
    assert val >= -1e-13 * max(1.0, abs(val))


def test_bregman_series_matches_direct_formula():
    # series branch (|rho/r - 1| <= 1/2) against the plain formula in float64
    law = power_law(a=1.0, gamma=1.4)
    r = 2.0
    rho = np.linspace(1.2, 2.9, 57)
    direct = (rho**1.4 - r**1.4 - 1.4 * r**0.4 * (rho - r)) / 0.4
    got = bregman_H(law, rho, r)
    assert np.max(np.abs(got - direct)) < 1e-11


# rho at 0, at |rho - r| / r = 1/2 exactly on both sides of r = 2 (1 and 3),
# on and next to the diagonal, and far on either side
_KERNEL_RHO = np.array([0.0, 0.25, 1.0, 1.5, 2.0 - 1e-9, 2.0, 2.0 + 1e-9,
                        2.5, 3.0, 3.0 + 1e-12, 7.0, 40.0])
_KERNEL_R = np.array([0.5, 1.0, 2.0, 3.5])


def _kernel_shapes():
    """(name, rho, r) pairs: scalar, row, column, (R, S) table and a
    measure-like (K, R, S) array against an (R, S) reference."""
    rho, r = _KERNEL_RHO, _KERNEL_R
    grid = np.linspace(0.0, 10.0, 301)
    yield "scalar-near", 3.0, 2.0
    yield "scalar-far", 40.0, 2.0
    yield "scalar-zero", 0.0, 2.0
    yield "row", rho, 2.0
    yield "column", 1.0, r[:, None]
    yield "table", rho[None, :], r[:, None]
    yield "grid-table", grid, np.linspace(0.9, 1.2, 7)[:, None]
    yield "measure", np.stack([rho[None, :] * f for f in (0.9, 1.0, 1.1)]) * \
        np.ones((len(r), 1)), np.broadcast_to(r[:, None], (len(r), rho.size))


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.5])
@pytest.mark.parametrize("with_bump", [False, True], ids=["plain", "bump"])
def test_bregman_kernel_equals_gather_scatter_oracle(gamma, with_bump):
    # the gather-free kernel gives the bytes of the old broadcast, gather and
    # scatter one, and the same type and shape, for every argument shape
    bump = CompactBump(q1=1.0, q2=2.0, amp=0.05) if with_bump else None
    law = power_law(a=1.7, gamma=gamma, bump=bump)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for name, rho, r in _kernel_shapes():
            for got, want in ((bregman_H(law, rho, r), broadcast_bregman_H(law, rho, r)),
                              (h_increment(law, rho, r), broadcast_h_increment(law, rho, r))):
                assert type(got) is type(want), name
                assert np.shape(got) == np.shape(want), name
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


@pytest.mark.parametrize("table", [bench_table(), TabulatedH(*REPRODUCER)],
                         ids=["bench", "reproducer"])
def test_tabulated_bregman_equals_broadcast_form(table):
    # H, H' and h are taken on each argument's own shape, not on broadcast
    # copies; the values are the same bits
    law = PressureLaw(h_part=table, bump=CompactBump(q1=1.0, q2=2.0, amp=0.05))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for name, rho, r in _kernel_shapes():
            for got, want in ((bregman_H(law, rho, r), broadcast_bregman_H(law, rho, r)),
                              (h_increment(law, rho, r), broadcast_h_increment(law, rho, r))):
                assert type(got) is type(want), name
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


# -- certificates -------------------------------------------------------------

def _oracle_two_band_c(law, r, grid, r1, r2):
    # independent grid minimization written long-hand
    cm = np.inf
    co = np.inf
    H = law.H(grid)
    Hr = float(law.H(np.asarray(r)))
    dHr = float(law.dH(np.asarray(r)))
    breg = H - Hr - dHr * (grid - r)
    for rho, b in zip(grid, breg):
        if r1 <= rho <= r2:
            if abs(rho - r) > 1e-9:
                cm = min(cm, b / (rho - r) ** 2)
        else:
            co = min(co, b / (1.0 + rho ** law.gamma))
    return cm, co


def test_lower_bound_certificate_gamma2_middle_band_is_one():
    law = power_law(a=1.0, gamma=2.0)
    grid = np.arange(0.0, 8.0 + 1e-12, 0.01)
    cert = certify(law, (1.0, 1.0), grid)
    assert cert.r1 == 0.5 and cert.r2 == 2.0
    assert cert.c_middle[0] == pytest.approx(1.0, rel=1e-12)
    cm, co = _oracle_two_band_c(law, 1.0, grid, 0.5, 2.0)
    assert cert.c_outer[0] == pytest.approx(co, rel=1e-9)
    assert cert.valid


@pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
@pytest.mark.parametrize("amp_sign", [1.0, -1.0])
def test_lower_bound_certificate_small_bumps(gamma, amp_sign):
    law = power_law(a=1.0, gamma=gamma,
                    bump=CompactBump(q1=1.0, q2=2.0, amp=amp_sign * 0.1))
    grid = np.arange(0.0, 10.0 + 1e-12, 0.01)
    cert = certify(law, (0.5, 2.0), grid)
    assert cert.valid
    assert cert.c_min > 0.0


def test_lower_bound_rejects_degenerate_grid():
    law = power_law()
    with pytest.raises(InsufficientGridError):
        certify(law, (1.0, 1.0), np.full(12, 1.0))
    with pytest.raises(InsufficientGridError):
        # grid too short to witness the outer band
        certify(law, (1.0, 1.0), np.linspace(0.0, 3.0, 50))


@pytest.mark.parametrize("start", [-1.0, -1e-13, 1e-11])
def test_certify_names_a_grid_that_does_not_start_at_zero(start):
    # a negative start is named as the grid's fault, not as bregman_H's domain
    with pytest.raises(InsufficientGridError, match="grid must start at rho = 0"):
        certify(power_law(), (0.5, 2.0), np.linspace(start, 10.0, 4001))


def test_h_bound_certificate_gamma2_ratio_is_one():
    # for gamma = 2 both sides equal a (rho - r)^2, so C = 1 on any grid
    law = power_law(a=1.0, gamma=2.0)
    grid = np.arange(0.0, 8.0 + 1e-12, 0.01)
    cert = certify(law, (0.5, 2.0), grid)
    assert cert.valid
    assert cert.C_max == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("gamma", [1.4, 3.0])
def test_h_bound_certificate_finite_for_other_exponents(gamma):
    law = power_law(a=1.0, gamma=gamma)
    grid = np.arange(0.0, 10.0 + 1e-12, 0.01)
    cert = certify(law, (0.5, 2.0), grid)
    assert cert.valid
    assert np.all(np.isfinite(cert.C_of_r))
    # spot-check one r against a long-hand scan (plain formula is noisy near r)
    r = 1.25
    mask = np.abs(grid - r) >= 1e-3
    breg = bregman_H(law, grid[mask], r)
    hinc = np.abs(law.h(grid[mask]) - law.h(np.asarray(r))
                  - law.dh(np.asarray(r)) * (grid[mask] - r))
    assert cert.C_max >= np.max(hinc / breg) * (1.0 - 1e-8)


def test_certificate_rows_shape():
    law = power_law()
    grid = np.arange(0.0, 8.0 + 1e-12, 0.01)
    header, rows = certify(law, (0.5, 2.0), grid).rows()
    assert header == ["r", "c_middle", "c_outer", "C_ratio", "valid"]
    assert len(rows) == 33
    assert all(len(r) == 5 for r in rows)
    assert all(r[4] for r in rows)


# -- config round-trip --------------------------------------------------------

def test_law_config_round_trip_power():
    law = power_law(a=1.7, gamma=1.4, bump=CompactBump(q1=0.8, q2=2.2, amp=-0.05))
    cfg = law_to_config(law)
    law2 = law_from_config(cfg)
    x = np.linspace(0.0, 5.0, 101)
    np.testing.assert_allclose(law2.p(x), law.p(x), rtol=0, atol=0)


def test_law_config_round_trip_tabulated():
    rho = tuple(np.linspace(0.0, 4.0, 9))
    law = PressureLaw(h_part=TabulatedH(rho, tuple(v**2 for v in rho), gamma_tail=2.0))
    law2 = law_from_config(law_to_config(law))
    x = np.linspace(0.1, 3.9, 31)
    np.testing.assert_allclose(law2.h(x), law.h(x), rtol=1e-12)


def test_law_config_writes_its_keys_in_order_and_each_number_as_a_float():
    # an int or a numpy float is written as the float it reads back as
    rho = tuple(np.linspace(0.0, 2.0, 5))
    law = PressureLaw(h_part=TabulatedH(rho, tuple(v**2 for v in rho), gamma_tail=2))
    assert list(law_to_config(law).items()) == [
        ("law.kind", "tabulated"), ("law.rho", "0.0,0.5,1.0,1.5,2.0"),
        ("law.h", "0.0,0.25,1.0,2.25,4.0"), ("law.gamma", "2.0")]
    law = power_law(a=1, gamma=np.float64(2.0), bump=CompactBump(q1=1, q2=2, amp=0.05))
    assert list(law_to_config(law).items()) == [
        ("law.kind", "power"), ("law.a", "1.0"), ("law.gamma", "2.0"),
        ("law.bump.q1", "1.0"), ("law.bump.q2", "2.0"), ("law.bump.A", "0.05")]


def test_law_config_rejects_unknown_kind():
    with pytest.raises(SpecParseError, match="field 'law.kind': unknown kind"):
        law_from_config({"law.kind": "polytropic-mystery"})
