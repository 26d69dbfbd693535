"""Kernels written in place against the plain forms they replaced, kept
in tests/helpers.py: the bump law against np.where and out-of-place sums,
the certificate blocks and ratio scans against np.where reductions, and
the paired-table tabulated law against split tables, tail masks and
guards; and a ragged layout's kernels, whose cells' flat indices each
layout fixes once, against 2-D fancy indexing.  Each pair gives the same
bytes, types and shapes.  A form stays in place only where it was measured
to buy a share of a benchmark workload (CHANGES.md)."""
import numpy as np
import pytest

import mvflow.pressure
import mvflow.solver
from helpers import (fancy_gradient, guarded_potential, indexed_step_start,
                     setitem_trial, split_value_and_slope,
                     summed_bump_integral_over_z2, summed_law,
                     taken_integral_over_z2, where_bump_value_and_slope,
                     where_h_block, where_lower_block, where_scan_max)
from mvflow._rows import RaggedRows
from mvflow.pressure import (CompactBump, PowerLawH, PressureLaw, TabulatedH,
                             _h_block, _lower_block, _r_values, bregman_H)
from mvflow.relative_energy import CutoffBand, _scan_max
from mvflow.solver import Grid1D, SolverConfig

BUMPS = {"small": CompactBump(q1=1.0, q2=2.0, amp=0.05),
         "negative": CompactBump(q1=1.0, q2=2.0, amp=-0.05),
         "non-monotone": CompactBump(q1=1.0, q2=2.0, amp=2.0),
         "narrow": CompactBump(q1=0.7, q2=0.9, amp=0.3)}
TABLE = TabulatedH(tuple(np.linspace(0.0, 4.0, 9)),
                   tuple(np.linspace(0.0, 4.0, 9) ** 2 + 0.1 * np.linspace(0.0, 4.0, 9)))
H_PARTS = {**{f"power-a{a}-g{g}": PowerLawH(a=a, gamma=g)
              for a in (1.0, 1.7) for g in (1.0, 1.4, 2.0, 3.5)},
           "tabulated": TABLE}


def _same(got, want, name):
    assert type(got) is type(want), name
    assert np.shape(got) == np.shape(want), name
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def _densities(bump):
    """rho at, just inside and just outside both support ends, across and
    beyond the support, at 0 and at random points on it, in every shape a
    caller passes."""
    ends = np.array([bump.q1, bump.q2])
    inside = np.random.default_rng(7).uniform(bump.q1, bump.q2, 500)
    rho = np.concatenate([[0.0, 0.5, 3.0, 10.0], ends, np.nextafter(ends, 0.0),
                          np.nextafter(ends, np.inf), np.linspace(0.0, 2.5 * bump.q2, 42),
                          inside])
    return {"float": bump.q1, "float-out": 0.3, "float64": np.float64(bump.q2),
            "0-d": np.asarray(1.5 * bump.q1), "0-d-out": np.asarray(3.0 * bump.q2),
            "row": rho, "rows": rho.reshape(2, -1), "strided": rho[::3],
            "broadcast": np.broadcast_to(rho, (3, rho.size))}


@pytest.mark.parametrize("bump", list(BUMPS.values()), ids=list(BUMPS))
def test_bump_kernels_equal_the_where_form(bump):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for name, rho in _densities(bump).items():
            want_v, want_s = where_bump_value_and_slope(bump, rho)
            _same(bump.value(rho), want_v, name)
            _same(bump.slope(rho), want_s, name)
            v, s = bump.value_and_slope(rho)
            _same(v, want_v, name)
            _same(s, want_s, name)
            _same(bump.integral_over_z2(rho), summed_bump_integral_over_z2(bump, rho), name)
    # a NaN density lies off the support, as np.where read it
    rho = np.array([np.nan, 1.5])
    for got, want in zip(bump.value_and_slope(rho), where_bump_value_and_slope(bump, rho)):
        _same(got, want, "nan")


@pytest.mark.parametrize("h_part", list(H_PARTS.values()), ids=list(H_PARTS))
@pytest.mark.parametrize("bump", list(BUMPS.values()), ids=list(BUMPS))
def test_bump_law_equals_out_of_place_sums(h_part, bump):
    law = PressureLaw(h_part=h_part, bump=bump)
    with np.errstate(divide="ignore", invalid="ignore"):  # H(0) of gamma = 1
        for name, rho in _densities(bump).items():
            want = summed_law(law, rho)
            _same(law.p(rho), want["p"], name)
            _same(law.dp(rho), want["dp"], name)
            for got, w in zip(law.p_and_dp(rho), want["p_and_dp"]):
                _same(got, w, name)
            _same(law.Q(rho), want["Q"], name)
            _same(law.P(rho), want["P"], name)


LAWS = {f"{name}-{'bump' if b else 'plain'}": PressureLaw(h_part=h, bump=b)
        for name, h in H_PARTS.items() for b in (None, BUMPS["small"])}


def _blocks(law, r_range, grid):
    r1, r2 = mvflow.pressure._check_grid(grid, *r_range)
    middle = (grid >= r1) & (grid <= r2)
    outer_den = 1.0 + grid ** law.gamma
    r_values = _r_values(*r_range)
    for rows in (slice(0, 1), slice(5, 12), slice(None)):
        r = r_values[rows, None]
        yield middle, outer_den, r, bregman_H(law, grid, r)


@pytest.mark.parametrize("law", list(LAWS.values()), ids=list(LAWS))
def test_certificate_blocks_equal_the_where_form(law):
    # the grid holds the bump's ends and each r sample among its points
    grid = np.unique(np.concatenate([np.linspace(0.0, 10.0, 2001), [1.0, 2.0],
                                     _r_values(0.5, 2.0)]))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for r_range in ((0.9, 1.15), (0.5, 2.0), (1.0, 1.0)):
            for middle, outer_den, r, breg in _blocks(law, r_range, grid):
                gap = np.abs(grid - r)
                for got, want in zip(_lower_block(law, middle, outer_den, r, breg, gap),
                                     where_lower_block(law, grid, middle, outer_den, r, breg)):
                    _same(got, want, "lower")
                _same(_h_block(law, grid, r, breg, gap), where_h_block(law, grid, r, breg), "h")


@pytest.mark.parametrize("a", [1.0, 1.7])
def test_h_block_equals_the_where_form_on_edge_tables(a):
    # C(r) of a gamma = 2 law, whose ratio |1.0 B| / B is 1 wherever B > 0
    # is finite, against every ratio formed: kept B = 0, -0.0 and < 0,
    # tables holding inf or NaN, and rows with every grid point excluded
    law = PressureLaw(h_part=PowerLawH(a=a, gamma=2.0), bump=BUMPS["small"])
    grid = np.concatenate([np.linspace(0.0, 4e-8, 8), [0.5, 1.5, 2.0, 3.0]])
    r = np.array([[1e-8], [1.0], [1.5], [2.5]])
    base = bregman_H(law, grid, r)
    cases = {"clean": (grid, r, base)}
    for name, value in (("zero", 0.0), ("minus-zero", -0.0), ("negative", -1e-3),
                        ("inf", np.inf), ("nan", np.nan)):
        breg = base.copy()
        breg[1, 9] = value  # kept: grid point 1.5 against r = 1.0
        cases[name] = (grid, r, breg)
    tiny = np.linspace(0.0, 4e-8, 8)  # within H_BOUND_EXCLUSION of every r
    r_tiny = np.array([[1e-8], [3e-8]])
    cases["all-excluded"] = (tiny, r_tiny, bregman_H(law, tiny, r_tiny))
    with np.errstate(invalid="ignore"):  # inf / inf in both forms
        for name, (g, rc, breg) in cases.items():
            got = _h_block(law, g, rc, breg, np.abs(g - rc))
            _same(got, where_h_block(law, g, rc, breg), name)
    assert _h_block(law, grid, r, base, np.abs(grid - r)).tolist() == [1.0] * 4
    assert _h_block(law, tiny, r_tiny, cases["all-excluded"][2],
                    np.abs(tiny - r_tiny)).tolist() == [-np.inf] * 2


@pytest.mark.parametrize("law", list(LAWS.values()), ids=list(LAWS))
@pytest.mark.parametrize("cells", [1, mvflow.pressure.TABLE_BLOCK], ids=["one-row", "shipped"])
def test_scan_max_equals_the_where_form(monkeypatch, law, cells):
    # the four remainder scans' numerators, formed in each block
    monkeypatch.setattr(mvflow.pressure, "TABLE_BLOCK", cells)
    cut = CutoffBand(r1=0.45, r2=4.2, width=0.045)
    r = np.linspace(0.9, 1.2, 41)
    scans = [
        (np.linspace(0.405, 4.245, 2001), lambda s, r: cut.psi(s) * (s - r) ** 2 / np.sqrt(s)),
        (np.linspace(0.0, 0.45, 2001), lambda s, r: cut.w1(s) ** 2 * (s - r) ** 2),
        (np.linspace(4.2, 9.0, 2001), lambda s, r: cut.w2(s) * s),
        (np.linspace(0.0, 9.0, 4002), lambda s, r: (law.q(s) - law.q(r)) ** 2),
    ]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for k, (s, num) in enumerate(scans):
            _same(_scan_max(law, s, r, num), where_scan_max(law, s, r, num), f"scan {k}")


# tables whose knots hold the anchor 1.0 (its piece constant is 0.0) and
# one whose knots miss it, each under three tail exponents, and one whose
# first sample is (0, -0.0), which h sums from 0.0 into 0.0 at rho = -0.0
_KNOTS = {"even": np.linspace(0.0, 4.0, 9), "uneven": np.array([0.0, 0.25, 0.6, 1.3, 1.7, 2.2])}
TABLES = {f"{name}-g{g}": TabulatedH(tuple(r), tuple(r**3 + r), gamma_tail=g)
          for name, r in _KNOTS.items() for g in (1.0, 1.4, 2.0)}
TABLES["minus-zero"] = TabulatedH(tuple(_KNOTS["even"]), (-0.0, *(_KNOTS["even"][1:] ** 2)))


def _table_densities(table):
    """Rows that keep each fast path (every rho positive and below rho_max)
    and rows that leave it: holding 0, rho_max, points past it, NaN or the
    least subnormal, in every shape a caller passes."""
    r = np.asarray(table.rho_samples)
    top = table.rho_max
    inside = np.concatenate([r[1:-1], [1.0, 1e-300, 1e-320, np.nextafter(top, 0.0)],
                             np.random.default_rng(3).uniform(0.0, top, 47)])
    rows = {"inside": inside,
            "zero": np.append(inside, [0.0, -0.0]),
            "at-max": np.append(inside, top),
            "just-past": np.append(inside, np.nextafter(top, np.inf)),
            "tail": np.append(inside, [1.5 * top, 40.0 * top, 1e6 * top]),
            "nan": np.append(inside, np.nan),
            "nan-and-tail": np.append(inside, [np.nan, 2.0 * top]),
            "least-subnormal": np.append(inside, 5e-324)}
    out = {}
    for name, row in rows.items():
        row = row[:row.size - row.size % 2]  # an even length for the (2, n) view
        out.update({f"{name}-row": row[None, :], f"{name}-rows": row.reshape(2, -1),
                    f"{name}-strided": row[::3], f"{name}-strided-rows": row[None, ::2]})
    for x in (0.0, -0.0, 1.0, 1e-320, 5e-324, top, np.nextafter(top, 0.0),
              np.nextafter(top, np.inf), 40.0 * top, np.nan, *r[1:-1]):
        out.update({f"float-{x!r}": float(x), f"0-d-{x!r}": np.asarray(x)})
    return out


@pytest.mark.parametrize("table", list(TABLES.values()), ids=list(TABLES))
def test_tabulated_kernels_equal_the_split_table_form(table):
    for name, rho in _table_densities(table).items():
        # only ln 0 (at rho = 0) and a subnormal's underflows may warn, and
        # the guarded potential hides those as it did
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _same(table.potential(rho), guarded_potential(table, rho), name)
            want_v, want_s = split_value_and_slope(table, rho)
            v, s = table.value_and_slope(rho)
            _same(v, want_v, name)
            _same(s, want_s, name)
            _same(table.value(rho), want_v, name)
            _same(table.slope(rho), want_s, name)
        with np.errstate(divide="ignore", invalid="ignore"):
            _same(table.integral_over_z2(rho), taken_integral_over_z2(table, rho), name)


def test_paired_table_starts_each_sum_from_zero():
    # the rows c0 and dc0 hold 0.0 + c, as PPoly's sums start from 0.0: a
    # first sample (0, -0.0) leaves no -0.0 in them
    table = TABLES["minus-zero"]
    assert np.signbit(table.h_samples[0])
    assert not np.signbit(table._paired[:2]).any()


# ragged layouts: runs of rows of one n out of sorted order, rows that all
# differ in n, two rows of one n on grids of different length (one run),
# and rows of the fewest cells a gradient takes
RAGGED = {"groups": [(n, 1.0) for n in (12, 12, 8, 24, 24, 8)],
          "distinct": [(n, 1.0) for n in (16, 32, 64, 128)],
          "one-run": [(24, 1.0), (24, 0.5)],
          "short": [(4, 1.0), (5, 1.0), (4, 0.5)]}


def _ragged(name):
    return RaggedRows([Grid1D(n=n, length=length) for n, length in RAGGED[name]])


def _cell_arrays(cells, lead, seed):
    """Random (lead..., N) cells, contiguous and as a strided view."""
    rng = np.random.default_rng(seed)
    N = int(cells.n.sum())
    wide = rng.uniform(-1.0, 1.0, lead + (2 * N,))
    return {"contiguous": np.ascontiguousarray(wide[..., ::2]), "strided": wide[..., 1::2]}


@pytest.mark.parametrize("name", list(RAGGED))
def test_ragged_gradient_equals_the_fancy_form(name):
    cells = _ragged(name)
    for lead in ((), (1,), (2,), (2, 1), (2, 2)):
        for kind, u in _cell_arrays(cells, lead, seed=len(lead)).items():
            _same(cells.gradient(u), fancy_gradient(cells, u), f"{lead} {kind}")


@pytest.mark.parametrize("name", list(RAGGED))
@pytest.mark.parametrize("mixed", [False, True], ids=["delta0", "mixed-delta"])
def test_ragged_kernels_equal_the_indexed_forms(name, mixed):
    # step_start's joint fix-ups, with a contiguous and a strided velocity,
    # and a trial's wall diagonal at one and two rungs
    cells = _ragged(name)
    law = PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0), bump=BUMPS["small"])
    cfg = SolverConfig(law=law, lam=0.3, T=1.0, Gamma=3.0)
    rng = np.random.default_rng(len(name))
    N = int(cells.n.sum())
    rho = rng.uniform(0.5, 2.0, (1, N))
    m = rho * rng.uniform(-0.5, 0.5, (1, N))
    delta = cells.spread(rng.choice([0.0, 1e-3, 0.05], cells.K)) if mixed else 0.0
    for kind, u in (("contiguous", m / rho), ("strided", np.repeat(m / rho, 2, -1)[:, ::2])):
        start = mvflow.solver.step_start(rho, u, cfg, cells, delta)
        want = indexed_step_start(rho, u, cfg, cells, delta)
        assert start[0] == want[0], kind
        _same(start[1], want[1], kind)
    for rungs in (1, 2):
        dts = [0.5 * x / r for r in range(1, rungs + 1) for x in start[0]]
        trial = mvflow.solver.step(rho, m, start, dts, cfg, cells, delta)
        for got, want in zip(trial[:2], setitem_trial(rho, m, start, dts, cfg, cells)):
            _same(got, want, f"{rungs} rungs")
