"""Wide tables in blocks of TABLE_BLOCK cells: same bytes, bounded memory.

The ratio scans and the certificates take B over blocks of r rows, and the
residual families take their tables over blocks of test functions.  Every
result must be the bytes of the one-block (whole table) evaluation, whatever
the block size, and a table's traced peak must not grow with its length.
certify's one pass raises the lower bound's grid error before the h bound's.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

import mvflow.pressure
from helpers import zero_defect
from mvflow.errors import InsufficientGridError
from mvflow.measures import (DefectReport, DiscreteYoungMeasure,
                             compatibility_residual, continuity_residual,
                             momentum_residual, renorm_continuity_residual,
                             renorm_identity_truncated)
from mvflow.pressure import (Certificate, CompactBump, PowerLawH, PressureLaw,
                             TabulatedH, certify)
from mvflow.relative_energy import CutoffBand, _scan_max
from mvflow.testfuncs import (compatibility_family, density_family,
                              momentum_family)

BUMP = CompactBump(q1=1.0, q2=2.0, amp=0.05)
LAWS = {
    "power-1": PressureLaw(h_part=PowerLawH(a=1.0, gamma=1.0)),
    "power-1.4": PressureLaw(h_part=PowerLawH(a=1.0, gamma=1.4)),
    "power-2": PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0)),
    "bump-2": PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0), bump=BUMP),
    "bump-3.5": PressureLaw(h_part=PowerLawH(a=0.7, gamma=3.5), bump=BUMP),
    "tabulated": PressureLaw(
        h_part=TabulatedH(tuple(np.linspace(0.0, 4.0, 9)),
                          tuple(np.linspace(0.0, 4.0, 9) ** 2
                                + 0.1 * np.linspace(0.0, 4.0, 9))),
        bump=BUMP),
}
# one row or function per block, the shipped size, every table in one block
BLOCKS = {"one-row": 1, "shipped": mvflow.pressure.TABLE_BLOCK, "whole": 10**12}


def _under_each_block(monkeypatch, fn):
    """fn's result for every block size, with floating-point errors raising."""
    out = {}
    for name, cells in BLOCKS.items():
        monkeypatch.setattr(mvflow.pressure, "TABLE_BLOCK", cells)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out[name] = fn()
    return out


def _same_bytes(results):
    first, *rest = results.values()
    return all(np.asarray(r).tobytes() == np.asarray(first).tobytes() for r in rest)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("law", list(LAWS.values()), ids=list(LAWS))
def test_scan_max_is_the_same_in_every_block_size(monkeypatch, law):
    cut = CutoffBand(r1=0.45, r2=4.2, width=0.045)
    r = np.linspace(0.9, 1.2, 41)
    scans = [
        (np.linspace(0.405, 4.245, 2001),
         lambda s, r: cut.psi(s) * (s - r) ** 2 / np.sqrt(s)),
        (np.linspace(0.0, 0.45, 2001), lambda s, r: cut.w1(s) ** 2 * (s - r) ** 2),
        (np.linspace(0.0, 9.0, 4002), lambda s, r: (law.p(s) - law.p(r)) ** 2),
    ]
    for s, num in scans:
        got = _under_each_block(monkeypatch, lambda: _scan_max(law, s, r, num))
        assert _same_bytes(got), got
        assert got["whole"] > 0.0


@pytest.mark.parametrize("law", list(LAWS.values()), ids=list(LAWS))
@pytest.mark.parametrize("r_range", [(0.9, 1.15), (0.5, 2.0), (1.0, 1.0)])
def test_certificates_are_the_same_in_every_block_size(monkeypatch, law, r_range):
    grid = np.linspace(0.0, 10.0, 2001)
    certs = _under_each_block(monkeypatch, lambda: certify(law, r_range, grid))
    for f in dataclasses.fields(Certificate):
        assert _same_bytes({k: getattr(c, f.name) for k, c in certs.items()}), f.name
    assert {c.valid for c in certs.values()} == {True}


def test_lower_bound_names_the_r_without_middle_points(monkeypatch):
    # the middle band [r_min/2, 2 r_max] holds one grid point, which is
    # r_values[16]; every other r sees it as distinct.  On the second, tiny
    # range every grid point also lies within H_BOUND_EXCLUSION of every r,
    # so the h bound fails from the first block on, and certify still raises
    # the lower bound's error
    law = LAWS["bump-2"]
    for r_range, below, above in (((1.0, 1.2), [0.1, 0.2, 0.3, 0.4], [2.5, 3.0, 4.0, 5.0]),
                                  ((2e-8, 1.2e-7), [2e-9, 4e-9, 6e-9, 8e-9],
                                   [2.5e-7, 3e-7, 5e-7, 1e-6])):
        r_bad = np.linspace(*r_range, 33)[16]
        grid = np.array([0.0, *below, r_bad, *above])
        messages = set()
        for cells in BLOCKS.values():
            monkeypatch.setattr(mvflow.pressure, "TABLE_BLOCK", cells)
            with pytest.raises(InsufficientGridError, match=f"r = {r_bad}") as err:
                certify(law, r_range, grid)
            messages.add(str(err.value))
        assert len(messages) == 1


def test_h_bound_names_the_r_with_every_point_excluded(monkeypatch):
    # every grid point lies within H_BOUND_EXCLUSION of r
    for cells in BLOCKS.values():
        monkeypatch.setattr(mvflow.pressure, "TABLE_BLOCK", cells)
        with pytest.raises(InsufficientGridError, match="r = 1e-08"):
            certify(LAWS["power-1.4"], (1e-8, 1e-8), np.linspace(0.0, 4e-8, 8))


def _measure(rng, K, n, nt):
    shape = (K, nt, n)
    return DiscreteYoungMeasure(
        times=np.linspace(0.0, 0.1, nt), x=(np.arange(n) + 0.5) / n, dx=1.0 / n,
        length=1.0, S=rng.uniform(0.3, 2.5, shape), V=rng.normal(size=shape),
        D=rng.normal(size=shape))


@pytest.mark.parametrize("law", list(LAWS.values()), ids=list(LAWS))
def test_residual_families_are_the_same_in_every_block_size(monkeypatch, law):
    rng = np.random.default_rng(11)
    V = _measure(rng, K=3, n=40, nt=9)
    nt, n = V.times.size, V.x.size
    defect = DefectReport(
        times=V.times, x=V.x, E_inf=np.full(nt, 0.1), sigma_inf=np.zeros(nt),
        zeta=np.zeros(nt), D_total=np.full(nt, 0.1), rM_field=rng.normal(size=(nt, n)),
        rM_abs=np.zeros(nt), xi=rng.uniform(0.0, 2.0, nt),
        zeta_by_member=np.zeros((1, nt)))
    b = renorm_identity_truncated(r_b=2.0, width=0.4)
    dens, mom, comp = density_family(1.0), momentum_family(1.0), compatibility_family(1.0)
    for tau in (float(V.times[4]), float(V.times[-1])):
        calls = {
            "continuity": lambda: continuity_residual(V, dens, tau),
            "renorm": lambda: renorm_continuity_residual(V, b, dens, tau),
            "momentum": lambda: np.concatenate(
                momentum_residual(V, law, 0.1, mom, tau, defect=defect)),
            "momentum-no-defect": lambda: np.concatenate(
                momentum_residual(V, law, 0.1, mom, tau, zero_defect(V))),
            "compatibility": lambda: compatibility_residual(V, comp, tau),
        }
        for name, call in calls.items():
            got = _under_each_block(monkeypatch, call)
            assert _same_bytes(got), name


def test_residual_family_peak_is_blocks_not_the_family_table():
    # n = 1024 cells and 65 samples: one function's (n_t, n) table is one
    # moment's size, the whole family's tables are n_f times that, three times
    rng = np.random.default_rng(5)
    K, n, nt = 2, 1024, 65
    V = _measure(rng, K=K, n=n, nt=nt)
    family = density_family(1.0)
    moment_bytes = nt * n * 8
    block_bytes = max(mvflow.pressure.TABLE_BLOCK, nt * n) * 8
    tau = float(V.times[-1])

    peak = _peak_bytes(lambda: continuity_residual(V, family, tau))
    # the moments and their K-member integrands, plus a few blocks
    assert peak <= 2 * K * moment_bytes + 6 * block_bytes
    assert peak < len(family) * moment_bytes
    # and it does not grow with the number of functions
    assert peak <= 1.05 * _peak_bytes(lambda: continuity_residual(V, family[:3], tau))


def test_scan_max_peak_does_not_grow_with_the_r_grid():
    law = LAWS["power-1.4"]
    cut = CutoffBand(r1=0.45, r2=4.2, width=0.045)
    s = np.linspace(0.405, 4.245, 2001)

    def scan(n_r):
        r = np.linspace(0.9, 1.2, n_r)
        return lambda: _scan_max(law, s, r,
                                 lambda s, r: cut.psi(s) * (s - r) ** 2 / np.sqrt(s))

    short, long = _peak_bytes(scan(16)), _peak_bytes(scan(512))
    assert long <= 1.05 * short
    # a few blocks' temporaries, not the (512, 2001) table
    assert long < 512 * s.size * 8 / 4


def test_certify_peak_does_not_grow_with_the_r_grid(monkeypatch):
    law = LAWS["bump-2"]
    grid = np.linspace(0.0, 10.0, 4001)

    def pair(n_r):
        monkeypatch.setattr(mvflow.pressure, "CERTIFICATE_R_POINTS", n_r)
        return _peak_bytes(lambda: certify(law, (0.9, 1.15), grid))

    short, long = pair(16), pair(512)
    assert long <= 1.05 * short
    # a few blocks' temporaries, not the (512, 4001) table
    assert long < 512 * grid.size * 8 / 4
    # the lower bound's temporaries are gone before the h bound's exist.
    # bregman_H hands out each block's B table, made beforehand, so the
    # pass's peak is set by the lemma blocks and not inside bregman_H
    monkeypatch.setattr(mvflow.pressure, "CERTIFICATE_R_POINTS", 16)
    r_values = mvflow.pressure._r_values(0.9, 1.15)
    blocks = mvflow.pressure.row_blocks(r_values.size, grid.size)
    tables = {float(r_values[rows][0]): mvflow.pressure.bregman_H(law, grid, r_values[rows, None])
              for rows in blocks}
    monkeypatch.setattr(mvflow.pressure, "bregman_H",
                        lambda law, rho_grid, r: tables[float(r[0, 0])])
    real_lower, real_h = mvflow.pressure._lower_block, mvflow.pressure._h_block

    def half(lower_block, h_block):
        monkeypatch.setattr(mvflow.pressure, "_lower_block", lower_block)
        monkeypatch.setattr(mvflow.pressure, "_h_block", h_block)
        return _peak_bytes(lambda: certify(law, (0.9, 1.15), grid))

    both = half(real_lower, real_h)
    lower = half(real_lower, lambda law, rho_grid, r, breg: np.ones(len(r)))
    upper = half(lambda law, rho_grid, middle, outer_den, r, breg: (np.ones(len(r)),) * 2,
                 real_h)
    # the pass peaks no higher than either half with the other one stubbed out
    assert both <= 1.05 * max(lower, upper)
    # and holds no block-sized table beyond the larger of one lower block's
    # and one h block's own temporaries (B, the grid's masks and the result
    # columns stay under half a block)
    r = r_values[blocks[0], None]
    breg = tables[float(r[0, 0])]
    r1, r2 = mvflow.pressure._check_grid(grid, 0.9, 1.15)
    middle, outer_den = (grid >= r1) & (grid <= r2), 1.0 + grid ** law.gamma
    own = max(_peak_bytes(lambda: real_lower(law, grid, middle, outer_den, r, breg)),
              _peak_bytes(lambda: real_h(law, grid, r, breg)))
    assert both - own < breg.nbytes / 2
