"""Wide tables in blocks of TABLE_BLOCK cells: same bytes, bounded memory.

The ratio scans and the certificates take B over blocks of r rows.  Every
result must be the bytes of the one-block (whole table) evaluation, whatever
the block size, and a table's traced peak must not grow with its length.
certify's one pass raises the lower bound's grid error before the h bound's.
The residual families form no table per function: a family passed in blocks
of functions gives each function's bytes, and a call's peak does not grow
with the family.
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
def test_residual_families_are_the_same_in_every_block_size(law):
    # a family passed whole, in blocks of two functions (which split the
    # three functions of each space factor) and one function at a time: the
    # blocks share fewer space factors, and every function's bytes stay
    rng = np.random.default_rng(11)
    V = _measure(rng, K=3, n=40, nt=9)
    nt, n = V.times.size, V.x.size
    defect = DefectReport(
        times=V.times, E_inf=np.full(nt, 0.1), sigma_inf=np.zeros(nt),
        zeta=np.zeros(nt), D_total=np.full(nt, 0.1), rM_field=rng.normal(size=(nt, n)),
        rM_abs=np.zeros(nt), xi=rng.uniform(0.0, 2.0, nt),
        zeta_by_member=np.zeros((1, nt)))
    b = renorm_identity_truncated(r_b=2.0, width=0.4)
    dens, mom, comp = density_family(1.0), momentum_family(1.0), compatibility_family(1.0)
    for tau in (float(V.times[4]), float(V.times[-1])):
        calls = {
            "continuity": (dens, lambda fam: continuity_residual(V, fam, tau)),
            "renorm": (dens, lambda fam: renorm_continuity_residual(V, b, fam, tau)),
            "momentum": (mom, lambda fam: np.stack(
                momentum_residual(V, law, 0.1, fam, tau, defect=defect))),
            "momentum-no-defect": (mom, lambda fam: np.stack(
                momentum_residual(V, law, 0.1, fam, tau, zero_defect(V)))),
            "compatibility": (comp, lambda fam: compatibility_residual(V, fam, tau)),
        }
        for name, (fam, call) in calls.items():
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = {size: np.concatenate([call(fam[k:k + size])
                                             for k in range(0, len(fam), size)], axis=-1)
                       for size in (1, 2, len(fam))}
            assert _same_bytes(got), name


def test_residual_family_peak_is_moments_not_the_family_table():
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
    # the moments and their K-member integrands, plus a few moment-sized
    # products
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
    # The B kernel hands out each block's B table, made beforehand, so the
    # pass's peak is set by the lemma blocks and not inside the kernel
    monkeypatch.setattr(mvflow.pressure, "CERTIFICATE_R_POINTS", 16)
    r_values = mvflow.pressure._r_values(0.9, 1.15)
    blocks = list(mvflow.pressure.row_blocks(r_values.size, grid.size))
    # each later block's B is written into the pass's B table, and the
    # kernel spends the |rho - r| table on its increment: the pass peaks less
    # than one table above a bregman_H call's own peak (holding the two
    # stale tables beside a fresh call puts it two tables above)
    r = r_values[blocks[1], None]
    kernel = _peak_bytes(lambda: mvflow.pressure.bregman_H(law, grid, r))
    assert _peak_bytes(lambda: certify(law, (0.9, 1.15), grid)) - kernel < r.size * grid.size * 8
    tables = {float(r_values[rows][0]): mvflow.pressure.bregman_H(law, grid, r_values[rows, None])
              for rows in blocks}
    monkeypatch.setattr(mvflow.pressure, "_bregman",
                        lambda law, rho_grid, r, out, inc_out: tables[float(r[0, 0])])
    real_lower, real_h = mvflow.pressure._lower_block, mvflow.pressure._h_block

    def half(lower_block, h_block):
        monkeypatch.setattr(mvflow.pressure, "_lower_block", lower_block)
        monkeypatch.setattr(mvflow.pressure, "_h_block", h_block)
        return _peak_bytes(lambda: certify(law, (0.9, 1.15), grid))

    both = half(real_lower, real_h)
    lower = half(real_lower, lambda law, rho_grid, r, breg, gap: np.ones(len(r)))
    upper = half(lambda law, middle, outer_den, r, breg, gap: (np.ones(len(r)),) * 2,
                 real_h)
    # the pass peaks no higher than either half with the other one stubbed out
    assert both <= 1.05 * max(lower, upper)
    # and holds no block-sized table beyond the larger of one lower block's
    # and one h block's own temporaries, the |rho - r| table each is handed
    # among them (B, the grid's masks and the result columns stay under half
    # a block)
    r = r_values[blocks[0], None]
    breg = tables[float(r[0, 0])]
    r1, r2 = mvflow.pressure._check_grid(grid, 0.9, 1.15)
    middle, outer_den = (grid >= r1) & (grid <= r2), 1.0 + grid ** law.gamma
    own = max(_peak_bytes(lambda: real_lower(law, middle, outer_den, r, breg,
                                             np.abs(grid - r))),
              _peak_bytes(lambda: real_h(law, grid, r, breg, np.abs(grid - r))))
    assert both - own < breg.nbytes / 2


@pytest.mark.parametrize("kernel", ["bregman_H", "h_increment"])
def test_tabulated_kernel_holds_one_table_beside_its_result(kernel):
    # f(rho) - f(r) - f'(r) (rho - r) is formed in the result's table and
    # one more, so a call peaks about one table above what it returns (plus
    # the law's grid-sized temporaries and numpy's broadcasting buffers);
    # formed out of place, the expression holds two tables beside it
    law = LAWS["tabulated"]
    grid = np.linspace(0.0, 10.0, 2001)
    r = np.linspace(0.5, 2.0, 32)[:, None]
    fn = getattr(mvflow.pressure, kernel)
    fn(law, grid, r)
    tracemalloc.start()
    try:
        out = fn(law, grid, r)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (r.size, grid.size)
    assert peak - held < 1.5 * out.nbytes
