"""What the convergence path holds at once, and the bytes it gives.

run_stack writes each sample once, into the arrays its trajectories keep,
and reference_from_run differences, restricts and drops one fine field at a
time.  Both give the bytes, dtypes, shapes and layouts of the forms they
replaced (tests/helpers.py keeps those as oracles), and a call's traced
peak stays within a sample pair, or two fine fields, of what it returns.
"""
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import mvflow.solver
from helpers import ListedRowControl, all_at_once_reference, expression_laplacian
from mvflow.pressure import PowerLawH, PressureLaw
from mvflow.solver import (Grid1D, SolverConfig, perturb_density, pulse_flow_init,
                           reference_from_run, run, run_stack)

NT = 65  # samples per run
STACKS = {"uniform": (512, 512), "ragged": (512, 256)}


def _cfg() -> SolverConfig:
    return SolverConfig(law=PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0)), lam=0.1,
                        T=0.002, n_samples=NT)


def _stack(ns):
    grids = [Grid1D(n=n, length=1.0) for n in ns]
    rng = np.random.default_rng(3)
    init = pulse_flow_init(1.0, base=1.1, u_amp=0.3)
    states = [perturb_density(init, 1.0, 0.1, rng).sample(g) for g in grids]
    return [_cfg()] * len(ns), states, grids


def _same_array(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.flags.c_contiguous == want.flags.c_contiguous
            and got.tobytes() == want.tobytes())


def _held_and_peak(fn):
    """fn's result, and the traced bytes held once it returns and at its peak."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


@pytest.mark.parametrize("layout", STACKS)
def test_samples_written_once_equal_the_listed_copies(monkeypatch, layout):
    cfgs, states, grids = _stack(STACKS[layout])
    got = run_stack(cfgs, states, grids)
    monkeypatch.setattr(mvflow.solver, "_RowControl", ListedRowControl)
    want = run_stack(cfgs, states, grids)
    for a, b in zip(got, want):
        for name in ("times", "rho", "u", "energy", "cum_dissipation"):
            assert _same_array(getattr(a, name), getattr(b, name)), name
        assert (a.min_step_slack, a.n_steps, a.n_trials) == \
            (b.min_step_slack, b.n_steps, b.n_trials)
        # each row's samples are its own arrays, not views of a shared one
        assert a.rho.flags.owndata and a.u.flags.owndata


@pytest.mark.parametrize("layout", STACKS)
def test_run_stack_peaks_under_one_sample_pair_above_its_trajectories(layout):
    # holding a list of per-sample copies while stacking them puts the peak
    # more than one (rho, u) sample pair of the widest row above the result
    cfgs, states, grids = _stack(STACKS[layout])
    run_stack(cfgs, states, grids)  # the first call loads LAPACK
    rows, held, peak = _held_and_peak(lambda: run_stack(cfgs, states, grids))
    pair = 2 * NT * max(g.n for g in grids) * 8
    assert sum(t.rho.nbytes + t.u.nbytes for t in rows) <= held
    assert peak - held < pair


def _fine_run(n: int):
    fine = Grid1D(n=n, length=1.0)
    init = pulse_flow_init(1.0, base=1.1, u_amp=0.3)
    return run(_cfg(), init.sample(fine), fine)


@pytest.mark.parametrize("factor", [1, 2, 4])
def test_reference_fields_equal_the_all_at_once_form(factor):
    traj = _fine_run(512)
    grid = Grid1D(n=512 // factor, length=1.0)
    got, want = reference_from_run(traj, grid), all_at_once_reference(traj, grid)
    for f in fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert _same_array(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def test_reference_peaks_under_two_fine_fields_above_its_result():
    # every fine derivative field alive at once puts the peak more than
    # four fine fields above the result
    traj = _fine_run(512)
    grid = Grid1D(n=256, length=1.0)
    reference_from_run(traj, grid)
    ref, held, peak = _held_and_peak(lambda: reference_from_run(traj, grid))
    assert ref.r.nbytes * 6 <= held
    assert peak - held < 2 * traj.rho.nbytes


def test_laplacian_in_place_equals_the_expression():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(9, 40)) * np.logspace(-300, 300, 40)
    u[0, :6] = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e308]
    u[1] = rng.normal(size=40)
    for dx in (1.0 / 40, 0.3, 1e-170):
        with np.errstate(all="ignore"):
            got = mvflow.solver._laplacian_no_slip(u, dx)
            want = expression_laplacian(u, dx)
        assert _same_array(got, want), dx
