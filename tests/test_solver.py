"""Solver tests: oracles for energy and dissipation, conservation, convergence."""
import contextlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgtsv

import mvflow.solver
from helpers import (StepStart, dissipation_increment, step, step_start,
                     step_with_terms)
from mvflow._rows import RaggedRows, UniformRows
from mvflow.errors import (DomainError, ReferenceInvalidError, SolverFailure,
                           StepRejected)
from mvflow.pressure import CompactBump, PowerLawH, PressureLaw, TabulatedH
from mvflow.solver import (
    ComparisonFlow,
    FluidState,
    Grid1D,
    InitialData,
    SolverConfig,
    StrongSolutionRef,
    admissible_dt,
    constant_init,
    energy_scale,
    gradient_1d,
    make_reference,
    perturb_density,
    pulse_flow_init,
    reference_from_run,
    restrict_run,
    run,
    run_stack,
    smooth_pulse_init,
    total_energy,
    total_pressure,
    velocity,
)


def gamma2_law(a=1.0):
    return PressureLaw(h_part=PowerLawH(a=a, gamma=2.0), bump=None)


def bump_law():
    return PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0),
                       bump=CompactBump(q1=0.9, q2=1.3, amp=0.5))


# -- grid and config validation -------------------------------------------------

def test_grid_too_small_rejected():
    with pytest.raises(DomainError):
        Grid1D(n=3)


def test_grid_properties():
    g = Grid1D(n=8, length=2.0)
    assert g.dx == 0.25
    assert np.allclose(g.centers, 0.125 + 0.25 * np.arange(8))


def test_config_rejects_bad_viscosity():
    with pytest.raises(DomainError):
        SolverConfig(law=gamma2_law(), lam=0.0, T=1.0)


def test_config_rejects_low_gamma_with_delta():
    with pytest.raises(DomainError):
        SolverConfig(law=gamma2_law(), lam=1.0, T=1.0, delta=0.1, Gamma=1.5)
    # fine without the extra pressure
    SolverConfig(law=gamma2_law(), lam=1.0, T=1.0, delta=0.0, Gamma=1.5)


def test_config_rejects_bad_cfl_and_horizon():
    with pytest.raises(DomainError):
        SolverConfig(law=gamma2_law(), lam=1.0, T=1.0, cfl=0.0)
    with pytest.raises(DomainError):
        SolverConfig(law=gamma2_law(), lam=1.0, T=-1.0)


@pytest.mark.parametrize("name", ["lam", "T", "delta", "Gamma"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_numbers(name, value):
    with pytest.raises(DomainError, match=name):
        SolverConfig(law=gamma2_law(), **{"lam": 1.0, "T": 1.0, name: value})


def test_negative_initial_density_rejected():
    grid = Grid1D(n=8)
    bad = InitialData(rho_fn=lambda x: 1.0 - 4.0 * x, u_fn=np.zeros_like)
    with pytest.raises(DomainError):
        bad.sample(grid)


# -- velocity and vacuum convention ---------------------------------------------

def test_velocity_zeroed_at_vacuum():
    state = FluidState(rho=np.array([1.0, mvflow.solver.RHO_FLOOR, 2.0]),
                       m=np.array([3.0, 5.0, 4.0]))
    u = velocity(state)
    assert u[0] == 3.0
    assert u[1] == 0.0
    assert u[2] == 2.0


# -- energy oracle ---------------------------------------------------------------

def test_total_energy_frozen_value():
    # rho = 2, u = 0.3 on [0,1], a=1 gamma=2, delta=0.5 Gamma=3:
    #   kinetic  0.5 * 2 * 0.09       = 0.09
    #   h-part   (rho^2 - rho)/(2-1)  = 2
    #   extra    0.5 * 2^3 / (3 - 1)  = 2
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=1.0, T=1.0, delta=0.5, Gamma=3.0)
    rho = np.full(16, 2.0)
    state = FluidState(rho=rho, m=rho * 0.3)
    assert total_energy(state, cfg, grid) == pytest.approx(4.09, abs=1e-13)


def test_total_energy_skips_vacuum_kinetic():
    grid = Grid1D(n=4, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=1.0, T=1.0)
    state = FluidState(rho=np.array([1e-10, 1.0, 1.0, 1.0]),
                       m=np.array([7.0, 0.0, 0.0, 0.0]))
    # the stray momentum on the vacuum cell carries no kinetic energy
    e = total_energy(state, cfg, grid)
    assert e == pytest.approx(grid.dx * float(np.sum(cfg.law.P(state.rho))), rel=1e-12)
    assert e < 1e-9


# -- dissipation oracle ----------------------------------------------------------

def _oracle_dissipation(u, lam, dx, dt):
    n = u.size
    total = 0.0
    for i in range(n):
        if i == 0:
            g = (u[1] - u[0]) / dx
        elif i == n - 1:
            g = (u[n - 1] - u[n - 2]) / dx
        else:
            g = (u[i + 1] - u[i - 1]) / (2.0 * dx)
        total += lam * g * g * dx
    return dt * total


def test_dissipation_matches_loop_oracle():
    grid = Grid1D(n=64, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.7, T=1.0)
    x = grid.centers
    u = x * (1.0 - x)
    rho = np.ones(64)
    state = FluidState(rho=rho, m=rho * u)
    got = dissipation_increment(state, cfg, grid, dt=0.25)
    want = _oracle_dissipation(u, 0.7, grid.dx, 0.25)
    assert got == pytest.approx(want, rel=1e-14)


def test_dissipation_approaches_integral():
    # u = x(1-x), lam = 1, dt = 1: integral of (1-2x)^2 over [0,1] is 1/3
    grid = Grid1D(n=1024, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=1.0, T=1.0)
    x = grid.centers
    u = x * (1.0 - x)
    state = FluidState(rho=np.ones(1024), m=u)
    got = dissipation_increment(state, cfg, grid, dt=1.0)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_dissipation_scales_linearly():
    grid = Grid1D(n=32, length=1.0)
    cfg1 = SolverConfig(law=gamma2_law(), lam=0.5, T=1.0)
    cfg2 = SolverConfig(law=gamma2_law(), lam=1.0, T=1.0)
    u = np.sin(np.pi * grid.centers)
    state = FluidState(rho=np.ones(32), m=u)
    d1 = dissipation_increment(state, cfg1, grid, dt=0.1)
    d2 = dissipation_increment(state, cfg2, grid, dt=0.1)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-14)
    d4 = dissipation_increment(state, cfg2, grid, dt=0.2)
    assert d4 == pytest.approx(2.0 * d2, rel=1e-14)


# -- single step -----------------------------------------------------------------

def test_constant_state_is_fixed_point():
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=1.0)
    state = constant_init(rho0=2.0).sample(grid)
    out = state
    for _ in range(5):
        out = step(out, cfg, grid, admissible_dt(out, cfg, grid))
    assert np.array_equal(out.rho, state.rho)
    assert np.array_equal(out.m, state.m)


def test_oversized_step_rejected():
    grid = Grid1D(n=32, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=1.0)
    state = pulse_flow_init(1.0).sample(grid)
    dt_max = admissible_dt(state, cfg, grid)
    with pytest.raises(StepRejected) as exc:
        step(state, cfg, grid, 2.0 * dt_max)
    assert exc.value.dt_max == pytest.approx(dt_max)


def test_step_refuses_a_bare_cfl_bound():
    # start is the state's whole step_start or None
    grid = Grid1D(n=32, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=1.0)
    state = pulse_flow_init(1.0).sample(grid)
    start = step_start(state, cfg, grid)
    with pytest.raises(TypeError):
        step(state, cfg, grid, 0.5 * start.dt_max, start=start.dt_max)


def test_viscous_solve_failure_names_the_vacuum_cell():
    # at the smallest subnormal dt, kappa = lam dt / dx^2 underflows to 0, so
    # a vacuum cell's diagonal rho_new + 2 kappa is 0 and gtsv stops there
    grid = Grid1D(n=12, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=1.0)
    rho = np.ones((2, 12))
    rho[1, 6] = 0.0
    state = FluidState(rho=rho, m=np.zeros((2, 12)), t=np.zeros(2))
    dt = np.full(2, 5e-324)
    with pytest.raises(SolverFailure, match=r"non-positive diagonal at row 1, cell 6 "
                                            r"\(LAPACK gtsv info 19\)"):
        step(state, cfg, grid, dt)
    with pytest.raises(SolverFailure, match=r"at row 7, cell 6"):
        step(state, cfg, grid, dt, rows=[3, 7])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_step_keeps_density_nonnegative_and_mass(seed):
    rng = np.random.default_rng(seed)
    grid = Grid1D(n=12, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.5, T=1.0)
    rho = rng.uniform(0.05, 2.0, size=12)
    u = rng.uniform(-1.0, 1.0, size=12)
    state = FluidState(rho=rho, m=rho * u)
    dt = 0.9 * admissible_dt(state, cfg, grid)
    out = step(state, cfg, grid, dt)
    assert np.all(out.rho >= 0.0)
    assert np.sum(out.rho) * grid.dx == pytest.approx(np.sum(rho) * grid.dx, rel=1e-13)


# -- the step's kernels against the public functions ---------------------------

def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _kernel_stack(K=3, n=40, seed=11):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 2.0, size=(K, n))
    return rho, rho * rng.uniform(-0.5, 0.5, size=(K, n))


@pytest.mark.parametrize("case", ["single", "stack", "rungs", "near-vacuum", "mixed-delta",
                                  "min-zero", "min-floor", "min-above-floor"])
def test_budget_terms_equal_the_public_functions(case):
    # step returns a trial's velocity, energy and dissipation from the arrays
    # of the step itself; each is what the public function gives of the
    # trial state, bit for bit.  The vacuum branch is chosen from the step's
    # own minimum, taken before the clamp to 0: the min- cases put the trial
    # minimum exactly at 0, exactly at RHO_FLOOR and one ulp above it.
    grid = Grid1D(n=40, length=1.0)
    cfg = SolverConfig(law=bump_law(), lam=0.3, T=1.0)
    floor = mvflow.solver.RHO_FLOOR
    rho, m = _kernel_stack()
    lowest = {"min-zero": 0.0, "min-floor": floor,
              "min-above-floor": np.nextafter(floor, 1.0)}.get(case)
    if case == "near-vacuum":  # stepped from vacuum, below and at the floor, stray momentum
        rho[1, [0, 6, 39]] = [0.0, 0.5 * floor, floor]
    elif lowest is not None:  # a cell at rest between cells at rest keeps its density
        rho[1, 6] = lowest
        m[1, 5:8] = 0.0
    delta = None  # cfg.delta
    if case == "mixed-delta":
        cfg = replace(cfg, Gamma=3.0)
        delta = np.array([[0.0], [0.2], [0.05]])
    state = FluidState(rho=rho, m=m, t=np.zeros(3))
    if case == "single":
        state = FluidState(rho=rho[0], m=m[0])
    start = step_start(state, cfg, grid, delta=delta)
    dt = 0.5 * start.dt_max
    if case == "rungs":  # a two-rung step's (2K, n) trial
        dt = np.array([0.9 * start.dt_max, 0.45 * start.dt_max])
    trial, u, energy, dis = step_with_terms(state, cfg, grid, dt, start=start, delta=delta)
    if case == "rungs":
        dt = dt.reshape(-1)
    if case == "near-vacuum":
        assert trial.rho.min() <= floor
    elif lowest is not None:
        assert trial.rho.min() == lowest
    assert _same_bits(u, velocity(trial))
    if delta is None:
        assert _same_bits(energy, total_energy(trial, cfg, grid))
    else:  # each row's energy under that row's own config
        for k, d in enumerate(delta[:, 0]):
            row = FluidState(rho=trial.rho[k], m=trial.m[k])
            assert _same_bits(energy[k], total_energy(row, replace(cfg, delta=d), grid))
    assert _same_bits(dis, dissipation_increment(trial, cfg, grid, dt))


def _ragged_stack(ns, seed=11):
    """States on grids of ns cells, their rows laid end to end, and those rows."""
    grids = [Grid1D(n=n, length=1.0) for n in ns]
    cells = mvflow.solver._layout(grids)
    rng = np.random.default_rng(seed)
    states = [FluidState(rho=rho, m=rho * rng.uniform(-0.5, 0.5, size=rho.size))
              for rho in (rng.uniform(0.5, 2.0, size=n) for n in ns)]
    stack = FluidState(rho=cells.join([s.rho for s in states]),
                       m=cells.join([s.m for s in states]), t=np.zeros(len(ns)))
    return grids, cells, states, stack


def test_step_start_rows_equal_their_own_starts():
    # the start of a (K, n) stack and of a ragged stack holds, row by row,
    # the start of each row's state alone
    grid = Grid1D(n=40, length=1.0)
    cfg = SolverConfig(law=bump_law(), lam=0.3, T=1.0)
    rho, m = _kernel_stack(K=4)
    rho[2, 7] = 0.5 * mvflow.solver.RHO_FLOOR
    whole = step_start(FluidState(rho=rho, m=m, t=np.zeros(4)), cfg, grid)
    # the start's CFL bound, from its one law pass, is admissible_dt's
    assert _same_bits(whole.dt_max, admissible_dt(FluidState(rho=rho, m=m), cfg, grid))
    for k in range(4):
        alone = step_start(FluidState(rho=rho[k], m=m[k]), cfg, grid)
        assert _same_bits(whole.dt_max[k], alone.dt_max) and _same_bits(whole.d[:, k], alone.d)
    grids, cells, states, stack = _ragged_stack((12, 40, 5, 40))
    ragged = step_start(stack, cfg, cells)
    assert _same_bits(ragged.dt_max, admissible_dt(stack, cfg, cells))
    for k, (g, state) in enumerate(zip(grids, states)):
        alone = step_start(state, cfg, g)
        assert _same_bits(ragged.dt_max[k], alone.dt_max)
        assert _same_bits(ragged.d[:, cells.at(k)[0], cells.at(k)[1]], alone.d)


def test_ragged_kernels_equal_each_row_alone():
    # one and two rungs over rows of different n (two adjacent rows share n
    # and are summed together), with a near-vacuum cell and per-row deltas
    grids, cells, states, stack = _ragged_stack((12, 40, 40, 5))
    stack.rho[0, cells.at(1)[1]][6] = 0.5e-10
    cfg = SolverConfig(law=bump_law(), lam=0.3, T=1.0, Gamma=3.0)
    deltas = np.array([0.0, 0.2, 0.05, 0.0])
    delta = cells.spread(deltas)
    start = step_start(stack, cfg, cells, delta=delta)
    for k, g in enumerate(grids):  # each row's CFL bound is that of the row alone
        alone = FluidState(rho=stack.rho[cells.at(k)], m=stack.m[cells.at(k)])
        assert start.dt_max[k] == admissible_dt(alone, replace(cfg, delta=float(deltas[k])), g)
    for rungs in (1, 2):
        dt = np.array([0.9 * start.dt_max, 0.45 * start.dt_max])[:rungs]
        trial, u, energy, dis = step_with_terms(stack, cfg, cells, dt if rungs == 2 else dt[0],
                                                start=start, delta=delta)
        for r in range(rungs):
            for k, (g, state) in enumerate(zip(grids, states)):
                row_cfg = replace(cfg, delta=float(deltas[k]))
                alone = FluidState(rho=stack.rho[cells.at(k)], m=stack.m[cells.at(k)])
                one = step(alone, row_cfg, g, float(dt[r, k]))
                i = r * len(grids) + k
                assert _same_bits(trial.rho[cells.at(i)], one.rho)
                assert _same_bits(trial.m[cells.at(i)], one.m)
                assert _same_bits(u[cells.at(i)], velocity(one))
                assert energy[i] == total_energy(one, row_cfg, g)
                assert dis[i] == dissipation_increment(one, row_cfg, g, float(dt[r, k]))


def _trial_by_setitem(rho, m, start, dts, cfg, cells):
    """A trial's density and momentum as step formed them with each array
    reshaped on its own and the wall cells' diagonal updated through
    diag[:, ends] += kappa[:, ends], which copies back for uniform rows."""
    dt_max, d = start
    L, dxs = len(dt_max), np.resize(cells.dx, len(dts)).tolist()  # each trial's dx
    scale, kappa = cells.spread(np.array(
        [x / dx for x, dx in zip(dts, dxs)] + [cfg.lam * x / dx**2 for x, dx in zip(dts, dxs)]
    ).reshape(2, -1, L))
    new = scale * d[:, None]
    C = rho.shape[-1]
    rho_new = (rho - new[0]).reshape(-1, C)
    m_star = ((m - new[1]) - new[2]).reshape(-1, C)
    kappa = kappa.reshape(-1, kappa.shape[-1])
    diag = rho_new + 2.0 * kappa
    diag[:, cells.ends] += kappa[:, cells.ends]
    off = np.multiply(kappa, cells.coupling).reshape(-1)[:-1]
    *_, u_new, info = dgtsv(off, diag.reshape(-1), off, m_star.reshape(-1))
    assert info == 0
    return rho_new, rho_new * u_new.reshape(rho_new.shape)


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(["uniform", "ragged"]), rungs=st.sampled_from([1, 2]),
       frac=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_step_walls_in_place_keep_the_bits(layout, rungs, frac, seed):
    # one step call on two rows of one grid or of two grids, at one and two
    # rungs, against the step that reshaped each array and updated the wall
    # cells by index assignment
    ns = (24, 24) if layout == "uniform" else (16, 24)
    grids, cells, _, stack = _ragged_stack(ns, seed=seed)
    if layout == "uniform":
        cells, stack = grids[0]._rows, replace(stack, rho=stack.rho.reshape(2, -1),
                                                m=stack.m.reshape(2, -1))
    cfg = SolverConfig(law=bump_law(), lam=0.3, T=1.0)
    u = velocity(stack)
    start = mvflow.solver.step_start(stack.rho, u, cfg, cells, cfg.delta)
    dts = [frac * x / r for r in range(1, rungs + 1) for x in start[0]]
    rho, m, *_ = mvflow.solver.step(stack.rho, stack.m, start, dts, cfg, cells, cfg.delta)
    want_rho, want_m = _trial_by_setitem(stack.rho, stack.m, start, dts, cfg, cells)
    assert _same_bits(rho, want_rho) and _same_bits(m, want_m)


@pytest.mark.parametrize("layout", ["uniform", "ragged"])
def test_kernels_neither_alias_nor_write_their_inputs(layout):
    # step_start and a two-rung step leave rho, m, u and the start as they
    # were, and no array they return shares memory with those inputs, with
    # another returned array or with what a second call on the same inputs
    # returns: a buffer kept across calls would show here
    ns = (24, 24) if layout == "uniform" else (16, 24)
    grids, cells, _, stack = _ragged_stack(ns, seed=5)
    if layout == "uniform":
        cells, stack = grids[0]._rows, replace(stack, rho=stack.rho.reshape(2, -1),
                                                m=stack.m.reshape(2, -1))
    cfg = SolverConfig(law=bump_law(), lam=0.3, T=1.0)
    rho, m, u = stack.rho, stack.m, velocity(stack)
    inputs = [rho, m, u]
    kept = [a.copy() for a in inputs]
    starts = [mvflow.solver.step_start(rho, u, cfg, cells, cfg.delta) for _ in range(2)]
    dt_max, d = starts[0]
    kept_start = (list(dt_max), d.copy())
    dts = [0.5 * x / r for r in (1, 2) for x in dt_max]
    trials = [mvflow.solver.step(rho, m, starts[0], dts, cfg, cells, cfg.delta)
              for _ in range(2)]
    assert all(_same_bits(a, b) for a, b in zip(inputs, kept))
    assert dt_max == kept_start[0] and _same_bits(d, kept_start[1])
    returned = [s[1] for s in starts] + [a for t in trials for a in t[:3]]
    assert all(isinstance(t[3], list) and isinstance(t[4], list) for t in trials)
    for i, a in enumerate(returned):
        for b in inputs + returned[:i]:
            assert not np.shares_memory(a, b)


# -- full runs -------------------------------------------------------------------

def test_run_samples_and_shapes():
    grid = Grid1D(n=32, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.05, n_samples=6)
    traj = run(cfg, smooth_pulse_init(1.0).sample(grid), grid)
    assert traj.complete
    assert np.array_equal(traj.times, np.linspace(0.0, 0.05, 6))
    assert traj.rho.shape == (6, 32)
    assert traj.u.shape == (6, 32)
    assert traj.energy.shape == (6,)
    assert traj.cum_dissipation.shape == (6,)
    assert traj.cum_dissipation[0] == 0.0
    assert np.all(np.diff(traj.cum_dissipation) >= 0.0)
    assert traj.n_steps > 0


def test_run_conserves_mass():
    grid = Grid1D(n=64, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.1, n_samples=5)
    init = pulse_flow_init(1.0)
    traj = run(cfg, init.sample(grid), grid)
    m0 = np.sum(traj.rho[0]) * grid.dx
    for k in range(traj.times.size):
        assert np.sum(traj.rho[k]) * grid.dx == pytest.approx(m0, rel=1e-12)


def test_run_energy_budget_smooth_pulse():
    grid = Grid1D(n=64, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.1, n_samples=5)
    traj = run(cfg, smooth_pulse_init(1.0).sample(grid), grid)
    e0 = traj.energy[0]
    assert traj.min_step_slack >= -1e-10 * e0
    assert np.all(np.diff(traj.energy) <= 1e-10 * e0)


def test_run_energy_budget_nonmonotone_law():
    # base density sits inside the bump's non-monotone dip
    grid = Grid1D(n=64, length=1.0)
    cfg = SolverConfig(law=bump_law(), lam=0.1, T=0.1, n_samples=5)
    init = smooth_pulse_init(1.0, base=1.1, amp=0.1)
    traj = run(cfg, init.sample(grid), grid)
    assert traj.complete
    assert np.all(np.isfinite(traj.rho))
    assert traj.min_step_slack >= -1e-8 * traj.energy[0]


def test_run_is_deterministic():
    grid = Grid1D(n=48, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.05, n_samples=4)
    init = pulse_flow_init(1.0)
    a = run(cfg, init.sample(grid), grid)
    b = run(cfg, init.sample(grid), grid)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.energy, b.energy)
    assert a.n_steps == b.n_steps


def test_state_at_round_trip():
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.02, n_samples=3)
    traj = run(cfg, smooth_pulse_init(1.0).sample(grid), grid)
    s = traj.state_at(2)
    assert s.t == traj.times[2]
    assert np.array_equal(s.rho, traj.rho[2])
    assert np.allclose(s.m, traj.rho[2] * traj.u[2])


# -- self-convergence -------------------------------------------------------------

def test_self_convergence_first_order():
    # Richardson comparison against one shared fine run; the donor-cell
    # truncation term needs a real flow and N >= 128 to dominate
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.1, n_samples=3)
    init = pulse_flow_init(1.0, u_amp=0.2)
    fine = Grid1D(n=2048, length=1.0)
    rho_fine = run(cfg, init.sample(fine), fine).rho[-1]

    def final_l1_error(n):
        grid = Grid1D(n=n, length=1.0)
        traj = run(cfg, init.sample(grid), grid)
        r_ref = rho_fine.reshape(n, 2048 // n).mean(axis=1)
        return float(np.sum(np.abs(traj.rho[-1] - r_ref)) * grid.dx)

    errs = [final_l1_error(n) for n in (64, 128, 256)]
    assert errs[0] > errs[1] > errs[2]
    ratio = errs[1] / errs[2]
    assert 1.7 <= ratio <= 2.3, f"convergence ratio {ratio:.3f}"


# -- perturbed initial data --------------------------------------------------------

def test_perturbation_amplitude_and_determinism():
    base = smooth_pulse_init(1.0)
    pert1 = perturb_density(base, 1.0, 0.05, np.random.default_rng(7))
    pert2 = perturb_density(base, 1.0, 0.05, np.random.default_rng(7))
    probe = np.linspace(0.0, 1.0, 2049)
    r0 = np.asarray(base.rho_fn(probe))
    r1 = np.asarray(pert1.rho_fn(probe))
    rel = np.abs(r1 / r0 - 1.0)
    assert np.max(rel) == pytest.approx(0.05, abs=1e-12)
    assert np.array_equal(r1, np.asarray(pert2.rho_fn(probe)))


def test_perturbation_zero_eps_is_identity():
    base = smooth_pulse_init(1.0)
    pert = perturb_density(base, 1.0, 0.0, np.random.default_rng(3))
    probe = np.linspace(0.0, 1.0, 257)
    assert np.array_equal(np.asarray(pert.rho_fn(probe)),
                          np.asarray(base.rho_fn(probe)))


def test_perturbation_seeds_differ():
    base = smooth_pulse_init(1.0)
    p1 = perturb_density(base, 1.0, 0.05, np.random.default_rng(1))
    p2 = perturb_density(base, 1.0, 0.05, np.random.default_rng(2))
    probe = np.linspace(0.0, 1.0, 257)
    assert not np.array_equal(np.asarray(p1.rho_fn(probe)),
                              np.asarray(p2.rho_fn(probe)))


# -- refined reference --------------------------------------------------------------

def test_reference_constant_state():
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.02, n_samples=3)
    ref = make_reference(cfg, constant_init(rho0=1.5), grid, factor=2)
    assert isinstance(ref, StrongSolutionRef)
    assert ref.refinement == 2
    assert np.allclose(ref.r, 1.5, atol=1e-14)
    assert np.allclose(ref.U, 0.0, atol=1e-14)
    assert np.allclose(ref.dU_dx, 0.0, atol=1e-12)
    assert float(np.min(ref.r)) == pytest.approx(1.5)
    assert np.max(np.abs(ref.U)) + np.max(np.abs(ref.dU_dx)) \
        + np.max(np.abs(ref.dU_dt)) <= 1e-12


def test_reference_factor_one_matches_run():
    grid = Grid1D(n=32, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.02, n_samples=3)
    init = smooth_pulse_init(1.0)
    ref = make_reference(cfg, init, grid, factor=1)
    traj = run(cfg, init.sample(grid), grid)
    assert np.array_equal(ref.r, traj.rho)
    assert np.array_equal(ref.U, traj.u)


def test_reference_rejects_near_vacuum():
    grid = Grid1D(n=8, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.01, n_samples=2)
    with pytest.raises(ReferenceInvalidError):
        make_reference(cfg, constant_init(rho0=5e-10), grid, factor=1)


def test_reference_rejects_bad_factor():
    grid = Grid1D(n=8, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.01, n_samples=2)
    with pytest.raises(DomainError):
        make_reference(cfg, constant_init(), grid, factor=0)


def test_reference_shapes_and_norms():
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.02, n_samples=4)
    ref = make_reference(cfg, pulse_flow_init(1.0), grid, factor=2)
    assert ref.r.shape == (4, 16)
    for name in ("U", "dr_dx", "dU_dx", "dU_dt", "d2U_dx2"):
        assert getattr(ref, name).shape == (4, 16)
    assert np.max(np.abs(ref.dU_dx)) > 0.0
    assert ref.min_r > 0.0


# -- gradient helper ----------------------------------------------------------------

def test_gradient_exact_for_linear():
    dx = 0.125
    x = 0.0625 + dx * np.arange(8)
    u = 3.0 * x + 1.0
    g = gradient_1d(u, dx)
    assert np.allclose(g, 3.0, atol=1e-13)


def test_gradient_rows_match_single_rows():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(3, 10))
    g = gradient_1d(u, 0.1)
    for k in range(3):
        assert np.array_equal(g[k], gradient_1d(u[k], 0.1))


@pytest.mark.parametrize("layout", ["uniform", "ragged"])
def test_gradient_divides_no_entry_it_did_not_write(layout):
    # the gradient's buffer comes from np.empty, and its first and last
    # entries never hold a difference: dividing what a freed array of 1e308
    # left there overflowed
    rows = (UniformRows(256, 1.0 / 256) if layout == "uniform"
            else RaggedRows([Grid1D(n=128, length=1.0), Grid1D(n=128, length=0.5)]))
    u = np.zeros((2, 256))
    junk = np.full((2, 256), 1e308)
    del junk
    with np.errstate(all="raise"):
        g = rows.gradient(u)
    assert not g.any()


# -- stacked runs -------------------------------------------------------------------

def tabulated_law():
    rho = np.linspace(0.0, 4.0, 9)
    return PressureLaw(h_part=TabulatedH(rho_samples=tuple(rho),
                                         h_samples=tuple(rho**2 + 0.1 * rho)))


def _scalar_run_oracle(cfg, init_state, grid, log=None):
    """One state at a time: the controller as a plain Python loop over floats.

    Same halving retry, 1.5 dt_prev growth cap, clipping to the sample time
    and snap to it as run_stack, without the wall-clock budget, and one step
    call per trial.  log, if given, gets one (dt, accepted, source) entry per
    trial, source naming what set dt: "cfl", "grown" (the 1.5 dt_prev cap),
    "clipped" (the sample time) or "halved" (a retry).
    """
    times = np.linspace(0.0, cfg.T, cfg.n_samples)
    state = FluidState(rho=init_state.rho.copy(), m=init_state.m.copy(), t=0.0)
    rho_out, u_out = [state.rho], [velocity(state)]
    energy, cum_dis = [total_energy(state, cfg, grid)], [0.0]
    slack_budget = mvflow.solver.STEP_SLACK_TOL * energy_scale(state, cfg, grid)
    dt_floor = 1e-12 * cfg.T
    e_prev, dis_acc, min_slack = energy[0], 0.0, np.inf
    n_steps = n_trials = 0
    dt_prev = None
    for t_target in times[1:]:
        while state.t < t_target - 1e-12 * cfg.T:
            cand = admissible_dt(state, cfg, grid)
            source = "cfl"
            if dt_prev is not None:
                if 1.5 * dt_prev < cand:
                    source = "grown"
                cand = min(cand, 1.5 * dt_prev)
            dt = min(cand, t_target - state.t)
            clipped = dt < cand
            if clipped:
                source = "clipped"
            halved = False
            while True:
                trial = step(state, cfg, grid, dt)
                n_trials += 1
                dI = dissipation_increment(trial, cfg, grid, dt)
                e_new = total_energy(trial, cfg, grid)
                slack = e_prev - e_new - dI
                if log is not None:
                    log.append((dt, slack >= -slack_budget, source))
                if slack >= -slack_budget:
                    break
                assert dt > dt_floor
                dt = max(0.5 * dt, dt_floor)
                halved = True
                source = "halved"
            state = trial
            if halved or not clipped:
                dt_prev = dt
            if abs(state.t - t_target) < 1e-12 * cfg.T:
                state = FluidState(rho=state.rho, m=state.m, t=t_target)
            min_slack = min(min_slack, slack)
            dis_acc += dI
            e_prev = e_new
            n_steps += 1
        rho_out.append(state.rho)
        u_out.append(velocity(state))
        energy.append(e_prev)
        cum_dis.append(dis_acc)
    return (np.array(rho_out), np.array(u_out), np.array(energy),
            np.array(cum_dis), float(min_slack) if n_steps else 0.0, n_steps,
            n_trials)


def _assert_same_run(a, b):
    for name in ("times", "rho", "u", "energy", "cum_dissipation"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.min_step_slack == b.min_step_slack
    assert (a.n_steps, a.n_trials, a.complete) == (b.n_steps, b.n_trials, b.complete)


@contextlib.contextmanager
def _record_step_calls():
    """Wrap run_stack's step inside the block; each call appends its live
    rows, its (R, L) trial dts (R = 1 or 2 rungs) and the lowest density of
    its trial states.  Only the wrapper goes on exit: the caller's own
    patches still hold after the block."""
    calls = []
    real_step = mvflow.solver.step

    def recording_step(rho, m, start, dts, cfg, cells, delta, rows=None):
        out = real_step(rho, m, start, dts, cfg, cells, delta, rows)
        calls.append({"rows": list(rows), "dt": np.reshape(dts, (-1, len(rows))),
                      "lowest": float(out[0].min())})
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mvflow.solver, "step", recording_step)
        yield calls


def _replay(calls, logs) -> list:
    """Read the recorded step calls against the oracle's trial logs.

    Each row of a call consumes its row's next oracle trials, one per rung,
    up to the first accepted one: so the rungs' dts, the trials read and
    their order are the oracle's.  Returns per call the rung count and, per
    row, the source of its rung-0 dt and the accepted rung (None: every rung
    was rejected).
    """
    pos = [0] * len(logs)
    out = []
    for call in calls:
        d = call["dt"]
        cols = []
        for j, r in enumerate(call["rows"]):
            source, took = logs[r][pos[r]][2], None
            for rung in range(d.shape[0]):
                dt, ok, _ = logs[r][pos[r]]
                assert dt == d[rung, j], (r, rung)
                pos[r] += 1
                if ok:
                    took = rung
                    break
            cols.append((source, took))
        out.append((d.shape[0], cols))
    assert pos == [len(log) for log in logs]
    return out


def _run_against_oracle(cfgs, states, grid):
    """run_stack's rows, each asserted equal to its oracle run bit for bit,
    n_trials included, and the replay of the step calls it made."""
    with _record_step_calls() as calls:
        rows = run_stack(cfgs, states, grid)
    logs = []
    for cfg, state, row in zip(cfgs, states, rows):
        logs.append([])
        rho, u, energy, cum_dis, min_slack, n_steps, n_trials = \
            _scalar_run_oracle(cfg, state, grid, log=logs[-1])
        for name, want in (("rho", rho), ("u", u), ("energy", energy),
                           ("cum_dissipation", cum_dis)):
            assert getattr(row, name).tobytes() == want.tobytes(), name
        assert (row.min_step_slack, row.n_steps, row.n_trials) == \
            (min_slack, n_steps, n_trials)
    return rows, calls, _replay(calls, logs)


_LAWS = {"power": gamma2_law, "bump": bump_law, "tabulated": tabulated_law}


@settings(max_examples=20, deadline=None)
@given(law=st.sampled_from(sorted(_LAWS)), K=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_rows_equal_single_runs(law, K, seed):
    # noisy members take different step counts between sample times, so the
    # rows run out of step and reach each sample time at different trials
    grid = Grid1D(n=24, length=1.0)
    cfg = SolverConfig(law=_LAWS[law](), lam=0.1, T=0.02, n_samples=4)
    rng = np.random.default_rng(seed)
    base = pulse_flow_init(1.0, base=1.1, u_amp=0.3)
    states = [perturb_density(base, 1.0, 0.2, rng).sample(grid) for _ in range(K)]
    stacked = run_stack([cfg] * K, states, grid)
    assert len(stacked) == K
    for state, row in zip(states, stacked):
        single = run(cfg, state, grid)
        _assert_same_run(row, single)
        rho, u, energy, cum_dis, min_slack, n_steps, n_trials = \
            _scalar_run_oracle(cfg, state, grid)
        assert np.array_equal(single.rho, rho)
        assert np.array_equal(single.u, u)
        assert np.array_equal(single.energy, energy)
        assert np.array_equal(single.cum_dissipation, cum_dis)
        assert (single.min_step_slack, single.n_steps, single.n_trials) == \
            (min_slack, n_steps, n_trials)


@settings(max_examples=100, deadline=None)
@given(law=st.sampled_from(sorted(_LAWS)), K=st.integers(1, 4), n=st.integers(8, 64),
       n_vacuum=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_run_stack_keeps_the_scheme_invariants(law, K, n, n_vacuum, seed):
    # rough data with near-vacuum cells, down to exact vacuum and at the
    # vacuum floor: mass, positivity and the per-step energy budget per row
    rng = np.random.default_rng(seed)
    grid = Grid1D(n=n, length=1.0)
    cfg = SolverConfig(law=_LAWS[law](), lam=0.1, T=0.1, n_samples=5)
    states = []
    for _ in range(K):
        rho = rng.uniform(0.3, 2.5, n)
        vac = rng.choice(n, size=min(n_vacuum, n), replace=False)
        rho[vac] = rng.choice([0.0, mvflow.solver.RHO_FLOOR, 1e-6], size=vac.size)
        states.append(FluidState(rho=rho, m=rho * rng.uniform(-1.0, 1.0, n)))
    for state, row in zip(states, run_stack([cfg] * K, states, grid)):
        budget = mvflow.solver.STEP_SLACK_TOL * energy_scale(state, cfg, grid)
        mass = row.rho.sum(axis=1) * grid.dx
        assert np.all(np.abs(mass - mass[0]) <= 1e-12 * mass[0])
        assert np.all(row.rho >= 0.0)
        assert row.min_step_slack >= -budget
        assert np.all(row.energy + row.cum_dissipation - row.energy[0]
                      <= row.n_steps * budget)


def test_stacked_rows_step_apart_between_samples():
    # a fixed case where the rows' step counts differ and some trials are
    # rejected, so the stack runs rows out of phase and through retries
    grid = Grid1D(n=32, length=1.0)
    cfg = SolverConfig(law=bump_law(), lam=0.1, T=0.03, n_samples=4)
    rng = np.random.default_rng(11)
    base = pulse_flow_init(1.0, base=1.1, u_amp=0.3)
    states = [perturb_density(base, 1.0, eps, rng).sample(grid)
              for eps in (0.0, 0.1, 0.3)]
    rows = run_stack([cfg] * 3, states, grid)
    assert len({r.n_steps for r in rows}) == 3
    assert any(r.n_trials > r.n_steps for r in rows)
    for state, row in zip(states, rows):
        _assert_same_run(row, run(cfg, state, grid))


def test_stacked_step_equals_row_steps():
    grid = Grid1D(n=40, length=1.0)
    cfg = SolverConfig(law=bump_law(), lam=0.3, T=1.0)
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.5, 2.0, size=(3, 40))
    m = rho * rng.uniform(-0.5, 0.5, size=(3, 40))
    stacked = FluidState(rho=rho, m=m, t=np.zeros(3))
    dt = 0.7 * admissible_dt(stacked, cfg, grid) * np.array([1.0, 0.5, 0.25])
    out = step(stacked, cfg, grid, dt)
    for k in range(3):
        one = step(FluidState(rho=rho[k], m=m[k]), cfg, grid, float(dt[k]))
        assert np.array_equal(out.rho[k], one.rho)
        assert np.array_equal(out.m[k], one.m)
        assert out.t[k] == one.t


def test_rung_step_equals_row_steps():
    # an (R, K) dt: row r * K + k of the result is row k stepped by dt[r, k]
    grid = Grid1D(n=40, length=1.0)
    cfg = SolverConfig(law=bump_law(), lam=0.3, T=1.0)
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.5, 2.0, size=(3, 40))
    m = rho * rng.uniform(-0.5, 0.5, size=(3, 40))
    stacked = FluidState(rho=rho, m=m, t=np.array([0.0, 0.1, 0.2]))
    start = step_start(stacked, cfg, grid)
    dt = np.array([0.9 * start.dt_max, 0.45 * start.dt_max])
    out = step(stacked, cfg, grid, dt, start=start)
    assert out.rho.shape == (6, 40) and out.t.shape == (6,)
    for r in range(2):
        for k in range(3):
            one = step(FluidState(rho=rho[k], m=m[k], t=float(stacked.t[k])), cfg,
                       grid, float(dt[r, k]))
            assert np.array_equal(out.rho[3 * r + k], one.rho)
            assert np.array_equal(out.m[3 * r + k], one.m)
            assert out.t[3 * r + k] == one.t
    dt[1, 2] = 2.0 * start.dt_max[2]
    with pytest.raises(StepRejected):
        step(stacked, cfg, grid, dt, start=start)


def test_n_trials_counts_the_trials_read_not_the_step_calls():
    # a step call may hold two rungs, and rung 1 is read only when rung 0 is
    # rejected: n_trials is the oracle's count of trials, one step call
    # each, while the rejections make run_stack's step calls fewer
    grid = Grid1D(n=32, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.05, n_samples=4)
    (traj,), calls, _ = _run_against_oracle(
        [cfg], [pulse_flow_init(1.0).sample(grid)], grid)
    assert traj.n_trials > traj.n_steps > 0
    assert len(calls) < traj.n_trials


def test_grown_trial_accepts_rung_one():
    # after an accepted step the dt grows 1.5x and is mostly rejected; the
    # halved dt then rides in the same step call and is accepted there
    grid = Grid1D(n=32, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.05, n_samples=4)
    _, _, replay = _run_against_oracle(
        [cfg], [pulse_flow_init(1.0).sample(grid)], grid)
    reads = [(R, source, took) for R, cols in replay for source, took in cols]
    assert (2, "grown", 1) in reads and (2, "grown", 0) in reads
    # the gate: two rungs exactly when a row's dt is set by the growth cap
    assert all((R == 2) == any(s == "grown" for s, _ in cols) for R, cols in replay)
    assert (1, "clipped", 0) in reads and (1, "cfl", None) in reads


def test_both_rungs_rejected_row_retries():
    # row 0 grows its dt while row 1 still halves its first CFL-sized trial:
    # row 1 rides the two-rung calls at its halved and quarter dt, is
    # rejected at both and retries in a later call
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.02, n_samples=3)
    states = [pulse_flow_init(1.0, base=1.1, amp=0.02, u_amp=0.01).sample(grid),
              pulse_flow_init(1.0, base=1.1, u_amp=0.3).sample(grid)]
    _, _, replay = _run_against_oracle([cfg] * 2, states, grid)
    assert any(R == 2 and took is None for R, cols in replay for _, took in cols)


def test_rungs_mix_grown_cfl_and_clipped_rows(monkeypatch):
    # a state at rest steps at its CFL bound, and a loose budget lets the
    # pulses grow their dt: one two-rung call holds a grown row, a row at
    # its CFL bound and a row clipped to a sample time
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.2, n_samples=5)
    states = [constant_init(1.0).sample(grid),
              pulse_flow_init(1.0, base=1.1, amp=0.02, u_amp=0.01).sample(grid),
              pulse_flow_init(1.0, base=1.1, u_amp=0.3).sample(grid)]
    monkeypatch.setattr(mvflow.solver, "STEP_SLACK_TOL", 5e-4)
    _, _, replay = _run_against_oracle([cfg] * 3, states, grid)
    assert any(R == 2 and {"grown", "cfl", "clipped"} <= {s for s, _ in cols}
               for R, cols in replay)


def test_rungs_on_a_mixed_delta_stack():
    # each rung's rows take their own delta, with every row live and with
    # some rows done
    grid = Grid1D(n=32, length=1.0)
    base = SolverConfig(law=bump_law(), lam=0.1, T=0.03, n_samples=4)
    cfgs = [replace(base, delta=d) for d in (0.5, 0.0, 0.05)]
    state = pulse_flow_init(1.0, base=1.1, u_amp=0.3).sample(grid)
    _, _, replay = _run_against_oracle(cfgs, [state] * 3, grid)
    assert any(R == 2 and len(cols) == 3 for R, cols in replay)
    assert any(R == 2 and len(cols) < 3 for R, cols in replay)


def test_rungs_with_a_near_vacuum_row():
    # a vacuum cell in one row sends the stack's two-rung calls through the
    # masked velocity and kinetic energy; the other row alone takes the
    # unmasked path throughout.  Both equal the oracle, which always masks.
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=bump_law(), lam=0.1, T=0.02, n_samples=3)
    pulse = pulse_flow_init(1.0, base=1.1, u_amp=0.3).sample(grid)
    rho = np.ones(16)
    rho[0] = 0.0
    vacuum = FluidState(rho=rho, m=0.5 * rho)
    _, calls, replay = _run_against_oracle([cfg] * 2, [pulse, vacuum], grid)
    assert any(R == 2 and call["lowest"] <= mvflow.solver.RHO_FLOOR
               for (R, _), call in zip(replay, calls))
    _, calls, replay = _run_against_oracle([cfg], [pulse], grid)
    assert all(call["lowest"] > mvflow.solver.RHO_FLOOR for call in calls)
    assert any(R == 2 for R, _ in replay)


def test_run_stack_rejects_mismatched_grid():
    state = smooth_pulse_init(1.0).sample(Grid1D(n=16))
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.01, n_samples=2)
    with pytest.raises(DomainError):
        run_stack([cfg], [state], Grid1D(n=32))
    with pytest.raises(DomainError):
        run_stack([], [], Grid1D(n=16))


@settings(max_examples=20, deadline=None)
@given(law=st.sampled_from(sorted(_LAWS)),
       positive=st.lists(st.sampled_from([1e-4, 1e-2, 0.1]), min_size=1, max_size=3),
       zero_at=st.integers(0, 3), Gamma=st.sampled_from([2.0, 3.0]),
       eps=st.sampled_from([0.0, 0.2]), seed=st.integers(0, 2**32 - 1))
def test_mixed_delta_rows_equal_single_runs(law, positive, zero_at, Gamma, eps, seed):
    # a stack whose rows differ in delta, one of them 0: every row is byte
    # for byte the run of its state under its own config, which it carries
    deltas = list(positive)
    deltas.insert(zero_at % (len(deltas) + 1), 0.0)
    grid = Grid1D(n=24, length=1.0)
    base = SolverConfig(law=_LAWS[law](), lam=0.1, T=0.02, n_samples=4, Gamma=Gamma)
    cfgs = [replace(base, delta=d) for d in deltas]
    rng = np.random.default_rng(seed)
    init = pulse_flow_init(1.0, base=1.1, u_amp=0.3)
    states = [perturb_density(init, 1.0, eps, rng).sample(grid) for _ in deltas]
    rows = run_stack(cfgs, states, grid)
    assert len(rows) == len(cfgs)
    for cfg, state, row in zip(cfgs, states, rows):
        single = run(cfg, state, grid)
        assert row.cfg is cfg and single.cfg is cfg
        _assert_same_run(row, single)
        for name in ("rho", "u", "energy", "cum_dissipation"):
            assert getattr(row, name).tobytes() == getattr(single, name).tobytes(), name


@settings(max_examples=25, deadline=None)
@given(law=st.sampled_from(sorted(_LAWS)),
       ns=st.lists(st.integers(4, 96), min_size=1, max_size=4, unique=True),
       deltas=st.lists(st.sampled_from([0.0, 1e-3, 0.05]), min_size=4, max_size=4),
       vacuum=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_ragged_stack_rows_equal_single_runs(law, ns, deltas, vacuum, seed):
    # rows of different n, mixed deltas and one row with a cell at or below
    # the vacuum floor: each row equals its run alone and the scalar oracle,
    # byte for byte with the same counts.  The rows take different step
    # counts, so they mostly finish at different calls and the stack shrinks.
    grids = [Grid1D(n=n, length=1.0) for n in ns]
    base = SolverConfig(law=_LAWS[law](), lam=0.1, T=0.01, n_samples=3)
    cfgs = [replace(base, delta=d) for d in deltas[:len(ns)]]
    rng = np.random.default_rng(seed)
    init = pulse_flow_init(1.0, base=1.1, u_amp=0.3)
    states = [perturb_density(init, 1.0, 0.2, rng).sample(g) for g in grids]
    k = vacuum % len(ns)
    rho = states[k].rho.copy()
    rho[rng.integers(ns[k])] = rng.choice([0.0, mvflow.solver.RHO_FLOOR])
    states[k] = FluidState(rho=rho, m=0.5 * rho)
    live = []
    real_step = mvflow.solver.step

    def recording_step(rho, m, start, dts, cfg, cells, delta, rows=None):
        live.append(len(rows))
        return real_step(rho, m, start, dts, cfg, cells, delta, rows)

    mvflow.solver.step = recording_step
    try:
        rows = run_stack(cfgs, states, grids)
    finally:
        mvflow.solver.step = real_step
    assert live[0] == len(ns) and live == sorted(live, reverse=True)
    for cfg, state, grid, row in zip(cfgs, states, grids, rows):
        assert row.grid is grid and row.cfg is cfg
        single = run(cfg, state, grid)
        _assert_same_run(row, single)
        rho, u, energy, cum_dis, min_slack, n_steps, n_trials = \
            _scalar_run_oracle(cfg, state, grid)
        for name, want in (("rho", rho), ("u", u), ("energy", energy),
                           ("cum_dissipation", cum_dis)):
            assert getattr(row, name).tobytes() == want.tobytes(), name
        assert (row.min_step_slack, row.n_steps, row.n_trials) == \
            (min_slack, n_steps, n_trials)


def test_ragged_rows_finish_apart_and_the_rest_run_on():
    # the coarse rows finish first; the stack drops them call by call until
    # the finest row runs alone on its (1, n) arrays
    grids = [Grid1D(n=n, length=1.0) for n in (8, 24, 64)]
    cfg = SolverConfig(law=bump_law(), lam=0.1, T=0.02, n_samples=3)
    states = [pulse_flow_init(1.0, base=1.1, u_amp=0.3).sample(g) for g in grids]
    with _record_step_calls() as calls:
        rows = run_stack([cfg] * 3, states, grids)
    seen = [c["rows"] for c in calls]
    assert [0, 1, 2] in seen and [1, 2] in seen and seen[-1] == [2]
    for state, grid, row in zip(states, grids, rows):
        _assert_same_run(row, run(cfg, state, grid))


def test_ragged_stack_failures_name_the_row_and_its_own_cell():
    grids, cells, states, stack = _ragged_stack((8, 12, 10))
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.01, n_samples=2)
    # a NaN in the initial momentum of row 2
    bad_m = states[2].m.copy()
    bad_m[7] = np.nan
    with pytest.raises(SolverFailure, match=r"non-finite initial momentum at row 2, cell 7"):
        run_stack([cfg] * 3, states[:2] + [FluidState(rho=states[2].rho, m=bad_m)], grids)
    # a NaN momentum in cell 5 of row 1 spoils the density from cell 4 on
    m = stack.m.copy()
    m[cells.at(1)][5] = np.nan
    nan_stack = FluidState(rho=stack.rho, m=m, t=np.zeros(3))
    dt = np.full(3, 1e-3)
    with pytest.raises(SolverFailure, match=r"non-finite density at row 1, cell 4"):
        step(nan_stack, cfg, cells, dt)
    with pytest.raises(SolverFailure, match=r"non-finite density at row 7, cell 4"):
        step(nan_stack, cfg, cells, dt, rows=[5, 7, 9])
    # a dt far above row 1's CFL bound (the start is told otherwise) drains a
    # cell of row 1 below zero: the message is that of row 1 stepped alone
    start = step_start(stack, cfg, cells)
    lax = StepStart(dt_max=np.full(3, np.inf), d=start.d)
    dt = 0.5 * start.dt_max
    dt[1] *= 40.0
    with pytest.raises(SolverFailure, match="negative density") as alone:
        one = step_start(states[1], cfg, grids[1])
        step(states[1], cfg, grids[1], float(dt[1]),
             start=StepStart(dt_max=np.inf, d=one.d))
    with pytest.raises(SolverFailure) as stacked:
        step(stack, cfg, cells, dt, rows=[5, 7, 9], start=lax)
    assert str(stacked.value) == str(alone.value).replace("row 0,", "row 7,")
    # a vacuum cell in row 2 and a dt at which kappa underflows to 0
    rho = stack.rho.copy()
    rho[cells.at(2)][6] = 0.0
    vacuum = FluidState(rho=rho, m=np.zeros_like(rho), t=np.zeros(3))
    with pytest.raises(SolverFailure, match=r"non-positive diagonal at row 2, cell 6 "):
        step(vacuum, cfg, cells, np.full(3, 5e-324))


def test_delta_free_rows_keep_their_bytes():
    # a row with delta = 0 adds nothing, not +0.0, which would turn the
    # pressure -0.0 of a -0.0 density under gamma = 3 into 0.0
    grid = Grid1D(n=4, length=1.0)
    cfg = SolverConfig(law=PressureLaw(h_part=PowerLawH(a=1.0, gamma=3.0)),
                       lam=0.1, T=1.0)
    rho = np.array([[-0.0, 1.0, 2.0, 0.5]] * 2)
    state = FluidState(rho=rho, m=0.3 * rho, t=np.zeros(2))
    delta = np.array([[0.0], [0.1]])
    pi = total_pressure(cfg, rho, cfg.law.p(rho), delta)
    kin = mvflow.solver._kinetic(rho, state.m, *mvflow.solver._vacuum(rho))
    e = mvflow.solver._energy(cfg, grid, rho, kin, cfg.law.P(rho), delta)
    assert np.signbit(pi[0, 0])
    for k, d in enumerate((0.0, 0.1)):
        row = replace(cfg, delta=d)
        assert pi[k].tobytes() == total_pressure(row, rho[k], row.law.p(rho[k]), d).tobytes()
        assert e[k] == total_energy(FluidState(rho=rho[k], m=state.m[k]), row, grid)


def test_delta_rows_step_apart():
    # the same data under three deltas: the rows take different step counts,
    # so later trials advance only some of them, each with its own delta
    grid = Grid1D(n=32, length=1.0)
    base = SolverConfig(law=bump_law(), lam=0.1, T=0.03, n_samples=4)
    cfgs = [replace(base, delta=d) for d in (0.5, 0.0, 0.05)]
    state = pulse_flow_init(1.0, base=1.1, u_amp=0.3).sample(grid)
    rows = run_stack(cfgs, [state] * 3, grid)
    assert len({r.n_steps for r in rows}) == 3
    for cfg, row in zip(cfgs, rows):
        _assert_same_run(row, run(cfg, state, grid))


def test_run_stack_rejects_configs_differing_beyond_delta():
    grid = Grid1D(n=16, length=1.0)
    state = smooth_pulse_init(1.0).sample(grid)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.01, n_samples=2)
    for other in (replace(cfg, lam=0.2), replace(cfg, Gamma=3.0),
                  replace(cfg, law=bump_law()), replace(cfg, cfl=0.3),
                  replace(cfg, n_samples=3), replace(cfg, delta=0.1, T=0.02)):
        with pytest.raises(DomainError, match="differing only in delta"):
            run_stack([cfg, other], [state, state], grid)
    with pytest.raises(DomainError):
        run_stack([cfg], [state, state], grid)
    # an equal law built anew, and a different delta, stack
    rows = run_stack([cfg, replace(cfg, law=gamma2_law(), delta=0.1)],
                     [state, state], grid)
    assert [r.cfg.delta for r in rows] == [0.0, 0.1]


# -- non-finite states ----------------------------------------------------------------

def test_nan_initial_momentum_names_the_cell():
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.01, n_samples=2)
    good = smooth_pulse_init(1.0).sample(grid)
    bad_m = good.m.copy()
    bad_m[7] = np.nan
    bad = FluidState(rho=good.rho, m=bad_m)
    with pytest.raises(SolverFailure, match=r"non-finite initial momentum at row 0, cell 7"):
        run(cfg, bad, grid)
    with pytest.raises(SolverFailure, match=r"row 2, cell 7"):
        run_stack([cfg] * 3, [good, good, bad], grid)


def test_step_names_the_first_non_finite_cell():
    # a NaN momentum in cell 5 of row 1 spoils the mass fluxes on both faces
    # of that cell, so the density goes non-finite from cell 4 on
    grid = Grid1D(n=12, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=1.0)
    rho = np.ones((2, 12))
    m = np.full((2, 12), 0.1)
    m[1, 5] = np.nan
    state = FluidState(rho=rho, m=m, t=np.zeros(2))
    with pytest.raises(SolverFailure, match=r"non-finite density at row 1, cell 4"):
        step(state, cfg, grid, np.array([1e-3, 1e-3]))
    with pytest.raises(SolverFailure, match=r"row 7, cell 4"):
        step(state, cfg, grid, np.array([1e-3, 1e-3]), rows=np.array([3, 7]))


def test_nan_momentum_on_a_vacuum_cell_names_the_momentum_cell():
    # the velocity there is taken as zero, so the density stays finite and
    # the NaN surfaces only in the momentum update
    grid = Grid1D(n=8, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=1.0)
    rho = np.ones(8)
    rho[3] = 0.0
    m = np.zeros(8)
    m[3] = np.nan
    with pytest.raises(SolverFailure, match=r"non-finite momentum at row 0, cell 3"):
        step(FluidState(rho=rho, m=m), cfg, grid, 1e-3)


# -- reference from a finished run -------------------------------------------------------

def _assert_same_reference(a, b):
    for name in ("times", "x", "r", "U", "dr_dx", "dU_dx", "dU_dt", "d2U_dx2"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.dx, a.refinement, a.min_r) == (b.dx, b.refinement, b.min_r)


def test_shared_fine_run_equals_per_level_references():
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.02, n_samples=5)
    init = pulse_flow_init(1.0, u_amp=0.3)
    fine = Grid1D(n=128, length=1.0)
    fine_run = run(cfg, init.sample(fine), fine)
    for n in (16, 32, 64):
        grid = Grid1D(n=n, length=1.0)
        _assert_same_reference(reference_from_run(fine_run, grid),
                               make_reference(cfg, init, grid, factor=128 // n))


def test_restriction_is_the_reference_without_its_derivatives():
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.02, n_samples=5)
    fine = Grid1D(n=64, length=1.0)
    fine_run = run(cfg, pulse_flow_init(1.0, u_amp=0.3).sample(fine), fine)
    for n in (16, 64):
        grid = Grid1D(n=n, length=1.0)
        flow, ref = restrict_run(fine_run, grid), reference_from_run(fine_run, grid)
        assert type(flow) is ComparisonFlow
        for f in fields(flow):
            a, b = getattr(flow, f.name), getattr(ref, f.name)
            assert type(a) is type(b) and np.array_equal(a, b), f.name


def test_reference_from_run_rejects_a_grid_it_does_not_refine():
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.01, n_samples=2)
    coarse = Grid1D(n=24, length=1.0)
    traj = run(cfg, smooth_pulse_init(1.0).sample(coarse), coarse)
    for grid in (Grid1D(n=16, length=1.0), Grid1D(n=48, length=1.0),
                 Grid1D(n=12, length=2.0)):
        for restrict in (reference_from_run, restrict_run):
            with pytest.raises(DomainError):
                restrict(traj, grid)


def test_reference_from_incomplete_run_rejected():
    grid = Grid1D(n=16, length=1.0)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.05, n_samples=4)
    traj = replace(run(cfg, smooth_pulse_init(1.0).sample(grid), grid), complete=False)
    with pytest.raises(ReferenceInvalidError):
        reference_from_run(traj, grid)


# -- the step before its split, as an oracle ------------------------------------------

# The body of step and of its two error helpers before step was split into
# step_start and the dt-dependent trial, copied unchanged apart from the names
# and the message of a failed viscous solve, which now names the cell as
# step's does.  It keeps the positivity limiter that step no longer has.

def _reference_first_cell(mask: np.ndarray, rows=None) -> str:
    """Where the first True entry of a (n,) or (K, n) mask sits.

    rows maps the rows of a stacked mask to the row numbers reported.
    """
    r, c = np.argwhere(np.atleast_2d(mask))[0]
    return f"row {r if rows is None else rows[r]}, cell {c}"


def _reference_require_finite(what: str, arr: np.ndarray, rows=None) -> None:
    if not np.isfinite(arr).all():
        raise SolverFailure(f"non-finite {what} at {_reference_first_cell(~np.isfinite(arr), rows)}")


def _reference_step(state: FluidState, cfg: SolverConfig, grid: Grid1D, dt,
                    rows=None, dt_max=None) -> FluidState:
    """One explicit-transport / implicit-viscosity step of size dt.

    A stacked state takes a (K,) dt and advances row k by dt[k]; rows names
    the members in error messages (default: the row numbers).  dt_max is
    admissible_dt(state, cfg, grid) when the caller already holds it.
    """
    if dt_max is None:
        dt_max = admissible_dt(state, cfg, grid)
    over = dt > dt_max * (1.0 + 1e-12)
    if np.any(over):
        i = int(np.argmax(over))
        dt_b, dt_max_b = np.broadcast_arrays(dt, dt_max)
        raise StepRejected(float(dt_b.flat[i]), float(dt_max_b.flat[i]))

    dx, n = grid.dx, grid.n
    rho, m = state.rho, state.m
    dtc = np.asarray(dt, dtype=float)[..., None]  # per-row dt as a column
    u = velocity(state)
    faces = rho.shape[:-1] + (n + 1,)

    # interior face velocities; wall faces carry u = 0 (no-slip)
    u_face = np.zeros(faces)
    u_face[..., 1:-1] = 0.5 * (u[..., :-1] + u[..., 1:])

    # donor-cell mass flux
    donor_hi = u_face[..., 1:-1] > 0.0
    F = np.zeros(faces)
    F[..., 1:-1] = np.where(donor_hi, rho[..., :-1], rho[..., 1:]) * u_face[..., 1:-1]

    # positivity limiter: scale each cell's outgoing fluxes so the update
    # cannot overdraw the cell; inactive for CFL-compliant smooth runs
    outflow = np.maximum(F[..., 1:], 0.0) - np.minimum(F[..., :-1], 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = np.where(outflow > 0.0, np.minimum(1.0, rho * dx / (dtc * outflow)), 1.0)
    F[..., 1:-1] *= np.where(F[..., 1:-1] > 0.0, theta[..., :-1], theta[..., 1:])

    rho_new = rho - dtc / dx * (F[..., 1:] - F[..., :-1])
    _reference_require_finite("density", rho_new, rows)
    negative = rho_new < -1e-13 * np.maximum(1.0, rho.max(axis=-1, keepdims=True))
    if negative.any():
        raise SolverFailure(f"negative density {float(np.min(rho_new)):.3e} after "
                            f"limiting at {_reference_first_cell(negative, rows)}")
    rho_new = np.maximum(rho_new, 0.0)

    # convective momentum flux rides the (limited) mass flux with donor velocity
    G = np.zeros(faces)
    G[..., 1:-1] = F[..., 1:-1] * np.where(donor_hi, u[..., :-1], u[..., 1:])

    # central total pressure at faces; zero-gradient ghosts at the walls
    pi = total_pressure(cfg, rho, cfg.law.p(rho), cfg.delta)
    pi_face = np.empty(faces)
    pi_face[..., 1:-1] = 0.5 * (pi[..., :-1] + pi[..., 1:])
    pi_face[..., 0] = pi[..., 0]
    pi_face[..., -1] = pi[..., -1]

    m_star = (m - dtc / dx * (G[..., 1:] - G[..., :-1])
              - dtc / dx * (pi_face[..., 1:] - pi_face[..., :-1]))
    _reference_require_finite("momentum", m_star, rows)

    # implicit viscosity: (rho_new - lam dt Dxx) u_new = m_star with mirrored
    # ghost velocities enforcing u = 0 at the wall faces.  The rows' systems
    # are the blocks of one tridiagonal system (LAPACK gtsv, which
    # scipy.linalg.solve_banded calls for one band each side); the
    # off-diagonal entries between one row's last cell and the next row's
    # first are zero.
    kappa = cfg.lam * dtc / dx**2
    diag = rho_new + 2.0 * kappa
    diag[..., 0] += kappa[..., 0]
    diag[..., -1] += kappa[..., 0]
    off = np.empty(rho.shape)
    off[...] = -kappa
    off[..., -1] = 0.0
    off = off.reshape(-1)[:-1]
    *_, u_new, info = dgtsv(off, diag.reshape(-1), off.copy(), m_star.reshape(-1),
                            True, True, True, True)
    if info != 0:
        raise SolverFailure("viscous solve failed: non-positive diagonal at "
                            f"{_reference_first_cell(~(rho_new + kappa > 0.0), rows)} "
                            f"(LAPACK gtsv info {info})")
    u_new = np.where(rho_new > mvflow.solver.RHO_FLOOR, u_new.reshape(rho.shape), 0.0)

    return FluidState(rho=rho_new, m=rho_new * u_new, t=state.t + dt)


def _step_outcome(fn, *args, **kwargs):
    """The state a step returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except (SolverFailure, StepRejected) as e:
        return type(e), str(e)


def _assert_same_outcome(got, want):
    if isinstance(want, FluidState):
        assert isinstance(got, FluidState), got
        for name in ("rho", "m", "t"):
            a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert a.shape == b.shape and np.array_equal(a, b), name
    else:
        assert got == want


@settings(max_examples=80, deadline=None)
@given(law=st.sampled_from(sorted(_LAWS)), K=st.integers(1, 5),
       held=st.booleans(),
       cfl=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       at=st.sampled_from(["inside", "bound", "bound+tol"]),
       speed=st.sampled_from([1.0, 100.0]), seed=st.integers(0, 2**32 - 1))
def test_step_equals_reference_step(law, K, held, cfl, at, speed, seed):
    # held: the caller hands step the state's step_start, or nothing.  step
    # has no positivity limiter and the oracle keeps one, so the same outcome
    # at every dt the CFL bound lets through, up to the bound times
    # 1 + 1e-12, shows the limiter never acts there (theta = 1).  Each row
    # has a diverging cell (u[i-1] < 0 < u[i+1]), which drains through both
    # faces, with a density from the vacuum up, and a cell at or below the
    # vacuum floor; at speed 100 the sound speed is small against max|u|, so
    # dt * outflow comes within 1% of the cell's mass.
    rng = np.random.default_rng(seed)
    grid = Grid1D(n=20, length=1.0)
    cfg = SolverConfig(law=_LAWS[law](), lam=0.2, T=1.0, cfl=cfl)
    floor = mvflow.solver.RHO_FLOOR
    rho = rng.uniform(0.05, 2.5, size=(K, 20))
    u = speed * rng.uniform(-1.0, 1.0, size=(K, 20))
    rows, i = np.arange(K), rng.integers(1, 19, size=K)
    u[rows, i - 1] = -speed * rng.uniform(0.5, 1.0, size=K)
    u[rows, i + 1] = speed * rng.uniform(0.5, 1.0, size=K)
    rho[rows, i] = rng.choice([0.0, 0.5 * floor, floor, 2.0 * floor, 1e-3, 1.0],
                              size=K)
    rho[rows, (i + rng.integers(2, 19, size=K)) % 20] = \
        rng.choice([0.0, 0.5 * floor, floor], size=K)
    m = rho * u
    if K == 1 and rng.random() < 0.5:
        state = FluidState(rho=rho[0], m=m[0])  # a single unstacked state
    else:
        state = FluidState(rho=rho, m=m, t=rng.uniform(0.0, 0.1, size=K))
    start = step_start(state, cfg, grid)
    bound = start.dt_max
    dt = {"inside": bound * rng.uniform(0.05, 1.0, size=np.shape(bound)),
          "bound": bound, "bound+tol": bound * (1.0 + 1e-12)}[at]
    want = _step_outcome(_reference_step, state, cfg, grid, dt)
    got = _step_outcome(step, state, cfg, grid, dt, start=start if held else None)
    _assert_same_outcome(got, want)


def test_step_equals_reference_step_on_non_finite_and_oversized_steps():
    grid = Grid1D(n=12, length=1.0)
    cfg = SolverConfig(law=bump_law(), lam=0.1, T=1.0)
    rho = np.ones((2, 12))
    m = np.full((2, 12), 0.1)
    m[1, 5] = np.nan
    nan_state = FluidState(rho=rho, m=m, t=np.zeros(2))
    dt = np.array([1e-3, 1e-3])
    for kwargs in ({}, {"rows": np.array([3, 7])}):
        want = _step_outcome(_reference_step, nan_state, cfg, grid, dt, **kwargs)
        assert want[0] is SolverFailure
        _assert_same_outcome(_step_outcome(step, nan_state, cfg, grid, dt, **kwargs),
                             want)
    state = pulse_flow_init(1.0).sample(grid)
    dt_max = admissible_dt(state, cfg, grid)
    want = _step_outcome(_reference_step, state, cfg, grid, 2.0 * dt_max)
    assert want[0] is StepRejected
    for held in (None, step_start(state, cfg, grid)):
        _assert_same_outcome(
            _step_outcome(step, state, cfg, grid, 2.0 * dt_max, start=held), want)


def test_retried_trial_equals_a_fresh_step():
    # a retry reuses the step_start its rejected trial used; the trial may
    # not change it
    grid = Grid1D(n=40, length=1.0)
    cfg = SolverConfig(law=bump_law(), lam=0.3, T=1.0)
    rng = np.random.default_rng(9)
    rho = rng.uniform(0.5, 2.0, size=(3, 40))
    m = rho * rng.uniform(-0.5, 0.5, size=(3, 40))
    state = FluidState(rho=rho, m=m, t=np.zeros(3))
    start = step_start(state, cfg, grid)
    dt = 0.9 * start.dt_max
    step(state, cfg, grid, dt, start=start)
    retried = step(state, cfg, grid, 0.5 * dt, start=start)
    _assert_same_outcome(retried, step(state, cfg, grid, 0.5 * dt))
    _assert_same_outcome(retried, _reference_step(state, cfg, grid, 0.5 * dt))


def test_run_snaps_t_to_the_sample_time(monkeypatch):
    # The first trial, at a CFL bound above half the first sample interval h,
    # breaks the budget and is halved; under the loose budget the halved
    # trial is accepted.  The next step starts below h/2 and is clipped to h;
    # t + (h - t) then misses h by an ulp (the difference is not exact below
    # h/2).  Without the snap to h, every later step clipped to a sample time
    # is an ulp off the oracle's.  At the default budget the halved trial is
    # rejected too, no step is clipped to h, and the case is lost.
    grid = Grid1D(n=16, length=1.0)
    monkeypatch.setattr(mvflow.solver, "STEP_SLACK_TOL", 5e-4)
    cfg = SolverConfig(law=gamma2_law(), lam=0.1, T=0.0466, n_samples=4)
    state = pulse_flow_init(1.0).sample(grid)
    h = cfg.T / 3.0
    t1 = 0.5 * admissible_dt(state, cfg, grid)
    assert t1 < 0.5 * h < 1.5 * t1 and t1 + (h - t1) != h
    traj = run(cfg, state, grid)
    log = []
    rho, u, energy, cum_dis, min_slack, n_steps, n_trials = \
        _scalar_run_oracle(cfg, state, grid, log=log)
    assert [(source, ok) for _, ok, source in log[:3]] == \
        [("cfl", False), ("halved", True), ("clipped", True)]
    assert traj.n_trials > traj.n_steps
    assert np.array_equal(traj.rho, rho)
    assert np.array_equal(traj.u, u)
    assert np.array_equal(traj.energy, energy)
    assert np.array_equal(traj.cum_dissipation, cum_dis)
    assert (traj.min_step_slack, traj.n_steps, traj.n_trials) == \
        (min_slack, n_steps, n_trials)


def test_plan_grows_dt_only_below_the_cfl_bound():
    # a fresh dt is set by the growth cap, and so tried with its halved dt as
    # a second rung, only when 1.5 dt_prev lies strictly below the CFL bound;
    # at equality the bound sets it.  A fresh step is never a halved one.
    ctl = mvflow.solver._RowControl(e_prev=1.0, dt_prev=2.0, halved=True)
    assert ctl.plan(3.0, 10.0) is False
    assert (ctl.dt, ctl.clipped, ctl.halved) == (3.0, False, False)
    assert ctl.plan(3.5, 10.0) is True and ctl.dt == 3.0
    assert ctl.plan(3.5, 2.5) is False  # the sample time cut the grown dt
    assert (ctl.dt, ctl.clipped) == (2.5, True)
