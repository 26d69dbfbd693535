"""First-order finite-volume solver for 1D viscous compressible flow.

Conservative form on [0, L] with no-slip walls:

    d/dt rho + d/dx (rho u)                                   = 0
    d/dt (rho u) + d/dx (rho u^2) + d/dx (p(rho) + delta rho^Gamma)
                                                               = d/dx (lam du/dx)

Scheme: donor-cell upwind mass and convective momentum fluxes, central face
values for the total pressure, and an implicit (backward Euler) viscous
solve via a tridiagonal system with mirrored ghost velocities at the walls.
Density ghosts are zero-gradient.  The per-step energy budget

    E(t+dt) + dt * sum dx lam (du/dx)^2 <= E(t) + slack

is tracked during a run; for smooth data the slack stays at rounding scale
because upwinding only adds dissipation.

States stack: K states on one grid are the rows of (K, n) arrays, each
with its own time, time step and config; the configs differ at most in
delta, a float or a (K, 1) column in the kernels, which act row by row.
The K viscous systems form one block-diagonal tridiagonal solve, and
run_stack drives all rows through one loop, with run as its one-row case.
Each row of a stacked run equals the run of that state alone, bit for bit.
A non-finite density or momentum, or a non-positive viscous diagonal, stops
a run with a SolverFailure naming its row and cell.

A step splits in two: step_start returns a StepStart, which holds what
depends on the state alone: the CFL bound dt_max and the face differences
dF, dG and dPi of the mass flux, the convective momentum flux and the
central total pressure.  step does per trial dt only the rest.  run_stack
takes a row's step_start once per step and reuses it when the energy budget
rejects a trial and the halved dt is retried.

The donor-cell update needs no positivity limiter.  A cell's outflow is at
most rho_i max|u| (each face velocity is the mean of two cell velocities),
so at any dt step admits, up to (1 + 1e-12) cfl dx / max(|u| + c),
dt * outflow < rho_i dx as long as 1e-12 max|u| < c (c >= sqrt(dx)), and
the new density stays nonnegative.
"""
from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import math
import os
import sys
import time as _time
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    DomainError,
    ReferenceInvalidError,
    SolverFailure,
    StepRejected,
)
from .pressure import PressureLaw


def _load_flapack():
    """scipy's compiled LAPACK wrappers, without importing scipy.linalg.

    ``import scipy.linalg`` costs about 0.3 s and 20 MB, mostly for its
    array-API layer; the solver needs one routine.  The extension module is
    loaded from its file and registered under its own name, so a later
    ``import scipy.linalg`` reuses this module and its routines.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")  # finds the package, runs nothing
    if spec is None:
        raise ImportError("mvflow needs scipy's LAPACK extension; scipy is not installed")
    base = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension is missing: no file {paths[0]}")
    ext = importlib.util.spec_from_file_location(
        name, path, loader=importlib.machinery.ExtensionFileLoader(name, path))
    module = importlib.util.module_from_spec(ext)
    ext.loader.exec_module(module)
    sys.modules[name] = module
    return module


dgtsv = _load_flapack().dgtsv


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [0, length] with n >= 4 cells."""

    n: int
    length: float = 1.0

    def __post_init__(self):
        if self.n < 4:
            raise DomainError(f"grid needs at least 4 cells, got {self.n}")
        if not (self.length > 0.0):
            raise DomainError(f"grid length must be positive, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dx


@dataclass(frozen=True)
class SolverConfig:
    law: PressureLaw
    lam: float                 # bulk viscosity coefficient, > 0
    T: float
    delta: float = 0.0         # strength of the extra pressure delta * rho^Gamma
    Gamma: float = 2.0
    cfl: float = 0.4
    rho_floor: float = 1e-10
    n_samples: int = 33
    max_wall_s: float | None = None
    step_slack_tol: float = 1e-10  # per-step energy budget, relative to E(0) scale

    def __post_init__(self):
        for name in ("lam", "T", "delta", "Gamma", "step_slack_tol", "rho_floor"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lam", "T", "rho_floor"):
            if not (getattr(self, name) > 0.0):
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if self.delta < 0.0:
            raise DomainError(f"delta must be nonnegative, got {self.delta}")
        if not (self.Gamma > 1.0):
            raise DomainError(f"Gamma must exceed 1, got {self.Gamma}")
        if self.delta > 0.0 and self.Gamma < 2.0:
            raise DomainError("delta > 0 requires Gamma >= 2")
        if not (0.0 < self.cfl <= 1.0):
            raise DomainError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.n_samples < 2:
            raise DomainError("need at least 2 sample times")
        if not (self.step_slack_tol >= 0.0):
            raise DomainError("step_slack_tol must be nonnegative")


@dataclass(frozen=True)
class FluidState:
    """Cell averages of density and momentum at time t.

    A stacked state holds K states on one grid as rows: rho and m are (K, n)
    arrays and t is a (K,) array.
    """

    rho: np.ndarray
    m: np.ndarray
    t: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.rho.shape != self.m.shape or self.rho.ndim not in (1, 2):
            raise DomainError("rho and m must be matching 1D or (K, n) arrays")


def _vacuum(rho: np.ndarray, rho_floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The mask of cells above the vacuum floor, and the floored density."""
    return rho > rho_floor, np.maximum(rho, rho_floor)


def velocity(state: FluidState, rho_floor: float) -> np.ndarray:
    """u = m / rho with u = 0 on near-vacuum cells."""
    solid, rho_f = _vacuum(state.rho, rho_floor)
    return np.where(solid, state.m / rho_f, 0.0)


def gradient_1d(u: np.ndarray, dx: float) -> np.ndarray:
    """Cell-centered du/dx along the last axis: central differences,
    one-sided at the walls."""
    g = np.empty_like(u)
    g[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    g[..., 0] = (u[..., 1] - u[..., 0]) / dx
    g[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return g


def _plus_delta(x: np.ndarray, delta, term) -> np.ndarray:
    """x + term(delta), delta a float or a stack's (K, 1) column; rows with
    delta = 0 keep x as it is (adding 0.0 would turn a -0.0 into 0.0)."""
    if isinstance(delta, np.ndarray):
        return np.where(delta > 0.0, x + term(delta), x)
    return x + term(delta) if delta > 0.0 else x


def total_pressure(cfg: SolverConfig, rho: np.ndarray) -> np.ndarray:
    return _plus_delta(cfg.law.p(rho), cfg.delta,
                       lambda d: d * np.power(rho, cfg.Gamma))


def sound_speed(cfg: SolverConfig, grid: Grid1D, rho: np.ndarray) -> np.ndarray:
    """sqrt of the total-pressure slope, floored by dx where the law dips."""
    slope = _plus_delta(cfg.law.dp(rho), cfg.delta,
                        lambda d: d * cfg.Gamma * np.power(rho, cfg.Gamma - 1.0))
    return np.sqrt(np.maximum(slope, grid.dx))


def _per_row(x: np.ndarray):
    """A float for a single state, the (K,) array for a stacked one."""
    return float(x) if x.ndim == 0 else x


def _first_cell(mask: np.ndarray, rows=None) -> str:
    """Where the first True entry of a (n,) or (K, n) mask sits.

    rows maps the rows of a stacked mask to the row numbers reported.
    """
    r, c = np.argwhere(np.atleast_2d(mask))[0]
    return f"row {r if rows is None else rows[r]}, cell {c}"


def _require_finite(what: str, arr: np.ndarray, rows=None) -> None:
    # a finite sum implies finite entries; an overflowing one is looked into
    if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
        raise SolverFailure(f"non-finite {what} at {_first_cell(~np.isfinite(arr), rows)}")


def admissible_dt(state: FluidState, cfg: SolverConfig, grid: Grid1D, u=None):
    """The CFL bound: a float, or a (K,) array for a stacked state.

    u is velocity(state, cfg.rho_floor) when the caller already holds it.
    """
    if u is None:
        u = velocity(state, cfg.rho_floor)
    c = sound_speed(cfg, grid, state.rho)
    return _per_row(cfg.cfl * grid.dx / (np.abs(u) + c).max(axis=-1))


@dataclass(frozen=True)
class StepStart:
    """The part of a step that depends on the state alone, not on dt.

    The differences span the n cells along the last axis.  A stacked state
    has a (K,) dt_max and (K, n) arrays.
    """

    dt_max: float | np.ndarray  # the CFL bound admissible_dt
    dF: np.ndarray              # F[i + 1/2] - F[i - 1/2], donor-cell mass flux F
    dG: np.ndarray              # the same for the convective momentum flux
    dPi: np.ndarray             # the same for the central total pressure

    def take(self, rows) -> StepStart:
        """The rows of a stacked state's start."""
        return StepStart(*(getattr(self, f.name)[rows] for f in fields(self)))

    def put(self, rows, part: StepStart) -> None:
        """Overwrite the rows of a stacked state's start with part's."""
        for f in fields(self):
            getattr(self, f.name)[rows] = getattr(part, f.name)


def step_start(state: FluidState, cfg: SolverConfig, grid: Grid1D,
               u=None) -> StepStart:
    """The state-only half of step, shared by every trial dt from state.

    u is velocity(state, cfg.rho_floor) when the caller already holds it.
    """
    rho = state.rho
    if u is None:
        u = velocity(state, cfg.rho_floor)
    faces = rho.shape[:-1] + (grid.n + 1,)

    # interior face velocities; wall faces carry u = 0 (no-slip)
    u_face = 0.5 * (u[..., :-1] + u[..., 1:])

    # donor-cell mass flux; the convective momentum flux rides it with the
    # donor velocity
    donor_hi = u_face > 0.0
    F = np.zeros(faces)
    F[..., 1:-1] = np.where(donor_hi, rho[..., :-1], rho[..., 1:]) * u_face
    G = np.zeros(faces)
    G[..., 1:-1] = F[..., 1:-1] * np.where(donor_hi, u[..., :-1], u[..., 1:])

    # central total pressure at faces; zero-gradient ghosts at the walls
    pi = total_pressure(cfg, rho)
    pi_face = np.empty(faces)
    pi_face[..., 1:-1] = 0.5 * (pi[..., :-1] + pi[..., 1:])
    pi_face[..., 0] = pi[..., 0]
    pi_face[..., -1] = pi[..., -1]

    return StepStart(dt_max=admissible_dt(state, cfg, grid, u=u),
                     dF=F[..., 1:] - F[..., :-1], dG=G[..., 1:] - G[..., :-1],
                     dPi=pi_face[..., 1:] - pi_face[..., :-1])


def step(state: FluidState, cfg: SolverConfig, grid: Grid1D, dt,
         rows=None, start=None) -> FluidState:
    """One explicit-transport / implicit-viscosity step of size dt.

    A stacked state takes a (K,) dt and advances row k by dt[k]; rows names
    the members in error messages (default: the row numbers).  start is
    step_start(state, cfg, grid) when the caller already holds it; its CFL
    bound caps dt, and a trial then does only the work that depends on dt.
    """
    if start is None:
        start = step_start(state, cfg, grid)
    elif not isinstance(start, StepStart):
        raise TypeError(f"start must be None or a StepStart, got {type(start).__name__}")
    over = np.greater(dt, start.dt_max * (1.0 + 1e-12))
    if over.any():
        i = int(np.argmax(over))
        dt_b, dt_max_b = np.broadcast_arrays(dt, start.dt_max)
        raise StepRejected(float(dt_b.flat[i]), float(dt_max_b.flat[i]))

    dx = grid.dx
    rho, m = state.rho, state.m
    dtc = np.asarray(dt, dtype=float)[..., None]  # per-row dt as a column
    dt_dx = dtc / dx

    rho_new = rho - dt_dx * start.dF
    _require_finite("density", rho_new, rows)
    lowest = rho_new.min()
    if lowest < 0.0:
        negative = rho_new < -1e-13 * np.maximum(1.0, rho.max(axis=-1, keepdims=True))
        if negative.any():
            raise SolverFailure(f"negative density {float(lowest):.3e} "
                                f"at {_first_cell(negative, rows)}")
    if not lowest > 0.0:
        rho_new = np.maximum(rho_new, 0.0)

    m_star = m - dt_dx * start.dG - dt_dx * start.dPi
    _require_finite("momentum", m_star, rows)

    # implicit viscosity: (rho_new - lam dt Dxx) u_new = m_star with mirrored
    # ghost velocities enforcing u = 0 at the wall faces.  The rows' systems
    # are the blocks of one tridiagonal system, solved by LAPACK dgtsv from
    # scipy's compiled _flapack (the routine scipy.linalg.solve_banded calls
    # for one band each side, loaded without scipy.linalg; see
    # _load_flapack); the off-diagonal entries between one row's last cell
    # and the next row's first are zero.
    kappa = cfg.lam * dtc / dx**2
    diag = rho_new + 2.0 * kappa
    diag[..., ::grid.n - 1] += kappa  # the first and last cell of each row
    off = np.empty(rho.shape)
    off[...] = -kappa
    off[..., -1] = 0.0
    off = off.reshape(-1)[:-1]
    *_, u_new, info = dgtsv(off, diag.reshape(-1), off.copy(), m_star.reshape(-1),
                            True, True, True, True)
    if info != 0:
        # gtsv overwrote diag; it was not positive where rho_new + kappa is not
        raise SolverFailure("viscous solve failed: non-positive diagonal at "
                            f"{_first_cell(~(rho_new + kappa > 0.0), rows)} "
                            f"(LAPACK gtsv info {info})")
    u_new = np.where(rho_new > cfg.rho_floor, u_new.reshape(rho.shape), 0.0)

    return FluidState(rho=rho_new, m=rho_new * u_new, t=state.t + dt)


def _energy(cfg: SolverConfig, grid: Grid1D, rho: np.ndarray, m: np.ndarray,
            solid: np.ndarray, rho_f: np.ndarray, potential: np.ndarray):
    """Per row sum dx (m^2/(2 rho) + potential + delta rho^Gamma / (Gamma - 1))."""
    kin = np.where(solid, 0.5 * m**2 / rho_f, 0.0)
    e = _plus_delta(kin + potential, cfg.delta,
                    lambda d: d * np.power(rho, cfg.Gamma) / (cfg.Gamma - 1.0))
    return _per_row(e.sum(axis=-1) * grid.dx)


def total_energy(state: FluidState, cfg: SolverConfig, grid: Grid1D):
    """sum dx (m^2/(2 rho) + P(rho) + delta rho^Gamma / (Gamma - 1)).

    Kinetic energy of near-vacuum cells is taken as zero.  A stacked state
    gets one energy per row.
    """
    return _energy(cfg, grid, state.rho, state.m, *_vacuum(state.rho, cfg.rho_floor),
                   cfg.law.P(state.rho))


def energy_scale(state: FluidState, cfg: SolverConfig, grid: Grid1D):
    """Positive magnitude of the initial energy used to size slack budgets.

    Matches total_energy except the pressure potential enters in absolute
    value, so data dipping below the reference density still yields a
    positive scale.
    """
    e = _energy(cfg, grid, state.rho, state.m, *_vacuum(state.rho, cfg.rho_floor),
                np.abs(cfg.law.P(state.rho)))
    return _per_row(np.maximum(e, 1e-15))


def _dissipation(cfg: SolverConfig, grid: Grid1D, u: np.ndarray, dt):
    g = gradient_1d(u, grid.dx)
    return _per_row(dt * cfg.lam * (g * g).sum(axis=-1) * grid.dx)


def dissipation_increment(state: FluidState, cfg: SolverConfig, grid: Grid1D, dt):
    """dt * sum dx lam (du/dx)^2 with one-sided differences at the walls.

    A stacked state takes a (K,) dt and gets one increment per row.
    """
    return _dissipation(cfg, grid, velocity(state, cfg.rho_floor), dt)


def _budget_terms(state: FluidState, cfg: SolverConfig, grid: Grid1D, dt):
    """velocity, total_energy and dissipation_increment of a trial state,
    sharing its vacuum mask and floored density."""
    solid, rho_f = _vacuum(state.rho, cfg.rho_floor)
    u = np.where(solid, state.m / rho_f, 0.0)
    return (u, _energy(cfg, grid, state.rho, state.m, solid, rho_f,
                       cfg.law.P(state.rho)),
            _dissipation(cfg, grid, u, dt))


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of a run on its fixed sample-time grid."""

    grid: Grid1D
    cfg: SolverConfig
    times: np.ndarray            # (nt,), strictly increasing, times[0] = 0
    rho: np.ndarray              # (nt, n)
    u: np.ndarray                # (nt, n)
    energy: np.ndarray           # (nt,)
    cum_dissipation: np.ndarray  # (nt,), per-step accumulated
    min_step_slack: float
    n_steps: int
    complete: bool = True
    n_trials: int = 0            # trial steps, accepted plus rejected

    def state_at(self, k: int) -> FluidState:
        return FluidState(rho=self.rho[k].copy(), m=(self.rho[k] * self.u[k]),
                          t=float(self.times[k]))


def run(cfg: SolverConfig, init_state: FluidState, grid: Grid1D) -> Trajectory:
    """Advance init_state to T with adaptive steps: run_stack on one row."""
    return run_stack([cfg], [init_state], grid)[0]


def _with_delta(cfg: SolverConfig, delta) -> SolverConfig:
    """cfg holding a stack's (K, 1) column of per-row deltas, unchecked; only
    run_stack's kernels see such a copy."""
    out = copy.copy(cfg)
    object.__setattr__(out, "delta", delta)
    return out


@dataclass(slots=True)
class _RowControl:
    """One row's step controller state in run_stack."""

    e_prev: float                # energy after the last accepted step
    t: float = 0.0
    k: int = 1                   # index of the next sample time
    dt: float = 0.0              # current trial dt
    dt_prev: float | None = None
    clipped: bool = False        # dt was cut to reach the sample time
    halved: bool = False         # dt was halved after a rejected trial
    retry: bool = False          # the last trial was rejected
    dis_acc: float = 0.0
    min_slack: float = np.inf
    n_steps: int = 0
    n_trials: int = 0


def run_stack(cfgs: Sequence[SolverConfig], states: Sequence[FluidState],
              grid: Grid1D) -> list[Trajectory]:
    """Advance K initial states to T as one (K, n) stack, sampling uniformly.

    Row k runs under cfgs[k]; the configs may differ only in delta, which
    the kernels take as a float if all rows share it, else as a (K, 1)
    column.  Each row keeps its own t and dt.  dt is capped by the CFL
    bound and additionally controlled so that every accepted step satisfies
    the energy budget

        E(t) - E(t+dt) - dt sum dx lam (du/dx)^2 >= -step_slack_tol * E_scale:

    a trial step violating it is halved and retried (the explicit pressure
    force injects kinetic energy at O(dt^2), so halving always converges),
    and dt regrows by 1.5x after accepted steps.  Every trial advances the
    rows still short of their next sample time together; a row records its
    sample when it reaches that time.  The controller runs row by row on
    Python floats, so row k of the result, whose cfg is cfgs[k], is bit for
    bit the trajectory run(cfgs[k], states[k], grid) gives.

    A row's step_start is taken once when it starts a step and reused by its
    retries, and each state's velocity once: the accepted trial's carries
    into the next step_start and into the recorded sample.
    """
    n = grid.n
    rho = np.array([s.rho for s in states], dtype=float)
    m = np.array([s.m for s in states], dtype=float)
    if rho.ndim != 2 or rho.shape[1] != n or m.shape != rho.shape:
        raise DomainError(f"run_stack needs one or more 1D states of {n} cells")
    cfg = cfgs[0]
    if len(cfgs) != len(states) or \
            any(replace(c, delta=cfg.delta) != cfg for c in cfgs):
        raise DomainError("run_stack needs one config per state, differing only in delta")
    deltas = np.array([[c.delta] for c in cfgs])
    mixed = bool((deltas != cfg.delta).any())
    if mixed:
        cfg = _with_delta(cfg, deltas)
    _require_finite("initial density", rho)
    _require_finite("initial momentum", m)
    times = np.linspace(0.0, cfg.T, cfg.n_samples)
    nt = times.size
    K = rho.shape[0]
    rho_out = np.empty((K, nt, n))
    u_out = np.empty((K, nt, n))
    energy = np.empty((K, nt))
    cum_dis = np.empty((K, nt))

    state = FluidState(rho=rho, m=m, t=np.zeros(K))
    u = velocity(state, cfg.rho_floor)
    rho_out[:, 0] = rho
    u_out[:, 0] = u
    energy[:, 0] = total_energy(state, cfg, grid)
    cum_dis[:, 0] = 0.0

    slack_budget = (cfg.step_slack_tol * energy_scale(state, cfg, grid)).tolist()
    tol = 1e-12 * cfg.T  # sample-time tolerance, also the dt floor
    t_sample = times.tolist()
    ctl = [_RowControl(e_prev=e) for e in energy[:, 0].tolist()]
    live = list(range(K))  # rows with samples left to record
    start = None  # the step_start of every row's current state
    started = _time.monotonic()
    complete = True

    while live:
        arrived = [r for r in live if not ctl[r].t < t_sample[ctl[r].k] - tol]
        if arrived:
            for r in arrived:
                c = ctl[r]
                rho_out[r, c.k] = rho[r]
                u_out[r, c.k] = u[r]
                energy[r, c.k] = c.e_prev
                cum_dis[r, c.k] = c.dis_acc
                c.k += 1
            live = [r for r in live if ctl[r].k < nt]
            continue

        # a full slice while every row is live, so no copies are made
        sel = slice(None) if len(live) == K else live
        cur = FluidState(rho=rho[sel], m=m[sel], t=np.array([ctl[r].t for r in live]))

        # rows that are not retrying a rejected trial start a new step
        fresh = [r for r in live if not ctl[r].retry]
        if fresh:
            if cfg.max_wall_s is not None and \
                    _time.monotonic() - started > cfg.max_wall_s:
                complete = False
                break
            if len(fresh) == K:
                start = part = step_start(state, cfg, grid, u=u)
            else:
                part = step_start(FluidState(rho=rho[fresh], m=m[fresh]),
                                  _with_delta(cfg, deltas[fresh]) if mixed else cfg,
                                  grid, u=u[fresh])
                start.put(fresh, part)
            for r, cand in zip(fresh, part.dt_max.tolist()):
                c = ctl[r]
                if c.dt_prev is not None:
                    cand = min(cand, 1.5 * c.dt_prev)
                c.dt = min(cand, t_sample[c.k] - c.t)
                c.clipped = c.dt < cand
                c.halved = False

        # a rejected row retries from the state its step_start was taken for
        d = np.array([ctl[r].dt for r in live])
        trial = step(cur, cfg, grid, d, rows=live,
                     start=start if len(live) == K else start.take(live))
        part_cfg = _with_delta(cfg, deltas[live]) if mixed and len(live) < K else cfg
        u_trial, e_new, dI = _budget_terms(trial, part_cfg, grid, d)
        e_new, dI, t_new = e_new.tolist(), dI.tolist(), trial.t.tolist()

        accepted = []
        for j, r in enumerate(live):
            c = ctl[r]
            c.n_trials += 1
            slack = c.e_prev - e_new[j] - dI[j]
            if not slack >= -slack_budget[r]:
                if c.dt <= tol:
                    raise SolverFailure(f"energy budget unattainable in row {r}: "
                                        f"slack {slack:.3e} at dt {c.dt:.3e}")
                c.dt = max(0.5 * c.dt, tol)
                c.halved = c.retry = True
                continue
            accepted.append(j)
            if c.halved or not c.clipped:
                c.dt_prev = c.dt
            target = t_sample[c.k]
            c.t = target if abs(t_new[j] - target) < tol else t_new[j]
            c.min_slack = min(c.min_slack, slack)
            c.dis_acc += dI[j]
            c.e_prev = e_new[j]
            c.n_steps += 1
            c.retry = False
        if len(accepted) == len(live):
            rho[sel], m[sel], u[sel] = trial.rho, trial.m, u_trial
        elif accepted:
            rows = [live[j] for j in accepted]
            rho[rows], m[rows], u[rows] = \
                trial.rho[accepted], trial.m[accepted], u_trial[accepted]

    out = []
    for r, c in enumerate(ctl):
        last = c.k  # samples 0..last-1 were recorded
        out.append(Trajectory(
            grid=grid, cfg=cfgs[r], times=times[:last].copy(), rho=rho_out[r, :last],
            u=u_out[r, :last], energy=energy[r, :last],
            cum_dissipation=cum_dis[r, :last],
            min_step_slack=float(c.min_slack) if c.n_steps else 0.0,
            n_steps=c.n_steps, complete=complete, n_trials=c.n_trials))
    return out


# -- initial data --------------------------------------------------------------

@dataclass(frozen=True)
class InitialData:
    """Smooth initial profiles rho0(x), u0(x) sampled onto any grid."""

    name: str
    rho_fn: object
    u_fn: object
    params: dict = field(default_factory=dict)

    def sample(self, grid: Grid1D) -> FluidState:
        x = grid.centers
        rho = np.asarray(self.rho_fn(x), dtype=float)
        u = np.asarray(self.u_fn(x), dtype=float)
        if np.any(rho < 0.0):
            raise DomainError("initial density must be nonnegative")
        return FluidState(rho=rho, m=rho * u, t=0.0)


def constant_init(rho0: float = 1.0) -> InitialData:
    return InitialData(name="constant",
                       rho_fn=lambda x: np.full_like(np.asarray(x, dtype=float), rho0),
                       u_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                       params={"rho0": rho0})


def smooth_pulse_init(length: float, base: float = 1.0, amp: float = 0.1,
                      width_frac: float = 0.1, center_frac: float = 0.5) -> InitialData:
    """Gaussian density pulse at rest."""
    x0 = center_frac * length
    w = width_frac * length

    def rho_fn(x):
        x = np.asarray(x, dtype=float)
        return base + amp * np.exp(-0.5 * ((x - x0) / w) ** 2)

    return InitialData(name="smooth-pulse", rho_fn=rho_fn,
                       u_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                       params={"base": base, "amp": amp, "width_frac": width_frac,
                               "center_frac": center_frac, "length": length})


def pulse_flow_init(length: float, base: float = 1.0, amp: float = 0.1,
                    u_amp: float = 0.2, width_frac: float = 0.1,
                    center_frac: float = 0.5) -> InitialData:
    """Gaussian density pulse riding a half-sine velocity (zero at walls)."""
    pulse = smooth_pulse_init(length, base, amp, width_frac, center_frac)

    def u_fn(x):
        x = np.asarray(x, dtype=float)
        return u_amp * np.sin(np.pi * x / length)

    params = dict(pulse.params, u_amp=u_amp)
    return InitialData(name="pulse-flow", rho_fn=pulse.rho_fn, u_fn=u_fn, params=params)


# Fourier modes in the density noise of perturb_density.
NOISE_MODES = 3


def perturb_density(init: InitialData, length: float, eps: float,
                    rng: np.random.Generator) -> InitialData:
    """Multiply rho0 by (1 + eps * xi) with smooth unit noise of the lowest
    NOISE_MODES cosine and sine modes."""
    coeffs = rng.normal(size=(NOISE_MODES, 2)) / (1.0 + np.arange(NOISE_MODES))[:, None]

    def xi(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for j in range(NOISE_MODES):
            k = (j + 1) * np.pi / length
            out += coeffs[j, 0] * np.cos(k * x) + coeffs[j, 1] * np.sin(k * x)
        return out

    # normalize the profile's sup on a dense probe grid so eps is the amplitude
    probe = np.linspace(0.0, length, 2049)
    scale = float(np.max(np.abs(xi(probe))))
    if scale == 0.0:
        scale = 1.0

    def rho_fn(x):
        return np.asarray(init.rho_fn(x), dtype=float) * (1.0 + eps * xi(x) / scale)

    params = dict(init.params, eps=eps)
    return InitialData(name=f"{init.name}+noise", rho_fn=rho_fn, u_fn=init.u_fn,
                       params=params)


# -- refined reference ---------------------------------------------------------

@dataclass(frozen=True)
class StrongSolutionRef:
    """Smooth comparison solution (r, U) with derivative fields and norms.

    Fields live on the coarse sample grid (times x cells); derivative fields
    are finite differences computed on the fine grid before restriction.
    norms holds the sup-norms the stability estimates consume.
    """

    times: np.ndarray
    x: np.ndarray
    dx: float
    r: np.ndarray
    U: np.ndarray
    dr_dx: np.ndarray
    dU_dx: np.ndarray
    dU_dt: np.ndarray
    d2U_dx2: np.ndarray
    norms: dict
    refinement: int
    min_r: float


def _restrict(field2d: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return field2d.copy()
    nt, nf = field2d.shape
    return field2d.reshape(nt, nf // factor, factor).mean(axis=2)


def _laplacian_no_slip(u: np.ndarray, dx: float) -> np.ndarray:
    """Second difference with mirrored wall ghosts, matching the viscous solve."""
    out = np.empty_like(u)
    out[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dx**2
    out[:, 0] = (u[:, 1] - 3.0 * u[:, 0]) / dx**2
    out[:, -1] = (u[:, -2] - 3.0 * u[:, -1]) / dx**2
    return out


def make_reference(cfg: SolverConfig, init: InitialData, grid: Grid1D,
                   factor: int = 8) -> StrongSolutionRef:
    """Run on a factor-refined grid and restrict to the coarse sampling.

    factor = 1 reuses the coarse resolution: the deterministic unperturbed
    run itself serves as the comparison solution.  The checks are those of
    reference_from_run.
    """
    if factor < 1:
        raise DomainError(f"refinement factor must be >= 1, got {factor}")
    fine = Grid1D(n=factor * grid.n, length=grid.length)
    return reference_from_run(run(cfg, init.sample(fine), fine), grid)


def reference_from_run(traj: Trajectory, grid: Grid1D) -> StrongSolutionRef:
    """Restrict a finished run on a refinement of grid to grid's cells.

    Derivative fields are differenced on the run's own grid before
    restriction.  The result is rejected if the run stopped early or
    approaches vacuum (min rho < 10 * rho_floor).
    """
    fine = traj.grid
    factor, rest = divmod(fine.n, grid.n)
    if factor < 1 or rest or fine.length != grid.length:
        raise DomainError(f"a run on {fine.n} cells does not refine "
                          f"a grid of {grid.n} cells")
    if not traj.complete:
        raise ReferenceInvalidError("reference run exhausted its wall-clock budget")

    min_r = float(np.min(traj.rho))
    if min_r < 10.0 * traj.cfg.rho_floor:
        raise ReferenceInvalidError(
            f"reference reached near-vacuum density {min_r:.3e}")

    dr_f = gradient_1d(traj.rho, fine.dx)
    dU_f = gradient_1d(traj.u, fine.dx)
    d2U_f = _laplacian_no_slip(traj.u, fine.dx)

    r = _restrict(traj.rho, factor)
    U = _restrict(traj.u, factor)
    dr_dx = _restrict(dr_f, factor)
    dU_dx = _restrict(dU_f, factor)
    d2U_dx2 = _restrict(d2U_f, factor)
    dU_dt = np.gradient(U, traj.times, axis=0)

    norms = {
        "U_sup": float(np.max(np.abs(U))),
        "dU_dx_sup": float(np.max(np.abs(dU_dx))),
        "dU_dt_sup": float(np.max(np.abs(dU_dt))),
        "U_C1": float(np.max(np.abs(U)) + np.max(np.abs(dU_dx)) + np.max(np.abs(dU_dt))),
        "r_sup": float(np.max(r)),
        "r_inf": float(np.min(r)),
        "dr_dx_sup": float(np.max(np.abs(dr_dx))),
        "inv_r_sup": float(1.0 / np.min(r)),
    }
    return StrongSolutionRef(times=traj.times.copy(), x=grid.centers, dx=grid.dx,
                             r=r, U=U, dr_dx=dr_dx, dU_dx=dU_dx, dU_dt=dU_dt,
                             d2U_dx2=d2U_dx2, norms=norms, refinement=factor,
                             min_r=min_r)
