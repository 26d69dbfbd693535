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

States stack: run_stack drives K states through one loop, each on its own
grid and with its own time, time step and config (the configs differ at
most in delta), with run as its one-row case; each row equals the run of
that state alone, bit for bit.  Rows on one grid are the rows of (K, n)
arrays.  Rows of different n lie end to end in flat (1, N) arrays (RaggedRows):
flat indices of each row's wall cells and of the cells where two rows meet,
which the layout fixes once per count of array rows, do the fix-ups that
strides do for (K, n) rows, and each row's dt/dx and lam dt/dx^2 are spread
over its own cells, so the kernels serve both through the same code.  The
kernels take delta as an argument: cfg.delta when the rows share it, else
the rows' deltas spread over their cells.  A row's energy and dissipation
are np.add.reduce over its own contiguous cells, as the row alone is summed
(rows of one n together as a (k, n) view; never reduceat, which sums
sequentially); maxima and minima hold under any grouping.  Each row's
samples are written once, into (n_samples, n) density and velocity arrays
that become its Trajectory's fields.  mvflow convergence runs its levels
and fine sizes as one such stack, and restrict_run restricts a fine row's
density and velocity to a level's cells.  A
non-finite density or momentum, a negative density, or a non-positive
viscous diagonal, stops a run with a SolverFailure naming the row and
that row's own cell.

A step splits in two.  step_start takes what depends on the state alone:
each row's CFL bound, from admissible_dt, and the face differences of the
mass flux, the convective momentum flux and the central total pressure.
step, an array-level kernel, does per trial dt only the rest and returns,
from the same arrays, the budget terms run_stack reads: each trial's
velocity, energy and dissipation.  A stack trial is one step call, and
run_stack reuses the start while every row retries.  step takes R trial
dts per row, Python floats rung by rung, broadcast against the state and
start and solved as one tridiagonal system of R * K blocks.  When a row's
dt is set by the 1.5x growth cap, a trial that mostly fails the budget
(1407 of the 1437 trials after a first-try accept on budget-solve, seed
503), run_stack tries the halved dt as rung 1 of the same call and reads it
only if rung 0 is rejected: the trials and results are those of one trial
per call, in fewer calls.  A dt set by the CFL bound or a sample time keeps
one rung; a second made the never-rejecting tabulated-law benchmark 11-17%
slower.

A trial's cost is numpy call overhead on small arrays and the Python
around it, not arithmetic, so the kernels make few calls: the three face
quantities share one buffer and one difference, dt/dx scales all three in
one multiply, the trial buffer is reshaped once, uniform rows' wall
diagonal is updated in place, the energy density and the squared gradient
share one reduction, and run_stack binds its state to views of the
accepted trial rows.  What no trial changes is fixed once: run_stack sets
per layout each row's controller, budget and cells and each rung's trial
rows (the rows that accept are the next fresh rows), the kernels add delta
terms only if a delta is set, and step scales uniform rows by their one
dx.  A power law skips the operations that change no bit (see PowerLawH),
and step skips the vacuum masks without a near-vacuum cell.  step,
admissible_dt (once per step_start), total_energy and PressureLaw.P stay
looked up at call time, where perfbench's tracer counts them.

The donor-cell update needs no positivity limiter.  A cell's outflow is at
most rho_i max|u| (each face velocity is the mean of two cell velocities),
so at any dt step admits, up to (1 + 1e-12) cfl dx / max(|u| + c),
dt * outflow < rho_i dx as long as 1e-12 max|u| < c (c >= sqrt(dx)), and
the new density stays nonnegative.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ._rows import RaggedRows, Rows, UniformRows
from .errors import DomainError, ReferenceInvalidError, SolverFailure, StepRejected
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

    @functools.cached_property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dx

    @functools.cached_property
    def _rows(self) -> UniformRows:
        """The kernels' view of rows on this grid (see Rows)."""
        return UniformRows(self.n, self.dx)


# Cells at or below this density are near-vacuum: their velocity and kinetic
# energy are taken as 0.
RHO_FLOOR = 1e-10
# The per-step energy budget, relative to the E(0) scale (see run_stack).
STEP_SLACK_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    law: PressureLaw
    lam: float                 # bulk viscosity coefficient, > 0
    T: float
    delta: float = 0.0         # strength of the extra pressure delta * rho^Gamma
    Gamma: float = 2.0
    cfl: float = 0.4
    n_samples: int = 33

    def __post_init__(self):
        for name in ("lam", "T", "delta", "Gamma"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lam", "T"):
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


@dataclass(frozen=True)
class FluidState:
    """Cell averages of density and momentum at time t.

    A stacked state holds K states as rows: rho and m are (K, n) arrays for
    states on one grid, (1, N) arrays for states of different n laid end to
    end (see mvflow._rows), and t is a (K,) array.
    """

    rho: np.ndarray
    m: np.ndarray
    t: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.rho.shape != self.m.shape or self.rho.ndim not in (1, 2):
            raise DomainError("rho and m must be matching 1D or (K, n) arrays")


def _vacuum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of cells above the vacuum floor, and the floored density."""
    return rho > RHO_FLOOR, np.maximum(rho, RHO_FLOOR)


def velocity(state: FluidState) -> np.ndarray:
    """u = m / rho with u = 0 on near-vacuum cells."""
    solid, rho_f = _vacuum(state.rho)
    return np.where(solid, state.m / rho_f, 0.0)


def _cells(grid) -> Rows:
    """The rows a kernel's grid argument stands for."""
    return grid if isinstance(grid, Rows) else grid._rows


def _layout(grids: Sequence[Grid1D]) -> Rows:
    """The rows of a stack with one grid per row: uniform when they share it."""
    return grids[0]._rows if all(g == grids[0] for g in grids) else RaggedRows(grids)


def gradient_1d(u: np.ndarray, dx: float) -> np.ndarray:
    """Cell-centered du/dx along the last axis of n >= 3 cells: central
    differences, one-sided at the walls."""
    return UniformRows(u.shape[-1], dx).gradient(u)


def _plus_delta(x: np.ndarray, delta, term) -> np.ndarray:
    """x, a fresh array, plus term(delta) in place; delta is a float or a (K, 1)
    column, and rows with delta = 0 keep x (adding 0.0 would turn -0.0 into 0.0)."""
    if isinstance(delta, np.ndarray) or delta > 0.0:
        x = np.add(x, term(delta), out=np.asarray(x), where=delta > 0.0)
    return x


def total_pressure(cfg: SolverConfig, rho: np.ndarray, p: np.ndarray, delta) -> np.ndarray:
    """p + delta rho^Gamma; p is cfg.law.p(rho), a fresh array the delta term
    is added to."""
    return _plus_delta(p, delta, lambda d: d * np.power(rho, cfg.Gamma))


def _slope(cfg: SolverConfig, rho: np.ndarray, dp: np.ndarray, delta) -> np.ndarray:
    """The total-pressure slope dp + delta Gamma rho^(Gamma - 1); dp is
    cfg.law.dp(rho), a fresh array the delta term is added to."""
    return _plus_delta(dp, delta, lambda d: d * cfg.Gamma * np.power(rho, cfg.Gamma - 1.0))


def _per_row(x: np.ndarray):
    """A float for a single state, the (K,) array for a stacked one."""
    return float(x) if x.ndim == 0 else x


def _first_cell(mask: np.ndarray, cells: Rows, rows=None) -> str:
    """Where the first True entry of a (n,), (M, C) or (R, M, C) mask sits,
    as a row and that row's own cell (cells maps the last axis to rows); rows
    maps the rows of a stacked mask to the row numbers reported."""
    *_, r, c = np.argwhere(np.atleast_2d(mask))[0]  # a rung index comes first
    r, c = cells.locate(r, c)
    return f"row {r if rows is None else rows[r]}, cell {c}"


def _require_finite(what: str, arr: np.ndarray, cells: Rows, rows=None) -> None:
    # a finite sum implies finite entries; an overflowing one is looked into
    if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
        raise SolverFailure(f"non-finite {what} at {_first_cell(~np.isfinite(arr), cells, rows)}")


def admissible_dt(state: FluidState | np.ndarray, cfg: SolverConfig, grid: Grid1D,
                  u=None, slope=None):
    """The CFL bound: a float, or a (K,) array for a stacked state.

    The sound speed is the sqrt of the total-pressure slope, floored by dx
    where the law dips.  u is velocity(state) and slope is
    _slope(cfg, rho, cfg.law.dp(rho), delta) when the caller holds them
    (given both, state may be the density alone); else delta is cfg.delta.
    """
    rho = state if isinstance(state, np.ndarray) else state.rho
    if u is None:
        u = velocity(state)
    if slope is None:
        slope = _slope(cfg, rho, cfg.law.dp(rho), cfg.delta)
    cells = _cells(grid)
    c = np.sqrt(np.maximum(slope, cells.cell_dx))
    dt_max = cfg.cfl * cells.dx / cells.row_max(np.abs(u) + c)
    return float(dt_max) if dt_max.ndim == 0 else dt_max


def step_start(rho: np.ndarray, u: np.ndarray, cfg: SolverConfig, cells: Rows, delta):
    """The state-only half of step, shared by every trial dt from the rows
    of density rho and velocity u under delta (a float, or the rows' deltas
    spread over their cells): the CFL bound admissible_dt of each row, a
    list of floats, and d, the differences F[i + 1/2] - F[i - 1/2] over the
    cells of the donor-cell mass flux, the convective momentum flux and the
    central total pressure, in that order, as (3,) + rho.shape."""
    C = rho.shape[-1]
    # F, G and the total pressure at the C + 1 faces of each array row in one
    # buffer; a wall face carries F = G = 0 (no-slip) and its cell's pressure
    # (a zero-gradient ghost).  Ragged rows meet inside an array row, where
    # one face serves as both walls: it takes the right row's pressure, and
    # the left row's last cell is mended after the difference.
    faces = np.zeros((3,) + rho.shape[:-1] + (C + 1,))
    inner = faces[..., 1:-1]
    u_lo, u_hi = u[..., :-1], u[..., 1:]
    u_face = 0.5 * (u_lo + u_hi)
    # donor-cell mass flux; the momentum flux rides it with the donor velocity
    donor_hi = u_face > 0.0
    F = np.multiply(np.where(donor_hi, rho[..., :-1], rho[..., 1:]), u_face, out=inner[0])
    np.multiply(F, np.where(donor_hi, u_lo, u_hi), out=inner[1])
    # one law pass for the pressure and the CFL bound's slope; the delta
    # terms only where there are any
    pi, slope = cfg.law.p_and_dp(rho)
    if isinstance(delta, np.ndarray) or delta > 0.0:
        pi, slope = total_pressure(cfg, rho, pi, delta), _slope(cfg, rho, slope, delta)
    np.multiply(pi[..., :-1] + pi[..., 1:], 0.5, out=inner[2])
    faces[2, ..., ::C] = pi[..., ::C - 1]
    flat = faces.reshape(-1)
    if cells.joints is not None:  # the joints' faces by their flat indices
        plan, p_flat = cells.plan(pi.size // C), pi.reshape(-1)
        flat[plan.open_faces] = 0.0
        flat[plan.joint_faces] = p_flat[plan.joints]
    # one contiguous difference; the one across each array row's end is dropped
    diff = np.empty_like(flat)
    np.subtract(flat[1:], flat[:-1], out=diff[:-1])
    if cells.joints is not None:
        diff[plan.last_faces] = p_flat[plan.lasts] - flat[plan.last_faces]
    d = diff.reshape(faces.shape)[..., :C]
    return admissible_dt(rho, cfg, cells, u=u, slope=slope).tolist(), d


def step(rho: np.ndarray, m: np.ndarray, start, dts: list, cfg: SolverConfig,
         cells: Rows, delta, rows=None):
    """One explicit-transport / implicit-viscosity trial per dt, with the
    terms of its energy budget.

    rho and m hold L rows laid out by cells, and start is their step_start,
    whose CFL bound caps each dt.  dts lists R * L trial dts as Python
    floats, rung by rung: trial i = r * L + j advances row j by dts[i], and
    cells.at(i) finds it in the trials' (R L, n) arrays, or (R, N) ones for
    a ragged stack.  delta is step_start's; an array delta is repeated
    over the rungs.  rows names the rows in error messages (default: their
    numbers).  Returns the trials' density, momentum and velocity, and
    their total energies and dissipation increments as lists of floats:
    each bit for bit what velocity, total_energy and tests/helpers.py's
    dissipation_increment give of the trial.
    """
    dt_max, d = start
    L = len(dt_max)
    # no dt above the smallest bound is above its own: only then compare rows
    if max(dts) > min(dt_max) * (1.0 + 1e-12):
        for i, x in enumerate(dts):
            if x > dt_max[i % L] * (1.0 + 1e-12):
                raise StepRejected(x, dt_max[i % L])

    # dt/dx and lam dt/dx^2 of every trial in one array, spread over its
    # row's cells; dt/dx times the three face differences in one multiply,
    # the rungs broadcasting against the start; then the new density and the
    # momentum before viscosity take their place in the same buffer, which
    # is then taken as (3, R L, n), or (3, R, N), in one reshape
    # (uniform rows share one dx: their columns are (2, R, L, 1) unspread)
    lam, uniform = cfg.lam, cells.joints is None
    if uniform:
        dx = cells.dx
        dx2 = dx**2
        coef = np.array([x / dx for x in dts] + [lam * x / dx2 for x in dts]).reshape(2, -1, L, 1)
    else:
        dxs = cells.dx_list * (len(dts) // L)  # each trial's dx
        coef = cells.spread(np.array(
            [x / dx for x, dx in zip(dts, dxs)] + [lam * x / dx**2 for x, dx in zip(dts, dxs)]
        ).reshape(2, -1, L))
    new = coef[0] * d[:, None]
    rho_new, m_star, dpi = new[0], new[1], new[2]
    np.subtract(rho, rho_new, out=rho_new)
    np.subtract(m, m_star, out=m_star)
    np.subtract(m_star, dpi, out=m_star)
    # a finite sum implies finite entries; an overflowing one is looked into
    finite = math.isfinite(np.add.reduce(new[:2], axis=None))
    if not finite:
        _require_finite("density", rho_new, cells, rows)
    lowest = np.minimum.reduce(rho_new, axis=None)
    if lowest < 0.0:
        top = cells.spread(cells.row_max(rho))  # each row's highest density
        negative = rho_new < -1e-13 * np.maximum(1.0, top)
        if negative.any():
            raise SolverFailure(f"negative density {float(lowest):.3e} "
                                f"at {_first_cell(negative, cells, rows)}")
    if not lowest > 0.0:
        np.maximum(rho_new, 0.0, out=rho_new)
    if not finite:
        _require_finite("momentum", m_star, cells, rows)
    C = rho.shape[-1]
    flat = new.reshape(3, -1, C)
    rho_new, m_star, dpi = flat[0], flat[1], flat[2]

    # implicit viscosity: (rho_new - lam dt Dxx) u_new = m_star with mirrored
    # ghost velocities (u = 0 at the wall faces), one row per trial: the
    # uncoupled blocks of one tridiagonal system for LAPACK dgtsv (see
    # _load_flapack).  The wrapper copies dl (overwrite_dl off) before dgtsv
    # writes du, so one array serves as both off-diagonals.
    kappa = coef[1].reshape(-1, coef.shape[-1])  # (R L, 1), or (R, N)
    diag = rho_new + 2.0 * kappa
    # the first and last cell of each row: a strided view of uniform rows,
    # updated in place; ragged rows' by flat index
    if uniform:
        walls = diag[:, cells.ends]
        np.add(walls, kappa, out=walls)
    else:
        walls = cells.plan(len(diag)).walls
        diag.reshape(-1)[walls] += kappa.reshape(-1)[walls]
    off = np.multiply(kappa, cells.coupling).reshape(-1)[:-1]
    *_, u_new, info = dgtsv(off, diag.reshape(-1), off, m_star.reshape(-1),
                            False, True, True, True)
    if info != 0:
        # gtsv overwrote diag; it was not positive where rho_new + kappa is not
        bad = ~(rho_new + kappa > 0.0)
        raise SolverFailure("viscous solve failed: non-positive diagonal at "
                            f"{_first_cell(bad.reshape(new.shape[1:]), cells, rows)} "
                            f"(LAPACK gtsv info {info})")
    u_new = u_new.reshape(rho_new.shape)

    # the budget terms of the trials: the vacuum branch is read from lowest,
    # whose side of RHO_FLOOR the clamp to 0 keeps; without a near-vacuum
    # cell the masks would keep every entry and are skipped
    if lowest > RHO_FLOOR:
        m_new = np.multiply(rho_new, u_new, out=dpi)  # dpi is spent
        u, kin = m_new / rho_new, 0.5 * m_new**2 / rho_new
    else:
        solid, rho_f = _vacuum(rho_new)
        m_new = np.multiply(rho_new, np.where(solid, u_new, 0.0), out=dpi)
        u, kin = np.where(solid, m_new / rho_f, 0.0), _kinetic(rho_new, m_new, solid, rho_f)
    # the energy density and the squared gradient in one per-row reduction,
    # each row summed as alone; without a delta term the density is kin + P
    dens = np.empty((2,) + rho_new.shape)
    if isinstance(delta, np.ndarray) or delta > 0.0:
        if isinstance(delta, np.ndarray):  # repeated over the rungs
            delta = np.tile(delta, (len(dts) // L, 1))
        _energy_density(cfg, rho_new, kin, cfg.law.P(rho_new), delta, out=dens[0])
    else:
        np.add(kin, cfg.law.P(rho_new), out=dens[0])
    g = cells.gradient(u)
    np.multiply(g, g, out=dens[1])
    e, g2 = cells.row_sum(dens).tolist()
    if uniform:
        return rho_new, m_new, u, [x * dx for x in e], [t * lam * x * dx for t, x in zip(dts, g2)]
    return rho_new, m_new, u, [x * dx for x, dx in zip(e, dxs)], \
        [t * lam * x * dx for t, x, dx in zip(dts, g2, dxs)]


def _kinetic(rho: np.ndarray, m: np.ndarray, solid: np.ndarray,
             rho_f: np.ndarray) -> np.ndarray:
    """m^2/(2 rho), zero on near-vacuum cells."""
    return np.where(solid, 0.5 * m**2 / rho_f, 0.0)


def _energy_density(cfg: SolverConfig, rho: np.ndarray, kin: np.ndarray,
                    potential: np.ndarray, delta, out=None) -> np.ndarray:
    """kin + potential + delta rho^Gamma / (Gamma - 1) per cell, into out if given."""
    return _plus_delta(np.add(kin, potential, out=out), delta,
                       lambda d: d * np.power(rho, cfg.Gamma) / (cfg.Gamma - 1.0))


def _energy(cfg: SolverConfig, grid, rho: np.ndarray, kin: np.ndarray,
            potential: np.ndarray, delta):
    """Per row sum dx (kin + potential + delta rho^Gamma / (Gamma - 1))."""
    cells = _cells(grid)
    return _per_row(cells.row_sum(_energy_density(cfg, rho, kin, potential, delta)) * cells.dx)


def total_energy(state: FluidState, cfg: SolverConfig, grid: Grid1D):
    """sum dx (m^2/(2 rho) + P(rho) + delta rho^Gamma / (Gamma - 1)).

    Kinetic energy of near-vacuum cells is taken as zero.  A stacked state
    gets one energy per row.
    """
    kin = _kinetic(state.rho, state.m, *_vacuum(state.rho))
    return _energy(cfg, grid, state.rho, kin, cfg.law.P(state.rho), cfg.delta)


def energy_scale(state: FluidState, cfg: SolverConfig, grid: Grid1D):
    """Positive magnitude of the initial energy used to size slack budgets.

    Matches total_energy except the pressure potential enters in absolute
    value, so data dipping below the reference density still yields a
    positive scale.
    """
    kin = _kinetic(state.rho, state.m, *_vacuum(state.rho))
    e = _energy(cfg, grid, state.rho, kin, np.abs(cfg.law.P(state.rho)), cfg.delta)
    return _per_row(np.maximum(e, 1e-15))


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
    complete: bool = True        # run_stack's runs always complete
    n_trials: int = 0            # trial steps, accepted plus rejected

    def state_at(self, k: int) -> FluidState:
        return FluidState(rho=self.rho[k].copy(), m=(self.rho[k] * self.u[k]),
                          t=float(self.times[k]))


def run(cfg: SolverConfig, init_state: FluidState, grid: Grid1D) -> Trajectory:
    """Advance init_state to T with adaptive steps: run_stack on one row."""
    return run_stack([cfg], [init_state], [grid])[0]


@dataclass(slots=True)
class _RowControl:
    """One row's step controller in run_stack, and the samples it keeps, one
    per sample time reached: plan picks a fresh step's dt, judge accepts a
    trial or halves dt for a retry, record writes the samples, and
    trajectory hands them out.  Each decision is taken on Python floats, as
    for the row alone.  run_stack gives the row its sample arrays (open):
    (nt, n) density and velocity and (nt,) energy and dissipation, which
    record fills a row at a time and which become the Trajectory's fields,
    so each sample is written once and held once."""

    e_prev: float                # energy after the last accepted step
    t: float = 0.0
    dt: float = 0.0              # current trial dt
    dt_prev: float | None = None
    clipped: bool = False        # dt was cut to reach the sample time
    halved: bool = False         # dt was halved after a rejected trial
    retry: bool = False          # the last trial was rejected
    dis_acc: float = 0.0
    min_slack: float = np.inf
    n_steps: int = 0
    n_trials: int = 0
    k: int = field(default=0, init=False)  # samples written so far
    rho: np.ndarray = field(init=False)
    u: np.ndarray = field(init=False)
    energy: np.ndarray = field(init=False)
    dis: np.ndarray = field(init=False)

    def open(self, n: int, nt: int) -> None:
        """Allocate the row's sample arrays for nt samples of n cells."""
        self.rho, self.u = np.empty((nt, n)), np.empty((nt, n))
        self.energy, self.dis = np.empty(nt), np.empty(nt)

    def plan(self, dt_cfl: float, t_next: float) -> bool:
        """Pick a fresh step's dt: the CFL bound dt_cfl, capped at 1.5 dt_prev
        and cut to reach the next sample time t_next.  Returns whether the
        growth cap set it."""
        capped = self.dt_prev is not None and 1.5 * self.dt_prev < dt_cfl
        cand = 1.5 * self.dt_prev if capped else dt_cfl
        self.dt = min(cand, t_next - self.t)
        self.clipped = self.dt < cand
        self.halved = False
        return capped and not self.clipped

    def judge(self, e: float, dI: float, budget: float, tol: float, row: int,
              t_next: float) -> bool:
        """Count a trial at dt with energy e and dissipation increment dI, and
        accept it if its slack e_prev - e - dI is at least -budget, snapping t
        to the sample time t_next within tol; else halve dt for a retry, or
        raise at the dt floor tol (row names the row).  True if accepted."""
        self.n_trials += 1
        slack = self.e_prev - e - dI
        if not slack >= -budget:
            if self.dt <= tol:
                raise SolverFailure(f"energy budget unattainable in row {row}: "
                                    f"slack {slack:.3e} at dt {self.dt:.3e}")
            self.dt = max(0.5 * self.dt, tol)
            self.halved = self.retry = True
            return False
        if self.halved or not self.clipped:
            self.dt_prev = self.dt
        t = self.t + self.dt
        self.t = t_next if abs(t - t_next) < tol else t
        self.min_slack = min(self.min_slack, slack)
        self.dis_acc += dI
        self.e_prev = e
        self.n_steps += 1
        self.retry = False
        return True

    def record(self, rho: np.ndarray, u: np.ndarray, at, t_sample: list, tol: float) -> bool:
        """Write the row's density and velocity, rho[at] and u[at], with its
        energy and dissipation, as sample k for each sample time t_sample[k]
        reached within tol, k the samples written so far.  True once the row
        has its last sample."""
        k, nt = self.k, len(t_sample)
        while k < nt and not self.t < t_sample[k] - tol:
            self.rho[k], self.u[k] = rho[at], u[at]
            self.energy[k], self.dis[k] = self.e_prev, self.dis_acc
            k += 1
        self.k = k
        return k == nt

    def trajectory(self, grid: Grid1D, cfg: SolverConfig, times: np.ndarray) -> Trajectory:
        return Trajectory(grid=grid, cfg=cfg, times=times.copy(), rho=self.rho, u=self.u,
                          energy=self.energy, cum_dissipation=self.dis,
                          min_step_slack=float(self.min_slack) if self.n_steps else 0.0,
                          n_steps=self.n_steps, n_trials=self.n_trials)


def run_stack(cfgs: Sequence[SolverConfig], states: Sequence[FluidState],
              grids: Grid1D | Sequence[Grid1D]) -> list[Trajectory]:
    """Advance K initial states to T as one stack, sampling uniformly.

    Row k runs on grids[k] (one Grid1D serves every row) under cfgs[k]; the
    configs may differ only in delta, which the kernels take as cfg.delta if
    all rows share it, else spread over the live rows' cells.  Rows on one
    grid are the rows of (K, n) arrays; rows of different n lie end to end
    in (1, N) arrays (see RaggedRows), and when the rows still running come
    to share one grid, they are (K, n) rows again.  dt is capped by the CFL
    bound and additionally controlled so that every accepted step satisfies
    the energy budget

        E(t) - E(t+dt) - dt sum dx lam (du/dx)^2 >= -STEP_SLACK_TOL * E_scale:

    a trial step violating it is halved and retried (the explicit pressure
    force injects kinetic energy at O(dt^2), so halving always converges),
    and dt regrows by 1.5x after accepted steps.  Every step call advances
    the rows short of their last sample time together; each row's
    _RowControl plans its dt, judges its trials and records its samples.
    E(0) and E_scale are total_energy and energy_scale of each row alone,
    and a row's sums are taken over its own cells, so row k of the result
    is bit for bit run(cfgs[k], states[k], grids[k]).  The stack's
    step_start is reused while every row retries.

    When a fresh row's dt is set by the 1.5x growth cap, the step call holds
    two rungs: every live row at its dt and at max(dt/2, tol), the dt a
    rejection retries.  Rung 0 rejected is handled as any rejection (raise
    at the dt floor, halve, count the trial), and then rung 1 is read as the
    retry; if it is rejected too, the row retries in the next call.
    n_trials counts the rungs read, not the step calls.
    """
    K = len(states)
    grids = [grids] * K if isinstance(grids, Grid1D) else list(grids)
    if not K or len(grids) != K or any(
            np.shape(s.rho) != (g.n,) or np.shape(s.m) != (g.n,) for s, g in zip(states, grids)):
        raise DomainError("run_stack needs one or more 1D states, each on its grid's cells")
    cfg = cfgs[0]
    if len(cfgs) != K or any(replace(c, delta=cfg.delta) != cfg for c in cfgs[1:]):
        raise DomainError("run_stack needs one config per state, differing only in delta")
    deltas = np.array([c.delta for c in cfgs])
    mixed = bool((deltas != cfg.delta).any())
    cells = _layout(grids)
    rho, m = cells.join([s.rho for s in states]), cells.join([s.m for s in states])
    _require_finite("initial density", rho, cells)
    _require_finite("initial momentum", m, cells)
    u = velocity(FluidState(rho=rho, m=m))
    times = np.linspace(0.0, cfg.T, cfg.n_samples)
    t_sample, tol = times.tolist(), 1e-12 * cfg.T  # tol: sample-time tolerance, dt floor
    budget = [STEP_SLACK_TOL * energy_scale(*row) for row in zip(states, cfgs, grids)]
    ctl = [_RowControl(e_prev=total_energy(*row)) for row in zip(states, cfgs, grids)]
    for r, (c, g) in enumerate(zip(ctl, grids)):
        c.open(g.n, times.size)
        c.record(rho, u, cells.at(r), t_sample, tol)
    live = list(range(K))  # rows with samples left; row j of rho, m, u is live[j]
    start = None  # the step_start of every live row's current state

    while live:
        if start is None:  # the first call on this layout: what it fixes
            L = len(live)
            ctls = [ctl[r] for r in live]  # row j's controller, budget and cells
            budgets = [budget[r] for r in live]
            ats = [cells.at(j) for j in range(L)]
            M = len(rho)  # array rows per rung: L, or 1 if ragged
            rungs = [(list(range(r * L, r * L + L)), slice(r * M, r * M + M)) for r in (0, 1)]
            delta = cells.spread(deltas[live]) if mixed else cfg.delta
            # rows that are not retrying a rejected trial start a new step;
            # the retrying rows' states are unchanged, and so are their starts
            fresh = [j for j, c in enumerate(ctls) if not c.retry]
        if fresh or start is None:
            start = step_start(rho, u, cfg, cells, delta)
        grown = False  # a fresh row's dt is set by the 1.5x growth cap
        for j in fresh:
            c = ctls[j]
            grown = c.plan(start[0][j], t_sample[c.k]) or grown

        # A rejected row retries from the state its step_start was taken for.
        # A grown dt is often rejected, so then every row also tries, as
        # rung 1 of the same step call, the dt that a rejection of rung 0
        # retries (a dt at the floor has no retry).
        flat = [c.dt for c in ctls]  # the trial dts, rung by rung
        if grown:
            flat += [max(0.5 * x, tol) if x > tol else x for x in flat]
        rho_t, m_t, u_t, e, dI = step(rho, m, start, flat, cfg, cells, delta, live)

        fresh, taken = [], []  # the rows that step (and start anew), and their trial rows
        for j in range(L):
            c = ctls[j]
            for i in range(j, len(flat), L):  # row j of each rung up to an accepted one
                if c.judge(e[i], dI[i], budgets[j], tol, live[j], t_sample[c.k]):
                    fresh.append(j)
                    taken.append(i)
                    break
        if not taken:
            continue
        trials, at = rungs[taken[0] // L]  # a rung's trial numbers and array rows
        if taken == trials:  # all at one rung: its rows
            rho, m, u = rho_t[at], m_t[at], u_t[at]
        elif len(taken) == L and cells.joints is None:  # every row, at mixed rungs
            idx = np.array(taken)
            rho, m, u = rho_t.take(idx, 0), m_t.take(idx, 0), u_t.take(idx, 0)
        else:
            for j, i in zip(fresh, taken):
                a, b = ats[j], cells.at(i)
                rho[a], m[a], u[a] = rho_t[b], m_t[b], u_t[b]

        done = False  # a row has its last sample
        for j in fresh:
            done = ctls[j].record(rho, u, ats[j], t_sample, tol) or done
        if done:  # lay out the rest anew
            keep = [j for j in range(L) if ctls[j].k < times.size]
            live = [live[j] for j in keep]
            if not live:
                break
            kept = _layout([grids[r] for r in live])
            rho, m, u = (kept.join([a[ats[j]] for j in keep]) for a in (rho, m, u))
            cells, start = kept, None

    return [c.trajectory(g, f, times) for c, f, g in zip(ctl, cfgs, grids)]


# -- initial data --------------------------------------------------------------

@dataclass(frozen=True)
class InitialData:
    """Smooth initial profiles rho0(x), u0(x) sampled onto any grid."""

    rho_fn: object
    u_fn: object

    def sample(self, grid: Grid1D) -> FluidState:
        x = grid.centers
        rho = np.asarray(self.rho_fn(x), dtype=float)
        u = np.asarray(self.u_fn(x), dtype=float)
        if np.any(rho < 0.0):
            raise DomainError("initial density must be nonnegative")
        return FluidState(rho=rho, m=rho * u, t=0.0)


def constant_init(rho0: float = 1.0) -> InitialData:
    return InitialData(rho_fn=lambda x: np.full_like(np.asarray(x, dtype=float), rho0),
                       u_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def smooth_pulse_init(length: float, base: float = 1.0, amp: float = 0.1,
                      width_frac: float = 0.1, center_frac: float = 0.5) -> InitialData:
    """Gaussian density pulse at rest."""
    x0 = center_frac * length
    w = width_frac * length

    def rho_fn(x):
        x = np.asarray(x, dtype=float)
        return base + amp * np.exp(-0.5 * ((x - x0) / w) ** 2)

    return InitialData(rho_fn=rho_fn,
                       u_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def pulse_flow_init(length: float, base: float = 1.0, amp: float = 0.1,
                    u_amp: float = 0.2, width_frac: float = 0.1,
                    center_frac: float = 0.5) -> InitialData:
    """Gaussian density pulse riding a half-sine velocity (zero at walls)."""
    pulse = smooth_pulse_init(length, base, amp, width_frac, center_frac)

    def u_fn(x):
        x = np.asarray(x, dtype=float)
        return u_amp * np.sin(np.pi * x / length)

    return InitialData(rho_fn=pulse.rho_fn, u_fn=u_fn)


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

    return InitialData(rho_fn=rho_fn, u_fn=init.u_fn)


# -- refined reference ---------------------------------------------------------

@dataclass(frozen=True)
class ComparisonFlow:
    """Smooth comparison flow (r, U) on the coarse sample grid (times x
    cells), restricted from a run on a refinement of that grid."""

    times: np.ndarray
    x: np.ndarray
    dx: float
    r: np.ndarray
    U: np.ndarray
    refinement: int
    min_r: float


@dataclass(frozen=True)
class StrongSolutionRef(ComparisonFlow):
    """A comparison flow with derivative fields: finite differences computed
    on the fine grid before restriction, and dU/dt on the sample times."""

    dr_dx: np.ndarray
    dU_dx: np.ndarray
    dU_dt: np.ndarray
    d2U_dx2: np.ndarray


def _restrict(field2d: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return field2d.copy()
    nt, nf = field2d.shape
    return field2d.reshape(nt, nf // factor, factor).mean(axis=2)


def _laplacian_no_slip(u: np.ndarray, dx: float) -> np.ndarray:
    """Second difference with mirrored wall ghosts, matching the viscous solve.
    The inner cells' (u[i+1] - 2 u[i] + u[i-1]) / dx^2 is formed in out, in
    that operand order."""
    out = np.empty_like(u)
    inner = out[:, 1:-1]
    np.multiply(2.0, u[:, 1:-1], out=inner)
    np.subtract(u[:, 2:], inner, out=inner)
    np.add(inner, u[:, :-2], out=inner)
    np.divide(inner, dx**2, out=inner)
    out[:, 0] = (u[:, 1] - 3.0 * u[:, 0]) / dx**2
    out[:, -1] = (u[:, -2] - 3.0 * u[:, -1]) / dx**2
    return out


def make_reference(cfg: SolverConfig, init: InitialData, grid: Grid1D,
                   factor: int) -> StrongSolutionRef:
    """Run on a factor-refined grid and restrict to the coarse sampling.

    factor = 1 reuses the coarse resolution: the deterministic unperturbed
    run itself serves as the comparison solution.  The checks are those of
    reference_from_run.
    """
    if factor < 1:
        raise DomainError(f"refinement factor must be >= 1, got {factor}")
    fine = Grid1D(n=factor * grid.n, length=grid.length)
    return reference_from_run(run(cfg, init.sample(fine), fine), grid)


def restrict_run(traj: Trajectory, grid: Grid1D) -> ComparisonFlow:
    """Restrict a finished run on a refinement of grid to grid's cells.

    The result is rejected if the run stopped early or approaches vacuum
    (min rho < 10 * RHO_FLOOR).
    """
    fine = traj.grid
    factor, rest = divmod(fine.n, grid.n)
    if factor < 1 or rest or fine.length != grid.length:
        raise DomainError(f"a run on {fine.n} cells does not refine "
                          f"a grid of {grid.n} cells")
    if not traj.complete:
        raise ReferenceInvalidError("reference run did not complete")

    min_r = float(np.min(traj.rho))
    if min_r < 10.0 * RHO_FLOOR:
        raise ReferenceInvalidError(
            f"reference reached near-vacuum density {min_r:.3e}")
    return ComparisonFlow(times=traj.times.copy(), x=grid.centers, dx=grid.dx,
                          r=_restrict(traj.rho, factor), U=_restrict(traj.u, factor),
                          refinement=factor, min_r=min_r)


def reference_from_run(traj: Trajectory, grid: Grid1D) -> StrongSolutionRef:
    """restrict_run with the derivative fields, each differenced on the
    run's own grid and restricted before the next is formed."""
    flow = restrict_run(traj, grid)
    factor, dx = flow.refinement, traj.grid.dx
    return StrongSolutionRef(
        **vars(flow), dr_dx=_restrict(gradient_1d(traj.rho, dx), factor),
        dU_dx=_restrict(gradient_1d(traj.u, dx), factor),
        d2U_dx2=_restrict(_laplacian_no_slip(traj.u, dx), factor),
        dU_dt=np.gradient(flow.U, flow.times, axis=0))
