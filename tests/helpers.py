"""Helpers only the tests use: reading a written CSV back, a constant
renormalization function, an all-zero defect report, the Frobenius
contraction, the bump potential's slope, the solver's step on a FluidState
and a state's dissipation increment; and, as oracles, the plain forms of
the kernels kept in place or in a smaller working set because each was
measured to buy a share of a benchmark workload: the gather/scatter Bregman
kernel, a tabulated law row by row and as split tables, tail masks and
guards, the bump law and the certificate and scan reductions by np.where
and out-of-place sums, run_stack's samples and the fine reference as
per-sample copies and all-at-once fields, and a ragged layout's wall and
joint cells by 2-D fancy indexing."""
import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

import mvflow.pressure
from mvflow import solver
from mvflow.errors import InsufficientGridError, SpecParseError
from mvflow.measures import DefectReport, RenormFunction
from mvflow.pressure import (H_BOUND_EXCLUSION, TAIL_SLOPE_RTOL, PowerLawH,
                             _pchip_coefficients, h_increment)
from mvflow.relative_energy import SCAN_EXCLUSION
from mvflow.solver import FluidState

_INT_RE = re.compile(r"^-?\d+$")


def _parse_cell(s: str):
    if s == "true":
        return True
    if s == "false":
        return False
    if _INT_RE.match(s):
        return int(s)
    try:
        return float(s)
    except ValueError:
        return s


def read_csv(path: str) -> tuple[list[str], list[tuple]]:
    """Inverse of mvflow.configio.write_csv: numeric cells come back as
    int/float exactly."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise SpecParseError(f"{path}: empty CSV")
    header = lines[0].split(",")
    width = len(header)
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != width:
            raise SpecParseError(
                f"{path} line {lineno}: expected {width} cells, got {len(cells)}")
        rows.append(tuple(_parse_cell(c) for c in cells))
    return header, rows


def renorm_constant(c: float = 1.0) -> RenormFunction:
    return RenormFunction(
        b=lambda s: np.full_like(np.asarray(s, dtype=float), c),
        db=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        r_b=1.0, name=f"const({c})")


def zero_defect(measure) -> DefectReport:
    """A defect report of zeros on measure's grid and sample times: the
    residuals' pairing term and the energy slack's D then vanish."""
    nt, n = measure.times.size, measure.x.size
    zero = np.zeros(nt)
    return DefectReport(times=measure.times, E_inf=zero,
                        sigma_inf=zero, zeta=zero, D_total=zero,
                        rM_field=np.zeros((nt, n)), rM_abs=zero, xi=zero,
                        zeta_by_member=np.zeros((measure.S.shape[0], nt)))


def frobenius(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Componentwise contraction A:B summed over the matrix axes."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return np.sum(A * B, axis=(-2, -1))


def dQ(law, rho) -> np.ndarray:
    """Q'(rho) = int_1^rho q(z)/z^2 dz + q(rho)/rho of law's bump, 0 without
    one."""
    rho = np.asarray(rho, dtype=float)
    if law.bump is None:
        return np.zeros_like(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(rho > 0.0, law.bump.value(rho) / rho, 0.0)
    return law.bump.integral_over_z2(rho) + tail


def gather_power_bregman(a: float, gamma: float, rho: np.ndarray,
                         r: np.ndarray) -> np.ndarray:
    """The power-law Bregman kernel on broadcast copies of rho and r, with
    the near-diagonal series on a boolean gather of the near entries and
    the direct formula on the rest, scattered back into one table."""
    rho, r = (np.array(v, dtype=float) for v in np.broadcast_arrays(rho, r))
    x = rho / r
    d = (rho - r) / r
    out = np.empty_like(x)

    near = np.abs(d) <= 0.5
    if np.any(near):
        dn = d[near]
        beta = np.full_like(dn, gamma / 2.0)
        term = beta * dn * dn
        acc = term.copy()
        dk = dn * dn
        k = 2
        while True:
            beta = beta * (gamma - k) / (k + 1.0)
            if not np.any(beta):
                break
            dk = dk * dn
            term = beta * dk
            acc += term
            k += 1
            if k > 200 or np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(acc), 1e-300)):
                break
        out[near] = acc

    far = ~near
    if np.any(far):
        xf = x[far]
        if gamma == 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.where(xf > 0.0, xf * np.log(xf), 0.0) - (xf - 1.0)
        else:
            g = (np.power(xf, gamma) - 1.0 - gamma * (xf - 1.0)) / (gamma - 1.0)
        out[far] = g

    return a * np.power(r, gamma) * out


def broadcast_bregman_H(law, rho, r):
    """bregman_H as it was formed on broadcast copies of rho and r."""
    rho, r = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(r, dtype=float))
    if isinstance(law.h_part, PowerLawH):
        out = gather_power_bregman(law.a, law.gamma, rho, r)
    else:
        out = law.H(rho) - law.H(r) - law.dH(r) * (rho - r)
    return out if out.shape else float(out)


def broadcast_h_increment(law, rho, r):
    """h_increment as it was formed on broadcast copies of rho and r."""
    rho, r = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(r, dtype=float))
    if isinstance(law.h_part, PowerLawH):
        if law.gamma == 1.0:
            return np.zeros_like(rho)
        return (law.gamma - 1.0) * gather_power_bregman(law.a, law.gamma, rho, r)
    return law.h(rho) - law.h(r) - law.dh(r) * (rho - r)


def _row_cubic(inner, left, rows, rho):
    """The piecewise polynomial with local coefficient rows at rho, one
    gather per row, summed from the lowest power up; both end pieces
    extrapolate."""
    k = inner.searchsorted(rho, "right")
    s = rho - left[k]
    out = 0.0 + rows[0][k] + rows[1][k] * s
    z = s
    for row in rows[2:]:
        z = z * s
        out = out + row[k] * z
    return out


def _table_tail(table):
    """(a, b) of a TabulatedH's tail a * rho^gamma_tail + b, rebuilt from its
    samples."""
    r = np.asarray(table.rho_samples, dtype=float)
    c = _pchip_coefficients(r, np.asarray(table.h_samples, dtype=float))
    dc = c[:-1] * np.array([[3.0], [2.0], [1.0]])
    g, r_max, h_max = table.gamma_tail, float(r[-1]), float(table.h_samples[-1])
    s_max = float(_row_cubic(r[1:-1], r[:-1], tuple(dc[::-1]), np.asarray(r_max)))
    if s_max > TAIL_SLOPE_RTOL * h_max / r_max:
        a = s_max / (g * r_max ** (g - 1.0))
        return a, h_max - a * r_max**g
    return h_max / r_max**g, 0.0


def table_value_and_slope(table, rho, tail=True):
    """(h, h') of a TabulatedH rebuilt from its samples and taken in separate
    passes: each cubic from its own coefficient rows and, with tail=True,
    each tail past rho_max on its own mask."""
    r = np.asarray(table.rho_samples, dtype=float)
    hs = np.asarray(table.h_samples, dtype=float)
    c = _pchip_coefficients(r, hs)
    dc = c[:-1] * np.array([[3.0], [2.0], [1.0]])
    rho = np.asarray(rho, dtype=float)
    h = _row_cubic(r[1:-1], r[:-1], tuple(c[::-1]), rho)
    dh = _row_cubic(r[1:-1], r[:-1], tuple(dc[::-1]), rho)
    if not tail:
        return h, dh
    g, r_max = table.gamma_tail, float(r[-1])
    a, b = _table_tail(table)
    far = rho > r_max
    if np.any(far):
        h = np.where(far, a * np.power(np.maximum(rho, r_max), g) + b, h)
    far = rho > r_max
    if np.any(far):
        dh = np.where(far, a * g * np.power(np.maximum(rho, r_max), g - 1.0), dh)
    return h, dh


def _piece_parts(table):
    """A TabulatedH's global cubic coefficients A0-A3 per piece (the tail
    the last), anchors, tail power coefficients, per-piece integral from its
    anchor, and integrals from 1 to each anchor, rebuilt from its samples."""
    r = np.asarray(table.rho_samples, dtype=float)
    d3, d2, d1, d0 = _pchip_coefficients(r, np.asarray(table.h_samples, dtype=float))
    g = float(table.gamma_tail)
    a, b = _table_tail(table)
    x = r[:-1]
    coef = np.hstack([np.vstack([d0 - d1 * x + d2 * x * x - d3 * x**3,
                                 d1 - 2.0 * d2 * x + 3.0 * d3 * x * x,
                                 d2 - 3.0 * d3 * x,
                                 d3]),
                      [[b], [a if g == 1.0 else 0.0], [0.0], [0.0]]])
    anchor = np.concatenate([[r[1]], r[1:]])
    pow_coef = np.zeros(r.size)
    if g != 1.0:
        pow_coef[-1] = a

    def piece(k, rho):
        """int_c^rho h(z)/z^2 dz on piece k from its anchor c."""
        A0, A1, A2, A3 = coef[:, k]
        c = anchor[k]
        dz = rho - c
        log_ratio = np.log(rho / c)
        out = dz * (A0 / (c * rho) + A2 + 0.5 * A3 * (c + rho)) + A1 * log_ratio
        if table.gamma_tail != 1.0:
            g = table.gamma_tail - 1.0
            out = out + pow_coef[k] * np.power(c, g) * np.expm1(g * log_ratio) / g
        return out

    from_r1 = np.concatenate([[0.0, 0.0], np.cumsum(piece(np.arange(1, r.size - 1), r[2:]))])
    j = int(np.searchsorted(r[1:], 1.0, side="right"))
    cum = from_r1 - (from_r1[j] + float(piece(j, np.asarray(1.0))))
    return coef, anchor, pow_coef, piece, cum


def gathered_integral_over_z2(table, rho):
    """TabulatedH.integral_over_z2 for rho > 0 rebuilt from the table's
    samples, with separate coefficient, anchor, power and integral arrays
    gathered one at a time per cell, and 0.5 * A3 and c^(gamma_tail - 1)
    formed per cell."""
    _, anchor, _, piece, cum = _piece_parts(table)
    rho = np.asarray(rho, dtype=float)
    k = np.searchsorted(anchor[1:], rho, side="right")
    return cum[k] + piece(k, rho)


# TabulatedH's value_and_slope, integral_over_z2 and potential as they were
# written before h and h' shared one paired table: one take of an (8, pieces)
# table [c0, c1, c2, c3, left knot, dc0, dc1, dc2], each cubic summed from
# 0.0 on its own, the tail found by a mask; the tail's power term formed on
# every row; the vacuum guard on every call.
def _split_local_table(table):
    r = np.asarray(table.rho_samples, dtype=float)
    c = _pchip_coefficients(r, np.asarray(table.h_samples, dtype=float))
    dc = c[:-1] * np.array([[3.0], [2.0], [1.0]])
    return np.vstack([c[::-1], r[:-1], dc[::-1]])


def _summed_cubic(c, s, s2):
    out = 0.0 + c[0] + c[1] * s + c[2] * s2
    if len(c) > 3:
        out = out + c[3] * (s2 * s)
    return out


def split_value_and_slope(table, rho):
    rho = np.asarray(rho, dtype=float)
    r = np.asarray(table.rho_samples, dtype=float)
    c = _split_local_table(table).take(r[1:-1].searchsorted(rho, "right"), axis=1)
    s = rho - c[4]
    s2 = s * s
    h, dh = _summed_cubic(c[:4], s, s2), _summed_cubic(c[5:], s, s2)
    far = rho > table.rho_max
    if not far.any():
        return h, dh
    a, b = _table_tail(table)
    g = table.gamma_tail
    z = np.maximum(rho, table.rho_max)
    return (np.where(far, a * np.power(z, g) + b, h),
            np.where(far, a * g * np.power(z, g - 1.0), dh))


def taken_integral_over_z2(table, rho):
    rho = np.asarray(rho, dtype=float)
    coef, anchor, pow_coef, _, cum = _piece_parts(table)
    g = float(table.gamma_tail)
    pieces = np.vstack([coef[:3], 0.5 * coef[3], anchor,
                        pow_coef * np.power(anchor, g - 1.0), cum])
    cols = pieces.take(pieces[4, 1:].searchsorted(rho, "right"), axis=1)
    A0, A1, A2, half_A3, c, power, const = cols
    dz = rho - c
    log_ratio = np.log(rho / c)
    out = dz * (A0 / (c * rho) + A2 + half_A3 * (c + rho)) + A1 * log_ratio
    if table.gamma_tail != 1.0:
        g = table.gamma_tail - 1.0
        out = out + power * np.expm1(g * log_ratio) / g
    return const + out


def guarded_potential(table, rho):
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = rho * taken_integral_over_z2(table, rho)
    return np.where(rho > 0.0, out, 0.0)


def where_bump_value_and_slope(bump, rho):
    """A CompactBump's value and slope, each expression kept by np.where
    on the support and 0 off it (0-d arrays for a scalar rho)."""
    t = (np.asarray(rho, dtype=float) - bump.q1) / bump.width
    omt = 1.0 - t
    inside = (t >= 0.0) & (t <= 1.0)
    dpsi = 32.0 * t * omt * (1.0 - 2.0 * t)
    return (np.where(inside, bump.amp * 16.0 * t * t * omt * omt, 0.0),
            np.where(inside, bump.amp * dpsi / bump.width, 0.0))


def summed_bump_integral_over_z2(bump, rho):
    """A CompactBump's int_1^rho q(z)/z^2 dz, its antiderivative summed out
    of place (a float64 for a scalar rho)."""
    d = bump._coef

    def phi(z):
        return (-d[0] / z + d[1] * np.log(z) + d[2] * z
                + d[3] * z * z / 2.0 + d[4] * z**3 / 3.0)

    one = np.minimum(np.maximum(np.ones(1), bump.q1), bump.q2)
    hi = np.minimum(np.maximum(np.asarray(rho, dtype=float), bump.q1), bump.q2)
    return phi(hi) - phi(one)[0]


def summed_law(law, rho) -> dict:
    """p, dp, p_and_dp, Q and P of a law with a bump, each h term plus the
    np.where bump term in an out-of-place sum."""
    rho = np.asarray(rho, dtype=float)
    q, dq = where_bump_value_and_slope(law.bump, rho)
    h, dh = law.h_part.value_and_slope(rho)
    Q = rho * summed_bump_integral_over_z2(law.bump, rho)
    return {"p": law.h_part.value(rho) + q, "dp": law.h_part.slope(rho) + dq,
            "p_and_dp": (h + q, dh + dq), "Q": Q, "P": law.h_part.potential(rho) + Q}


def where_lower_block(law, rho_grid, middle, outer_den, r, breg):
    """pressure._lower_block with np.where passes: the ratios filled with
    inf off each band, then reduced."""
    gap = rho_grid - r
    mid = middle & (np.abs(gap) > 1e-9 * np.maximum(1.0, r))
    empty = ~mid.any(axis=1)
    if empty.any():
        raise InsufficientGridError(
            f"no middle-band grid points distinct from r = {r[np.argmax(empty), 0]}; "
            "refine the grid")
    ratios = np.where(mid, breg / np.where(mid, gap * gap, 1.0), np.inf)
    return (np.minimum(np.min(ratios, axis=1), law.d2H(r[:, 0]) / 2.0),
            np.min(np.where(middle, np.inf, breg / outer_den), axis=1))


def where_h_block(law, rho_grid, r, breg):
    """pressure._h_block with np.where passes and every ratio formed: inf
    where B <= 0, -inf where excluded, then reduced."""
    keep = np.abs(rho_grid - r) >= H_BOUND_EXCLUSION
    if isinstance(law.h_part, PowerLawH) and law.gamma != 1.0:
        hinc = np.abs((law.gamma - 1.0) * breg)
    else:
        hinc = np.abs(h_increment(law, rho_grid, r))
    pos = breg > 0.0
    ratios = np.where(pos, hinc / np.where(pos, breg, 1.0), np.inf)
    return np.max(np.where(keep, ratios, -np.inf), axis=1)


def where_scan_max(law, s_grid, r_grid, num_fn, extra_candidates=()) -> float:
    """relative_energy._scan_max with np.where passes: excluded ratios set
    to 0, then reduced."""
    s = s_grid[None, :]
    maxima = []
    for rows in mvflow.pressure.row_blocks(r_grid.size, s_grid.size):
        r = r_grid[rows, None]
        B = mvflow.pressure.bregman_H(law, s, r)
        keep = (np.abs(s - r) > SCAN_EXCLUSION * np.maximum(1.0, r)) & (B > 0.0)
        ratios = np.where(keep, num_fn(s, r) / np.where(keep, B, 1.0), 0.0)
        maxima.append(np.max(ratios))
    best = float(np.max(maxima))
    for c in extra_candidates:
        best = max(best, float(c))
    return best


@dataclass(frozen=True)
class StepStart:
    """solver.step_start of a state: the CFL bound dt_max, a float for one
    state and a (K,) array for a stack, and the face differences d, (3,) +
    the state's shape."""

    dt_max: float | np.ndarray
    d: np.ndarray


def step_start(state: FluidState, cfg, grid, u=None, delta=None) -> StepStart:
    """solver.step_start on one state or a stack; u is velocity(state) when
    the caller already holds it, and delta is cfg.delta unless given (a
    stack's per-row deltas spread over its cells)."""
    if u is None:
        u = solver.velocity(state)
    dt_max, d = solver.step_start(np.atleast_2d(state.rho), np.atleast_2d(u), cfg,
                                  solver._cells(grid), cfg.delta if delta is None else delta)
    if state.rho.ndim == 1:
        return StepStart(dt_max[0], d[:, 0])
    return StepStart(np.array(dt_max), d)


def step_with_terms(state: FluidState, cfg, grid, dt, rows=None, start=None, delta=None):
    """solver.step on a FluidState: the trial state of step below, and the
    kernel's velocity, total energies and dissipation increments of it (a
    float each for one state and one dt); delta is as for step_start."""
    cells = solver._cells(grid)
    if delta is None:
        delta = cfg.delta
    if start is None:
        start = step_start(state, cfg, cells, delta=delta)
    elif not isinstance(start, StepStart):
        raise TypeError(f"start must be None or a StepStart, got {type(start).__name__}")
    dt = np.asarray(dt, dtype=float)
    dt_max = np.atleast_1d(start.dt_max).tolist()
    dts = np.broadcast_to(dt, np.broadcast_shapes(dt.shape, (len(dt_max),))).ravel().tolist()
    one = state.rho.ndim == 1
    rho, m, u, energy, dis = solver.step(
        np.atleast_2d(state.rho), np.atleast_2d(state.m),
        (dt_max, start.d[:, None] if one else start.d), dts, cfg, cells, delta, rows)
    t = state.t + dt
    if one and dt.ndim == 0:
        return FluidState(rho=rho[0], m=m[0], t=t), u[0], energy[0], dis[0]
    return FluidState(rho=rho, m=m, t=t.reshape(-1)), u, energy, dis


def step(state: FluidState, cfg, grid, dt, rows=None, start=None, delta=None) -> FluidState:
    """One step of a state by dt, or of a stack by a (K,) dt or an (R, K)
    dt of R rungs (row r * K + k of the result is row k advanced by
    dt[r, k]); start is step_start(state, cfg, grid) when the caller already
    holds it, and delta is as for step_start."""
    return step_with_terms(state, cfg, grid, dt, rows, start, delta)[0]


def dissipation_increment(state: FluidState, cfg, grid, dt):
    """dt * sum dx lam (du/dx)^2 with one-sided differences at the walls.

    A stacked state takes a (K,) dt and gets one increment per row.
    """
    cells = solver._cells(grid)
    g = cells.gradient(solver.velocity(state))
    return solver._per_row(dt * cfg.lam * cells.row_sum(g * g) * cells.dx)


class ListedRowControl(solver._RowControl):
    """solver._RowControl keeping a copy of each sampled row in a list and
    stacking the list into the Trajectory's fields at the end, as run_stack
    assembled its samples before each sample was written once."""

    def open(self, n: int, nt: int) -> None:
        self.samples = []

    def record(self, rho, u, at, t_sample, tol) -> bool:
        k, nt = len(self.samples), len(t_sample)
        while k < nt and not self.t < t_sample[k] - tol:
            self.samples.append((rho[at].copy(), u[at].copy(), self.e_prev, self.dis_acc))
            k += 1
        self.k = k
        return k == nt

    def trajectory(self, grid, cfg, times):
        rho, u, energy, dis = (np.array(x) for x in zip(*self.samples))
        return solver.Trajectory(grid=grid, cfg=cfg, times=times.copy(), rho=rho, u=u,
                                 energy=energy, cum_dissipation=dis,
                                 min_step_slack=float(self.min_slack) if self.n_steps else 0.0,
                                 n_steps=self.n_steps, n_trials=self.n_trials)


def expression_laplacian(u: np.ndarray, dx: float) -> np.ndarray:
    """solver._laplacian_no_slip with its inner cells formed as one
    out-of-place expression."""
    out = np.empty_like(u)
    out[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dx**2
    out[:, 0] = (u[:, 1] - 3.0 * u[:, 0]) / dx**2
    out[:, -1] = (u[:, -2] - 3.0 * u[:, -1]) / dx**2
    return out


def all_at_once_reference(traj, grid) -> solver.StrongSolutionRef:
    """solver.reference_from_run on a complete, vacuum-free run, with every
    fine derivative field formed before any is restricted."""
    factor = traj.grid.n // grid.n
    dx = traj.grid.dx
    dr_f = solver.gradient_1d(traj.rho, dx)
    dU_f = solver.gradient_1d(traj.u, dx)
    d2U_f = expression_laplacian(traj.u, dx)
    r = solver._restrict(traj.rho, factor)
    U = solver._restrict(traj.u, factor)
    return solver.StrongSolutionRef(
        times=traj.times.copy(), x=grid.centers, dx=grid.dx, r=r, U=U,
        dr_dx=solver._restrict(dr_f, factor), dU_dx=solver._restrict(dU_f, factor),
        dU_dt=np.gradient(U, traj.times, axis=0),
        d2U_dx2=solver._restrict(d2U_f, factor), refinement=factor,
        min_r=float(np.min(traj.rho)))


# A ragged layout's cells as the kernels reached them before each layout
# fixed their flat indices once: 2-D fancy indexing with index arrays of
# each row's first and last cell, and joints - 1 formed per use.
def wall_cells(cells):
    """Each row's two wall cells, and the cells whose difference is the
    one-sided gradient there: UniformRows' slices, or RaggedRows' index
    arrays of each row's first cells, then its last cells."""
    if cells.joints is None:
        return cells.ends, cells.hi, cells.lo
    first, last = cells.first, cells.last
    return (np.concatenate([first, last]), np.concatenate([first + 1, last]),
            np.concatenate([first, last - 1]))


def fancy_gradient(cells, u: np.ndarray) -> np.ndarray:
    """Rows.gradient with the wall cells written through g[..., ends]."""
    ends, hi, lo = wall_cells(cells)
    g = np.empty(u.shape)
    flat = u.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=g.reshape(-1)[1:-1])
    g[..., ends] = u[..., hi] - u[..., lo]
    return np.divide(g, cells.grad_dx, out=g)


def indexed_step_start(rho, u, cfg, cells, delta):
    """solver.step_start with the joints' faces written through
    faces[..., joints] and the last pressure difference before each joint
    through d[2][..., joints - 1]."""
    C = rho.shape[-1]
    faces = np.zeros((3,) + rho.shape[:-1] + (C + 1,))
    inner = faces[..., 1:-1]
    u_lo, u_hi = u[..., :-1], u[..., 1:]
    u_face = 0.5 * (u_lo + u_hi)
    donor_hi = u_face > 0.0
    F = np.multiply(np.where(donor_hi, rho[..., :-1], rho[..., 1:]), u_face, out=inner[0])
    np.multiply(F, np.where(donor_hi, u_lo, u_hi), out=inner[1])
    pi, slope = cfg.law.p_and_dp(rho)
    if isinstance(delta, np.ndarray) or delta > 0.0:
        pi = solver.total_pressure(cfg, rho, pi, delta)
        slope = solver._slope(cfg, rho, slope, delta)
    np.multiply(pi[..., :-1] + pi[..., 1:], 0.5, out=inner[2])
    faces[2, ..., ::C] = pi[..., ::C - 1]
    joints = cells.joints
    if joints is not None:
        faces[:2, ..., joints] = 0.0
        faces[2][..., joints] = pi[..., joints]
    flat = faces.reshape(-1)
    d = np.empty_like(flat)
    np.subtract(flat[1:], flat[:-1], out=d[:-1])
    d = d.reshape(faces.shape)[..., :C]
    if joints is not None:
        d[2][..., joints - 1] = pi[..., joints - 1] - faces[2][..., joints - 1]
    return solver.admissible_dt(rho, cfg, cells, u=u, slope=slope).tolist(), d


def setitem_trial(rho, m, start, dts, cfg, cells):
    """A trial's density and momentum as solver.step formed them with each
    array reshaped on its own and the wall cells' diagonal updated through
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
    ends = wall_cells(cells)[0]
    diag[:, ends] += kappa[:, ends]
    off = np.multiply(kappa, cells.coupling).reshape(-1)[:-1]
    *_, u_new, info = dgtsv(off, diag.reshape(-1), off, m_star.reshape(-1))
    assert info == 0
    return rho_new, rho_new * u_new.reshape(rho_new.shape)
