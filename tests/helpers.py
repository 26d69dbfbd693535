"""Helpers only the tests use: reading a written CSV back, a constant
renormalization function, an all-zero defect report, the Frobenius contraction, the bump potential's
slope, the gather/scatter Bregman kernel the production one replaced, a
tabulated law's h and h' evaluated row by row and its h/z^2 integral from
per-cell gathers, the solver's step on a FluidState, and a state's
dissipation increment."""
import re
from dataclasses import dataclass

import numpy as np

from mvflow import solver
from mvflow.errors import SpecParseError
from mvflow.measures import DefectReport, RenormFunction
from mvflow.pressure import TAIL_SLOPE_RTOL, PowerLawH, _pchip_coefficients
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
    return DefectReport(times=measure.times, x=measure.x, E_inf=zero,
                        sigma_inf=zero, zeta=zero, D_total=zero,
                        rM_field=np.zeros((nt, n)), rM_abs=zero, xi=zero,
                        zeta_by_member=np.zeros((measure.n_members, nt)))


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


def gathered_integral_over_z2(table, rho):
    """TabulatedH.integral_over_z2 for rho > 0 rebuilt from the table's
    samples, with separate coefficient, anchor, power and integral arrays
    gathered one at a time per cell, and 0.5 * A3 and c^(gamma_tail - 1)
    formed per cell."""
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
    rho = np.asarray(rho, dtype=float)
    k = np.searchsorted(anchor[1:], rho, side="right")
    return cum[k] + piece(k, rho)


@dataclass(frozen=True)
class StepStart:
    """solver.step_start of a state: the CFL bound dt_max, a float for one
    state and a (K,) array for a stack, and the face differences d, (3,) +
    the state's shape."""

    dt_max: float | np.ndarray
    d: np.ndarray


def step_start(state: FluidState, cfg, grid, u=None, delta=None) -> StepStart:
    """solver.step_start on one state or a stack; u is velocity(state,
    cfg.rho_floor) when the caller already holds it, and delta is cfg.delta
    unless given (a stack's per-row deltas spread over its cells)."""
    if u is None:
        u = solver.velocity(state, cfg.rho_floor)
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
    g = cells.gradient(solver.velocity(state, cfg.rho_floor))
    return solver._per_row(dt * cfg.lam * cells.row_sum(g * g) * cells.dx)
