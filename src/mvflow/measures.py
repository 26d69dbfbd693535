"""Empirical Young measures on the phase space (density, velocity, gradient).

A measure is assembled from an ensemble of trajectories sharing one
space-time sampling grid: each cell (t_k, x_i) holds one equally weighted
atom per member, with the gradient surrogate taken by the same
finite-difference operator the solver uses for its dissipation bookkeeping.

The weak-form residual evaluators integrate with midpoint sums in space and
the trapezoid rule in time.  Each takes a family of test functions f(x) g(t)
and sums each moment over space once per distinct space factor f; each
function's series are those sums times its own g or g'.
Defects are estimated as tail differences along an explicit regularization
sequence on the measure's grid, clipped at zero with the pre-clip values
logged; they are estimators of limit objects, not limits.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CannotEstimateError,
    DomainError,
    IncompatibleEnsembleError,
    InvalidTestFunctionError,
    ObservableDomainError,
    UnsupportedDimensionError,
)
from .pressure import PressureLaw
from .solver import Trajectory, gradient_1d
from .tensors import traceless
from .testfuncs import tables


@dataclass(frozen=True)
class DiscreteYoungMeasure:
    """Equal-weight empirical measure; arrays indexed (member, time, cell)."""

    times: np.ndarray
    x: np.ndarray
    dx: float
    length: float
    S: np.ndarray
    V: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        k, nt, nx = self.S.shape
        if self.V.shape != (k, nt, nx) or self.D.shape != (k, nt, nx):
            raise IncompatibleEnsembleError("field arrays disagree in shape")
        if self.times.shape != (nt,) or self.x.shape != (nx,):
            raise IncompatibleEnsembleError("grid arrays disagree with fields")

    def time_index(self, tau: float) -> int:
        idx = int(np.argmin(np.abs(self.times - tau)))
        if abs(self.times[idx] - tau) > 1e-9 * max(1.0, float(self.times[-1])):
            raise DomainError(
                f"tau {tau} is not a sample time (nearest {self.times[idx]})")
        return idx


def _require_sampling(j: int, traj: Trajectory, n: int, length: float,
                      times: np.ndarray) -> None:
    """Raise unless member j has n cells over length and samples at times."""
    if traj.grid.n != n or traj.grid.length != length:
        raise IncompatibleEnsembleError(
            f"member {j} grid ({traj.grid.n}, {traj.grid.length}) differs")
    if traj.times.shape != times.shape or not np.all(
            np.abs(traj.times - times) <= 1e-12):
        raise IncompatibleEnsembleError(f"member {j} sample times differ")


def assemble(ensemble: list[Trajectory]) -> DiscreteYoungMeasure:
    """One atom per member per space-time cell, weights 1/K."""
    if len(ensemble) < 1:
        raise IncompatibleEnsembleError("ensemble must hold at least one member")
    first = ensemble[0]
    for j, traj in enumerate(ensemble):
        _require_sampling(j, traj, first.grid.n, first.grid.length, first.times)

    V = np.array([traj.u for traj in ensemble])
    return DiscreteYoungMeasure(times=first.times.copy(), x=first.grid.centers,
                                dx=first.grid.dx, length=first.grid.length,
                                S=np.array([traj.rho for traj in ensemble]), V=V,
                                D=gradient_1d(V, first.grid.dx))


def moment(measure: DiscreteYoungMeasure, g) -> np.ndarray:
    """Per-cell ensemble average of g(s, v, D); g must be numpy-vectorized."""
    with np.errstate(all="ignore"):
        vals = np.asarray(g(measure.S, measure.V, measure.D), dtype=float)
    if vals.shape != measure.S.shape:
        vals = np.broadcast_to(vals, measure.S.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        j, kt, kx = map(int, np.argwhere(bad)[0])
        raise ObservableDomainError(
            f"observable undefined at member {j}, time index {kt}, cell {kx} "
            f"(s={measure.S[j, kt, kx]:.6g})")
    return vals.mean(axis=0)


# -- renormalization functions ---------------------------------------------------

@dataclass(frozen=True)
class RenormFunction:
    """C1 function b with b'(s) = 0 beyond the threshold r_b."""

    b: object
    db: object
    r_b: float
    name: str = "b"

    def __post_init__(self):
        if not (self.r_b > 0.0):
            raise DomainError("r_b must be positive")
        probe = np.linspace(self.r_b * (1.0 + 1e-9), self.r_b * 50.0, 401)
        slopes = np.asarray(self.db(probe), dtype=float)
        if np.max(np.abs(slopes)) > 1e-12:
            raise DomainError(
                f"renormalization slope must vanish beyond r_b={self.r_b}, "
                f"max |b'| = {np.max(np.abs(slopes)):.3e}")


def renorm_identity_truncated(r_b: float, width: float) -> RenormFunction:
    """b(s) = s below r_b - width, constant r_b - width/2 above r_b.

    The slope rolls off through the cubic smoothstep on [r_b - width, r_b],
    keeping b in C1.
    """
    if not (0.0 < width <= r_b):
        raise DomainError("need 0 < width <= r_b")
    a = r_b - width

    def db(s):
        s = np.asarray(s, dtype=float)
        t = np.clip((s - a) / width, 0.0, 1.0)
        return 1.0 - (3.0 * t**2 - 2.0 * t**3)

    def b(s):
        s = np.asarray(s, dtype=float)
        t = np.clip((s - a) / width, 0.0, 1.0)
        ramp = a + width * (t - t**3 + 0.5 * t**4)
        return np.where(s <= a, s, ramp)

    return RenormFunction(b=b, db=db, r_b=r_b, name=f"trunc(r_b={r_b})")


# -- weak-form residuals -----------------------------------------------------------
#
# Each residual takes a sequence of test functions (a family) and gives one
# value per function as an (n_f,) array.  Every function is f(x) g(t), so its
# space integral against a moment m is g(t) * sum_x m f dx.  A call takes each
# moment once over the sample times up to tau and sums it over space against
# each distinct space factor of the family once (_space_sums, one (n_t, n)
# product at a time); each function's series are those (n_t,) sums times its
# own g or g', and the trapezoid rule integrates them in time.  The space sums
# are np.add.reduce, not BLAS (np.dot, matmul): BLAS picks its kernel, and so
# its order of summation, by CPU, and the manifests must be the same bytes on
# every machine.

def _space_sums(m: np.ndarray, factors: np.ndarray, index: np.ndarray,
                dx: float) -> np.ndarray:
    """sum_x m f dx at each sample time for each distinct space factor f of
    factors, one np.add.reduce per factor, as each function's (n_f, n_t)
    row (index maps a function to its factor)."""
    return (np.array([np.add.reduce(m * f, axis=-1) for f in factors]) * dx)[index]


def _c1_norm(f: np.ndarray, df: np.ndarray, g: np.ndarray, dg: np.ndarray) -> float:
    """|psi|_C1 of psi = f g from |f|, |f'| at the points and |g|, |g'| at the
    sample times: the max of |f||g| + |f||g'| + |f'||g|, the bits of |f g| +
    |f g'| + |f' g|.  Each step of that sum, rounding included, does not fall
    as |g| or |g'| grows, so only the times whose (|g|, |g'|) no other time's
    pair meets or passes in both are read (one time for g = 1, t or 1 + t)."""
    order = np.lexsort((dg, g))
    g, dg = g[order], dg[order]
    later = np.append(np.maximum.accumulate(dg[::-1])[::-1][1:], -np.inf)
    front = dg > later
    g, dg = g[front, None], dg[front, None]
    return float(np.max(f * g + f * dg + df * g))


def _require_wall_zero(fns, length: float):
    F, _, index, _, _ = tables(fns, (), np.array([0.0, length]))
    bad = np.max(np.abs(F), axis=1)[index] > 1e-12
    if bad.any():
        raise InvalidTestFunctionError(
            f"test function {fns[int(np.argmax(bad))].id} does not vanish at the walls")


def continuity_residual(measure: DiscreteYoungMeasure, psi, tau: float) -> np.ndarray:
    """Mass form: [integral <s> psi]_0^tau - iint (<s> dpsi/dt + <s v> dpsi/dx)
    for each function of the family psi."""
    i = measure.time_index(tau)
    times = measure.times[: i + 1]
    F, dF, index, G, dG = tables(psi, times, measure.x)
    s = _space_sums(moment(measure, lambda s, v, D: s)[: i + 1], F, index, measure.dx)
    sv = _space_sums(moment(measure, lambda s, v, D: s * v)[: i + 1], dF, index,
                     measure.dx)
    mass = G * s
    interior = dG * s + G * sv
    return mass[:, i] - mass[:, 0] - np.trapezoid(interior, times, axis=-1)


def renorm_continuity_residual(measure: DiscreteYoungMeasure, b: RenormFunction,
                               psi, tau: float) -> np.ndarray:
    """Renormalized mass form, including the <(s b' - b) tr D> psi source, for
    each function of the family psi."""
    i = measure.time_index(tau)
    times = measure.times[: i + 1]
    F, dF, index, G, dG = tables(psi, times, measure.x)
    with np.errstate(all="ignore"):
        bs = b.b(measure.S)
    b_mom = moment(measure, lambda s, v, D: bs)[: i + 1]
    bv_mom = moment(measure, lambda s, v, D: bs * v)[: i + 1]
    src_mom = moment(measure, lambda s, v, D: (s * b.db(s) - bs) * D)[: i + 1]
    bsum = _space_sums(b_mom, F, index, measure.dx)
    mass = G * bsum
    interior = dG * bsum + G * _space_sums(bv_mom, dF, index, measure.dx)
    source = G * _space_sums(src_mom, F, index, measure.dx)
    return (mass[:, i] - mass[:, 0]
            - np.trapezoid(interior, times, axis=-1)
            + np.trapezoid(source, times, axis=-1))


def momentum_residual(measure: DiscreteYoungMeasure, law: PressureLaw, lam: float,
                      phi, tau: float, defect: DefectReport):
    """Momentum form residual and the defect-pairing inequality slack.

    Returns (residual, slack) arrays over the family phi, where slack =
    xi(tau) D(tau) |phi|_C1 minus the actual |<rM; dphi/dx>| at tau; slack
    must be nonnegative for a valid defect report.  The interior integrand's
    dphi/dx part is the one moment <s v v + p(s) - lam tr D>.
    """
    i = measure.time_index(tau)
    times = measure.times[: i + 1]
    _require_wall_zero(phi, measure.length)
    F, dF, index, G, dG = tables(phi, times, measure.x)
    sv_mom = moment(measure, lambda s, v, D: s * v)[: i + 1]
    flux_mom = moment(measure, lambda s, v, D: s * v * v + law.p(s) - lam * D)[: i + 1]

    sv = _space_sums(sv_mom, F, index, measure.dx)
    momentum = G * sv
    interior = dG * sv + G * _space_sums(flux_mom, dF, index, measure.dx)
    pairing = G * _space_sums(defect.rM_field[: i + 1], dF, index, measure.dx)
    residual = (momentum[:, i] - momentum[:, 0]
                - np.trapezoid(interior, times, axis=-1)
                - np.trapezoid(pairing, times, axis=-1))
    aF, adF = np.abs(F), np.abs(dF)
    phi_c1 = np.array([_c1_norm(aF[k], adF[k], g, dg)
                       for k, g, dg in zip(index, np.abs(G), np.abs(dG))])
    slack = defect.xi[i] * defect.D_total[i] * phi_c1 - np.abs(pairing[:, i])
    return residual, slack


def compatibility_residual(measure: DiscreteYoungMeasure, M, tau: float) -> np.ndarray:
    """Gradient compatibility: -iint <v> dM/dx - iint <D> M for each field of
    the family M."""
    i = measure.time_index(tau)
    times = measure.times[: i + 1]
    F, dF, index, G, _ = tables(M, times, measure.x)
    v = _space_sums(moment(measure, lambda s, v, D: v)[: i + 1], dF, index, measure.dx)
    d = _space_sums(moment(measure, lambda s, v, D: D)[: i + 1], F, index, measure.dx)
    return np.trapezoid(-(G * v) - G * d, times, axis=-1)


def energy_inequality_slack(measure: DiscreteYoungMeasure, law: PressureLaw,
                            defect: DefectReport, e_initial: float,
                            cum_dissipation: np.ndarray) -> np.ndarray:
    """Energy form slack e_initial - <energy>(tau) - dissipation(tau) - D(tau)
    at every sample time tau.

    Nonnegative for valid data.  cum_dissipation is the per-member average
    of the solver's accumulated per-step dissipation at the sample times.
    """
    energy_mom = moment(
        measure, lambda s, v, D: 0.5 * s * v * v + law.P(s))
    e_tau = np.sum(energy_mom, axis=-1) * measure.dx
    return e_initial - e_tau - cum_dissipation - defect.D_total


# -- defect estimation ---------------------------------------------------------------

@dataclass(frozen=True)
class DefectReport:
    """Tail-difference estimates of the limit defects along a sequence.

    These are estimators measured at desk scale from an explicit sequence,
    not weak-* limits; negative pre-clip values are recorded in clip_log.
    """

    times: np.ndarray
    E_inf: np.ndarray            # (nt,)
    sigma_inf: np.ndarray        # (nt,), cumulative over [0, tau]
    zeta: np.ndarray             # (nt,)
    D_total: np.ndarray          # (nt,)
    rM_field: np.ndarray         # (nt, nx)
    rM_abs: np.ndarray           # (nt,), L1 size of rM_field
    xi: np.ndarray               # (nt,)
    zeta_by_member: np.ndarray   # (n_members, nt)
    clip_log: dict = field(default_factory=dict)


# Below this total defect D the ratio xi = |rM| / D is meaningless.
DEFECT_FLOOR = 1e-14


def _prefix_trapezoid(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The trapezoid integral of series over [times[0], times[k]] for every k.

    np.trapezoid(series[:k + 1], times[:k + 1]) forms these terms and reduces
    the first k of them; the terms are formed once here and each prefix is
    that same contiguous np.add.reduce (a cumulative sum rounds differently)."""
    terms = np.diff(times) * (series[1:] + series[:-1]) / 2.0
    return np.array([np.add.reduce(terms[:k]) for k in range(times.size)])


def estimate_defect(trajectories: list[Trajectory], finest: DiscreteYoungMeasure,
                    law: PressureLaw, lam: float, tail: int) -> DefectReport:
    """Estimate concentration defects from a regularization sequence.

    trajectories are ordered with the finest (smallest delta) last, each on
    the grid and sample times of `finest`; the tail average of field-side
    quantities is compared against the moments of `finest`.  All components
    are clipped at zero with pre-clip extrema logged.
    """
    if len(trajectories) < 2:
        raise CannotEstimateError(
            f"need a sequence of at least 2 trajectories, got {len(trajectories)}")
    if not (1 <= tail <= len(trajectories)):
        raise CannotEstimateError(f"tail {tail} outside sequence length")

    times, dx = finest.times, finest.dx
    for j, traj in enumerate(trajectories):
        _require_sampling(j, traj, finest.x.size, finest.length, times)
    deltas = [traj.cfg.delta for traj in trajectories]

    # each field quantity is formed in place, in its expression's operand
    # order, in at most two (nt, nx) tables beside the law's own
    def field_energy(traj):
        # 0.5 rho u^2 + P(rho)
        kin = np.multiply(0.5, traj.rho)
        kin *= np.square(traj.u)
        kin += law.P(traj.rho)
        return np.sum(kin, axis=1) * traj.grid.dx

    def field_dissipation_cum(traj):
        g = gradient_1d(traj.u, traj.grid.dx)
        dis = np.multiply(lam, g)
        dis *= g
        return _prefix_trapezoid(np.sum(dis, axis=1) * traj.grid.dx, times)

    def delta_term(traj, delta):
        term = np.power(traj.rho, traj.cfg.Gamma)
        term *= delta
        return term

    def field_flux(traj, delta):
        # momentum-flux scalar rho u^2 + p + delta rho^Gamma
        flux = np.square(traj.u)
        flux *= traj.rho
        flux += law.p(traj.rho)
        if delta > 0.0:
            flux += delta_term(traj, delta)
        return flux

    tail_members = trajectories[-tail:]

    e_field = np.mean([field_energy(t) for t in tail_members], axis=0)
    energy_mom = moment(finest, lambda s, v, D: 0.5 * s * v * v + law.P(s))
    E_inf_raw = e_field - np.sum(energy_mom, axis=1) * dx

    sig_field = np.mean([field_dissipation_cum(t) for t in tail_members], axis=0)
    dis_mom = moment(finest, lambda s, v, D: lam * D * D)
    sigma_raw = sig_field - _prefix_trapezoid(np.sum(dis_mom, axis=1) * dx, times)

    zeta_by_member = np.array([np.sum(delta_term(t, d), axis=1) * t.grid.dx
                               for t, d in zip(trajectories, deltas)])
    zeta_raw = np.mean(zeta_by_member[-tail:], axis=0)

    flux_field = np.mean(
        [field_flux(t, d) for t, d in zip(tail_members, deltas[-tail:])], axis=0)
    flux_mom = moment(finest, lambda s, v, D: s * v * v + law.p(s))
    rM_field = flux_field - flux_mom

    clip_log = {}
    def clip(name, raw):
        low = float(np.min(raw))
        if low < 0.0:
            clip_log[name] = low
        return np.maximum(raw, 0.0)

    E_inf = clip("E_inf", E_inf_raw)
    sigma_inf = clip("sigma_inf", sigma_raw)
    zeta = clip("zeta", zeta_raw)
    D_total = E_inf + zeta + sigma_inf
    # below the floor the ratio xi is meaningless; zero the pairing field
    # there so the concentration term drops out instead of amplifying noise
    dead = D_total < DEFECT_FLOOR
    np.copyto(rM_field, 0.0, where=dead[:, None])
    rM_abs = np.sum(np.abs(rM_field), axis=1) * dx
    xi = rM_abs / np.maximum(D_total, DEFECT_FLOOR)
    return DefectReport(times=times.copy(), E_inf=E_inf,
                        sigma_inf=sigma_inf, zeta=zeta, D_total=D_total,
                        rM_field=rM_field, rM_abs=rM_abs, xi=xi,
                        zeta_by_member=zeta_by_member,
                        clip_log=clip_log)


# -- generalized Korn-Poincare check ---------------------------------------------------

def _grad_nd(field: np.ndarray, spacings: list[float]) -> np.ndarray:
    """Gradient of a (d, n1..nd) vector field: out[i, j] = d field_i / d x_j."""
    d = field.shape[0]
    out = np.empty((d, d) + field.shape[1:])
    for i in range(d):
        for j in range(d):
            out[i, j] = np.gradient(field[i], spacings[j], axis=j, edge_order=2)
    return out


def korn_poincare_check(v: np.ndarray, u_tilde: np.ndarray,
                        lengths: list[float]) -> dict:
    """Empirical two-sided data for the gradient-controls-velocity inequality.

    v and u_tilde are (d, n1, ..., nd) arrays on a uniform cell-centered grid
    over a box with the given side lengths; u_tilde must have zero boundary
    trace for the inequality to make sense.  Returns lhs, rhs and the
    empirical ratio c_P.
    """
    d = int(np.asarray(v).shape[0])
    if d == 1:
        raise UnsupportedDimensionError(
            "d = 1 unsupported: the traceless symmetrized gradient vanishes "
            "identically, so the inequality has no content")
    if d not in (2, 3):
        raise UnsupportedDimensionError(f"d must be 2 or 3, got {d}")
    v = np.asarray(v, dtype=float)
    u_tilde = np.asarray(u_tilde, dtype=float)
    if v.shape != u_tilde.shape or v.ndim != d + 1:
        raise DomainError("fields must be matching (d, n1..nd) arrays")

    shape = v.shape[1:]
    spacings = [lengths[j] / shape[j] for j in range(d)]
    cell = float(np.prod(spacings))

    diff = v - u_tilde
    lhs = float(np.sum(diff * diff) * cell)

    gv = _grad_nd(v, spacings)
    gu = _grad_nd(u_tilde, spacings)
    # move the two tensor axes last for the traceless operator
    tv = traceless(np.moveaxis(gv, (0, 1), (-2, -1)))
    tu = traceless(np.moveaxis(gu, (0, 1), (-2, -1)))
    dt_ = tv - tu
    rhs = float(np.sum(dt_ * dt_) * cell)

    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return {"lhs": lhs, "rhs": rhs, "c_P": ratio}

