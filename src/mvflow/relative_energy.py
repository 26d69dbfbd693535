"""Relative energy between an empirical measure and a smooth comparison flow.

Evaluates the modulated energy E(tau), the four remainder integrals that
drive its growth, grid-witnessed constants turning each remainder into a
bound by C * int E plus an absorbable share of the viscous trace block, and
the final exponential-growth verdict with its empirical counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CannotBoundError, DomainError, InvalidBandError,
                     ReferenceInvalidError)
from .measures import DefectReport, DiscreteYoungMeasure
# potential stays a module attribute here: perfbench/tracer.py wraps this name
from .pressure import (Certificate, PressureLaw, bregman_H, h_increment,
                       potential, row_blocks)
from .solver import ComparisonFlow, StrongSolutionRef

# Half-width of the band around s = r excluded from ratio scans; both sides
# of the scanned ratios vanish to second order there.
SCAN_EXCLUSION = 1e-6


def _check_alignment(measure: DiscreteYoungMeasure, ref: ComparisonFlow) -> None:
    if measure.times.shape != ref.times.shape or \
            not np.allclose(measure.times, ref.times, atol=1e-12, rtol=0.0):
        raise ReferenceInvalidError(
            "comparison solution sampled on different times than the measure")
    if measure.x.shape != ref.x.shape or \
            not np.allclose(measure.x, ref.x, atol=1e-12, rtol=0.0):
        raise ReferenceInvalidError(
            "comparison solution lives on a different grid than the measure")
    if np.min(ref.r) <= 0.0:
        raise ReferenceInvalidError("comparison density is not strictly positive")


def relative_energy_series(measure: DiscreteYoungMeasure, law: PressureLaw,
                           ref: ComparisonFlow) -> np.ndarray:
    """E(tau_k) = int < 1/2 s (v-U)^2 + B_H(s, r) > dx at every sample time."""
    _check_alignment(measure, ref)
    # 1/2 s (v - U)^2 + B_H: B_H first, with no other table alive, then the
    # kinetic term formed in place in its operand order and added to it
    # (the sum commutes)
    integrand = bregman_H(law, measure.S, ref.r)
    kin = np.multiply(0.5, measure.S)
    gap = np.subtract(measure.V, ref.U)
    kin *= np.square(gap, out=gap)
    del gap
    integrand += kin
    del kin
    integrand = np.mean(integrand, axis=0)
    if not np.all(np.isfinite(integrand)):
        raise DomainError("relative energy integrand is not finite")
    return np.sum(integrand, axis=1) * measure.dx


# -- estimator constants -----------------------------------------------------------
#
# The relative energy argument fixes these once.  The cutoff band sits
# BAND_MARGIN outside the densities it must bracket, with smoothing width
# WIDTH_FRAC * r1.  Ratio scans take SCAN_POINTS densities against
# SCAN_R_POINTS comparison densities, and every witnessed constant is
# inflated by GUARD.  The verdict forgives VERDICT_TOL of growth; an initial
# relative energy below FLOOR_IN is graded by the uniqueness clause, whose
# ceiling is FLOOR_OUT_SCALE * (1 + reference energy).  The Young split
# weights are not constants but fractions of the viscosity lam:
# eps = lam/2 and delta_split = lam/(8 c_tr), which absorb 5/8 of lam.

BAND_MARGIN = 0.05
WIDTH_FRAC = 0.1
SCAN_POINTS = 2001
SCAN_R_POINTS = 41
GUARD = 1.01
VERDICT_TOL = 1e-9
FLOOR_IN = 1e-12
FLOOR_OUT_SCALE = 1e-8


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class CutoffBand:
    """C^1 partition of unity psi + w1 + w2 = 1 over density.

    psi is 1 on [r1, r2] and supported in (r1 - width, r2 + width); w1 covers
    the low tail [0, r1), w2 the high tail (r2, infinity).
    """

    r1: float
    r2: float
    width: float

    def w1(self, s):
        s = np.asarray(s, dtype=float)
        return 1.0 - _smoothstep((s - (self.r1 - self.width)) / self.width)

    def w2(self, s):
        s = np.asarray(s, dtype=float)
        return _smoothstep((s - self.r2) / self.width)

    def psi(self, s):
        return 1.0 - self.w1(s) - self.w2(s)


def build_cutoff(law: PressureLaw, ref: StrongSolutionRef) -> CutoffBand:
    """Density band that strictly brackets the comparison range and the bump.

    The lower edge sits below half the smaller of (bump onset, inf r); the
    upper edge above twice the larger of (bump end, sup r).
    """
    r_inf = float(np.min(ref.r))
    r_sup = float(np.max(ref.r))
    lo = [r_inf / 2.0]
    hi = [2.0 * r_sup]
    if law.bump is not None:
        lo.append(law.bump.q1 / 2.0)
        hi.append(2.0 * law.bump.q2)
    r1 = (1.0 - BAND_MARGIN) * min(lo)
    r2 = (1.0 + BAND_MARGIN) * max(hi)
    width = WIDTH_FRAC * r1
    if r1 <= 0.0 or r1 - width <= 0.0:
        raise InvalidBandError(f"cutoff lower edge {r1} leaves no room above zero")
    if r2 <= r1 + width:
        raise InvalidBandError(f"cutoff band [{r1}, {r2}] is degenerate")
    return CutoffBand(r1=r1, r2=r2, width=width)


# -- grid-witnessed constants ----------------------------------------------------

def _scan_max(law: PressureLaw, s_grid: np.ndarray, r_grid: np.ndarray,
              num_fn, extra_candidates=()) -> float:
    """max over the scan grid of num(s, r) / B(s, r), diagonal excluded.

    The (r, s) table is taken in blocks of r rows (row_blocks), so its
    working set stays about TABLE_BLOCK cells; the max of the block maxima
    is the table's.  Each block divides into its B table only where the
    ratio is kept and takes the max there, from a floor of 0, which the
    excluded entries read as before.  num_fn(s, r) gives a block's
    numerators, each >= 0, so the floor moves no max.  extra_candidates
    supplies analytic s -> r limit values where the ratio has a removable
    singularity.
    """
    s = s_grid[None, :]
    maxima = []
    for rows in row_blocks(r_grid.size, s_grid.size):
        r = r_grid[rows, None]
        B = bregman_H(law, s, r)
        keep = np.abs(s - r) > SCAN_EXCLUSION * np.maximum(1.0, r)
        keep &= B > 0.0
        ratios = np.divide(num_fn(s, r), B, out=B, where=keep)
        maxima.append(np.max(ratios, where=keep, initial=0.0))
    best = float(np.max(maxima))
    for c in extra_candidates:
        best = max(best, float(c))
    if not np.isfinite(best):
        raise CannotBoundError("ratio scan diverged; the witnessed bound is empty")
    return best


def _trace_poincare_constant(measure: DiscreteYoungMeasure,
                             ref: StrongSolutionRef, trace_rate: np.ndarray) -> float:
    """Witnessed constant with int <(v-U)^2> <= c * int <(D - dU/dx)^2> per time,
    the right-hand integral being trace_rate at each sample time.

    Falls back to the closed-form (L/pi)^2 of zero-boundary profiles when the
    data gives no usable quotient (both sides at machine zero).
    """
    num = np.sum(np.mean((measure.V - ref.U) ** 2, axis=0), axis=1) * measure.dx
    usable = trace_rate > 1e-14 * np.maximum(1.0, num)
    if np.any(num[~usable] > 1e-12 * max(1.0, float(np.max(num)))):
        raise DomainError(
            "velocity mismatch with vanishing gradient mismatch; "
            "trace quotient is unbounded on this data")
    if not np.any(usable):
        return (measure.length / math.pi) ** 2
    return GUARD * float(np.max(num[usable] / trace_rate[usable]))


@dataclass(frozen=True)
class RemainderReport:
    """Remainder integrals, their bounds, slacks, and every constant used.

    I, bound and slack are (4, nt) arrays: row j is the term I_{j+2}, its
    bound and bound - |I|, at every sample time.
    """

    times: np.ndarray
    E_mv: np.ndarray
    I: np.ndarray
    bound: np.ndarray
    slack: np.ndarray
    constants: dict

    def rows(self):
        """CSV header and rows (tau, E_mv, I2..I5, bound2..5, slack2..5)."""
        return _table({"tau": self.times, "E_mv": self.E_mv}, self)


def _table(lead: dict, rem: RemainderReport):
    """The lead columns, then rem's I2..I5, bound2..5 and slack2..5, as a CSV
    header and rows."""
    cols = dict(lead, **{f"{name}{j + 2}": row
                         for name, rows in (("I", rem.I), ("bound", rem.bound),
                                            ("slack", rem.slack))
                         for j, row in enumerate(rows)})
    return list(cols), [tuple(float(c[k]) for c in cols.values())
                        for k in range(rem.times.size)]


def _cumtrapz(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(f)
    out[1:] = np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))
    return out


def _require_certificate(cert: Certificate, r_inf: float, r_sup: float,
                         s_max: float) -> None:
    if cert is None:
        raise CannotBoundError(
            "a convexity certificate is required to bound the remainders")
    if not cert.valid:
        raise CannotBoundError("certificate carries no positive witness")
    tiny = 1e-12
    if cert.r_values[0] > r_inf + tiny or cert.r_values[-1] < r_sup - tiny:
        raise InvalidBandError(
            f"certificate covers r in [{cert.r_values[0]:.6g}, "
            f"{cert.r_values[-1]:.6g}] but the comparison density spans "
            f"[{r_inf:.6g}, {r_sup:.6g}]")
    if cert.grid_max < s_max:
        raise InvalidBandError(
            f"certificate grid tops out at {cert.grid_max:.6g} "
            f"below the observed density {s_max:.6g}")


def remainder_terms(measure: DiscreteYoungMeasure, law: PressureLaw, lam: float,
                    ref: StrongSolutionRef, cert: Certificate) -> RemainderReport:
    """Evaluate the four growth integrals and their witnessed bounds.

    Each bound has the shape K * int_0^tau E dt plus, for the split terms, an
    absorbable multiple of the viscous trace block int int <(D - dU/dx)^2>.
    The absorbed multiples must sum below lam, the coefficient the energy
    balance actually provides; eps = lam/2 and delta_split = lam/(8 c_tr)
    put the total at 5/8 of it.
    """
    _check_alignment(measure, ref)
    if lam <= 0.0:
        raise DomainError(f"viscosity must be > 0, got {lam}")
    r_inf = float(np.min(ref.r))
    r_sup = float(np.max(ref.r))
    s_max = float(np.max(measure.S))
    _require_certificate(cert, r_inf, r_sup, s_max)
    cutoff = build_cutoff(law, ref)

    dx, times = measure.dx, measure.times
    S, V, D = measure.S, measure.V, measure.D
    trace_rate = np.sum(np.mean((D - ref.dU_dx[None]) ** 2, axis=0), axis=1) * dx

    # witnessed constants ---------------------------------------------------
    c_tr = _trace_poincare_constant(measure, ref, trace_rate)
    eps = lam / 2.0
    delta_split = lam / (8.0 * c_tr)
    absorbed = eps + delta_split * c_tr

    r_grid = np.linspace(r_inf, r_sup, SCAN_R_POINTS)
    s_cap = max(2.0 * (cutoff.r2 + cutoff.width), 1.2 * s_max)
    s_lo = cutoff.r1 - cutoff.width

    s_psi = np.linspace(s_lo, cutoff.r2 + cutoff.width, SCAN_POINTS)
    alpha_psi = GUARD * _scan_max(
        law, s_psi, r_grid, lambda s, r: cutoff.psi(s) * (s - r) ** 2 / np.sqrt(s),
        extra_candidates=cutoff.psi(r_grid) * 2.0 / (np.sqrt(r_grid) * law.d2H(r_grid)))

    s_low = np.linspace(0.0, cutoff.r1, SCAN_POINTS)
    A_w1 = GUARD * _scan_max(law, s_low, r_grid, lambda s, r: cutoff.w1(s) ** 2 * (s - r) ** 2)

    s_high = np.linspace(cutoff.r2, s_cap, SCAN_POINTS)
    A_w2 = GUARD * _scan_max(law, s_high, r_grid, lambda s, r: cutoff.w2(s) * s)

    if law.bump is None:
        Cq = 0.0
    else:
        s_all = np.linspace(0.0, s_cap, 2 * SCAN_POINTS)
        Cq = GUARD * _scan_max(
            law, s_all, r_grid, lambda s, r: (law.q(s) - law.q(r)) ** 2,
            extra_candidates=2.0 * law.dq(r_grid) ** 2 / law.d2H(r_grid))

    w3 = (lam * ref.d2U_dx2 - law.dq(ref.r) * ref.dr_dx) / ref.r
    w3_sup = float(np.max(np.abs(w3)))
    dU_sup = float(np.max(np.abs(ref.dU_dx)))
    U_C1 = float(np.max(np.abs(ref.U)) + np.max(np.abs(ref.dU_dx))
                 + np.max(np.abs(ref.dU_dt)))

    K2 = max(U_C1, 2.0 * dU_sup)
    K3 = w3_sup * max(alpha_psi / 2.0, 1.0 / math.sqrt(s_lo)) \
        + w3_sup ** 2 * A_w1 / (4.0 * delta_split) \
        + w3_sup * max(A_w2 / 2.0, 1.0)
    K4 = dU_sup * cert.C_max
    K5 = Cq / (4.0 * eps)

    # remainder integrals ---------------------------------------------------
    E_mv = relative_energy_series(measure, law, ref)
    cum_E = _cumtrapz(E_mv, times)
    cum_trace = _cumtrapz(trace_rate, times)

    m2 = np.mean(S * (V - ref.U) ** 2, axis=0)
    I2 = _cumtrapz(-np.sum(m2 * ref.dU_dx, axis=1) * dx, times)

    m3 = np.mean((S - ref.r) * (ref.U - V), axis=0)
    I3 = _cumtrapz(np.sum(m3 * w3, axis=1) * dx, times)

    m4 = np.mean(h_increment(law, S, ref.r), axis=0)
    I4 = _cumtrapz(-np.sum(m4 * ref.dU_dx, axis=1) * dx, times)

    if law.bump is None:
        I5 = np.zeros_like(E_mv)
    else:
        m5 = np.mean((law.q(S) - law.q(ref.r)) * (D - ref.dU_dx[None]), axis=0)
        I5 = _cumtrapz(np.sum(m5, axis=1) * dx, times)

    I = np.array([I2, I3, I4, I5])
    bound = np.array([K2 * cum_E,
                      K3 * cum_E + delta_split * c_tr * cum_trace,
                      K4 * cum_E,
                      K5 * cum_E + eps * cum_trace])

    constants = {
        "K2": K2, "K3": K3, "K4": K4, "K5": K5,
        "w3_sup": w3_sup, "dU_sup": dU_sup, "U_C1": U_C1,
        "alpha_psi": alpha_psi, "A_w1": A_w1, "A_w2": A_w2, "Cq": Cq,
        "C_max": cert.C_max, "c_lower": cert.c_min,
        "c_trace": c_tr, "eps": eps, "delta_split": delta_split,
        "absorbed_trace": absorbed, "lam": lam,
        "r1_cut": cutoff.r1, "r2_cut": cutoff.r2, "cut_width": cutoff.width,
    }
    return RemainderReport(
        times=times.copy(), E_mv=E_mv, I=I, bound=bound, slack=bound - np.abs(I),
        constants=constants)


# -- exponential growth verdict ---------------------------------------------------

@dataclass(frozen=True)
class RelativeEnergyReport:
    """Stability verdict: empirical growth factor against the certified one."""

    D: np.ndarray
    remainders: RemainderReport
    constants: dict
    lambda_emp: float
    lambda_cert: float
    uniqueness_mode: bool
    passed: bool

    def rows(self):
        """CSV header and rows (tau, E_mv, D, I2..I5, bound2..5, slack2..5)."""
        rem = self.remainders
        return _table({"tau": rem.times, "E_mv": rem.E_mv, "D": self.D}, rem)

    def verdict_line(self) -> str:
        mode = "uniqueness" if self.uniqueness_mode else "growth"
        consts = " ".join(f"{k}={v:.6g}" for k, v in sorted(self.constants.items())
                          if isinstance(v, float))
        return (f"verdict={'pass' if self.passed else 'fail'} mode={mode} "
                f"lambda_emp={self.lambda_emp:.6g} "
                f"lambda_cert={self.lambda_cert:.6g} {consts}")


def gronwall_verdict(remainders: RemainderReport, defect: DefectReport,
                     ref: StrongSolutionRef, law: PressureLaw) -> RelativeEnergyReport:
    """Compare max (E + D) against exp(C_total T) times the initial energy,
    with E from the remainder report and D and xi from the defect report.

    C_total collects the coefficients of int E from every remainder bound plus
    sup(xi) * |U|_C1 for the concentration pairing.  When E(0) sits below the
    input floor FLOOR_IN the run is graded by the uniqueness clause instead:
    E + D must stay below FLOOR_OUT_SCALE * (1 + reference energy) throughout.
    """
    times, E_mv, D = remainders.times, remainders.E_mv, defect.D_total
    if defect.times.shape != times.shape or \
            not np.allclose(defect.times, times, atol=1e-12, rtol=0.0):
        raise DomainError("defect report sampled on different times "
                          "than the remainder report")
    if E_mv[0] < -1e-15:
        raise DomainError(f"initial relative energy is negative: {E_mv[0]}")

    k = remainders.constants
    xi_sup = float(np.max(defect.xi))
    C_total = k["K2"] + k["K3"] + k["K4"] + k["K5"] + xi_sup * k["U_C1"]
    T = float(times[-1])
    lambda_cert = math.exp(C_total * T)

    # energy scale of the comparison flow, for the uniqueness floor
    e_ref_density = 0.5 * ref.r[0] * ref.U[0] ** 2 + potential(law, ref.r[0])
    E_ref = float(np.sum(e_ref_density) * ref.dx)

    total = E_mv + D
    E0 = float(E_mv[0])
    lambda_emp = float(np.max(total)) / max(E0, FLOOR_IN)

    uniqueness = E0 < FLOOR_IN
    if uniqueness:
        floor_out = FLOOR_OUT_SCALE * (1.0 + E_ref)
        passed = bool(np.all(total < floor_out))
    else:
        passed = bool(lambda_emp <= lambda_cert + VERDICT_TOL)

    constants = dict(k)
    constants.update({"C_total": C_total, "xi_sup": xi_sup, "T": T,
                      "E0": E0, "E_ref": E_ref})
    return RelativeEnergyReport(
        D=D.copy(), remainders=remainders, constants=constants,
        lambda_emp=lambda_emp, lambda_cert=lambda_cert,
        uniqueness_mode=uniqueness, passed=passed)
