"""Pressure laws p = h + q, their potentials, and convexity certificates.

The monotone part h is a power law (or tabulated samples); the optional
non-monotone part q is a C^1 bump compactly supported in (0, oo).  The
pressure potential splits the same way, P = H + Q, with

    H(rho) = rho * int_1^rho h(z)/z^2 dz,     Q likewise from q,

so that rho*H' - H = h and rho*H'' = h'.  Every potential is evaluated in
closed form: the power law directly, the bump and each cubic piece of a
tabulated law through the exact antiderivative of a polynomial over z^2,
and a tabulated law's power-law tail likewise.  Adaptive quadrature appears
only in the test suite, as the oracle these closed forms are checked against.

The Bregman divergence of H is the distance notion used by the stability
machinery.  certify witnesses on a user-supplied grid, from one pass with
one B table per block, a lower bound on it by (rho - r)^2 or 1 + rho^gamma
and a bound of the h-increment by it.  Its (r, rho) tables, the
relative-energy ratio scans and the residual families' test-function tables
are all taken in blocks of TABLE_BLOCK cells.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientGridError, InvalidLawError


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported at the first call.  Nothing here calls
    it; perfbench/tracer.py counts quadrature calls through this name."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


# A PCHIP end slope below this share of the mean slope h_max / rho_max is
# rounding noise of the one-sided end formula; the tail then matches value only.
TAIL_SLOPE_RTOL = 1e-9

# Exclusion half-width around rho = r where the h-ratio is 0/0 to second order.
H_BOUND_EXCLUSION = 1e-6

# Comparison densities r sampled across [r_min, r_max] by a certificate.
CERTIFICATE_R_POINTS = 33

# Cells per block of every wide (rho, r) or test-function table: the
# certificates and ratio scans take B over blocks of r rows, the residual
# families their tables over blocks of functions, so a table's working set
# stays this size (at least one row) whatever its length.
TABLE_BLOCK = 2**14


def row_blocks(n_rows: int, row_cells: int):
    """Slices covering range(n_rows) in blocks of about TABLE_BLOCK cells,
    at least one row each; none when the rows hold no cells."""
    if not row_cells:
        return []
    step = max(1, TABLE_BLOCK // row_cells)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _pchip_end_slope(h0, h1, m0, m1):
    """PCHIP's one-sided three-point end slope, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, len(x) - 1) cubic Hermite coefficients of the PCHIP interpolant.

    Row j multiplies (z - x[k])^(3 - j) on piece k.  The knot slopes are
    Fritsch and Carlson's weighted harmonic means of the secant slopes
    (SIAM J. Numer. Anal. 17, 1980), with the one-sided ends of Moler's
    pchiptx.  Every operation is the one scipy's PchipInterpolator and
    CubicHermiteSpline perform, in the same order, so the coefficients are
    bit-identical to theirs.
    """
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    # increasing samples give secant slopes >= 0 (0 where the quotient
    # underflows), so two neighbours differ in sign only where one is 0
    flat = (mk[1:] == 0.0) | (mk[:-1] == 0.0)
    w1 = 2.0 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2.0 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end_slope(hk[0], hk[1], mk[0], mk[1])
    d[-1] = _pchip_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    t = (d[:-1] + d[1:] - 2.0 * mk) / hk
    return np.stack((t / hk, (mk - d[:-1]) / hk - t, d[:-1], y[:-1]))


@dataclass(frozen=True)
class CompactBump:
    """C^1 bump q(rho) = amp * 16 t^2 (1-t)^2, t = (rho-q1)/(q2-q1), on [q1, q2].

    The quartic profile peaks at amp in the middle of the support and has
    vanishing slope at both endpoints, so q is C^1 on all of [0, oo).
    """

    q1: float
    q2: float
    amp: float
    # degree 0..4 coefficients of q(z) in powers of z, built once
    _coef: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _phi_one: float = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not (self.q1 > 0.0 and np.inf > self.q2 > self.q1 and np.isfinite(self.amp)):
            raise InvalidLawError(f"bump needs 0 < q1 < q2 < inf and a finite amp, "
                                  f"got [{self.q1}, {self.q2}] and {self.amp}")
        # q(z) = 16 amp / w^4 * [(z - q1)(q2 - z)]^2, expanded in powers of z;
        # squaring the quadratic's coefficients is their convolution
        p2 = np.array([-self.q1 * self.q2, self.q1 + self.q2, -1.0])
        object.__setattr__(self, "_coef", (16.0 * self.amp / self.width**4) * np.convolve(p2, p2))
        # the antiderivative at the lower limit 1, clipped to the support, on
        # an array as the calls evaluate it
        one = np.minimum(np.maximum(np.ones(1), self.q1), self.q2)
        object.__setattr__(self, "_phi_one", self._phi(one)[0])

    @property
    def width(self) -> float:
        return self.q2 - self.q1

    # Outside the support t leaves [0, 1]; np.where then discards what the
    # profile gives there, so t needs no clipping.
    def _profile(self, rho):
        """t, 1 - t and the support mask t in [0, 1] at rho."""
        t = (_as_array(rho) - self.q1) / self.width
        return t, 1.0 - t, (t >= 0.0) & (t <= 1.0)

    def _value(self, t, omt, inside) -> np.ndarray:
        return np.where(inside, self.amp * 16.0 * t * t * omt * omt, 0.0)

    def _slope(self, t, omt, inside) -> np.ndarray:
        dpsi = 32.0 * t * omt * (1.0 - 2.0 * t)
        return np.where(inside, self.amp * dpsi / self.width, 0.0)

    def value(self, rho) -> np.ndarray:
        return self._value(*self._profile(rho))

    def slope(self, rho) -> np.ndarray:
        return self._slope(*self._profile(rho))

    def value_and_slope(self, rho) -> tuple[np.ndarray, np.ndarray]:
        """value(rho) and slope(rho) from one profile."""
        prof = self._profile(rho)
        return self._value(*prof), self._slope(*prof)

    def _phi(self, z: np.ndarray) -> np.ndarray:
        """The antiderivative of q(z)/z^2 on the support."""
        d = self._coef
        return (-d[0] / z + d[1] * np.log(z) + d[2] * z
                + d[3] * z * z / 2.0 + d[4] * z**3 / 3.0)

    def integral_over_z2(self, rho) -> np.ndarray:
        """Exact antiderivative evaluation of int_1^rho q(z)/z^2 dz."""
        hi = np.minimum(np.maximum(_as_array(rho), self.q1), self.q2)
        return self._phi(hi) - self._phi_one


@dataclass(frozen=True)
class PowerLawH:
    """Monotone part h(rho) = a * rho^gamma with a > 0, gamma >= 1."""

    a: float
    gamma: float

    def __post_init__(self):
        if not (np.inf > self.a > 0.0):
            raise InvalidLawError(f"power-law a must be finite and > 0, got {self.a}")
        if not (np.inf > self.gamma >= 1.0):
            raise InvalidLawError(f"power-law gamma must be finite and >= 1, got {self.gamma}")

    def value(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return self.a * np.power(rho, self.gamma)

    def slope(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return self.a * self.gamma * np.power(rho, self.gamma - 1.0)

    def value_and_slope(self, rho) -> tuple[np.ndarray, np.ndarray]:
        # the two powers share no work
        return self.value(rho), self.slope(rho)

    def potential(self, rho) -> np.ndarray:
        """H(rho); closed form, with H(0) = 0 taken as the limit value."""
        rho = np.asarray(rho, dtype=float)
        if self.gamma == 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = self.a * rho * np.log(rho)
            return np.where(rho > 0.0, out, 0.0)
        return self.a * (np.power(rho, self.gamma) - rho) / (self.gamma - 1.0)

    def potential_slope(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.gamma == 1.0:
            return self.a * (np.log(rho) + 1.0)
        return self.a * (self.gamma * np.power(rho, self.gamma - 1.0) - 1.0) / (self.gamma - 1.0)

    def potential_curvature(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return self.a * self.gamma * np.power(rho, self.gamma - 2.0)


def _local_cubic(c, s, s2) -> np.ndarray:
    """c[0] + c[1] s + c[2] s^2 (+ c[3] s^3) summed from the lowest power up,
    as scipy's PPoly sums it; s2 = s * s."""
    out = 0.0 + c[0] + c[1] * s + c[2] * s2
    if len(c) > 3:
        out = out + c[3] * (s2 * s)
    return out


@dataclass(frozen=True)
class TabulatedH:
    """Monotone part from strictly increasing samples, with a power-law tail.

    On [0, rho_max] h is the PCHIP interpolant of the samples (Fritsch and
    Carlson's monotone cubic, C^1).  Beyond the last sample it continues as
    the monotone tail a * rho^gamma_tail + b.  The tail matches the last
    sample's value, and also the PCHIP end slope when that slope is positive
    (a zero end slope gives the pure power h_max * (rho / rho_max)^gamma_tail).
    So h stays strictly increasing on [0, oo), and gamma_tail is the growth
    exponent the certificates and the sound-speed floor assume.  Samples must
    start at (0, 0), since h(0) = 0 is part of the admissibility conditions.

    The interpolant is built and evaluated in numpy, bit for bit as scipy's
    PchipInterpolator and its derivative would give it (scipy serves as the
    test oracle only): importing scipy.interpolate costs a fresh process
    about 0.3 s.  Value and slope evaluate the local cubic in s = rho - knot
    as scipy's PPoly does, from the lowest power up.

    The potential uses closed forms only: each cubic piece
    A0 + A1 z + A2 z^2 + A3 z^3 integrates against 1/z^2 exactly, and so does
    the tail.  Whatever a piece's integral reads that depends on the piece
    alone is folded into one table at construction, so a potential takes
    its pieces' constants in one gather.
    """

    rho_samples: tuple
    h_samples: tuple
    gamma_tail: float = 2.0
    # the interior knots (to find a point's piece), and one (8, pieces)
    # table: the local coefficients of h in s = rho - left knot, lowest power
    # first, each piece's left knot, then those of h'; _rows views its rows.
    # value gathers rows 0-4 and slope rows 4-7 row by row (one gather per
    # row is the fastest on wide tables), value_and_slope all eight in one
    # take (the fastest on a solver's rows)
    _inner: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _local: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _rows: tuple = field(init=False, repr=False, compare=False, default=None)
    # tail h = _tail_a * rho^gamma_tail + _tail_b beyond rho_max
    _tail_a: float = field(init=False, repr=False, compare=False, default=0.0)
    _tail_b: float = field(init=False, repr=False, compare=False, default=0.0)
    # one (7, pieces) table, the tail the last piece: the global cubic
    # coefficients A0, A1, A2 and A3/2, the anchor c, the tail's power term
    # a * c^(gamma_tail - 1) (0 on the cubics) and int_1^c h(z)/z^2 dz
    _pieces: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        r = np.asarray(self.rho_samples, dtype=float)
        h = np.asarray(self.h_samples, dtype=float)
        if r.ndim != 1 or r.shape != h.shape or r.size < 3:
            raise InvalidLawError("tabulated law needs >= 3 matching (rho, h) samples")
        if not (np.isfinite(r).all() and np.isfinite(h).all()):
            raise InvalidLawError("tabulated samples must be finite")
        if r[0] != 0.0 or h[0] != 0.0:
            raise InvalidLawError("tabulated law must start at (0, 0)")
        if np.any(np.diff(r) <= 0.0) or np.any(np.diff(h) <= 0.0):
            raise InvalidLawError("tabulated samples must be strictly increasing")
        if not (np.inf > self.gamma_tail >= 1.0):
            raise InvalidLawError("gamma_tail must be finite and >= 1")
        c = _pchip_coefficients(r, h)
        # the derivative's coefficients, as PPoly.derivative scales them
        dc = c[:-1] * np.array([[3.0], [2.0], [1.0]])
        local = np.vstack([c[::-1], r[:-1], dc[::-1]])
        for name, val in (("_inner", r[1:-1]), ("_local", local), ("_rows", tuple(local))):
            object.__setattr__(self, name, val)
        g = float(self.gamma_tail)
        r_max, h_max = float(r[-1]), float(h[-1])
        s_max = float(self.slope(r_max))  # r_max lies on the last piece
        if s_max > TAIL_SLOPE_RTOL * h_max / r_max:
            a = s_max / (g * r_max ** (g - 1.0))
            b = h_max - a * r_max**g
        else:
            a, b = h_max / r_max**g, 0.0

        # local Taylor coefficients d_k about the left knot x, re-expanded in
        # powers of z; piece 0 has x = 0, so its A0 = h(0) = 0 exactly
        x = r[:-1]
        d3, d2, d1, d0 = c
        coef = np.vstack([d0 - d1 * x + d2 * x * x - d3 * x**3,
                          d1 - 2.0 * d2 * x + 3.0 * d3 * x * x,
                          d2 - 3.0 * d3 * x,
                          d3])
        # tail: b enters as A0; a z^gamma_tail as A1 when gamma_tail = 1,
        # else through the power term; piece 0 is anchored at its right knot,
        # so no ln 0 arises
        coef = np.hstack([coef, [[b], [a if g == 1.0 else 0.0], [0.0], [0.0]]])
        anchor = np.concatenate([[r[1]], r[1:]])
        power = np.zeros(r.size)
        if g != 1.0:
            power[-1] = a
        pieces = np.vstack([coef[:3], 0.5 * coef[3], anchor,
                            power * np.power(anchor, g - 1.0), np.zeros(r.size)])
        for name, val in (("_tail_a", a), ("_tail_b", b), ("_pieces", pieces)):
            object.__setattr__(self, name, val)

        # integrals from r[1] to each anchor, then from 1 (which lies on piece j)
        steps = self._piece_integral(pieces[:, 1:-1], r[2:])
        from_r1 = np.concatenate([[0.0, 0.0], np.cumsum(steps)])
        j = int(np.searchsorted(r[1:], 1.0, side="right"))
        one = from_r1[j] + float(self._piece_integral(pieces[:, j], np.asarray(1.0)))
        pieces[6] = from_r1 - one

    @property
    def a(self) -> float:
        """Leading coefficient of the tail a * rho^gamma_tail + b."""
        return float(self._tail_a)

    @property
    def gamma(self) -> float:
        return self.gamma_tail

    @property
    def rho_max(self) -> float:
        return float(self.rho_samples[-1])

    # Piece k covers [knot k, knot k+1); the first and last pieces extend
    # beyond the table, and the last knot belongs to the last piece.
    def _piece(self, rho: np.ndarray) -> np.ndarray:
        return self._inner.searchsorted(rho, "right")

    def _h_tail(self, z: np.ndarray) -> np.ndarray:
        return self._tail_a * np.power(z, self.gamma_tail) + self._tail_b

    def _dh_tail(self, z: np.ndarray) -> np.ndarray:
        g = self.gamma_tail
        return self._tail_a * g * np.power(z, g - 1.0)

    def _with_tails(self, rho: np.ndarray, *parts) -> list:
        """Each (inside, tail) pair's inside values, tail(rho) past rho_max."""
        far = rho > self.rho_max
        if not far.any():
            return [inside for inside, _ in parts]
        z = np.maximum(rho, self.rho_max)
        return [np.where(far, tail(z), inside) for inside, tail in parts]

    def value(self, rho) -> np.ndarray:
        rho = _as_array(rho)
        k = self._piece(rho)
        *c, left = (row[k] for row in self._rows[:5])
        s = rho - left
        return self._with_tails(rho, (_local_cubic(c, s, s * s), self._h_tail))[0]

    def slope(self, rho) -> np.ndarray:
        rho = _as_array(rho)
        k = self._piece(rho)
        left, *c = (row[k] for row in self._rows[4:])
        s = rho - left
        return self._with_tails(rho, (_local_cubic(c, s, s * s), self._dh_tail))[0]

    def value_and_slope(self, rho) -> tuple[np.ndarray, np.ndarray]:
        """value(rho) and slope(rho) from one piece search, one gather, one
        s^2 and one tail mask."""
        rho = _as_array(rho)
        c = self._local.take(self._piece(rho), axis=1)
        s = rho - c[4]
        s2 = s * s
        h, dh = self._with_tails(rho, (_local_cubic(c[:4], s, s2), self._h_tail),
                                 (_local_cubic(c[5:], s, s2), self._dh_tail))
        return h, dh

    def _piece_integral(self, cols: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """int_c^rho h(z)/z^2 dz from each piece's anchor c, rho > 0, where
        cols holds the pieces' columns of the piece table.

        The antiderivative -A0/z + A1 ln z + A2 z + A3 z^2/2 (+ a z^g/g with
        g = gamma_tail - 1 on the tail) is differenced in cancellation-free
        form.
        """
        A0, A1, A2, half_A3, c, power, _ = cols
        dz = rho - c
        log_ratio = np.log(rho / c)
        out = dz * (A0 / (c * rho) + A2 + half_A3 * (c + rho)) + A1 * log_ratio
        if self.gamma_tail != 1.0:
            g = self.gamma_tail - 1.0
            out = out + power * np.expm1(g * log_ratio) / g
        return out

    def integral_over_z2(self, rho) -> np.ndarray:
        """Exact int_1^rho h(z)/z^2 dz for rho > 0, tail included."""
        rho = _as_array(rho)
        # piece k covers [knot k, knot k+1); the tail is k = len(knots) - 1
        cols = self._pieces.take(self._pieces[4, 1:].searchsorted(rho, "right"), axis=1)
        return cols[6] + self._piece_integral(cols, rho)

    def potential(self, rho) -> np.ndarray:
        """H(rho) = rho * int_1^rho h(z)/z^2 dz, with H(0) = 0 as the limit."""
        rho = _as_array(rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = rho * self.integral_over_z2(rho)
        return np.where(rho > 0.0, out, 0.0)

    def potential_slope(self, rho) -> np.ndarray:
        rho = _as_array(rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.integral_over_z2(rho) + self.value(rho) / rho

    def potential_curvature(self, rho) -> np.ndarray:
        rho = _as_array(rho)
        return self.slope(rho) / rho


@dataclass(frozen=True)
class PressureLaw:
    """p(rho) = h(rho) + q(rho); bump = None means q = 0."""

    h_part: PowerLawH | TabulatedH
    bump: CompactBump | None = None

    # -- pressure -----------------------------------------------------------
    def h(self, rho):
        return self.h_part.value(rho)

    def dh(self, rho):
        return self.h_part.slope(rho)

    def q(self, rho):
        if self.bump is None:
            return np.zeros_like(_as_array(rho))
        return self.bump.value(rho)

    def dq(self, rho):
        if self.bump is None:
            return np.zeros_like(_as_array(rho))
        return self.bump.slope(rho)

    # p, dp and P skip adding the zero bump of a bump-free law
    def p(self, rho):
        if self.bump is None:
            return self.h_part.value(rho)
        return self.h_part.value(rho) + self.bump.value(rho)

    def dp(self, rho):
        if self.bump is None:
            return self.h_part.slope(rho)
        return self.h_part.slope(rho) + self.bump.slope(rho)

    def p_and_dp(self, rho):
        """(p(rho), dp(rho)) in one pass: each part's value and slope share
        their intermediates."""
        h, dh = self.h_part.value_and_slope(rho)
        if self.bump is None:
            return h, dh
        q, dq = self.bump.value_and_slope(rho)
        return h + q, dh + dq

    # -- potential ----------------------------------------------------------
    def H(self, rho):
        return self.h_part.potential(rho)

    def dH(self, rho):
        return self.h_part.potential_slope(rho)

    def d2H(self, rho):
        return self.h_part.potential_curvature(rho)

    def Q(self, rho):
        """Q(rho) = rho * int_1^rho q(z)/z^2 dz via the exact antiderivative."""
        rho = _as_array(rho)
        if self.bump is None:
            return np.zeros_like(rho)
        return rho * self.bump.integral_over_z2(rho)

    def P(self, rho):
        if self.bump is None:
            return self.h_part.potential(rho)
        return self.h_part.potential(rho) + self.Q(rho)

    @property
    def gamma(self) -> float:
        return self.h_part.gamma

    @property
    def a(self) -> float:
        return self.h_part.a


def potential(law: PressureLaw, rho):
    """P(rho) = H(rho) + Q(rho) in closed form; rho must be >= 0."""
    rho = _as_array(rho)
    if np.any(rho < 0.0):
        raise DomainError("potential requires rho >= 0")
    return law.P(rho)


def _power_bregman(a: float, gamma: float, rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Cancellation-free Bregman divergence of H for the power-law part.

    Writes B(rho, r) = a * r^gamma * g(x), x = rho/r, and sums the binomial
    series of g for x near 1; the direct formula is safe elsewhere.  For
    gamma = 2 the series terminates after one term, so B = a (rho - r)^2 to
    rounding accuracy even when rho is within one grid cell of r.

    rho and r keep their own shapes; only the arithmetic broadcasts.  The
    series runs on the window of the last axis that holds every entry near
    the diagonal (a narrow band of a sorted rho grid against nearby r), with
    the other increments in it set to 0: their terms are exactly 0 and pass
    the stopping test, so the loop stops at the term it would stop at on the
    near entries alone.  np.where then picks each entry's branch.
    """
    x = rho / r
    # (rho - r) is exact for rho within [r/2, 2r] (Sterbenz), so forming the
    # increment before dividing keeps d fully accurate in the series branch
    d = (rho - r) / r
    near = np.abs(d) <= 0.5
    acc = None
    if np.logical_or.reduce(near, axis=None):
        win = ()
        if near.ndim:
            cols = np.flatnonzero(near.any(axis=tuple(range(near.ndim - 1))))
            win = (..., slice(cols[0], cols[-1] + 1))
        dn = np.where(near[win], d[win], 0.0)
        beta = gamma / 2.0
        acc = beta * dn * dn
        dk = dn * dn
        k = 2
        while True:
            beta = beta * (gamma - k) / (k + 1.0)
            if beta == 0.0:
                break
            dk = dk * dn
            term = beta * dk
            acc += term
            k += 1
            if k > 200 or np.logical_and.reduce(
                    np.abs(term) <= 1e-18 * np.maximum(np.abs(acc), 1e-300), axis=None):
                break

    if acc is not None and np.logical_and.reduce(near, axis=None):
        out = acc
    else:
        if gamma == 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(x > 0.0, x * np.log(x), 0.0) - (x - 1.0)
        else:
            out = np.power(x, gamma) - 1.0 - gamma * (x - 1.0)
            if gamma != 2.0:  # dividing by 1 changes no bit
                out /= gamma - 1.0
        if acc is not None:
            out[win] = np.where(near[win], acc, out[win])

    return a * np.power(r, gamma) * out


def h_increment(law: PressureLaw, rho, r):
    """h(rho) - h(r) - h'(r)(rho - r), evaluated without cancellation.

    For a power law this equals (gamma - 1) times the H-Bregman divergence,
    which the stable series core already provides; gamma = 1 makes h linear
    and the increment identically zero.
    """
    rho = np.asarray(rho, dtype=float)
    r = np.asarray(r, dtype=float)
    if isinstance(law.h_part, PowerLawH):
        g = law.gamma
        if g == 1.0:
            return np.zeros(np.broadcast_shapes(rho.shape, r.shape))
        return (g - 1.0) * _power_bregman(law.a, g, rho, r)
    return law.h(rho) - law.h(r) - law.dh(r) * (rho - r)


def bregman_H(law: PressureLaw, rho, r):
    """Bregman divergence H(rho) - H(r) - H'(r)(rho - r); rho >= 0, r > 0.

    Only the monotone part enters.  Nonnegative by convexity of H and zero
    iff rho = r.
    """
    rho = np.asarray(rho, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("bregman_H requires r > 0")
    if np.any(rho < 0.0):
        raise DomainError("bregman_H requires rho >= 0")
    if isinstance(law.h_part, PowerLawH):
        out = _power_bregman(law.a, law.gamma, rho, r)
    else:
        out = law.H(rho) - law.H(r) - law.dH(r) * (rho - r)
    return out if out.shape else float(out)


# -- certificates ------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Grid witnesses of the two lemmas over the r samples r_values:
    B(rho, r) >= c_middle (rho-r)^2 on the band [r1, r2] and >= c_outer
    (1+rho^gamma) outside it, and |h(rho)-h(r)-h'(r)(rho-r)| <= C_of_r *
    B(rho, r).  Valid iff c_min > 0 and every C(r) is finite."""

    r1: float
    r2: float
    r_values: np.ndarray
    c_middle: np.ndarray
    c_outer: np.ndarray
    C_of_r: np.ndarray
    grid_max: float
    valid: bool

    @property
    def c_min(self) -> float:
        return float(np.min(np.minimum(self.c_middle, self.c_outer)))

    @property
    def C_max(self) -> float:
        return float(np.max(self.C_of_r))

    def rows(self):
        """CSV header and rows (r, c_middle, c_outer, C_ratio, valid)."""
        return (["r", "c_middle", "c_outer", "C_ratio", "valid"],
                [(float(r), float(cm), float(co), float(cr), self.valid)
                 for r, cm, co, cr in zip(self.r_values, self.c_middle,
                                          self.c_outer, self.C_of_r)])


def _check_grid(rho_grid: np.ndarray, r_min: float, r_max: float) -> tuple[float, float]:
    if rho_grid.ndim != 1 or rho_grid.size < 8:
        raise InsufficientGridError("certification grid needs at least 8 points")
    if np.any(np.diff(rho_grid) <= 0.0):
        raise InsufficientGridError("certification grid must be strictly increasing")
    if not (0.0 < r_min <= r_max):
        raise DomainError(f"r range must satisfy 0 < r_min <= r_max, got [{r_min}, {r_max}]")
    r2 = 2.0 * r_max
    if rho_grid[0] > 1e-12:
        raise InsufficientGridError("grid must start at rho = 0")
    if rho_grid[-1] < 2.0 * r2:
        raise InsufficientGridError(
            f"grid must reach rho >= {2.0 * r2} = 2*r2 to witness the outer band")
    return r_min / 2.0, r2


def _r_values(r_min: float, r_max: float) -> np.ndarray:
    """The comparison densities a certificate is taken at."""
    if r_max > r_min:
        return np.linspace(r_min, r_max, CERTIFICATE_R_POINTS)
    return np.array([r_min])


def _lower_block(law: PressureLaw, rho_grid: np.ndarray, middle: np.ndarray,
                 outer_den: np.ndarray, r: np.ndarray, breg: np.ndarray):
    """c_middle and c_outer of a block of r rows (an (m, 1) column) from
    their B table; its temporaries go when it returns."""
    gap = rho_grid - r
    mid = middle & (np.abs(gap) > 1e-9 * np.maximum(1.0, r))
    empty = ~mid.any(axis=1)
    if empty.any():
        raise InsufficientGridError(
            f"no middle-band grid points distinct from r = {r[np.argmax(empty), 0]}; "
            "refine the grid")
    ratios = np.where(mid, breg / np.where(mid, gap * gap, 1.0), np.inf)
    # the rho -> r limit B/(rho-r)^2 -> H''(r)/2 is a legitimate candidate
    return (np.minimum(np.min(ratios, axis=1), law.d2H(r[:, 0]) / 2.0),
            np.min(np.where(middle, np.inf, breg / outer_den), axis=1))


def _h_block(law: PressureLaw, rho_grid: np.ndarray, r: np.ndarray,
             breg: np.ndarray) -> np.ndarray:
    """C(r) of a block of r rows (an (m, 1) column) from their B table, -inf
    where every grid point is excluded; a power law's increment is
    |(gamma - 1) B| from the same B."""
    keep = np.abs(rho_grid - r) >= H_BOUND_EXCLUSION
    if isinstance(law.h_part, PowerLawH) and law.gamma != 1.0:
        hinc = np.abs((law.gamma - 1.0) * breg)
    else:
        hinc = np.abs(h_increment(law, rho_grid, r))
    pos = breg > 0.0
    ratios = np.where(pos, hinc / np.where(pos, breg, 1.0), np.inf)
    return np.max(np.where(keep, ratios, -np.inf), axis=1)


def certify(law: PressureLaw, r_range: tuple[float, float], rho_grid) -> Certificate:
    """Both lemma witnesses of law over r in r_range on rho_grid, from one
    pass over blocks of r rows against the whole grid (row_blocks) with one B
    table per block.

    The lower bound's band is [r1, r2] = [r_min/2, 2 r_max].  The h bound
    skips a band |rho - r| < H_BOUND_EXCLUSION, where both sides vanish to
    second order and the ratio is numerically 0/0.  A grid that leaves a
    lower-bound row empty raises first; one that leaves an h-bound row empty
    raises after the pass.
    """
    rho_grid = _as_array(rho_grid)
    r_min, r_max = float(r_range[0]), float(r_range[1])
    r1, r2 = _check_grid(rho_grid, r_min, r_max)

    r_values = _r_values(r_min, r_max)
    c_mid, c_out, C = (np.empty(r_values.size) for _ in range(3))
    middle = (rho_grid >= r1) & (rho_grid <= r2)
    outer_den = 1.0 + rho_grid ** law.gamma
    for rows in row_blocks(r_values.size, rho_grid.size):
        r = r_values[rows, None]
        breg = bregman_H(law, rho_grid, r)
        c_mid[rows], c_out[rows] = _lower_block(law, rho_grid, middle, outer_den,
                                                r, breg)
        C[rows] = _h_block(law, rho_grid, r, breg)

    empty = C == -np.inf
    if empty.any():
        raise InsufficientGridError(
            f"no grid points outside the exclusion band around r = "
            f"{r_values[np.argmax(empty)]}; refine the grid")
    valid = np.min(np.minimum(c_mid, c_out)) > 0.0 and np.all(np.isfinite(C))
    return Certificate(r1=r1, r2=r2, r_values=r_values, c_middle=c_mid,
                       c_outer=c_out, C_of_r=C, grid_max=float(rho_grid[-1]),
                       valid=bool(valid))


# -- serialization ------------------------------------------------------------

def law_to_config(law: PressureLaw) -> dict:
    """Flatten a law into dotted key/value pairs for the text config format."""
    out: dict[str, str] = {}
    if isinstance(law.h_part, PowerLawH):
        out["law.kind"] = "power"
        out["law.a"] = repr(float(law.h_part.a))
        out["law.gamma"] = repr(float(law.h_part.gamma))
    else:
        out["law.kind"] = "tabulated"
        out["law.rho"] = ",".join(repr(float(v)) for v in law.h_part.rho_samples)
        out["law.h"] = ",".join(repr(float(v)) for v in law.h_part.h_samples)
        out["law.gamma"] = repr(float(law.h_part.gamma_tail))
    if law.bump is not None:
        out["law.bump.q1"] = repr(float(law.bump.q1))
        out["law.bump.q2"] = repr(float(law.bump.q2))
        out["law.bump.A"] = repr(float(law.bump.amp))
    return out


def law_from_config(cfg: dict) -> PressureLaw:
    """Inverse of law_to_config; raises InvalidLawError on bad parameters."""
    kind = cfg.get("law.kind", "power")
    if kind == "power":
        try:
            a = float(cfg["law.a"])
            gamma = float(cfg["law.gamma"])
        except KeyError as e:
            raise InvalidLawError(f"power law config missing {e}") from e
        h_part: PowerLawH | TabulatedH = PowerLawH(a=a, gamma=gamma)
    elif kind == "tabulated":
        try:
            rho = tuple(float(v) for v in cfg["law.rho"].split(","))
            h = tuple(float(v) for v in cfg["law.h"].split(","))
        except KeyError as e:
            raise InvalidLawError(f"tabulated law config missing {e}") from e
        h_part = TabulatedH(rho_samples=rho, h_samples=h,
                            gamma_tail=float(cfg.get("law.gamma", 2.0)))
    else:
        raise InvalidLawError(f"unknown law kind '{kind}'")

    bump = None
    if "law.bump.q1" in cfg or "law.bump.q2" in cfg or "law.bump.A" in cfg:
        try:
            bump = CompactBump(q1=float(cfg["law.bump.q1"]), q2=float(cfg["law.bump.q2"]),
                               amp=float(cfg["law.bump.A"]))
        except KeyError as e:
            raise InvalidLawError(f"bump config missing {e}") from e
    return PressureLaw(h_part=h_part, bump=bump)
