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
machinery.  certify witnesses on a user-supplied grid, from one pass that
writes each block's B into one reused table, a lower bound on it by
(rho - r)^2 or 1 + rho^gamma and a bound of the h-increment by it.  Its (r, rho) tables and
the relative-energy ratio scans are taken in blocks of TABLE_BLOCK cells.
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

# Cells per block of every wide (rho, r) table: the certificates and ratio
# scans take B over blocks of r rows, so a table's working set stays this
# size (at least one row) whatever its length.
TABLE_BLOCK = 2**14


def row_blocks(n_rows: int, row_cells: int):
    """Slices covering range(n_rows) in blocks of about TABLE_BLOCK cells,
    at least one row each, made as the loop reaches them (a list of them
    would grow with n_rows); none when the rows hold no cells."""
    if not row_cells:
        return
    step = max(1, TABLE_BLOCK // row_cells)
    for lo in range(0, n_rows, step):
        yield slice(lo, lo + step)


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

    # Outside the support t leaves [0, 1]; a masked write then zeroes what
    # the profile gives there, so t needs no clipping.  Each kernel runs in
    # place on fresh arrays, 0-d for a scalar rho.
    def _profile(self, rho):
        """t, 1 - t and the mask of rho off the support (t outside [0, 1],
        NaN included) at rho; t and 1 - t are fresh arrays."""
        rho = _as_array(rho)
        t = np.subtract(rho, self.q1, out=np.empty(rho.shape))
        t /= self.width
        return t, np.subtract(1.0, t, out=np.empty(rho.shape)), ~((t >= 0.0) & (t <= 1.0))

    def _value(self, t, omt, outside) -> np.ndarray:
        """amp 16 t^2 (1 - t)^2, 0 off the support."""
        v = np.multiply(t, self.amp * 16.0, out=np.empty(t.shape))
        v *= t
        v *= omt
        v *= omt
        np.copyto(v, 0.0, where=outside)
        return v

    def _slope(self, t, omt, outside) -> np.ndarray:
        """amp 32 t (1 - t) (1 - 2 t) / width, 0 off the support; spends omt."""
        dv = np.multiply(t, 32.0, out=np.empty(t.shape))
        dv *= omt
        np.multiply(t, 2.0, out=omt)
        np.subtract(1.0, omt, out=omt)
        dv *= omt
        dv *= self.amp
        dv /= self.width
        np.copyto(dv, 0.0, where=outside)
        return dv

    def value(self, rho) -> np.ndarray:
        return self._value(*self._profile(rho))

    def slope(self, rho) -> np.ndarray:
        return self._slope(*self._profile(rho))

    def value_and_slope(self, rho) -> tuple[np.ndarray, np.ndarray]:
        """value(rho) and slope(rho) from one profile (the value first: the
        slope spends 1 - t)."""
        prof = self._profile(rho)
        return self._value(*prof), self._slope(*prof)

    def _phi(self, z: np.ndarray) -> np.ndarray:
        """The antiderivative of q(z)/z^2 on the support, a fresh array (a
        float64 for a scalar z, whose z**3 numpy rounds as libm's pow, not
        as its array power); each term is added in place."""
        d = self._coef
        out = -d[0] / z
        term = np.log(z)
        term *= d[1]
        out += term
        term = z * d[2]
        out += term
        term = z * d[3]
        term *= z
        term /= 2.0
        out += term
        term = z**3
        term *= d[4]
        term /= 3.0
        out += term
        return out

    def integral_over_z2(self, rho) -> np.ndarray:
        """Exact antiderivative evaluation of int_1^rho q(z)/z^2 dz, a fresh
        array (a float64 for a scalar rho)."""
        out = self._phi(np.minimum(np.maximum(_as_array(rho), self.q1), self.q2))
        out -= self._phi_one
        return out


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

    # value, slope and potential skip the operations that change no bit: the
    # multiply by a = 1, rho^1 at gamma = 2, and the divide by gamma - 1 = 1.
    # Each returns a fresh array (callers add into it), never rho itself.
    def value(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        out = np.power(rho, self.gamma)
        return out if self.a == 1.0 else self.a * out

    def slope(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.gamma == 2.0:
            return self.a * self.gamma * rho
        return self.a * self.gamma * np.power(rho, self.gamma - 1.0)

    def value_and_slope(self, rho) -> tuple[np.ndarray, np.ndarray]:
        # the two powers share no work
        return self.value(rho), self.slope(rho)

    def potential(self, rho) -> np.ndarray:
        """H(rho); closed form, with H(0) = 0 taken as the limit value."""
        rho = np.asarray(rho, dtype=float)
        if self.gamma == 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = (rho if self.a == 1.0 else self.a * rho) * np.log(rho)
            return np.where(rho > 0.0, out, 0.0)
        out = np.power(rho, self.gamma) - rho
        if self.a != 1.0:
            out = self.a * out
        return out if self.gamma == 2.0 else out / (self.gamma - 1.0)

    def potential_slope(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.gamma == 1.0:
            return self.a * (np.log(rho) + 1.0)
        return self.a * (self.gamma * np.power(rho, self.gamma - 1.0) - 1.0) / (self.gamma - 1.0)

    def potential_curvature(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return self.a * self.gamma * np.power(rho, self.gamma - 2.0)


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
    about 0.3 s.  value_and_slope evaluates the local cubic in s = rho - knot
    as scipy's PPoly does, from the lowest power up; value and slope are its
    two halves.  h and h' share one paired coefficient table, so both
    cubics' terms of each power are formed in one pass.

    The potential uses closed forms only: each cubic piece
    A0 + A1 z + A2 z^2 + A3 z^3 integrates against 1/z^2 exactly, and so does
    the tail.  Whatever a piece's integral reads that depends on the piece
    alone is folded into one table at construction, so a potential takes
    its pieces' constants in one gather.  The tail's power term is formed
    only when a density lies on the tail, and the vacuum guard of H(0) = 0
    only when a density is not safely positive (see potential).
    """

    rho_samples: tuple
    h_samples: tuple
    gamma_tail: float = 2.0
    # the interior knots (to find a point's piece), and one (8, pieces)
    # paired table of the local coefficients in s = rho - left knot: rows
    # c0, dc0, c1, dc1, c2, dc2 of h and h' in pairs, c3 of h, then the left
    # knot.  c0 and dc0 hold 0.0 + c, the sum PPoly starts from (it turns a
    # -0.0 into 0.0).  value_and_slope takes all eight rows in one gather
    # and each pair in one pass
    _inner: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _paired: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    # tail h = _tail_a * rho^gamma_tail + _tail_b beyond rho_max
    _tail_a: float = field(init=False, repr=False, compare=False, default=0.0)
    _tail_b: float = field(init=False, repr=False, compare=False, default=0.0)
    # one (7, pieces) table, the tail the last piece: the global cubic
    # coefficients A0, A1, A2 and A3/2, the anchor c, int_1^c h(z)/z^2 dz
    # (never -0.0) and the tail's power term a * c^(gamma_tail - 1) (0 on
    # the cubics)
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
        paired = np.vstack([0.0 + c[3], 0.0 + dc[2], c[2], dc[1], c[1], dc[0], c[0], r[:-1]])
        for name, val in (("_inner", r[1:-1]), ("_paired", paired)):
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
        pieces = np.vstack([coef[:3], 0.5 * coef[3], anchor, np.zeros(r.size),
                            power * np.power(anchor, g - 1.0)])
        for name, val in (("_tail_a", a), ("_tail_b", b), ("_pieces", pieces)):
            object.__setattr__(self, name, val)

        # integrals from r[1] to each anchor, then from 1 (which lies on piece j)
        steps = self._piece_integral(pieces[:, 1:-1], r[2:], True)
        from_r1 = np.concatenate([[0.0, 0.0], np.cumsum(steps)])
        j = int(np.searchsorted(r[1:], 1.0, side="right"))
        one = from_r1[j] + float(self._piece_integral(pieces[:, j], np.asarray(1.0), True))
        # adding 0.0 turns a -0.0 into 0.0 and leaves every other value as
        # it is; x - x is 0.0 already, so at the anchor 1.0 this is no change
        pieces[5] = from_r1 - one + 0.0

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
        return self.value_and_slope(rho)[0]

    def slope(self, rho) -> np.ndarray:
        return self.value_and_slope(rho)[1]

    def value_and_slope(self, rho) -> tuple[np.ndarray, np.ndarray]:
        """h(rho) and h'(rho) from one piece search, one gather, one s^2, one
        pass per pair of terms and one max.

        The terms are formed in place in the fresh gathered table, summed
        from the lowest power up as PPoly sums them, and h and h' are its
        first two rows; a max that is not <= rho_max (a NaN included) looks
        for the tail."""
        rho = _as_array(rho)
        c = self._paired.take(self._piece(rho), axis=1)
        pair0, pair1, pair2 = c[0:2], c[2:4], c[4:6]
        s = rho - c[7]
        s2 = s * s
        pair1 *= s
        pair0 += pair1
        pair2 *= s2
        pair0 += pair2
        s2 *= s
        c3 = c[6]  # a float64 for a scalar rho, so h adds the local
        c3 *= s2
        h, dh = c[0], c[1]
        h += c3
        if not rho.max(initial=-np.inf) <= self.rho_max:
            h, dh = self._with_tails(rho, (h, self._h_tail), (dh, self._dh_tail))
        return h, dh

    def _piece_integral(self, cols: np.ndarray, rho: np.ndarray, tail: bool) -> np.ndarray:
        """int_c^rho h(z)/z^2 dz from each piece's anchor c, rho > 0, where
        cols holds the pieces' columns of the piece table; tail = False
        leaves out the tail's power term, which is +0.0 on every cubic.

        The antiderivative -A0/z + A1 ln z + A2 z + A3 z^2/2 (+ a z^g/g with
        g = gamma_tail - 1 on the tail) is differenced in cancellation-free
        form.
        """
        A0, A1, A2, half_A3, c = cols[:5]
        dz = rho - c
        log_ratio = np.log(rho / c)
        out = dz * (A0 / (c * rho) + A2 + half_A3 * (c + rho)) + A1 * log_ratio
        if tail and self.gamma_tail != 1.0:
            g = self.gamma_tail - 1.0
            out = out + cols[6] * np.expm1(g * log_ratio) / g
        return out

    def _pieces_at(self, rho: np.ndarray) -> tuple[np.ndarray, bool]:
        """Each rho's column of the piece table (the tail is the last, which
        rho_max, beyond and NaN take), and whether any rho takes the tail."""
        k = self._pieces[4, 1:].searchsorted(rho, "right")
        return k, not k.max(initial=0) < self._pieces.shape[1] - 1

    def _integral(self, rho: np.ndarray, k: np.ndarray, tail: bool) -> np.ndarray:
        # Off the tail every gathered power term is +0.0, so at rho >= 0 the
        # term tail = False leaves out is +0.0 times a finite expm1 over g:
        # +0.0 or -0.0.  Adding a zero changes a nonzero sum not at all and
        # can only flip the sign of a zero one, and the constant added next
        # is never -0.0, so const + out cannot see that flip.
        cols = self._pieces.take(k, axis=1)
        return cols[5] + self._piece_integral(cols, rho, tail)

    def integral_over_z2(self, rho) -> np.ndarray:
        """Exact int_1^rho h(z)/z^2 dz for rho > 0, tail included."""
        rho = _as_array(rho)
        return self._integral(rho, *self._pieces_at(rho))

    def potential(self, rho) -> np.ndarray:
        """H(rho) = rho * int_1^rho h(z)/z^2 dz, with H(0) = 0 as the limit.

        The vacuum guard (np.errstate and np.where(rho > 0, ...)) is skipped
        for a row off the tail whose least rho m is safely positive: with
        r1 * m > 0 and m / rho_max > 0, every c * rho and rho / c is > 0 (c
        lies in [r1, rho_max) and rounding is monotone), so no ln 0 or
        division by 0 arises, and every entry is kept.  A 0-d rho keeps the
        guard, whose np.where returns a 0-d array."""
        rho = _as_array(rho)
        k, tail = self._pieces_at(rho)
        if not tail and rho.ndim:
            least = rho.min(initial=np.inf)
            if least * self.rho_samples[1] > 0.0 and least / self.rho_max > 0.0:
                return rho * self._integral(rho, k, tail)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = rho * self._integral(rho, k, tail)
        return np.where(rho > 0.0, out, 0.0)

    def potential_slope(self, rho) -> np.ndarray:
        rho = _as_array(rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.integral_over_z2(rho) + self.value(rho) / rho

    def potential_curvature(self, rho) -> np.ndarray:
        rho = _as_array(rho)
        return self.slope(rho) / rho


def _add_into(fresh, other):
    """fresh + other, written into fresh, an array the caller owns; a 0-d
    fresh gives the float64 numpy's sum gives."""
    return np.add(fresh, other, out=fresh if np.ndim(fresh) else None)


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

    # p, dp and P skip adding the zero bump of a bump-free law, and add h
    # into the bump's fresh array
    def p(self, rho):
        if self.bump is None:
            return self.h_part.value(rho)
        return _add_into(self.bump.value(rho), self.h_part.value(rho))

    def dp(self, rho):
        if self.bump is None:
            return self.h_part.slope(rho)
        return _add_into(self.bump.slope(rho), self.h_part.slope(rho))

    def p_and_dp(self, rho):
        """(p(rho), dp(rho)) in one pass: each part's value and slope share
        their intermediates."""
        h, dh = self.h_part.value_and_slope(rho)
        if self.bump is None:
            return h, dh
        q, dq = self.bump.value_and_slope(rho)
        return _add_into(q, h), _add_into(dq, dh)

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
        out = self.bump.integral_over_z2(rho)
        out *= rho
        return out

    def P(self, rho):
        if self.bump is None:
            return self.h_part.potential(rho)
        return _add_into(self.Q(rho), self.h_part.potential(rho))

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


def _power_bregman(a: float, gamma: float, rho: np.ndarray, r: np.ndarray,
                   out: np.ndarray | None, inc_out: np.ndarray | None) -> np.ndarray:
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
    near entries alone.  A masked write then puts the series on the direct
    formula's table, which is formed in place and scaled by a r^gamma in
    place.  out and inc_out, tables of the result's shape or None, take the
    result and the increment d (see _bregman).  When every entry is near,
    the series runs on d itself and the ratio x is never formed.
    """
    # (rho - r) is exact for rho within [r/2, 2r] (Sterbenz), so forming the
    # increment before dividing keeps d fully accurate in the series branch
    d = np.subtract(rho, r, out=inc_out)
    d /= r
    near = np.abs(d) <= 0.5
    some = np.logical_or.reduce(near, axis=None)
    every = some and np.logical_and.reduce(near, axis=None)  # an empty table has none
    acc = None
    if some:
        win = ()
        if near.ndim:
            cols = np.flatnonzero(near.any(axis=tuple(range(near.ndim - 1))))
            win = (..., slice(cols[0], cols[-1] + 1))
        # np.where would copy d entry for entry when every entry is near
        acc = _bregman_series(d if every else np.where(near[win], d[win], 0.0), gamma)

    if every:
        if out is None:
            out = acc
        else:
            out[...] = acc
    else:
        x = rho / r
        if gamma == 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.subtract(np.where(x > 0.0, x * np.log(x), 0.0), x - 1.0, out=out)
        else:
            # x^gamma - 1 - gamma (x - 1), x then spent (a float64 for
            # scalars, which the augmented operators rebind)
            out = np.power(x, gamma, out=out)
            out -= 1.0
            x -= 1.0
            x *= gamma
            out -= x
            if gamma != 2.0:  # dividing by 1 changes no bit
                out /= gamma - 1.0
        if acc is not None:
            np.copyto(out[win], acc, where=near[win])

    # (a r^gamma) g by commuted multiplies, once the other tables are gone:
    # the same bits, in at most one new table
    del d, near, acc
    scale = np.power(r, gamma)
    scale *= a
    out *= scale
    return out


def _bregman_series(dn: np.ndarray, gamma: float) -> np.ndarray:
    """sum_k>=2 beta_k dn^k, the binomial series of g(1 + dn), term by term
    until a term is negligible against the sum everywhere; gamma = 2 stops
    after its first term."""
    beta = gamma / 2.0
    acc = np.multiply(beta, dn)
    acc *= dn
    dk = None  # dn^k, first needed at k = 3
    k = 2
    while True:
        beta = beta * (gamma - k) / (k + 1.0)
        if beta == 0.0:
            break
        dk = dn * dn * dn if dk is None else dk * dn
        term = beta * dk
        acc += term
        k += 1
        if k > 200 or np.logical_and.reduce(
                np.abs(term) <= 1e-18 * np.maximum(np.abs(acc), 1e-300), axis=None):
            break
    return acc


def _increment(f, df, rho: np.ndarray, r: np.ndarray,
               out: np.ndarray | None, inc_out: np.ndarray | None) -> np.ndarray:
    """f(rho) - f(r) - df(r) (rho - r) in the table out (a fresh one if None),
    the product formed in inc_out (likewise) by the commuted multiply: the
    bits of the expression, in two tables of the result's shape."""
    out = np.subtract(f(rho), f(r), out=out)
    step = np.subtract(rho, r, out=inc_out)
    step *= df(r)
    out -= step
    return out


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
        out = _power_bregman(law.a, g, rho, r, None, None)
        out *= g - 1.0
        return out
    return _increment(law.h, law.dh, rho, r, None, None)


def bregman_H(law: PressureLaw, rho, r):
    """Bregman divergence H(rho) - H(r) - H'(r)(rho - r); rho >= 0, r > 0.

    Only the monotone part enters.  Nonnegative by convexity of H and zero
    iff rho = r.
    """
    rho = np.asarray(rho, dtype=float)
    r = np.asarray(r, dtype=float)
    _require_bregman_domain(rho, r)
    out = _bregman(law, rho, r, None, None)
    return out if out.shape else float(out)


def _require_bregman_domain(rho: np.ndarray, r: np.ndarray) -> None:
    if np.any(r <= 0.0):
        raise DomainError("bregman_H requires r > 0")
    if np.any(rho < 0.0):
        raise DomainError("bregman_H requires rho >= 0")


def _bregman(law: PressureLaw, rho: np.ndarray, r: np.ndarray,
             out: np.ndarray | None, inc_out: np.ndarray | None) -> np.ndarray:
    """bregman_H's kernel on checked arrays.  out, a table of the result's
    shape or None, receives B; inc_out, likewise, is spent on the increment
    rho - r.  Given both, neither the result nor the increment takes a
    fresh table."""
    if isinstance(law.h_part, PowerLawH):
        return _power_bregman(law.a, law.gamma, rho, r, out, inc_out)
    return _increment(law.H, law.dH, rho, r, out, inc_out)


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
    if not 0.0 <= rho_grid[0] <= 1e-12:
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


def _lower_block(law: PressureLaw, middle: np.ndarray, outer_den: np.ndarray,
                 r: np.ndarray, breg: np.ndarray, gap: np.ndarray):
    """c_middle and c_outer of a block of r rows (an (m, 1) column) from
    their B table and gap = |rho - r|; its temporaries go when it returns.
    Each ratio is divided only where its band keeps it, into one table, and
    reduced there (min is exact, so the skipped entries change no bit)."""
    mid = middle & (gap > 1e-9 * np.maximum(1.0, r))
    empty = ~mid.any(axis=1)
    if empty.any():
        raise InsufficientGridError(
            f"no middle-band grid points distinct from r = {r[np.argmax(empty), 0]}; "
            "refine the grid")
    ratios = np.multiply(gap, gap)
    np.divide(breg, ratios, out=ratios, where=mid)
    # the rho -> r limit B/(rho-r)^2 -> H''(r)/2 is a legitimate candidate
    c_mid = np.minimum(np.min(ratios, axis=1, where=mid, initial=np.inf),
                       law.d2H(r[:, 0]) / 2.0)
    outer = ~middle
    np.divide(breg, outer_den, out=ratios, where=outer)
    return c_mid, np.min(ratios, axis=1, where=outer, initial=np.inf)


def _h_block(law: PressureLaw, rho_grid: np.ndarray, r: np.ndarray,
             breg: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """C(r) of a block of r rows (an (m, 1) column) from their B table and
    gap = |rho - r|, -inf where every grid point is excluded; a power law's
    increment is |(gamma - 1) B| from the same B.  Each ratio is divided
    only where B > 0 (inf where not) and reduced where gap keeps it."""
    keep = gap >= H_BOUND_EXCLUSION
    power = isinstance(law.h_part, PowerLawH) and law.gamma != 1.0
    hinc = np.multiply(breg, law.gamma - 1.0) if power else h_increment(law, rho_grid, r)
    np.abs(hinc, out=hinc)
    pos = breg > 0.0
    ratios = np.divide(hinc, breg, out=hinc, where=pos)
    np.copyto(ratios, np.inf, where=np.logical_not(pos, out=pos))
    return np.max(ratios, axis=1, where=keep, initial=-np.inf)


def certify(law: PressureLaw, r_range: tuple[float, float], rho_grid) -> Certificate:
    """Both lemma witnesses of law over r in r_range on rho_grid, from one
    pass over blocks of r rows against the whole grid (row_blocks).  The
    pass keeps one B table and one |rho - r| table, made by the first block
    and rewritten by each later one (its leading rows for a short last
    block): _bregman writes B into the first and spends the second on its
    increment rho - r before |rho - r| is written there, so the pass
    holds no table beyond a B call's own and frees none between blocks.

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
    _require_bregman_domain(rho_grid, r_values)
    breg = gap = None
    for rows in row_blocks(r_values.size, rho_grid.size):
        r = r_values[rows, None]
        if gap is not None:
            breg, gap = breg[: r.size], gap[: r.size]
        breg = _bregman(law, rho_grid, r, breg, gap)
        gap = np.subtract(rho_grid, r, out=gap)
        np.abs(gap, out=gap)
        c_mid[rows], c_out[rows] = _lower_block(law, middle, outer_den, r, breg, gap)
        C[rows] = _h_block(law, rho_grid, r, breg, gap)

    empty = C == -np.inf
    if empty.any():
        raise InsufficientGridError(
            f"no grid points outside the exclusion band around r = "
            f"{r_values[np.argmax(empty)]}; refine the grid")
    valid = np.min(np.minimum(c_mid, c_out)) > 0.0 and np.all(np.isfinite(C))
    return Certificate(r1=r1, r2=r2, r_values=r_values, c_middle=c_mid,
                       c_outer=c_out, C_of_r=C, grid_max=float(rho_grid[-1]),
                       valid=bool(valid))

