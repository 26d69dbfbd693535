"""Helpers only the tests use: reading a written CSV back, a constant
renormalization function, the Frobenius contraction, the bump potential's
slope, and the gather/scatter Bregman kernel the production one replaced."""
import re

import numpy as np

from mvflow.errors import SpecParseError
from mvflow.measures import RenormFunction
from mvflow.pressure import PowerLawH

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
