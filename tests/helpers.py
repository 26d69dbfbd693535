"""Helpers only the tests use: reading a written CSV back, a constant
renormalization function and the Frobenius contraction."""
import re

import numpy as np

from mvflow.errors import SpecParseError
from mvflow.measures import RenormFunction

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
