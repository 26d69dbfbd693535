"""Space-time test functions with analytic derivatives.

Families are tensor products of a spatial factor and a time factor.  Spatial
factors for momentum tests vanish at both walls; the generic family used for
the density equations does not need to.  tables gives the (n_f, n_t, n) arrays
of the value and of both derivatives of a run of a family's functions over
sample times and points, so residual quadrature never differentiates
numerically; the residuals ask for them one block of functions at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpaceTimeFunction:
    """Scalar test function psi(t, x) = f(x) * g(t) with analytic derivatives.

    f and df take an array of points, g and dg an array of times.
    """

    id: str
    f: object
    df: object
    g: object
    dg: object


def tables(family, times, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi, dpsi/dt and dpsi/dx of every function of family at the times
    and points, as (n_f, n_t, n) arrays: the products F G, F G' and F' G.

    The residuals in mvflow.measures pass one block of a family at a time
    (about TABLE_BLOCK cells, at least one function), so n_f is the block's
    length; each function's rows are the same whatever the block holds."""
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)

    def factors(name, at):
        return np.stack([np.broadcast_to(np.asarray(getattr(fn, name)(at), dtype=float),
                                         at.shape) for fn in family])

    F, dF = factors("f", x)[:, None, :], factors("df", x)[:, None, :]
    G, dG = factors("g", times)[:, :, None], factors("dg", times)[:, :, None]
    return F * G, F * dG, dF * G


_TIME_FACTORS = (
    ("1", np.ones_like, np.zeros_like),
    ("t", lambda t: t, np.ones_like),
    ("1+t", lambda t: 1.0 + t, np.ones_like),
)


# Highest Fourier mode k of the density and momentum families' space factors.
FAMILY_MODES = 2


def _combine(space_factors):
    return [SpaceTimeFunction(id=f"{sid}*{tid}", f=f, df=df, g=g, dg=dg)
            for sid, f, df in space_factors for tid, g, dg in _TIME_FACTORS]


def density_family(length: float) -> list[SpaceTimeFunction]:
    """Test functions for the density equations; free values at the walls."""
    space = [("1", np.ones_like, np.zeros_like),
             ("x/L", lambda x, L=length: x / L,
              lambda x, L=length: np.full_like(x, 1.0 / L))]
    for k in range(1, FAMILY_MODES + 1):
        w = k * np.pi / length
        space.append((f"cos({k}pi x/L)", lambda x, w=w: np.cos(w * x),
                      lambda x, w=w: -w * np.sin(w * x)))
    return _combine(space)


def momentum_family(length: float) -> list[SpaceTimeFunction]:
    """Test functions vanishing at both walls, for the momentum equation."""
    space = [("x/L(1-x/L)", lambda x, L=length: (x / L) * (1.0 - x / L),
              lambda x, L=length: (1.0 - 2.0 * x / L) / L)]
    for k in range(1, FAMILY_MODES + 1):
        w = k * np.pi / length
        space.append((f"sin({k}pi x/L)", lambda x, w=w: np.sin(w * x),
                      lambda x, w=w: w * np.cos(w * x)))
    return _combine(space)


def compatibility_family(length: float) -> list[SpaceTimeFunction]:
    """Symmetric matrix test fields (scalars in 1D), constant member included."""
    w = np.pi / length
    space = [("1", np.ones_like, np.zeros_like),
             ("sin(pi x/L)", lambda x, w=w: np.sin(w * x),
              lambda x, w=w: w * np.cos(w * x))]
    return _combine(space)
