"""Space-time test functions with analytic derivatives.

Families are tensor products of a spatial factor and a time factor.  Spatial
factors for momentum tests vanish at both walls; the generic family used for
the density equations does not need to.  tables gives a family's distinct
space factors and their slopes at the points, and each function's time factor
and its slope at the sample times, so residual quadrature never
differentiates numerically and never forms a function's space-time table.
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


def tables(family, times, x):
    """The factors of every function of family: the distinct space factors'
    values F and slopes F' at the points x, as (n_s, n) arrays, each
    function's index into them, (n_f,), and its time factor's values G and
    slopes G' at the times, as (n_f, n_t) arrays, so that function j is
    F[index[j]] G[j].  Factors are told apart by the identity of their
    callables (f and df, g and dg), and each distinct one is evaluated once:
    a family made by _combine has one per factor it was built from."""
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)

    def distinct(value, slope, at):
        seen = {}
        index = np.array([seen.setdefault((id(getattr(fn, value)), id(getattr(fn, slope))),
                                          (len(seen), fn))[0] for fn in family],
                         dtype=np.intp)
        tab = np.empty((2, len(seen), at.size))
        for k, (_, fn) in enumerate(seen.values()):
            tab[0, k] = getattr(fn, value)(at)
            tab[1, k] = getattr(fn, slope)(at)
        return tab, index

    (F, dF), index = distinct("f", "df", x)
    (G, dG), when = distinct("g", "dg", times)
    return F, dF, index, G[when], dG[when]


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
