"""How the rows of a stacked solve lie along the last axis of its cell arrays.

mvflow.solver's kernels take a Rows where they take a grid.  Rows on one
grid are the rows of (K, n) arrays (UniformRows); rows of different n lie
end to end in (1, N) arrays (RaggedRows).  Both give the kernels the same
names, so one set of kernels serves both.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np


class Rows:
    """Where the rows of a stack lie along the last axis of its cell arrays.

    A solver.Grid1D stands for UniformRows on it.  Indices into the last
    axis: ends picks each row's two wall cells, and hi and lo the cells
    whose difference is the one-sided gradient there; joints, None for rows
    of their own array row, picks the first cell of each row that follows
    another along the axis.  dx is the cell width per row, cell_dx per cell,
    grad_dx per cell the width a gradient divides by (2 dx, but dx at a
    row's wall cells), and coupling is -1 per cell but 0 at a row's last
    cell: kappa times it is the viscous off-diagonal, which couples no two
    rows.
    """

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Cell-centered du/dx: central differences, one-sided at the walls.
        The central differences are taken over the rows laid end to end, one
        subtraction, and the wall cells, which straddled two rows (or were
        never written), then take their one-sided differences; one division
        by grad_dx ends every cell."""
        g = np.empty(u.shape)
        flat = u.reshape(-1)
        np.subtract(flat[2:], flat[:-2], out=g.reshape(-1)[1:-1])
        g[..., self.ends] = u[..., self.hi] - u[..., self.lo]
        return np.divide(g, self.grad_dx, out=g)


class UniformRows(Rows):
    """Rows on one grid of n cells: the rows of (K, n) arrays, or one (n,)
    state.  A per-row value becomes a (K, 1) column, and the wall cells are
    strided slices."""

    joints = None

    def __init__(self, n: int, dx: float):
        self.coupling = np.append(np.full(n - 1, -1.0), 0.0)
        self.ends, self.hi, self.lo = slice(None, None, n - 1), slice(1, None, n - 2), slice(None, -1, n - 2)
        self.dx = self.cell_dx = dx
        self.grad_dx = np.full(n, 2.0 * dx)
        self.grad_dx[self.ends] = dx

    def spread(self, x):
        """Per-row values (..., K), an array or numpy scalar, as (..., K, 1)
        columns over the cells."""
        return x[..., None]

    def row_sum(self, a: np.ndarray) -> np.ndarray:
        return np.add.reduce(a, axis=-1)

    def row_max(self, a: np.ndarray) -> np.ndarray:
        return np.maximum.reduce(a, axis=-1)

    def locate(self, r: int, c: int) -> tuple[int, int]:
        return r, c

    def at(self, i: int):
        """Row i of (K, n) arrays; row i of a trial's (R K, n) arrays."""
        return i

    def join(self, rows) -> np.ndarray:
        return np.array(rows, dtype=float)


class RaggedRows(Rows):
    """Rows of different grids, laid end to end along the last axis of
    (1, N) arrays, N the rows' total cell count; a trial of R rungs is
    (R, N).  A per-row value is repeated over its row's cells (dx_list is
    dx as a list of Python floats, for per-trial scalars).  A per-row
    sum reduces each row's contiguous cells with np.add.reduce, as the row
    alone would be summed, consecutive rows of one n together as a (k, n)
    view; max and min are exact under any grouping and use reduceat."""

    def __init__(self, grids: Sequence):
        ns = [g.n for g in grids]
        n = np.array(ns)
        self.n, self.K = n, len(ns)
        self.first = np.cumsum(n) - n
        self.last = self.first + n - 1
        self.joints = self.first[1:]
        self.ends = np.concatenate([self.first, self.last])
        self.hi = np.concatenate([self.first + 1, self.last])
        self.lo = np.concatenate([self.first, self.last - 1])
        self.dx_list = [g.dx for g in grids]
        self.dx = np.array(self.dx_list)
        self.cell_dx, self.grad_dx = np.repeat(self.dx, n), np.repeat(2.0 * self.dx, n)
        self.grad_dx[self.ends] = np.concatenate([self.dx, self.dx])
        self.coupling = np.full(n.sum(), -1.0)
        self.coupling[self.last] = 0.0
        self.segs = [slice(f, f + k) for f, k in zip(self.first.tolist(), ns)]
        self.groups = []  # (start, stop, rows, n) of each run of rows sharing n
        start = 0
        for k, same in itertools.groupby(ns):
            rows = len(list(same))
            self.groups.append((start, start + rows * k, rows, k))
            start += rows * k

    def spread(self, x):
        """Per-row values (..., K) repeated over the cells, as (..., 1, N)."""
        return np.repeat(x, self.n, axis=-1)[..., None, :]

    def row_sum(self, a: np.ndarray) -> np.ndarray:
        parts = [np.add.reduce(a[..., i:j].reshape(a.shape[:-1] + (k, n)), axis=-1)
                 for i, j, k, n in self.groups]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        return out.reshape(a.shape[:-2] + (-1,))

    def row_max(self, a: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(a, self.first, axis=-1).reshape(a.shape[:-2] + (-1,))

    def locate(self, r: int, c: int) -> tuple[int, int]:
        j = int(np.searchsorted(self.first, c, side="right")) - 1
        return j, int(c - self.first[j])

    def at(self, i: int):
        """Row i of (1, N) arrays; row i of a trial's (R, N) arrays."""
        return i // self.K, self.segs[i % self.K]

    def join(self, rows) -> np.ndarray:
        return np.concatenate(rows)[None, :]
