"""How the rows of a stacked solve lie along the last axis of its cell arrays.

mvflow.solver's kernels take a Rows where they take a grid.  Rows on one
grid are the rows of (K, n) arrays (UniformRows); rows of different n lie
end to end in (1, N) arrays (RaggedRows).  Both give the kernels the same
names, so one set of kernels serves both.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class Rows:
    """Where the rows of a stack lie along the last axis of its cell arrays.

    A solver.Grid1D stands for UniformRows on it.  joints, None for rows of
    their own array row, picks the first cell of each row that follows
    another along the axis.  dx is the cell width per row, cell_dx per cell,
    grad_dx per cell the width a gradient divides by (2 dx, but dx at a
    row's wall cells), and coupling is -1 per cell but 0 at a row's last
    cell: kappa times it is the viscous off-diagonal, which couples no two
    rows.  Uniform rows reach their wall cells through strided slices;
    ragged rows reach theirs, and the cells where two rows meet, through
    flat indices fixed once per layout.
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
        self._one_sided(g, u, flat)
        return np.divide(g, self.grad_dx, out=g)


class UniformRows(Rows):
    """Rows on one grid of n cells: the rows of (K, n) arrays, or one (n,)
    state.  A per-row value becomes a (K, 1) column, and the wall cells are
    strided slices of the last axis: ends picks each row's two wall cells,
    and hi and lo the cells whose difference is the one-sided gradient
    there."""

    joints = None

    def __init__(self, n: int, dx: float):
        self.coupling = np.append(np.full(n - 1, -1.0), 0.0)
        self.ends, self.hi, self.lo = slice(None, None, n - 1), slice(1, None, n - 2), slice(None, -1, n - 2)
        self.dx = self.cell_dx = dx
        self.grad_dx = np.full(n, 2.0 * dx)
        self.grad_dx[self.ends] = dx

    def _one_sided(self, g, u, flat):
        g[..., self.ends] = u[..., self.hi] - u[..., self.lo]

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
    (1, N) arrays, N the rows' total cell count: a ragged state is one
    array row, and a trial of R rungs is (R, N).  A per-row value is
    repeated over its row's cells (dx_list is dx as a list of Python
    floats, for per-trial scalars).  A per-row sum reduces each row's
    contiguous cells (segs) with its own np.add.reduce, as the row alone
    would be summed; max and min are exact under any grouping and use
    reduceat.  first and last are each row's first and last cell.  The
    flat indices of the wall cells and the joints in (M, N) arrays, M one
    for a state and one per rung for a trial, are fixed once per layout
    and M: plan(M).
    """

    def __init__(self, grids: Sequence):
        ns = [g.n for g in grids]
        n = np.array(ns)
        self.n, self.K = n, len(ns)
        self.first = np.cumsum(n) - n
        self.last = self.first + n - 1
        self.joints = self.first[1:]
        self.dx_list = [g.dx for g in grids]
        self.dx = np.array(self.dx_list)
        self.cell_dx, self.grad_dx = np.repeat(self.dx, n), np.repeat(2.0 * self.dx, n)
        self.grad_dx[self.first] = self.grad_dx[self.last] = self.dx
        self.coupling = np.full(n.sum(), -1.0)
        self.coupling[self.last] = 0.0
        self.segs = [slice(f, f + k) for f, k in zip(self.first.tolist(), ns)]
        self._plans = {}

    def plan(self, M: int) -> CellPlan:
        """The flat cell indices of (M, N) arrays, made on first use."""
        plan = self._plans.get(M)
        if plan is None:
            plan = self._plans[M] = CellPlan(self, M)
        return plan

    def _one_sided(self, g, u, flat):
        plan = self.plan(u.size // u.shape[-1])
        g.reshape(-1)[plan.walls] = flat[plan.hi] - flat[plan.lo]

    def spread(self, x):
        """Per-row values (..., K) repeated over the cells, as (..., 1, N)."""
        return np.repeat(x, self.n, axis=-1)[..., None, :]

    def row_sum(self, a: np.ndarray) -> np.ndarray:
        parts = [np.add.reduce(a[..., s], axis=-1) for s in self.segs]
        return np.stack(parts, axis=-1).reshape(a.shape[:-2] + (-1,))

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


class CellPlan:
    """Flat indices into the M array rows of a ragged layout, rows' cells
    along the last axis, for the fix-ups a row's walls and its neighbours
    need; each is an index array taking the place of 2-D fancy indexing.

    In (M, N) arrays: walls, (M, 2, K), each row's first and last cell, and
    hi and lo the cells whose difference is the one-sided gradient there;
    joints and lasts, each row's first cell after another and the cell
    before it.  In step_start's (3, M, N + 1) face buffer (its difference
    has the same layout): open_faces, the mass and momentum flux faces at
    the joints, joint_faces, the pressure faces there, and last_faces, the
    pressure faces before them.
    """

    def __init__(self, rows: RaggedRows, M: int):
        N = int(rows.n.sum())
        at = np.arange(M)[:, None, None]
        self.walls = at * N + np.stack([rows.first, rows.last])
        self.hi = at * N + np.stack([rows.first + 1, rows.last])
        self.lo = at * N + np.stack([rows.first, rows.last - 1])
        joints, lasts = rows.joints, rows.joints - 1
        at = np.arange(M)[:, None]
        self.joints, self.lasts = at * N + joints, at * N + lasts
        faces = at * (N + 1) + np.arange(3)[:, None, None] * (M * (N + 1))
        self.open_faces = faces[:2] + joints
        self.joint_faces, self.last_faces = faces[2] + joints, faces[2] + lasts
