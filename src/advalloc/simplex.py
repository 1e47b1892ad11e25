"""Dense two-phase primal simplex for small/medium LPs.

Solves  min c'x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Tableau form with explicit slack and artificial columns. Entering variable by
Dantzig's rule (most negative reduced cost, lowest index on ties); a stall of
degenerate pivots switches to Bland's rule, which guarantees termination.
Pivot tolerance 1e-9. Leaving row: minimum ratio, ties broken by the smallest
basis variable index. Inputs are validated once, in ``solve_lp``: constraint
matrices and right-hand sides come in pairs of matching shape, and every
entry is finite. A solve also returns the duals of its ``<=`` rows.

A pivot subtracts the rank-1 update only from the block it can change: rows
whose pivot-column entry is nonzero times columns whose pivot-row entry is
nonzero. The block is gathered and scattered through fancy indexing, which
costs several times the dense in-place update per cell, so it is used only
when ``BLOCK_FIXED_CELLS + BLOCK_CELL_COST * block cells`` is at most the
tableau's cells; the dense update runs otherwise. Long acceptance LPs take
the block path (the L = 240 tableau is 481 x 963, its blocks average 188 x
121); payoff subgames, half of whose cells change per pivot, stay dense.
Both paths compute every changed entry as the same ``T - f * r`` and give
bit-identical solutions. Outside the block the dense update rewrites only
the sign of zeros, and no solution reads a zero's sign: the right-hand side
column never holds -0.0 after a pivot, either way.
"""
from __future__ import annotations

import dataclasses

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
STALL_LIMIT = 256
# Cost of the block update in dense-update cells (numpy on x86-64):
# BLOCK_CELL_COST per block cell plus BLOCK_FIXED_CELLS for the indexing, so
# tableaus under 4096 cells always take the dense update.
BLOCK_CELL_COST = 8
BLOCK_FIXED_CELLS = 4096


class SimplexError(RuntimeError):
    """Iteration limit or numerical breakdown."""


class InfeasibleError(SimplexError):
    """Phase 1 ended with positive artificial mass."""


class UnboundedError(SimplexError):
    """A negative reduced cost column has no positive entries."""


@dataclasses.dataclass
class LpSolution:
    """``duals``: the multipliers lambda >= 0 of the ``<=`` rows (length 0
    without them), the slack columns' reduced costs after phase 2. Negating a
    row keeps its multiplier; phase 1 drops only equality rows, since every
    ``<=`` row has its own slack."""
    x: np.ndarray
    objective: float
    iterations: int
    duals: np.ndarray


def _pivot(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot = T[row, col]
    T[row] /= pivot
    if pivot < 0:   # only when driving out an artificial
        T[row] += 0.0   # the dense update turns the -0.0 this wrote into +0.0
    pivot_row = T[row]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    cols = pivot_row.nonzero()[0]
    if BLOCK_FIXED_CELLS + BLOCK_CELL_COST * rows.size * cols.size <= T.size:
        T[rows[:, None], cols] -= factors[rows, None] * pivot_row[cols]
    else:
        T -= factors[:, None] * pivot_row
    obj -= obj[col] * pivot_row
    basis[row] = col


def _run(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
         max_iter: int) -> int:
    """Minimize obj over the tableau; returns pivots used."""
    iters = 0
    bland = False
    stall = 0
    last_val = obj[-1]
    blocked = ~allowed
    while True:
        cols = obj[:-1].copy()
        cols[blocked] = 0.0
        cols[basis] = 0.0
        if bland:
            candidates = (cols < -PIVOT_TOL).nonzero()[0]
            if candidates.size == 0:
                return iters
            col = int(candidates[0])
        else:
            col = int(cols.argmin())
            if cols[col] >= -PIVOT_TOL:
                return iters
        # minimum ratio over the entries that can pivot
        column = T[:, col]
        positive = (column > PIVOT_TOL).nonzero()[0]
        ratios = T[positive, -1] / column[positive]
        best = ratios.min(initial=np.inf)
        if not best < np.inf:   # also catches NaN
            raise UnboundedError("unbounded: no positive pivot in entering column")
        tied = positive[ratios <= best + PIVOT_TOL]
        row = int(tied[basis[tied].argmin()])
        _pivot(T, obj, basis, row, col)
        iters += 1
        if iters > max_iter:
            raise SimplexError(f"iteration limit {max_iter} exceeded")
        if abs(obj[-1] - last_val) <= PIVOT_TOL:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False
        last_val = obj[-1]


def _finite(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _constraint_pair(A, b, n: int, a_name: str, b_name: str):
    """The float64 (A, b) of one constraint kind, or None if neither is given."""
    if A is None and b is None:
        return None
    if A is None or b is None:
        raise ValueError(f"{a_name} and {b_name} must be given together, "
                         f"got only {b_name if A is None else a_name}")
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if b.ndim != 1 or A.shape != (b.shape[0], n):
        raise ValueError(f"{a_name} shape {A.shape} inconsistent with c ({n},) "
                         f"and {b_name} {b.shape}")
    return _finite(A, a_name), _finite(b, b_name)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *,
             max_iter: int | None = None) -> LpSolution:
    """Solve the LP; inputs are validated here, once, before any pivot."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1:
        raise ValueError(f"c must be a 1-D vector, got shape {c.shape}")
    _finite(c, "c")
    n = c.shape[0]
    ub = _constraint_pair(A_ub, b_ub, n, "A_ub", "b_ub")
    eq = _constraint_pair(A_eq, b_eq, n, "A_eq", "b_eq")
    blocks = [pair for pair in (ub, eq) if pair is not None]
    if not blocks:
        raise ValueError("no constraints given")
    n_ub = 0 if ub is None else ub[0].shape[0]
    A = np.vstack([pair[0] for pair in blocks])
    b = np.concatenate([pair[1] for pair in blocks])
    m = A.shape[0]

    # slack columns for the <= rows
    slack = np.zeros((m, n_ub))
    slack[np.arange(n_ub), np.arange(n_ub)] = 1.0
    A = np.hstack([A, slack])
    neg = b < 0
    A[neg] *= -1
    b = np.abs(b)

    # artificials wherever the slack cannot start basic
    needs_art = np.ones(m, dtype=bool)
    needs_art[:n_ub] = neg[:n_ub]
    art_rows = np.flatnonzero(needs_art)
    n_cols = A.shape[1]
    art = np.zeros((m, art_rows.size))
    art[art_rows, np.arange(art_rows.size)] = 1.0
    T = np.hstack([A, art, b[:, None]])
    total = n_cols + art_rows.size

    basis = np.empty(m, dtype=np.int64)
    basis[~needs_art] = n + np.flatnonzero(~needs_art)  # their own slack
    basis[art_rows] = n_cols + np.arange(art_rows.size)
    allowed = np.ones(total, dtype=bool)
    if max_iter is None:
        max_iter = 2000 + 200 * (m + total)

    iterations = 0
    if art_rows.size:
        phase1 = np.zeros(total + 1)
        phase1[n_cols:total] = 1.0
        # canonicalize: zero the cost entries of the basic artificials
        phase1 -= T[np.isin(basis, np.arange(n_cols, total))].sum(axis=0)
        iterations += _run(T, phase1, basis, allowed, max_iter)
        if phase1[-1] < -FEAS_TOL:  # obj[-1] = -objective value
            raise InfeasibleError(f"infeasible: artificial mass {-phase1[-1]:.3e}")
        # drive surviving artificials out of the basis or drop redundant rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_cols:
                entries = np.abs(T[i, :n_cols])
                j = int(np.argmax(entries))
                if entries[j] > PIVOT_TOL:
                    dummy = np.zeros(total + 1)
                    _pivot(T, dummy, basis, i, j)
                else:
                    keep[i] = False
        if not keep.all():
            T = T[keep]
            basis = basis[keep]
            m = T.shape[0]
        allowed[n_cols:] = False

    obj = np.zeros(total + 1)
    obj[:n] = c
    for i, col in enumerate(basis):
        if obj[col] != 0.0:
            obj -= obj[col] * T[i]
    iterations += _run(T, obj, basis, allowed, max_iter)

    x_full = np.zeros(total)
    x_full[basis] = T[:, -1]
    x = x_full[:n]
    return LpSolution(x=x, objective=float(c @ x), iterations=iterations,
                      duals=obj[n:n + n_ub].copy())
