"""Optimization and linear-algebra backends used by the analysis layers.

lp_solve wraps the HiGHS simplex behind a fixed contract: status in
{optimal, infeasible, unbounded, failed}, primal and dual vectors in the
orientation of the posed problem, and self-computed feasibility
residuals plus duality gap.  HiGHS takes two-sided rows lo <= a.x <= hi,
so a <= block that mirrors the >= block goes to it as the upper bounds
of those rows: the folded rows.  Every LP is solved on one
RestrictedMaster session, grown by RestrictedMaster.generate, the one
generation loop.  By default the session gets the rows once, then the
columns, all of them or, as for pi's LP, a working set priced against the
rest (sifting, Bixby et al., Oper. Res. 40, 885, 1992); membership runs
the loop with the classical oracle.  Given a start set of rows, as nu's
LP is, it gets every column once, without entries, then a working set of
folded rows, joined by the rows its answer violates (row generation over
the local polytope's vertices, Brierley, Navascues and Vertesi,
arXiv:1609.05011).  Its first solve runs primal simplex from x = 0 when
that meets every row and bound, as in the nu LP, and dual simplex
otherwise.  Certificates are checked on every folded row, with HiGHS's
row duals (0 on a row it never held), and on every posed column, by one
range rule applied to rows and to columns; a solve whose certificates
miss the contract is downgraded to "failed" rather than reported optimal.
Every LP matrix is a CsrMatrix, numpy arrays in compressed sparse row
form; lp_solve hands HiGHS the folded rows, or their columns gathered a
block per round, and multiplies them from either side, transposing none.
scipy is loaded lazily and only in part: _scipy_extension loads HiGHS's
extension for _session and scipy.sparse's compiled loops for CsrMatrix
on their own, so a process without LPs skips scipy, and one with LPs
skips the scipy.optimize and scipy.sparse packages, a third and a half
of its start-up time.

povm_update solves  max sum_a tr(E_a R_a)  over POVMs {E_a}: the
two-outcome case in closed form, any other number of outcomes through
one monotone fixed-point iteration on the (n_out, d, d) stack of all
outcomes at once (one outcome stalls at its first step, on E = I), and
the subnormalized variant by appending a dummy outcome with a zero
reduced operator.  Every result carries a dual certificate computed
once, on the final iterate: a feasible point Y >= R_a of the dual SDP.

eigh and psd_project broadcast over leading axes, so a whole stack of
matrices takes one LAPACK call; every (d, d) slice gets the same result
as it would on its own.  eigh checks that its input is Hermitian;
povm_update, random_povms and their helpers skip that check and
np.linalg.eigh's wrapper (_eigh_unchecked), as they only decompose
hermitian_part outputs, which are exactly Hermitian, made where eigh
would have made them.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np
# np.linalg.eigh's LAPACK gufunc without its Python wrapper: the same bits
from numpy.linalg._umath_linalg import eigh_lo as _eigh_unchecked

from .core import COMPLETE, EPS_FEAS, INCOMPLETE, hermitian_part
from .errors import ValidationError

# Contract tolerances quoted by LpSolution consumers.
LP_PRIMAL_TOL = 1e-8
LP_DUAL_TOL = 1e-8
LP_GAP_REL = 1e-7

# Simplex, logging off, no presolve: it finds nothing to remove here.  Which
# simplex is RestrictedMaster's choice per solve, one of the two option sets below.
_HIGHS_OPTIONS = {"solver": "simplex", "presolve": "off",
                  "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
                  "output_flag": False, "log_to_console": False}
# Dual simplex (strategy 1) for an LP whose origin is infeasible; primal (4)
# for one whose origin is feasible, where it needs no phase 1: on every row
# of the nu LP it ran max_violation 1.5-3.4 times as fast.  On a
# degenerate optimum primal simplex can end with a few dual iterations that
# clean up its bound perturbation; with dual steepest edge these first
# compute a weight per row from a basis that is no longer the slack one
# (1.3 s for 9 iterations at 7x7x2x2, 16,384 rows), so they price by Devex (1).
_DUAL_SIMPLEX = {"simplex_strategy": 1}
_PRIMAL_SIMPLEX = {"simplex_strategy": 4, "simplex_dual_edge_weight_strategy": 1}
# HiGHS model status -> LpSolution.status; anything else is "failed": a
# model HiGHS rejects, unbounded-or-infeasible and iteration limits among it.
_HIGHS_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kUnbounded": "unbounded"}
# scipy's extensions, loaded by _scipy_extension under the names scipy gives them
_HIGHS_CORE = "scipy.optimize._highspy._core"
_SPARSETOOLS = "scipy.sparse._sparsetools"

LE, EQ, GE = "<=", "==", ">="

# Cap on povm_update's fixed-point iterations (every outcome count but two).
MAX_POVM_ITERS = 2000


def _scipy_extension(name):
    """One of scipy's private extension modules, loaded without its package
    (HiGHS's without scipy.optimize, the sparse loops without scipy.sparse):
    private to scipy and tested on scipy 1.17.1 only, so a scipy release
    that moves one breaks this function alone.

    The file is found beside scipy's own package and registered under
    its dotted name before it runs, so a later import of the package
    reuses it.  A module already in sys.modules, this function's or
    scipy's, is returned without a search: pybind11 registers ``_Highs``
    once per process, and every LP and product comes here.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    # find_spec of a top-level name locates scipy without importing anything
    path = [os.path.join(location, *name.split(".")[1:-1])
            for location in importlib.util.find_spec("scipy").submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"{name} not found in {path}: the LP backend needs scipy >= 1.15")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _session():
    """A HiGHS session, with _HIGHS_OPTIONS set before it can log anything."""
    highs = _scipy_extension(_HIGHS_CORE)._Highs()
    for key, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(key, value)
    return highs


def _run(highs, strategy) -> dict:
    """Run HiGHS by the simplex ``strategy``; the caller checks every optimum."""
    for key, value in strategy.items():
        highs.setOptionValue(key, value)
    highs.run()
    solution = highs.getSolution()
    return {"status": highs.getModelStatus(), "x": np.array(solution.col_value),
            "lambda": np.array(solution.row_dual),
            "simplex_nit": highs.getInfo().simplex_iteration_count}


# the starts and indices of rows or columns added without entries
_NO_ENTRIES = np.zeros(0, np.int32)


def _indptr(counts) -> np.ndarray:
    """Row starts for rows holding ``counts`` entries each."""
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A float64 matrix in compressed sparse row form: row r stores
    ``data[indptr[r]:indptr[r + 1]]`` in the columns ``indices[...]`` of
    the same range, in ascending column order, and no zeros.

    Only what the LP layer uses, in scipy.sparse's compiled loops (int32
    indices, float64 data) where not in numpy: ``a @ x`` and the transpose
    product ``y @ a``, each sum taken in stored order from +0.0; the rows
    a boolean mask selects, ``a[mask]`` (views for one run of rows); the
    columns it selects as rows, ``a.columns(mask)``, and all of them,
    ``a.T``, cached; ``-a``; ``vstack`` and ``hstack``.  ``a != 0`` over
    the stored entries is not for the LP layer: the bench's tracer counts
    nonzeros with it, and ``--trace 1`` fails without it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    __array_ufunc__ = None  # numpy defers y @ a to __rmatmul__

    @classmethod
    def from_dense(cls, matrix) -> CsrMatrix:
        """The nonzero entries of a 2-D array, row by row."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValidationError(f"a matrix must be 2-D, got shape {m.shape}")
        rows, cols = np.nonzero(m)
        return cls(_indptr(np.bincount(rows, minlength=m.shape[0])), cols.astype(np.int32),
                   m[rows, cols], m.shape)

    @classmethod
    def vstack(cls, blocks) -> CsrMatrix:
        """The blocks, with one column count, one below the other."""
        return cls(_indptr(np.concatenate([np.diff(b.indptr) for b in blocks])),
                   np.concatenate([b.indices for b in blocks]),
                   np.concatenate([b.data for b in blocks]),
                   (sum(b.shape[0] for b in blocks), blocks[0].shape[1]))

    @classmethod
    def hstack(cls, blocks) -> CsrMatrix:
        """The blocks, with one row count, side by side."""
        m, widths = blocks[0].shape[0], np.array([b.shape[1] for b in blocks], np.int32)
        if any(b.shape[0] != m for b in blocks):  # the loop reads m rows of every block
            raise ValueError("hstack takes blocks of one row count")
        arrays = [np.concatenate(v) for v in zip(*((b.indptr, b.indices, b.data) for b in blocks))]
        return _compiled("csr_hstack", (m, int(widths.sum())), len(arrays[2]), len(blocks), m,
                         widths, *arrays)

    def __matmul__(self, x):
        return self._product("csr_matvec", self.shape, x)

    def __rmatmul__(self, y):  # the same arrays hold a.T in compressed sparse column form
        return self._product("csc_matvec", self.shape[::-1], y)

    def _product(self, kernel, shape, v):  # sums in stored order from +0.0, reading v unchecked
        if np.shape(v) != shape[1:]:
            raise ValueError(f"a {self.shape} matrix cannot multiply shape {np.shape(v)}")
        out = np.zeros(shape[0])  # the loop adds into it
        getattr(_scipy_extension(_SPARSETOOLS), kernel)(*shape, self.indptr, self.indices,
                                                        self.data, v, out)
        return out

    def __neg__(self) -> CsrMatrix:
        return CsrMatrix(self.indptr, self.indices, -self.data, self.shape)

    def __ne__(self, value):
        return self.data != value

    def __getitem__(self, mask) -> CsrMatrix:
        # the LP layer selects blocks of rows, each one slice of the entries:
        # one block is a view of them, more are copied a block at a time
        starts, stops = np.flatnonzero(np.diff(mask, prepend=False, append=False)).reshape(-1, 2).T
        runs = [slice(self.indptr[i], self.indptr[j]) for i, j in zip(starts, stops)]

        def join(v):
            return v[runs[0]] if len(runs) == 1 else np.concatenate([v[s] for s in runs] or [v[:0]])

        return CsrMatrix(_indptr(np.diff(self.indptr)[mask]), join(self.indices), join(self.data),
                         (int(np.count_nonzero(mask)), self.shape[1]))

    def columns(self, mask) -> CsrMatrix:
        """The columns a boolean mask selects, as rows, each in row order."""
        tools, (m, n) = _scipy_extension(_SPARSETOOLS), self.shape
        chosen = np.arange(n, dtype=np.int32)[mask]  # IndexError unless mask has n entries
        k, offsets, indptr = len(chosen), np.zeros(n, np.int32), np.empty(m + 1, np.int32)
        tools.csr_column_index1(k, chosen, m, n, self.indptr, self.indices, offsets, indptr)
        block = CsrMatrix(indptr, np.empty(indptr[-1], np.int32), np.empty(indptr[-1]), (m, k))
        tools.csr_column_index2(np.arange(k, dtype=np.int32), offsets, len(self.indices),
                                self.indices, self.data, block.indices, block.data)
        return block.T

    @cached_property  # the cached vertex matrix is transposed once, not per LP
    def T(self) -> CsrMatrix:
        return _compiled("csr_tocsc", self.shape[::-1], len(self.data), *self.shape, self.indptr,
                         self.indices, self.data)


def _compiled(kernel, shape, nnz, *args) -> CsrMatrix:
    """The ``shape`` matrix of ``nnz`` entries that scipy.sparse's compiled loop
    ``kernel`` writes from ``args``."""
    out = CsrMatrix(np.empty(shape[0] + 1, np.int32), np.empty(nnz, np.int32), np.empty(nnz), shape)
    getattr(_scipy_extension(_SPARSETOOLS), kernel)(*args, out.indptr, out.indices, out.data)
    return out


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max (or min) c.x subject to senses-typed rows and variable bounds.

    ``a`` may be given dense or as a CsrMatrix and is stored as a
    CsrMatrix; ``senses`` (an array, list or tuple, stored as an array)
    holds one of "<=", "==", ">=" per row.  Bounds use +-inf for free
    directions; a lower bound of +inf, an upper bound of -inf and NaN
    are rejected.
    """

    c: np.ndarray
    a: object
    rhs: np.ndarray
    senses: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    maximize: bool = True

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        rhs = np.asarray(self.rhs, dtype=np.float64)
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        senses = np.asarray(self.senses)
        a = self.a if isinstance(self.a, CsrMatrix) else CsrMatrix.from_dense(self.a)
        m, n = a.shape
        if c.shape != (n,) or rhs.shape != (m,) or senses.shape != (m,):
            raise ValidationError("linear program dimensions are inconsistent")
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValidationError("variable bound vectors must have one entry per column")
        if not np.isin(senses, (LE, EQ, GE)).all():
            raise ValidationError(f"row senses must be one of {LE!r}, {EQ!r}, {GE!r}")
        if not (np.all(np.isfinite(a.data)) and np.all(np.isfinite(c)) and np.all(np.isfinite(rhs))):
            raise ValidationError("linear program entries must be finite")
        # written so that NaN fails it too
        if not (np.all(lower < np.inf) and np.all(upper > -np.inf)):
            raise ValidationError("variable bounds must be numbers, lower below +inf "
                                  "and upper above -inf")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver outcome plus the certificates backing it.

    ``row_duals`` are sensitivities of the optimal objective to the row
    right-hand sides, in the orientation of the posed problem.  The
    residuals and ``duality_gap`` are recomputed here from scratch, on
    the folded rows, not taken from the solver (NaN on the unchecked
    answer of a RestrictedMaster round); ``iterations`` is HiGHS's simplex
    iteration count.
    """

    status: Literal["optimal", "infeasible", "unbounded", "failed"]
    x: np.ndarray | None
    row_duals: np.ndarray | None
    objective: float | None
    primal_residual: float
    dual_residual: float
    duality_gap: float
    iterations: int


def _range_certificates(values, mult, lo, hi):
    """(worst violation of lo <= values <= hi, worst multiplier of the wrong
    sign, dual objective term) for multipliers in minimization orientation:
    a positive one needs a finite lower end, a negative one a finite upper end."""
    primal = np.max(np.maximum(lo - values, values - hi), initial=0.0)
    end = np.where(mult > 0, lo, hi)
    finite = np.isfinite(end)
    dual = np.max(np.where(finite, 0.0, np.abs(mult)), initial=0.0)
    return primal, dual, mult @ np.where(finite, end, 0.0)


def _same_rows(a: CsrMatrix, b: CsrMatrix) -> bool:
    """Entry for entry the same rows, both without zeros and column-sorted."""
    return all(np.array_equal(u, v) for u, v in zip((a.indptr, a.indices, a.data),
                                                   (b.indptr, b.indices, b.data)))


def lp_solve(lp: LinearProgram, columns=None, rows=None) -> LpSolution:
    """Solve a LinearProgram deterministically with dual certificates.

    Every row goes to HiGHS as lo <= a.x <= hi.  When the >= rows repeat
    the <= rows row for row, each <= row becomes the upper bound of its
    >= twin, so HiGHS sees the pair as one row: the folded rows, views of
    the posed rows when all but the <= rows are one run, as in nu's and pi's.
    RestrictedMaster.generate solves the LP from a start set, priced
    against the rest: of ``columns`` (column indices, by default all), by
    c - y a, a column left out sitting at 0; or of ``rows`` (indices of
    folded rows), by how far x violates each row left out, every column in
    from the start.  The certificates are checked on every folded row and
    every posed column, with the row duals HiGHS gave, zero on a row it
    never held; ``iterations`` totals the rounds.
    """
    if columns is not None and rows is not None:
        raise ValidationError("lp_solve takes a start set of columns or of rows, not both")
    le, ge = lp.senses == LE, lp.senses == GE
    lo = np.where(le, -np.inf, lp.rhs)
    hi = np.where(ge, np.inf, lp.rhs)
    folded = le.sum() == ge.sum() > 0 and _same_rows(lp.a[le], lp.a[ge])
    if folded:
        hi[ge] = lp.rhs[le]
    kept = ~le if folded else slice(None)  # the rows HiGHS gets
    a, lo, hi = lp.a[kept] if folded else lp.a, lo[kept], hi[kept]
    c = -lp.c if lp.maximize else lp.c
    last = [None, None]  # the vector the last pricing round multiplied, and the product
    if rows is None:
        master, everything = RestrictedMaster(lo, hi), np.arange(len(c))
        start = everything if columns is None else np.unique(columns)

        def take(new):
            return c[new], a.columns(np.isin(everything, new)), lp.lower[new], lp.upper[new]

        def price(sol):  # a column left out at 0 gains |c - y a| if it may move that way
            last[:] = sol.row_duals, sol.row_duals @ a
            d = c - last[1]
            return everything, np.abs(d) * np.where(d < 0, lp.upper > 0, lp.lower < 0)

        order, sol = master.generate(master.solve(*take(start)), start, take, price, len(c))
        x, y = np.zeros(len(c)), sol.row_duals
        x[order] = 0.0 if sol.x is None else sol.x
    else:
        master, start = RestrictedMaster.of_columns(c, lp.lower, lp.upper), np.unique(rows)

        def take(new):
            return lo[new], hi[new], a[np.bincount(new, minlength=len(lo)) > 0]

        def price(sol):  # a row left out gains how far x lies outside its range
            last[:] = sol.x, a @ sol.x
            return np.arange(len(lo)), np.maximum(lo - last[1], last[1] - hi)

        order, sol = master.generate(master.solve_rows(*take(start)), start, take, price, len(lo))
        x, y = sol.x, np.zeros(len(lo))
        y[order] = 0.0 if sol.row_duals is None else sol.row_duals

    def products(x, y):  # a x, y a: the one last priced and the other
        return last[1] if last[0] is x else a @ x, last[1] if last[0] is y else y @ a

    sol = _certified({**master.res, "x": x, "lambda": y, "simplex_nit": sol.iterations}, c,
                     products, lo, hi, lp.lower, lp.upper)
    if sol.x is None:
        return sol
    # HiGHS's row duals are d(min objective)/d(row bound); a posed
    # maximization negates the objective.  On a folded pair the sign tells
    # which bound is active: <= duals are >= 0 and >= duals <= 0 for a
    # maximization, the other way round for a minimization.
    y = np.zeros(len(lp.senses))
    y[kept] = -sol.row_duals if lp.maximize else sol.row_duals
    if folded:
        pair, sign = y[ge], 1.0 if lp.maximize else -1.0
        y[le], y[ge] = np.where(sign * pair > 0, pair, 0.0), np.where(sign * pair < 0, pair, 0.0)
    return dataclasses.replace(sol, row_duals=y, objective=float(lp.c @ sol.x))


def _answer(res, c) -> LpSolution:
    """HiGHS's answer for costs ``c``, its certificates not computed (NaN)."""
    status = _HIGHS_STATUS.get(res["status"].name, "failed")
    iterations = int(res.get("simplex_nit", 0))
    if status != "optimal":
        return LpSolution(status, None, None, None, np.inf, np.inf, np.inf, iterations)
    return LpSolution(status, res["x"], res["lambda"], float(c @ res["x"]),
                      np.nan, np.nan, np.nan, iterations)


def _certified(res, c, products, lo, hi, lower, upper) -> LpSolution:
    """HiGHS's answer, "failed" where certificates recomputed in row form, from
    ``products(x, y)`` = (a x, y a), miss the contract; the row duals stay HiGHS's."""
    sol = _answer(res, c)
    if sol.x is None:
        return sol
    x, lam = sol.x, sol.row_duals
    activity, reduced = products(x, lam)
    row_p, row_d, row_obj = _range_certificates(activity, lam, lo, hi)
    col_p, col_d, col_obj = _range_certificates(x, c - reduced, lower, upper)
    primal_resid, dual_resid = float(np.maximum(row_p, col_p)), float(np.maximum(row_d, col_d))
    gap = float(abs(sol.objective - (row_obj + col_obj)))
    # written so that a NaN anywhere in the certificates fails it
    met = (primal_resid <= LP_PRIMAL_TOL and dual_resid <= LP_DUAL_TOL
           and gap <= LP_GAP_REL * (1.0 + abs(sol.objective)))
    return dataclasses.replace(sol, status="optimal" if met else "failed",
                               primal_residual=primal_resid, dual_residual=dual_resid,
                               duality_gap=gap)


def best_columns(found: np.ndarray, score: np.ndarray, limit: int, exclude=()) -> np.ndarray:
    """The ``limit`` best-scoring distinct columns not in ``exclude`` (ties to
    the lowest index), ascending."""
    keep = ~np.isin(found, exclude)
    found, score = found[keep], score[keep]
    order = np.lexsort((found, -score))
    _, first = np.unique(found[order], return_index=True)
    return np.sort(found[order][np.sort(first)[:limit]])


class RestrictedMaster:
    """min c.x, lo <= a.x <= hi, lower <= x <= upper over the rows and columns
    so far, on one HiGHS session that starts from rows or columns without
    entries and grows by blocks of columns (``solve``) or of rows
    (``solve_rows``).  The first solve runs primal simplex if x = 0 meets every
    row and bound (the nu LP), dual otherwise; a later one runs primal from
    the last optimal basis after new columns, which enter nonbasic at 0 and
    leave it feasible, and dual after new rows, which leave it dual feasible,
    or after any answer but an optimum.  Once HiGHS rejects rows or columns,
    which it may crash on if run, every answer is kModelError.  ``certified``
    checks the last answer of a master grown by columns."""

    _by_rows = False  # a master of_columns makes grows by rows

    def __init__(self, lo, hi):
        self.lo, self.hi, self.highs = lo, hi, _session()
        self.loaded = self.highs.addRows(len(lo), lo, hi, 0, _NO_ENTRIES, _NO_ENTRIES,
                                         np.zeros(0)).name != "kError"
        self.c, self.lower, self.upper, self.blocks, self.res = *np.zeros((3, 0)), [], None

    @classmethod
    def of_columns(cls, c, lower, upper) -> RestrictedMaster:
        """A master of no rows and the columns c, lower <= x <= upper, without
        entries: it grows by solve_rows."""
        master = cls(np.zeros(0), np.zeros(0))
        master._by_rows = True
        master.loaded = master.loaded and master.highs.addCols(
            len(c), c, lower, upper, 0, _NO_ENTRIES, _NO_ENTRIES, np.zeros(0)).name != "kError"
        master.c, master.lower, master.upper = c, lower, upper
        return master

    def solve(self, c, columns: CsrMatrix, lower=0.0, upper=np.inf) -> LpSolution:
        """Add columns, one per row of ``columns``, with costs ``c`` and bounds
        ``lower`` <= x <= ``upper``, each an array or one number; solve."""
        lower, upper = np.full(len(c), lower, float), np.full(len(c), upper, float)
        self.loaded = self.loaded and self.highs.addCols(
            len(c), c, lower, upper, len(columns.data), columns.indptr[:-1], columns.indices,
            columns.data).name != "kError"
        self.c, self.lower, self.upper = (np.append(old, added) for old, added in
                                          ((self.c, c), (self.lower, lower), (self.upper, upper)))
        self.blocks.append(columns)
        return self._resolve(primal=True)

    def solve_rows(self, lo, hi, rows: CsrMatrix) -> LpSolution:
        """Add the rows lo <= ``rows``.x <= hi; solve."""
        self.loaded = self.loaded and self.highs.addRows(
            len(lo), lo, hi, len(rows.data), rows.indptr[:-1], rows.indices, rows.data
        ).name != "kError"
        self.lo, self.hi = np.append(self.lo, lo), np.append(self.hi, hi)
        return self._resolve(primal=False)

    def _resolve(self, primal) -> LpSolution:
        """Run HiGHS on the model so far: primal simplex if ``primal`` and the
        last answer is optimal, dual otherwise; the first run by the origin."""
        if self.res is None:
            primal = (np.all(self.lo <= 0) and np.all(self.hi >= 0) and np.all(self.lower <= 0)
                      and np.all(self.upper >= 0))
        else:
            primal = primal and self.res["status"].name == "kOptimal"
        model_error = _scipy_extension(_HIGHS_CORE).HighsModelStatus.kModelError
        self.res = (_run(self.highs, _PRIMAL_SIMPLEX if primal else _DUAL_SIMPLEX) if self.loaded
                    else {"status": model_error, "simplex_nit": 0})
        return _answer(self.res, self.c)

    def generate(self, sol, ids, block, price, total=None):
        """Column generation, or row generation on a master of_columns made,
        from the answer ``sol`` over the ids ``ids``: after each optimum, the
        ids not yet in that ``price(sol)`` scores, as (ids, scores), above
        LP_DUAL_TOL (LP_PRIMAL_TOL for rows) join by ``self.solve(*block(new))``
        (``solve_rows``), best first, as many as a basis holds (one per row, or
        per column), until none does.  Of ``total`` ids none is priced once all
        are in, and a working set whose answer proves nothing of the whole LP
        gets the rest: of columns an infeasible one, of rows any answer but an
        optimum.  Returns the ids in order of entry and the last answer,
        unchecked, with its iterations summed over the rounds."""
        iterations, rows = sol.iterations, self._by_rows
        tol, limit = (LP_PRIMAL_TOL, len(self.c)) if rows else (LP_DUAL_TOL, len(self.lo))
        while True:
            inconclusive = sol.status != "optimal" if rows else sol.status == "infeasible"
            if inconclusive and total is not None:
                new = np.setdiff1d(np.arange(total), ids)
            elif sol.status == "optimal" and len(ids) != total:
                found, gain = price(sol)
                new = best_columns(found[gain > tol], gain[gain > tol], limit, ids)
            else:
                new = ids[:0]
            if not new.size:
                return ids, dataclasses.replace(sol, iterations=iterations)
            ids = np.concatenate([ids, new])
            sol = (self.solve_rows if rows else self.solve)(*block(new))
            iterations += sol.iterations

    def certified(self) -> LpSolution:
        """The last answer, "failed" where its certificates miss the contract."""
        columns = CsrMatrix.vstack(self.blocks)  # the matrix's columns as rows
        return _certified(self.res, self.c, lambda x, y: (x @ columns, columns @ y), self.lo,
                          self.hi, self.lower, self.upper)


def _hermitian_defect(m: np.ndarray) -> np.ndarray:
    """Largest |M - M^dagger| entry of every (d, d) slice over max(1, its largest |M| entry)."""
    defect = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    return defect / np.maximum(np.max(np.abs(m), axis=(-2, -1), initial=0.0), 1.0)


def eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition ``(w, v)`` with the reconstruction
    contract, broadcast over leading axes: eigenvalues ascending,
    eigenvectors as the columns of v, as from np.linalg.eigh.

    Rejects inputs where any (d, d) slice has a _hermitian_defect above
    EPS_FEAS, symmetrizes the rest, and guarantees ||H - V diag(w) V^dagger||_F
    <= 1e-10 ||H||_F with orthonormal V for every slice.
    """
    h = np.asarray(matrix)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValidationError(f"eigh expects square matrices, got shape {h.shape}")
    defect = _hermitian_defect(h)
    bad = defect > EPS_FEAS
    if bad.any():
        raise ValidationError(f"matrix is not Hermitian: defect {float(defect[bad].max()):.3g}")
    return np.linalg.eigh(hermitian_part(h))


def _nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# The error state np.linalg.eigh sets around LAPACK, under which
# _eigh_unchecked raises LinAlgError on non-convergence.  Use it only as a
# decorator: numpy >= 2 then enters a fresh state per call, so calls may nest
# or run on several threads, while `with` on this one shared instance works only once.
_lapack_errors = np.errstate(call=_nonconvergence, invalid="call",
                             over="ignore", divide="ignore", under="ignore")


def psd_project(matrix: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm, broadcast
    over leading axes.

    Symmetrize, clip negative eigenvalues at zero, reconstruct.
    Idempotent up to floating point.
    """
    return _clip_negative(*eigh(matrix))


def _clip_negative(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """psd_project of the matrix with eigendecomposition (w, v)."""
    return hermitian_part((v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2))


@dataclass(frozen=True, eq=False)
class PovmUpdateResult:
    """Optimized POVM plus the certificates of how good it is.

    ``operators`` is the (n_out, d, d) stack of POVM elements, one per
    outcome in the order of the reduced operators.

    ``dual_matrix`` is a feasible dual point: Y >= R_a for every outcome
    (and Y >= 0 in incomplete mode), so ``dual_bound`` = tr Y is a true
    upper bound on the achievable objective.  ``objective_log`` is the
    monotone sequence of accepted objective values.
    """

    operators: np.ndarray
    objective: float
    converged: bool
    iterations: int
    dual_matrix: np.ndarray
    dual_bound: float
    objective_log: tuple[float, ...]


def _check_reduced_ops(reduced: Sequence[np.ndarray]) -> np.ndarray:
    """Validate the reduced operators and stack them Hermitized as (n_out, d, d)."""
    if len(reduced) == 0:
        raise ValidationError("povm_update needs at least one reduced operator")
    try:
        mats = np.asarray(reduced, dtype=np.complex128)
    except ValueError:
        raise ValidationError("reduced operators must all have one square shape (d, d)") from None
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValidationError(f"reduced operators must stack to (n_out, d, d), got shape {mats.shape}")
    defect = _hermitian_defect(mats)
    bad = np.flatnonzero(defect > EPS_FEAS)
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"reduced operator {i} is not Hermitian: defect {defect[i]:.3g}")
    return hermitian_part(mats)


def _povm_objective(operators, reduced) -> float:
    traces = (np.asarray(operators) @ reduced).trace(axis1=-2, axis2=-1)
    return float(sum(traces.real))


def _dual_certificate(operators, reduced):
    """Feasible dual point for  min tr(Y) s.t. Y >= R_a  from a primal POVM.

    Starts from Y0 = herm(sum R_a E_a), which is exactly feasible at an
    optimum, and repairs any violation two ways, keeping the cheaper:
    a uniform shift by the worst positive eigenvalue, or adding the sum
    of the positive parts of every R_a - Y0 (each summand dominates its
    own violation, and the sum dominates each summand).
    """
    d = reduced.shape[-1]
    y0 = hermitian_part(sum(reduced @ np.asarray(operators)))
    w, v = _eigh_unchecked(hermitian_part(reduced - y0))
    deficit = max(0.0, float(np.max(w[:, -1])))
    if deficit <= 0.0:
        return y0, float(y0.trace().real)
    if float(np.maximum(w, 0.0).sum()) <= deficit * d:
        y = hermitian_part(y0 + sum(_clip_negative(w, v)))
    else:
        y = y0 + deficit * np.eye(d)
    return y, float(y.trace().real)


def _two_outcome_exact(reduced):
    """Closed form for two outcomes: E_1 projects onto the strictly
    positive eigenspace of R_1 - R_2, ties going to E_2."""
    r1, r2 = reduced
    d = r1.shape[0]
    w, v = _eigh_unchecked(hermitian_part(r1 - r2))
    keep = w > 0.0
    vecs = v[:, keep]
    e1 = vecs @ vecs.conj().T
    objective = float(np.trace(r2).real + w[keep].sum())
    y = hermitian_part(r2 + _clip_negative(w, v))  # exact dual: R_2 + (R_1 - R_2)_+
    return hermitian_part(np.stack([e1, np.eye(d) - e1])), objective, y


def _inv_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Pseudo inverse square root of a hermitian_part output, broadcast over
    leading axes; each slice drops its eigenvalues below 1e-14 of its largest."""
    w, v = _eigh_unchecked(mat)
    keep = w > np.maximum(w[..., -1:], 0.0) * 1e-14
    inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    return (v * inv[..., None, :]) @ v.conj().swapaxes(-1, -2)


def random_povms(rng: np.random.Generator, n_in: int, n_out: int, dim: int) -> np.ndarray:
    """Random POVMs as an (n_in, n_out, dim, dim) stack: complete_povms of the
    PSD parts of complex Gaussians (one draw; per element the real part, then
    the imaginary part)."""
    g = rng.standard_normal((n_in, n_out, 2, dim, dim))
    return complete_povms(psd_project(hermitian_part(g[:, :, 0] + 1j * g[:, :, 1])))


@_lapack_errors
def complete_povms(blocks: np.ndarray) -> np.ndarray:
    """POVMs from an (n_in, n_out, d, d) stack of PSD hermitian_part outputs:
    each input's blocks conjugated by the inverse square root of their sum."""
    n_out, dim = blocks.shape[1], blocks.shape[-1]
    inv_sqrt = _inv_sqrt_psd(hermitian_part(sum(blocks.swapaxes(0, 1))))[:, None]
    els = hermitian_part(inv_sqrt @ blocks @ inv_sqrt)
    # the conjugation leaves the discarded subspace empty; spread it evenly
    return hermitian_part(els + (np.eye(dim) - sum(els.swapaxes(0, 1)))[:, None] / n_out)


@_lapack_errors
def povm_update(
    reduced: Sequence[np.ndarray],
    mode: str = COMPLETE,
    warm_start: Sequence[np.ndarray] | None = None,
    gain_tol: float = 0.0,
) -> PovmUpdateResult:
    """Maximize sum_a tr(E_a R_a) over POVMs.

    Parameters
    ----------
    reduced : Hermitian reduced operators R_a, one per outcome.
    mode : "complete" (sum E_a = I) or "incomplete" (sum E_a <= I); the
        incomplete case appends a dummy outcome with R = 0 and solves the
        complete problem one outcome larger.
    warm_start : optional POVM to improve upon; the result never scores below it.
    gain_tol : except with two outcomes, the fixed-point iteration
        stops on a stall, on a step that gains less than this, or after
        MAX_POVM_ITERS steps.  The default 0 runs to a stall; callers that
        re-solve in an outer loop and only need monotone progress pass a
        small positive value.

    The dual certificate (``dual_matrix``, ``dual_bound``) is computed
    once, on the returned POVM.  Returns a PovmUpdateResult; ``converged``
    is False only when the iteration cap fired first.
    """
    mats = _check_reduced_ops(reduced)
    if mode not in (COMPLETE, INCOMPLETE):
        raise ValidationError(f"mode must be {COMPLETE!r} or {INCOMPLETE!r}")
    kept, d = mats.shape[0], mats.shape[-1]
    identity = np.eye(d, dtype=np.complex128)
    ws = None if warm_start is None else hermitian_part(np.asarray(warm_start, dtype=np.complex128))
    if mode == INCOMPLETE:  # the dummy outcome, dropped from the result
        mats = np.concatenate([mats, np.zeros((1, d, d), dtype=np.complex128)])
        if ws is not None:
            ws = np.concatenate([ws, psd_project(identity - sum(ws))[None]])
    n_out = mats.shape[0]

    if n_out == 2:
        current, best_obj, y = _two_outcome_exact(mats)
        if ws is not None:
            warm_obj = _povm_objective(ws, mats)
            if warm_obj > best_obj:  # possible only through rounding; keep the better POVM
                current, best_obj = ws, warm_obj
        log, iterations, converged, bound = [best_obj], 0, True, float(np.trace(y).real)
    else:
        # Shift to strictly positive operators; the objective moves by the
        # constant c*d which is subtracted back out of every report.
        min_eig = float(np.min(np.linalg.eigvalsh(mats)[:, 0]))
        c = max(0.0, -min_eig) + 1e-9
        shifted = mats + c * identity

        current = np.repeat((identity / n_out)[None], n_out, axis=0) if ws is None else ws
        best_obj = _povm_objective(current, mats)
        log, iterations, converged = [best_obj], 0, True
        # Matmul chains stay left to right and outcome sums use the builtin
        # sum (numpy's sum(0) goes pairwise at d = 1), so every iterate equals,
        # bit for bit, taking the outcomes one at a time.
        for iterations in range(1, MAX_POVM_ITERS + 1):
            lam = hermitian_part(sum(shifted @ current @ shifted))
            l_inv = _inv_sqrt_psd(lam)
            # Hermitian in exact arithmetic; hermitian_part flattens roundoff
            sandwich = hermitian_part(l_inv @ shifted @ current @ shifted @ l_inv)
            candidate = _clip_negative(*_eigh_unchecked(sandwich))
            # redistribute whatever the pseudo-inverse cut off
            candidate = candidate + (identity - sum(candidate)) / n_out
            obj = _povm_objective(candidate, mats)
            if obj <= best_obj:
                break  # stalled; keep the monotone incumbent
            gain = obj - best_obj
            current = candidate
            best_obj = obj
            log.append(best_obj)
            if gain < gain_tol:
                break
        else:
            converged = False
        y, bound = _dual_certificate(current, mats)
    if kept < n_out:
        current = current[:kept]
        best_obj = _povm_objective(current, mats[:kept])
    return PovmUpdateResult(current, best_obj, converged, iterations, y, bound, tuple(log))
