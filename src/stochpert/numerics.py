"""Dense linear-algebra and linear-programming substrate.

Everything here is domain-agnostic: a two-phase dense simplex solver with
Bland's anti-cycling rule, disk-shaped spectral regions, the eigenvalues of
a centrosymmetric matrix from its two half-order blocks, a matrix
exponential, and the Kronecker matrix of the Sylvester map
``X -> AX - XB``.  All operations are pure functions of their inputs.

The simplex pivots its dense tableau with one rank-one numpy update.  It is
kept instead of ``scipy.optimize.linprog``, whose import alone adds about
20 MB to the process.  Programs that share every constraint and differ
only in the objective are solved together (``lp_solve_iter``, and
``lp_solve_many``, the list of its results): phase 1 runs once, and each
objective's phase 2 starts from the optimal basis of the one before, its
tableau recomputed from the program's data.  ``lp_solve_iter`` runs each
phase 2 only when its result is asked for, so a caller that can tell
that the remaining objectives do not matter stops paying for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericalError

__all__ = [
    "Tolerances",
    "DEFAULT_TOLS",
    "LinearProgram",
    "LpResult",
    "lp_solve",
    "lp_solve_many",
    "lp_solve_iter",
    "Disk",
    "centrosymmetric_eigvals",
    "expm",
    "sylvester_kron_matrix",
    "as_square",
]


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance record.

    cluster
        eigenvalue clustering / rank decision threshold.
    """

    cluster: float = 1e-8


DEFAULT_TOLS = Tolerances()


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square float matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} has non-finite entries")
    return a


# ---------------------------------------------------------------------------
# Linear programming: dense two-phase simplex with Bland's rule
# ---------------------------------------------------------------------------

@dataclass
class LinearProgram:
    """max/min ``objective @ x`` subject to ``lhs @ x (sense) rhs`` and bounds.

    ``senses`` holds one of ``"<="``, ``"="``, ``">="`` per row.  ``bounds``
    holds one ``(lo, hi)`` pair per variable; ``None`` means unbounded on
    that side.
    """

    objective: np.ndarray
    lhs: np.ndarray
    senses: Sequence[str]
    rhs: np.ndarray
    bounds: Sequence[tuple[float | None, float | None]]
    maximize: bool = True

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lhs = np.atleast_2d(np.asarray(self.lhs, dtype=float))
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.objective.size
        m = self.rhs.size
        if n < 1:
            raise DomainError("linear program needs at least one variable")
        if self.lhs.shape != (m, n):
            raise DomainError(
                f"constraint matrix shape {self.lhs.shape} inconsistent with "
                f"{m} rows and {n} variables")
        if len(self.senses) != m:
            raise DomainError("one sense required per constraint row")
        for s in self.senses:
            if s not in ("<=", "=", ">="):
                raise DomainError(f"unknown constraint sense {s!r}")
        if len(self.bounds) != n:
            raise DomainError("one (lo, hi) bound pair required per variable")
        for lo, hi in self.bounds:
            if lo is not None and hi is not None and lo > hi:
                raise DomainError(f"empty bound interval ({lo}, {hi})")
        for arr in (self.objective, self.lhs, self.rhs):
            if not np.all(np.isfinite(arr)):
                raise DomainError("linear program data must be finite")


@dataclass(frozen=True)
class LpResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int,
           buf: np.ndarray) -> None:
    """Pivot on ``(row, col)``: one rank-one update of the whole tableau,
    formed in the scratch array ``buf``; the pivot row is only scaled."""
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    np.multiply(factor[:, None], tab[row], out=buf)
    tab -= buf
    basis[row] = col


def _bland_minimize(tab, basis, allowed, pivot_tol, max_iter):
    """Run Bland-rule simplex on a tableau whose last row holds reduced costs.

    Returns "optimal" or "unbounded".  ``allowed`` is a boolean mask of
    columns eligible to enter the basis.
    """
    m = tab.shape[0] - 1
    buf = np.empty_like(tab)
    for _ in range(max_iter):
        candidates = allowed & (tab[-1, :-1] < -pivot_tol)
        enter = int(candidates.argmax())
        if not candidates[enter]:
            return "optimal"
        leave = -1
        best = np.inf
        rows = np.flatnonzero(tab[:m, enter] > pivot_tol)
        ratios = tab[rows, -1] / tab[rows, enter]
        # the ratio test on Python floats: the same comparisons, faster
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            # Bland tie-break: smallest basic-variable index
            if ratio < best - 1e-12 or (
                    ratio <= best + 1e-12
                    and (leave < 0 or basis[i] < basis[leave])):
                best = min(best, ratio)
                leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tab, basis, leave, enter, buf)
    raise NumericalError("simplex iteration cap exceeded")


def lp_solve(lp: LinearProgram, *, feas_tol: float = 1e-9,
             pivot_tol: float = 1e-9, max_iter: int = 50_000) -> LpResult:
    """Solve a dense linear program exactly (two-phase simplex, Bland's rule).

    The one-objective case of :func:`lp_solve_many`, which then keeps no
    copy of the tableau.  Variables become shifted nonnegative parts (two
    when free, plus a ``<=`` row when boxed); phase 1 drives out the
    artificial basis and drops redundant rows, phase 2 minimizes.  Bland's rule cannot cycle;
    ``max_iter`` caps the pivots of each phase, and each pivot is one pass
    over the dense tableau.  Entries up to ``pivot_tol`` count as zero.
    Optimal points are feasible (relative to the row scale) and optimal to
    within ``feas_tol``; an end that misses that raises NumericalError.
    Infeasible and unbounded programs are reported as statuses, not raised.
    """
    return lp_solve_many(lp, lp.objective[None, :], feas_tol=feas_tol,
                         pivot_tol=pivot_tol, max_iter=max_iter)[0]


def lp_solve_many(lp: LinearProgram, objectives, *, feas_tol: float = 1e-9,
                  pivot_tol: float = 1e-9, max_iter: int = 50_000,
                  ) -> list[LpResult]:
    """Solve ``lp`` once per row of ``objectives``, which take the place of
    ``lp.objective`` (each maximized or minimized as ``lp.maximize`` says).

    The list of every result of :func:`lp_solve_iter`, with the same
    arguments, warm starts and checks.
    """
    return list(lp_solve_iter(lp, objectives, feas_tol=feas_tol,
                              pivot_tol=pivot_tol, max_iter=max_iter))


def lp_solve_iter(lp: LinearProgram, objectives, *, feas_tol: float = 1e-9,
                  pivot_tol: float = 1e-9, max_iter: int = 50_000,
                  ) -> Iterator[LpResult]:
    """Iterator over the results of ``lp`` with each row of ``objectives``
    in place of ``lp.objective``, solved one at a time as it is asked for.

    The call itself validates the objectives, substitutes the bounds,
    assembles the tableau and runs phase 1 and the drive-out of the
    artificials, once; an infeasible program is infeasible for every
    objective.  Each step of the iterator then runs phase 2 for the next
    objective, starting from the basis the previous one ended on: only the
    cost row changes, so that basis stays primal-feasible (also after an
    "unbounded" end, which stops before its pivot).  A caller that stops
    early pays for no later objective.  Before each warm start the tableau
    rows are recomputed from the program's data at that basis (one dense
    solve), so rounding does not pile up from one objective to the next.
    Tolerances, the per-phase pivot cap and the per-objective feasibility
    check of the optimum are those of :func:`lp_solve`.  A warm start can
    set out from a badly conditioned basis and lose accuracy on the way:
    one that meets a singular basis, fails the feasibility check, exceeds
    the pivot cap or ends unbounded is run again from the basis phase 1
    left, exactly as :func:`lp_solve` runs it, and that result stands.  The
    data and the phase-1 tableau are kept for that only when there is more
    than one objective.
    """
    n = lp.objective.size
    objectives = np.asarray(objectives, dtype=float)
    if objectives.ndim != 2 or objectives.shape[1] != n:
        raise DomainError(f"objectives of shape {objectives.shape} for "
                          f"{n} variables")
    if not np.all(np.isfinite(objectives)):
        raise DomainError("linear program data must be finite")

    # substitute every variable by nonnegative ones: x = shift + sum sign * u
    shift = np.zeros(n)
    umap: list[tuple[int, float]] = []
    box_rows: list[tuple[int, float]] = []
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None:
            shift[j] = lo
            umap.append((j, 1.0))
            if hi is not None:
                box_rows.append((len(umap) - 1, hi - lo))
        elif hi is not None:
            shift[j] = hi
            umap.append((j, -1.0))
        else:
            umap.append((j, 1.0))
            umap.append((j, -1.0))
    cols, sgns = (np.array(v) for v in zip(*umap))
    nu = cols.size

    # one row u <= hi - lo per boxed variable after the program's own rows
    m0, nb = lp.rhs.size, len(box_rows)
    m = m0 + nb
    senses = np.array(list(lp.senses) + ["<="] * nb, dtype="<U2")
    rhs = np.concatenate([lp.rhs - lp.lhs @ shift, [ub for _, ub in box_rows]])
    # the u columns, then one slack/surplus column per inequality row
    ineq = np.flatnonzero(senses != "=")
    ncols = nu + ineq.size
    body = np.zeros((m, ncols))
    body[:m0, :nu] = sgns * lp.lhs[:, cols]
    body[m0 + np.arange(nb), [ucol for ucol, _ in box_rows]] = 1.0
    body[ineq, nu + np.arange(ineq.size)] = np.where(senses[ineq] == "<=",
                                                     1.0, -1.0)

    # flip rows so the right-hand side is nonnegative
    neg = rhs < 0
    body[neg] *= -1.0
    rhs = np.where(neg, -rhs, rhs)

    # artificial basis; reuse a +1 slack column where one survived the flip
    basis = np.full(m, -1, dtype=int)
    slack = nu + np.arange(ineq.size)
    usable = body[ineq, slack] > 0.5
    basis[ineq[usable]] = slack[usable]
    need_art = np.flatnonzero(basis < 0)
    basis[need_art] = ncols + np.arange(need_art.size)
    total = ncols + need_art.size

    tab = np.zeros((m + 1, total + 1))
    tab[:m, :ncols] = body
    tab[need_art, basis[need_art]] = 1.0
    tab[:m, -1] = rhs

    keep = np.ones(m, dtype=bool)
    if need_art.size:
        # phase 1: minimize the artificial sum
        for i in need_art:
            tab[-1, :] -= tab[i, :]
        tab[-1, ncols:total] = 0.0
        allowed = np.ones(total, dtype=bool)
        status = _bland_minimize(tab, basis, allowed, pivot_tol, max_iter)
        if status != "optimal" or -tab[-1, -1] > feas_tol:
            return (LpResult("infeasible") for _ in objectives)
        # drive artificials out of the basis; drop redundant rows
        buf = np.empty_like(tab)
        for i in np.flatnonzero(basis >= ncols):
            nonzero = np.flatnonzero(np.abs(tab[i, :ncols]) > pivot_tol)
            if nonzero.size:
                _pivot(tab, basis, i, nonzero[0], buf)
            else:
                keep[i] = False
        if not np.all(keep):
            tab = np.vstack([tab[:m][keep], tab[-1:]])
            basis = basis[keep]
            m = int(keep.sum())

    allowed = np.arange(tab.shape[1] - 1) < ncols

    def phase2(tab, basis, objective) -> LpResult:
        """Minimize ``objective`` from the tableau's basis, in place."""
        cmin = -objective if lp.maximize else objective
        tab[-1, :] = 0.0
        tab[-1, :nu] = sgns * cmin[cols]
        for i in range(m):
            cb = tab[-1, basis[i]]
            if cb != 0.0:
                tab[-1, :] -= cb * tab[i, :]
        status = _bland_minimize(tab, basis, allowed, pivot_tol, max_iter)
        if status == "unbounded":
            return LpResult("unbounded")

        u = np.zeros(tab.shape[1] - 1)
        u[basis] = tab[:m, -1]
        x = shift.copy()
        np.add.at(x, cols, sgns * u[:nu])
        # a tableau that lost accuracy can end "optimal" at an infeasible
        # point
        v = u[:ncols]
        miss = max(np.abs(body @ v - rhs).max(initial=0.0), -v.min())
        if miss > feas_tol * (1.0 + np.abs(body) @ np.abs(v)).max(
                initial=1.0):
            raise NumericalError("simplex lost accuracy: its optimum misses "
                                 f"a constraint by {miss:.3e}")
        return LpResult("optimal", float(objective @ x), x)

    # phase 2, once per objective: the first from the basis phase 1 left,
    # each later one from the basis the one before ended on.  Only a later
    # one needs the program's data and the phase-1 tableau kept
    if len(objectives) > 1:
        data = np.column_stack([body[keep], rhs[keep]])
        cold = tab.copy(), basis.copy()

    def each():
        nonlocal tab, basis
        yield phase2(tab, basis, objectives[0])
        for objective in objectives[1:]:
            try:
                # the rows at the warm basis, recomputed from the program's
                # data so that rounding does not pile up across objectives
                rows = np.linalg.solve(data[:, basis], data)
                tab[:m, :ncols] = rows[:, :-1]
                tab[:m, basis] = np.eye(m)
                tab[:m, -1] = np.maximum(rows[:, -1], 0.0)
                res = phase2(tab, basis, objective)
            except (NumericalError, np.linalg.LinAlgError):
                res = None
            if res is None or not res.optimal:
                # a warm start that fails its checks, or finds no optimum,
                # is solved again from the phase-1 basis, as lp_solve would
                tab, basis = cold[0].copy(), cold[1].copy()
                res = phase2(tab, basis, objective)
            yield res

    return each() if len(objectives) else iter(())


# ---------------------------------------------------------------------------
# Spectral regions and centrosymmetric spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disk:
    """Open disk ``|z - center| < radius`` in the complex plane; both
    methods also act elementwise on arrays."""

    center: complex
    radius: float

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius

    def boundary_distance(self, z: complex) -> float:
        return abs(abs(z - self.center) - self.radius)


def centrosymmetric_eigvals(t) -> np.ndarray:
    """Eigenvalues of a centrosymmetric matrix of odd order ``n = 2m + 1``.

    With ``J`` the reversal, ``J T J = T`` lets ``T`` be partitioned as
    ``[[A, x, B J], [y, c, y J], [J B, J x, J A J]]`` with ``A``, ``B`` of
    order ``m``.  The vectors fixed by ``J``, ``(u, t, J u)``, and those it
    negates, ``(u, 0, -J u)``, are invariant, so the spectrum is that of
    ``[[A + B, x], [2 y, c]]`` (order ``m + 1``) together with that of
    ``A - B`` (order ``m``): the classical reduction of centrosymmetric
    matrices (Good 1970; Cantoni & Butler 1976).  Two eigenproblems of
    half the order cost about a quarter of one dense ``eigvals``.

    ``T`` is assumed centrosymmetric and is not checked; the entries below
    its middle row are not read.
    """
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    if t.ndim != 2 or t.shape[1] != n or n % 2 == 0:
        raise DomainError(f"expected a square matrix of odd order, got shape "
                          f"{t.shape}")
    m = n // 2
    a = t[:m, :m]
    b = t[:m, :m:-1]                # T[:m, m+1:] J
    even = np.empty((m + 1, m + 1))
    np.add(a, b, out=even[:m, :m])
    even[:m, m] = t[:m, m]
    even[m, :m] = 2.0 * t[m, :m]
    even[m, m] = t[m, m]
    odd = a - b
    # a T passed as a temporary is freed before the eigenproblems: at
    # n = 3^8 that takes the peak RSS of ``spectrum`` from 651 to 555 MB
    del t, a, b
    return np.concatenate([np.linalg.eigvals(even), np.linalg.eigvals(odd)])


# ---------------------------------------------------------------------------
# Matrix exponential and the Sylvester map in Kronecker form
# ---------------------------------------------------------------------------

def expm(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximants)."""
    return scipy.linalg.expm(as_square(a, "A"))


def sylvester_kron_matrix(a, b) -> np.ndarray:
    """Matrix of ``X -> AX - XB`` acting on column-stacked ``vec(X)``.

    For ``A`` m-by-m and ``B`` n-by-n the result is the (mn)-by-(mn) matrix
    ``I_n (x) A - B^T (x) I_m``.
    """
    a = as_square(a, "A")
    b = as_square(b, "B")
    m, n = a.shape[0], b.shape[0]
    return np.kron(np.eye(n), a) - np.kron(b.T, np.eye(m))
