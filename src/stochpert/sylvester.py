"""Sylvester equations ``AX - XB = C`` and the separation of two matrices.

Three solvers with overlapping domains (a dense solve, by Schur forms or
by the Kronecker matrix; a convergent power series; a continuous-time
integral) and the quantity

    sep(A, B) = inf over X != 0 of ||AX - XB|| / ||X||,

which is positive exactly when the spectra of ``A`` and ``B`` are disjoint
and is not symmetric in its arguments.  In the Frobenius convention the
value is the smallest singular value of the Kronecker matrix of the map;
two explicit lower bounds are provided for the separated-spectra regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericalError
from .numerics import DEFAULT_TOLS, Tolerances, as_square, expm, \
    sylvester_kron_matrix

__all__ = [
    "SepReport",
    "solve_dense",
    "solve_series",
    "solve_integral",
    "sep_brute",
    "sep_bound_discrete",
    "sep_bound_ct",
]

#: largest Kronecker system (m*n) handled by the brute-force routines
KRON_CAP = 4096


@dataclass(frozen=True)
class SepReport:
    """Separation value plus everything needed to audit it.

    ``norm`` names the convention ("frobenius" or "spectral"), ``method``
    the route ("brute-force", "series-bound" or "ct-bound"), and
    ``constants`` every constant entering a bound.  For the spectral
    convention of the brute-force route, ``interval`` is a certified
    enclosure and ``value`` the best descent estimate inside it.
    """

    value: float
    norm: str
    method: str
    constants: dict = field(default_factory=dict)
    interval: tuple[float, float] | None = None


#: LAPACK real Schur factorisation and back-substitution for
#: quasi-triangular Sylvester equations
_GEES, _TRSYL = scipy.linalg.get_lapack_funcs(("gees", "trsyl"),
                                              dtype=np.float64)


def _no_sort(wr, wi):
    """Selection callback ``gees`` requires; unused with ``sort_t=0``."""


def _schur(a: np.ndarray, select=None,
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Real Schur form ``A = Z R Z^T`` straight from LAPACK ``gees``:
    ``(R, Z, eigenvalues, sdim)``, the eigenvalues read from ``gees``'s real
    and imaginary parts in the order of R's diagonal.

    With a callback ``select(wr, wi) -> bool``, ``gees`` reorders the form
    (``sort_t=1``) so that the ``sdim`` selected eigenvalues lead; a
    conjugate pair is selected, and counted twice, when either member is.
    Without one the form is unordered and ``sdim`` is 0.  A nonzero
    ``info`` raises :class:`NumericalError`; ``n + 1`` and ``n + 2`` mean
    that the reordering failed.
    """
    r, sdim, wr, wi, z, _, info = _GEES(select or _no_sort, a,
                                        sort_t=select is not None)
    if info != 0:
        reorder = " (reordering failed)" if info > a.shape[0] else ""
        raise NumericalError(f"gees failed with info {info}{reorder}")
    return r, z, wr + 1j * wi, sdim


def _require_disjoint(la: np.ndarray, lb: np.ndarray, tols: Tolerances):
    """Refuse spectra closer than ``tols.cluster``, naming the shared
    eigenvalue."""
    dists = np.abs(la[:, None] - lb[None, :])
    i, j = np.unravel_index(int(np.argmin(dists)), dists.shape)
    if dists[i, j] <= tols.cluster:
        raise DomainError(
            f"spectra of A and B share eigenvalue {la[i]:.12g} (spectral "
            f"gap {dists[i, j]:.3e}); Sylvester equation is singular")


def _as_rhs(c, a, b) -> np.ndarray:
    """Validate and return ``C`` as a finite float matrix shaped for
    ``AX - XB``."""
    c = np.asarray(c, dtype=float)
    if c.shape != (a.shape[0], b.shape[0]):
        raise DomainError(f"C shape {c.shape} vs {(a.shape[0], b.shape[0])}")
    if not np.isfinite(c).all():
        raise DomainError("C has non-finite entries")
    return c


def solve_dense(a, b, c, *, method: str = "schur",
                tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Solve ``AX - XB = C`` for disjoint spectra.

    ``method="schur"`` (Bartels-Stewart) takes one real Schur form per
    operand, ``A = Z_A R_A Z_A^T`` and ``B = Z_B R_B Z_B^T``, each from a
    direct LAPACK ``gees`` call that also returns the spectrum (a nonzero
    ``info`` raises :class:`NumericalError`), back-substitutes
    ``R_A Y - Y R_B = Z_A^T C Z_B`` with LAPACK ``trsyl`` and returns
    ``Z_A Y Z_B^T``: O(m^3 + n^3 + mn(m + n)) work.  ``method="kron"``
    solves the (mn)-by-(mn) vectorized system directly and is the
    reference; above ``m n = KRON_CAP`` it raises :class:`DomainError`
    before allocating that system.  An empty ``A`` or ``B`` gives the
    empty ``X``.
    Non-finite entries in ``A``, ``B`` or ``C`` and spectra
    closer than ``tols.cluster`` raise :class:`DomainError`, the latter
    naming the shared eigenvalue; the relative residual is verified
    against ``1e-10 (||A|| + ||B||) ||X||`` and a failure raises
    :class:`NumericalError`.
    """
    a = as_square(a, "A")
    b = as_square(b, "B")
    c = _as_rhs(c, a, b)
    if method not in ("schur", "kron"):
        raise DomainError(f"unknown method {method!r}")
    if c.size == 0:                     # an empty operand: X is empty
        return np.zeros(c.shape)

    if method == "schur":
        r_a, z_a, lam_a, _ = _schur(a)
        r_b, z_b, lam_b, _ = _schur(b)
        _require_disjoint(lam_a, lam_b, tols)
        # trsyl returns Y for the right-hand side scaled to avoid overflow
        y, y_scale, info = _TRSYL(r_a, r_b, z_a.T @ c @ z_b, isgn=-1)
        if info < 0:
            raise NumericalError(f"trsyl rejected argument {-info}")
        x = z_a @ (y / y_scale) @ z_b.T
    else:
        if c.size > KRON_CAP:
            raise DomainError(
                f"the Kronecker solver takes at most {KRON_CAP} unknowns "
                f"(m*n), got {c.shape[0]}*{c.shape[1]} = {c.size}; "
                f"method=\"schur\" has no such limit")
        _require_disjoint(np.linalg.eigvals(a), np.linalg.eigvals(b), tols)
        k = sylvester_kron_matrix(a, b)
        x = np.linalg.solve(k, c.flatten(order="F")).reshape(c.shape, order="F")

    resid = np.linalg.norm(a @ x - x @ b - c, "fro")
    scale = (np.linalg.norm(a, "fro") + np.linalg.norm(b, "fro"))
    allowed = 1e-10 * scale * max(np.linalg.norm(x, "fro"), 1e-300)
    if resid > max(allowed, 1e-13 * max(scale, 1.0)):
        raise NumericalError(f"Sylvester residual {resid:.3e} exceeds "
                             f"contract {allowed:.3e}")
    return x


def solve_series(a, b, c, *, n_max: int = 1000, tol: float = 1e-12,
                 ) -> np.ndarray:
    """Solve via the convergent series ``X = -sum A^n C B^(-n-1)``.

    Requires ``B`` invertible and spectral radii with
    ``rho(A) rho(B^-1) < 1``.  Truncates once the geometric tail estimate
    drops below ``tol``; exhausting ``n_max`` raises
    :class:`NumericalError` with the tail estimate.
    """
    a = as_square(a, "A")
    b = as_square(b, "B")
    c = _as_rhs(c, a, b)
    lb = np.linalg.eigvals(b)
    if np.abs(lb).min() < 1e-12:
        raise DomainError("B is singular; the series needs B^-1")
    rho_a = float(np.abs(np.linalg.eigvals(a)).max())
    rho_binv = float(1.0 / np.abs(lb).min())
    q = rho_a * rho_binv
    if q >= 1.0:
        raise DomainError(f"rho(A) rho(B^-1) = {q:.6g} >= 1; series diverges")

    binv_t = lambda m: np.linalg.solve(b.T, m.T).T    # m @ B^-1
    term = -binv_t(c)
    x = term.copy()
    qpad = min(0.5 * (1.0 + q), 1.0 - 1e-12)
    for n in range(1, n_max + 1):
        term = a @ binv_t(term)
        x += term
        tail = np.linalg.norm(term, "fro") * qpad / (1.0 - qpad)
        if tail <= tol:
            return x
    raise NumericalError(
        f"series not converged after {n_max} terms; tail estimate {tail:.3e}")


def solve_integral(a, b, c, r: float, *, panel_tol: float = 1e-14,
                   nodes: int = 24, max_panels: int = 80) -> np.ndarray:
    """Solve via ``X = integral of exp((r - A)t) C exp((B - r)t) dt``.

    Valid when the spectrum of ``A`` lies in ``Re z > r`` and that of
    ``B`` in ``Re z < r``.  Composite Gauss-Legendre panels cover
    ``[0, 1], [1, 2], [2, 4], ...`` until a panel contributes less than
    ``panel_tol``.  The defining identity is verified to ``1e-8``.
    """
    a = as_square(a, "A")
    b = as_square(b, "B")
    c = _as_rhs(c, a, b)
    r_a = float(np.linalg.eigvals(a).real.min())
    r_b = float(np.linalg.eigvals(b).real.max())
    if not r_b < r < r_a:
        raise DomainError(
            f"r={r} outside the spectral gap ({r_b:.6g}, {r_a:.6g})")

    xs, ws = np.polynomial.legendre.leggauss(nodes)
    ra_m = r * np.eye(a.shape[0]) - a
    br_m = b - r * np.eye(b.shape[0])

    def panel(lo: float, hi: float) -> np.ndarray:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        out = np.zeros_like(c)
        for xi, wi in zip(xs, ws):
            t = mid + half * xi
            out += wi * expm(ra_m * t) @ c @ expm(br_m * t)
        return half * out

    x = panel(0.0, 1.0)
    lo = 1.0
    for _ in range(max_panels):
        contrib = panel(lo, 2.0 * lo)
        x += contrib
        lo *= 2.0
        if np.linalg.norm(contrib, "fro") < panel_tol:
            break
    else:
        raise NumericalError("integrand did not decay within the panel cap")

    resid = np.linalg.norm(a @ x - x @ b - c, "fro")
    if resid > 1e-8 * max(1.0, np.linalg.norm(c, "fro")):
        raise NumericalError(f"integral solution residual {resid:.3e}")
    return x


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def sep_brute(a, b, *, norm: str = "frobenius", n_restarts: int = 200,
              seed: int = 0) -> SepReport:
    """Separation by direct computation.

    Frobenius convention: exactly the smallest singular value of the
    Kronecker matrix (vectorization is a Frobenius isometry).  Spectral
    convention: a certified enclosure; every trial direction gives an
    upper bound for the infimum and the norm-equivalence scaling of the
    Frobenius value gives lower and upper bounds, so the interval is
    ``[sep_F / sqrt(p), min(best descent, sqrt(p) sep_F)]`` with
    ``p = min(m, n)``.
    """
    a = as_square(a, "A")
    b = as_square(b, "B")
    m, n = a.shape[0], b.shape[0]
    if m * n > KRON_CAP:
        raise DomainError(f"Kronecker system size {m * n} exceeds {KRON_CAP}")
    k = sylvester_kron_matrix(a, b)
    sep_f = float(np.linalg.svd(k, compute_uv=False)[-1])
    if norm == "frobenius":
        return SepReport(sep_f, "frobenius", "brute-force")
    if norm != "spectral":
        raise DomainError(f"unknown norm convention {norm!r}")

    p = np.sqrt(min(m, n))
    best = _spectral_descent(a, b, n_restarts, seed)
    upper = min(best, float(p * sep_f))
    lower = float(sep_f / p)
    return SepReport(min(best, upper), "spectral", "brute-force",
                     constants={"sep_frobenius": sep_f},
                     interval=(lower, upper))


def _spectral_descent(a, b, n_restarts: int, seed: int) -> float:
    """Best locally-descended value of ||AX - XB||_2 / ||X||_2; each trial
    is a rigorous upper bound for the infimum."""
    rng = np.random.default_rng(seed)
    m, n = a.shape[0], b.shape[0]

    def ratio_and_grad(x):
        y = a @ x - x @ b
        uy, sy, vty = np.linalg.svd(y)
        ux, sx, vtx = np.linalg.svd(x)
        ny, nx = sy[0], sx[0]
        gy = np.outer(uy[:, 0], vty[0])          # subgradient of ||Y||_2
        gx = np.outer(ux[:, 0], vtx[0])
        grad_num = a.T @ gy - gy @ b.T
        g = (grad_num * nx - ny * gx) / nx**2
        return ny / nx, g

    best = np.inf
    for _ in range(max(1, n_restarts)):
        x = rng.standard_normal((m, n))
        x /= np.linalg.norm(x, 2)
        val, _ = ratio_and_grad(x)
        step = 0.5
        for _ in range(60):
            _, g = ratio_and_grad(x)
            gnorm = np.linalg.norm(g, "fro")
            if gnorm < 1e-14:
                break
            cand = x - step * g / gnorm
            cand /= np.linalg.norm(cand, 2)
            cval, _ = ratio_and_grad(cand)
            if cval < val:
                x, val = cand, cval
            else:
                step *= 0.6
                if step < 1e-10:
                    break
        best = min(best, val)
    return float(best)


def sep_bound_discrete(a, b, lam: float, *, n_max: int = 200,
                       norm: str = "frobenius") -> SepReport:
    """Series-based lower bound on sep(A, B).

    With ``rho(A) rho(B^-1) < 1 / lam^2`` for some ``lam > 1``, power-decay
    constants ``C_A = max_n ||A^n|| / (lam rho_A)^n`` (and the analogue for
    ``B^-1``) are finite, and

        sep(A, B) >= (1 - lam^2 rho_A rho_Binv) / (C_A C_Binv lam rho_Binv).

    The maxima are located by direct search up to ``n_max``; the report is
    flagged inconclusive when the maximum sits at the cap or the ratio
    tail is not yet decreasing.
    """
    a = as_square(a, "A")
    b = as_square(b, "B")
    if norm not in ("frobenius", "spectral"):
        raise DomainError(f"unknown norm convention {norm!r}")
    if lam <= 1.0:
        raise DomainError(f"lam must exceed 1, got {lam}")
    lb = np.linalg.eigvals(b)
    if np.abs(lb).min() < 1e-12:
        raise DomainError("B is singular; the bound needs B^-1")
    rho_a = float(np.abs(np.linalg.eigvals(a)).max())
    rho_binv = float(1.0 / np.abs(lb).min())
    if rho_a <= 0.0:
        raise DomainError("A is nilpotent: no finite power-decay constant "
                          "C_A exists for a geometric envelope")
    if lam**2 * rho_a * rho_binv >= 1.0:
        raise DomainError(
            f"lam^2 rho_A rho_Binv = {lam**2 * rho_a * rho_binv:.6g} >= 1; "
            "the series bound does not apply")

    ord_ = "fro" if norm == "frobenius" else 2
    binv = np.linalg.inv(b)

    def decay_constant(mat, rho):
        ratios = []
        power = np.eye(mat.shape[0])
        for nn in range(n_max + 1):
            ratios.append(np.linalg.norm(power, ord_) / (lam * rho) ** nn)
            power = power @ mat
        ratios = np.array(ratios)
        arg = int(np.argmax(ratios))
        tail_ok = bool(np.all(np.diff(ratios[-10:]) <= 1e-12 * ratios.max()))
        return float(ratios[arg]), arg, tail_ok

    c_a, arg_a, tail_a = decay_constant(a, rho_a)
    c_binv, arg_b, tail_b = decay_constant(binv, rho_binv)
    conclusive = (arg_a < n_max and arg_b < n_max and tail_a and tail_b)
    bound = (1.0 - lam**2 * rho_a * rho_binv) / (c_a * c_binv * lam * rho_binv)
    return SepReport(float(bound), norm, "series-bound", constants={
        "lam": lam, "rho_A": rho_a, "rho_Binv": rho_binv,
        "C_A": c_a, "C_Binv": c_binv, "argmax_A": arg_a, "argmax_Binv": arg_b,
        "n_max": n_max, "conclusive": conclusive,
    })


def sep_bound_ct(a, b, *, r: float | None = None, eps_margin: float = 1e-6,
                 norm: str = "frobenius", grid_points: int = 240,
                 t_cap: float = 1e9) -> SepReport:
    """Integral-based lower bound for spectra separated by real part.

    With ``Re spec(A) >= r_A > r_B >= Re spec(B)`` the integral solution
    gives ``sep(A, B) >= (r_A - r_B - 2 eps) / (c_A c_B)`` where ``c_A``
    certifies ``||exp((r - A)t)|| <= c_A exp(-(r_A - r - eps) t)`` (and
    analogously ``c_B``).  The constants are located on a geometric time
    grid and must be stable under grid refinement.
    """
    a = as_square(a, "A")
    b = as_square(b, "B")
    if norm not in ("frobenius", "spectral"):
        raise DomainError(f"unknown norm convention {norm!r}")
    r_a = float(np.linalg.eigvals(a).real.min())
    r_b = float(np.linalg.eigvals(b).real.max())
    gap = r_a - r_b
    if gap <= 2.0 * eps_margin:
        raise DomainError(f"spectral gap {gap:.6g} <= 2 eps_margin")
    if r is None:
        r = 0.5 * (r_a + r_b)
    if not (r_b + eps_margin < r < r_a - eps_margin):
        raise DomainError(f"r={r} outside ({r_b + eps_margin:.6g}, "
                          f"{r_a - eps_margin:.6g})")

    ord_ = "fro" if norm == "frobenius" else 2

    def envelope_constant(mat, growth):
        # sup over t of ||exp(mat t)|| * exp(growth * t); the product decays
        # like exp(-eps_margin * t), so the sup is attained at finite t
        def scan(points):
            ts = np.concatenate([[0.0], np.geomspace(1e-8, t_cap, points)])
            best = -np.inf
            for t in ts:
                nrm = np.linalg.norm(expm(mat * t), ord_)
                if nrm > 0.0:
                    best = max(best, np.log(nrm) + growth * t)
            return float(np.exp(best))
        c1 = scan(grid_points)
        c2 = scan(2 * grid_points)
        if abs(c2 - c1) > 1e-6 * max(1.0, c1):
            c3 = scan(4 * grid_points)
            if abs(c3 - c2) > 1e-6 * max(1.0, c2):
                raise NumericalError("envelope constant not grid-stable")
            return c3
        return c2

    c_a = envelope_constant(r * np.eye(a.shape[0]) - a, r_a - r - eps_margin)
    c_b = envelope_constant(b - r * np.eye(b.shape[0]), r - r_b - eps_margin)
    bound = (gap - 2.0 * eps_margin) / (c_a * c_b)
    return SepReport(float(bound), norm, "ct-bound", constants={
        "r": float(r), "r_A": r_a, "r_B": r_b, "eps_margin": eps_margin,
        "c_A": c_a, "c_B": c_b,
    })
