"""Spectral projections and their smooth continuation.

A projection ``P`` (idempotent matrix) splits the space into its image and
kernel; a transition operator ``T`` commuting with ``P`` block-diagonalizes
in that frame with diagonal blocks ``T_P`` and ``T_Q``.  The commutation
constraint ``[P, T] = 0`` defines an implicit manifold over the operator:
its linearization in tangent coordinates (the off-diagonal blocks) is a
pair of Sylvester equations, solvable exactly when the block spectra are
disjoint.  That yields

* :func:`derivative` -- the tangent response ``P'`` to a change ``T'``,
* :func:`continue_projection` -- a predictor-corrector path following the
  projection along a one-parameter operator family, with the idempotent
  retraction ``P <- 3P^2 - 2P^3`` handling the normal directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericalError
from .numerics import DEFAULT_TOLS, Disk, Tolerances, as_square
from .sylvester import _TRSYL, _schur, sep_brute, solve_dense

__all__ = [
    "phi",
    "Projection",
    "BlockFrame",
    "spectral_projection",
    "tangent_split",
    "derivative",
    "ContinuationResult",
    "PathPoint",
    "continue_projection",
    "GapReport",
    "gap_report",
    "retract",
]


def phi(p) -> np.ndarray:
    """Manifold residual ``P^2 - P`` (zero exactly on projections)."""
    p = np.asarray(p, dtype=float)
    return p @ p - p


def retract(p) -> np.ndarray:
    """One step of the idempotent refinement ``P <- 3P^2 - 2P^3``.

    Contracts the residual quadratically for ``||phi(P)||`` below about
    one tenth.
    """
    p = np.asarray(p, dtype=float)
    p2 = p @ p
    return 3.0 * p2 - 2.0 * p2 @ p


#: LAPACK pivoted Householder QR and the explicit Q of its reflectors
_GEQP3, _ORGQR = scipy.linalg.get_lapack_funcs(("geqp3", "orgqr"),
                                               dtype=np.float64)


def _rank_basis(mat: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the leading column space via pivoted QR:
    LAPACK ``geqp3``, then ``orgqr`` on its first ``rank`` reflectors."""
    if rank == 0:
        return np.zeros((mat.shape[0], 0))
    qr, _, tau, _, info = _GEQP3(mat)
    if info != 0:
        raise NumericalError(f"geqp3 failed with info {info}")
    q, _, info = _ORGQR(qr[:, :rank], tau[:rank])
    if info != 0:
        raise NumericalError(f"orgqr failed with info {info}")
    return q


@dataclass(frozen=True)
class BlockFrame:
    """Change of basis adapted to an image/kernel splitting."""

    w: np.ndarray
    w_inv: np.ndarray
    rank: int

    def to_frame(self, op) -> np.ndarray:
        return self.w_inv @ np.asarray(op, dtype=float) @ self.w

    def from_frame(self, op) -> np.ndarray:
        return self.w @ np.asarray(op, dtype=float) @ self.w_inv

    def blocks(self, op):
        """2x2 block decomposition (image, kernel) of an operator."""
        f = self.to_frame(op)
        r = self.rank
        return f[:r, :r], f[:r, r:], f[r:, :r], f[r:, r:]

    def from_offdiagonal(self, upper, lower) -> np.ndarray:
        n = self.w.shape[0]
        r = self.rank
        f = np.zeros((n, n))
        f[:r, r:] = upper
        f[r:, :r] = lower
        return self.from_frame(f)


def _frame_of(p: np.ndarray, rank: int) -> BlockFrame:
    n = p.shape[0]
    image = _rank_basis(p, rank)
    kernel = _rank_basis(np.eye(n) - p, n - rank)
    w = np.hstack([image, kernel])
    try:
        w_inv = np.linalg.inv(w)
    except np.linalg.LinAlgError as e:
        raise NumericalError("image and kernel bases do not span") from e
    return BlockFrame(w, w_inv, rank)


class Projection:
    """Idempotent operator with cached image/kernel frame.

    ``submanifold`` records how the projection acts on the constant
    function: ``"fixes_one"`` (``P 1 = 1``), ``"kills_one"`` (``P 1 = 0``)
    or ``None`` when neither holds.
    """

    def __init__(self, matrix, *, tols: Tolerances = DEFAULT_TOLS,
                 idem_tol: float = 1e-10):
        p = as_square(matrix, "P")
        scale = max(np.linalg.norm(p, "fro"), 1.0)
        resid = np.linalg.norm(phi(p), "fro")
        if resid > idem_tol * scale:
            raise DomainError(f"matrix is not idempotent: |P^2-P| = "
                              f"{resid:.3e} (scale {scale:.3g})")
        self.matrix = p
        self.rank = int(round(np.trace(p)))
        if not 0 <= self.rank <= p.shape[0]:
            raise DomainError(f"trace {np.trace(p):.6g} is not a valid rank")
        self.frame = _frame_of(p, self.rank)
        ones = np.ones(p.shape[0])
        img = p @ ones
        if np.abs(img - ones).max() <= 1e-10:
            self.submanifold = "fixes_one"
        elif np.abs(img).max() <= 1e-10:
            self.submanifold = "kills_one"
        else:
            self.submanifold = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def complement(self) -> np.ndarray:
        return np.eye(self.n) - self.matrix

    @property
    def image_basis(self) -> np.ndarray:
        return self.frame.w[:, :self.rank]

    @property
    def kernel_basis(self) -> np.ndarray:
        return self.frame.w[:, self.rank:]


def spectral_projection(t, region=Disk(1.0, 0.5), *,
                        tols: Tolerances = DEFAULT_TOLS) -> Projection:
    """Projection onto the invariant subspace for eigenvalues in ``region``
    (a :class:`~stochpert.numerics.Disk`), along the complementary one:
    ``P = Z [[I, Y], [0, 0]] Z^T`` from the real Schur form ``T = Z R Z^T``
    that ``gees`` orders with the ``k`` eigenvalues inside leading, and one
    ``trsyl``, ``R11 Y - Y R22 = R12`` (Bartels & Stewart 1972).  Another
    region, or an eigenvalue within ``tols.cluster`` of the boundary, raises
    :class:`DomainError`; a nonzero ``info``, a split conjugate pair and
    ``|[P, T]|`` above ``1e-9`` raise :class:`NumericalError`."""
    t = as_square(t, "T")
    if not isinstance(region, Disk):
        raise DomainError(f"region must be a Disk, got {region!r}")
    r, z, lam, k = _schur(t, lambda wr, wi: region.contains(complex(wr, wi)))
    dist = region.boundary_distance(lam)
    if dist.min() < tols.cluster:
        raise DomainError(f"eigenvalue {lam[dist.argmin()]:.12g} lies within "
                          f"{tols.cluster:g} of the region boundary")
    n_inside = int(np.count_nonzero(region.contains(lam)))
    if k != n_inside:
        raise NumericalError(
            f"Schur reordering selected {k} eigenvalues but the region "
            f"contains {n_inside}; region may split a conjugate pair")
    y = np.zeros((k, t.shape[0] - k))
    if y.size:
        y, scale, info = _TRSYL(r[:k, :k], r[k:, k:], r[:k, k:], isgn=-1)
        if info != 0:
            raise NumericalError(f"trsyl failed with info {info}")
        y /= scale
    p = z[:, :k] @ (z[:, :k].T + y @ z[:, k:].T)
    comm = np.linalg.norm(p @ t - t @ p, "fro")
    if comm > 1e-9 * max(1.0, np.linalg.norm(t, "fro")):
        raise NumericalError(f"projection does not commute: {comm:.3e}")
    return Projection(p, tols=tols)


def tangent_split(p: Projection, pi) -> tuple[np.ndarray, np.ndarray]:
    """Split an operator into its tangent part (off-diagonal blocks in the
    image/kernel frame; satisfies ``P pi + pi P = pi``) and normal part
    (diagonal blocks).  The parts sum back to the input exactly."""
    pi = as_square(pi, "pi")
    if pi.shape[0] != p.n:
        raise DomainError("dimension mismatch")
    d11, d12, d21, d22 = p.frame.blocks(pi)
    tangent = p.frame.from_offdiagonal(d12, d21)
    return tangent, pi - tangent


def derivative(p: Projection, t, tp, *,
               tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Tangent response of the projection to an operator change.

    Solves the linearized commutation equation ``[P', T] + [P, T'] = 0``
    for ``P'`` in tangent form: in the image/kernel frame this is the pair
    of Sylvester equations

        T_P U - U T_Q = G12,      T_Q V - V T_P = -G21,

    where ``G`` is ``T'`` in the frame, each solved by
    :func:`~stochpert.sylvester.solve_dense` (Schur forms, no Kronecker
    matrix).  Requires ``[P, T]`` to vanish; block spectra closer than
    ``tols.cluster`` (a collapsed gap) raise :class:`DomainError` from the
    solve, which names the shared eigenvalue.
    """
    t = as_square(t, "T")
    tp = as_square(tp, "T'")
    scale = max(1.0, np.linalg.norm(t, "fro"))
    comm = np.linalg.norm(p.matrix @ t - t @ p.matrix, "fro")
    if comm > 1e-8 * scale:
        raise DomainError(f"P and T do not commute: |[P,T]| = {comm:.3e}")
    if p.rank == 0 or p.rank == p.n:
        return np.zeros_like(t)
    t_p, _, _, t_q = p.frame.blocks(t)
    g11, g12, g21, g22 = p.frame.blocks(tp)
    u = solve_dense(t_p, t_q, g12, tols=tols)
    v = solve_dense(t_q, t_p, -g21, tols=tols)
    pp = p.frame.from_offdiagonal(u, v)

    resid = np.linalg.norm((pp @ t - t @ pp) + (p.matrix @ tp - tp @ p.matrix),
                           "fro")
    if resid > 1e-9 * max(1.0, np.linalg.norm(tp, "fro")) + comm:
        raise NumericalError(f"linearized equation residual {resid:.3e}")
    return pp


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathPoint:
    eps: float
    phi_residual: float
    comm_residual: float
    rank: int


@dataclass(frozen=True)
class ContinuationResult:
    """Continued projection with one path point, projection, tangent ``P'``
    and operator ``T = family.at(eps)`` per uniform grid node."""

    projection: Projection
    path: tuple[PathPoint, ...]
    projections: tuple[Projection, ...]
    tangents: tuple[np.ndarray, ...]
    operators: tuple[np.ndarray, ...]


def _newton_correct(p_mat, t, rank, tols, max_iter=50):
    """Correct an approximate projection onto ``[P,T]=0`` at fixed rank.

    Each iteration first retracts the iterate onto the projections
    (``P <- 3P^2 - 2P^3``, which removes the normal defect), then tests the
    residuals, then takes a Newton step in the tangent space of that
    projection (two small Sylvester solves).  Retracting before the step
    rather than after it keeps the step from being spent on the
    predictor's own ``P^2 - P``.  The residuals are tested before the
    iterate's image/kernel frame is built, so a converged iterate costs no
    frame.  Returns the corrected (retracted) matrix with its final
    residuals and the number of Newton steps taken.
    """
    history = []
    for it in range(max_iter):
        p_mat = retract(p_mat)
        phi_r = np.linalg.norm(phi(p_mat), "fro")
        comm_r = np.linalg.norm(p_mat @ t - t @ p_mat, "fro")
        history.append((phi_r, comm_r))
        if phi_r <= tols.solve and comm_r <= tols.solve:
            return p_mat, phi_r, comm_r, it
        frame = _frame_of(p_mat, rank)
        t_p, t12, t21, t_q = frame.blocks(t)
        u = solve_dense(t_p, t_q, t12)
        v = solve_dense(t_q, t_p, -t21)
        p_mat = p_mat + frame.from_offdiagonal(u, v)
    raise NumericalError(
        f"corrector did not reach {tols.solve:g} in {max_iter} iterations; "
        f"residual history {history[-3:]}")


def _hermite(prev, last, step):
    """Cubic Hermite extrapolation of ``P`` a ``step`` beyond ``last``: the
    cubic through the accepted points ``prev`` and ``last``, each
    ``(eps, P, P')``, matching both values and both tangents, taken at
    ``tau = 1 + step / h`` in units of their spacing ``h`` (Allgower &
    Georg, *Introduction to Numerical Continuation Methods*, ch. 6).  The
    basis weights ``h01 = 1 - h00`` of the two values are folded into a
    difference about ``P`` at ``last``."""
    (e0, p0, d0), (e1, p1, d1) = prev, last
    h = e1 - e0
    tau = 1.0 + step / h
    tau2 = tau * tau
    h00 = (2.0 * tau - 3.0) * tau2 + 1.0
    h10 = (tau - 2.0) * tau2 + tau
    h11 = (tau - 1.0) * tau2
    return p1 + h00 * (p0 - p1) + h * (h10 * d0 + h11 * d1)


def _continuation_nodes(p0, family, eps_target, n_steps, tols, accept_tol):
    """Yield ``(eps, projection, tangent, T)`` at each uniform grid node,
    as the continuation reaches it; ``T`` is ``family.at(eps)``."""
    t = family.at(0.0)
    tangent = derivative(p0, t, family.derivative(0.0), tols=tols)
    yield 0.0, p0, tangent, t
    if eps_target == 0 or n_steps < 1:
        return

    floor = eps_target / 2 ** 10
    grid = np.linspace(0.0, eps_target, n_steps + 1)
    current = p0
    eps = 0.0
    prev = None         # (eps, P, P') of the accepted point before current
    for target in grid[1:]:
        while eps < target:
            step = target - eps
            while True:
                # a full step ends exactly on the grid node
                end = target if step == target - eps else eps + step
                t = family.at(end)
                if prev is None:
                    guess = current.matrix + step * tangent
                else:
                    guess = _hermite(prev, (eps, current.matrix, tangent),
                                     step)
                try:
                    corrected, phi_r, comm_r, _ = _newton_correct(
                        guess, t, current.rank, tols)
                    break
                except NumericalError:
                    step *= 0.5
                    if step < floor:
                        raise NumericalError(
                            f"continuation stalled near eps={eps:.6g}: step "
                            f"fell below {floor:.3g}")
            proj = Projection(corrected, tols=tols, idem_tol=accept_tol)
            if proj.rank != p0.rank:
                raise DomainError(
                    f"rank jumped from {p0.rank} to {proj.rank} at "
                    f"eps={end:.6g}: spectral gap lost")
            if max(phi_r, comm_r) > accept_tol:
                raise NumericalError(
                    f"accepted-step residuals above {accept_tol:g}")
            prev = (eps, current.matrix, tangent)
            current = proj
            eps = end
            tangent = derivative(current, t, family.derivative(eps),
                                 tols=tols)
        yield target, current, tangent, t


def continue_projection(p0: Projection, family, eps_target: float,
                        n_steps: int = 8, *,
                        tols: Tolerances = DEFAULT_TOLS,
                        accept_tol: float = 1e-11, consume=None):
    """Continue a projection along the operator family up to ``eps_target``.

    The predictor of the first step is the Euler step along the tangent
    ``P'`` at 0; every later one is the cubic Hermite extrapolation through
    the last two accepted points and their tangents (:func:`derivative`,
    computed once per accepted point), also after a halved step, where
    the two spacings differ.  The corrector retracts onto the projections
    and then takes Newton steps in tangent coordinates; from a Hermite
    predictor one step usually reaches ``tols.solve``, from the Euler step
    one or two.  Each attempted step ends exactly on its grid node or on a
    halved step, and evaluates ``family.at`` there once: the corrector, the
    tangent of an accepted point and the recorded residuals share that
    operator.  A corrector :class:`NumericalError` halves the
    step, down to ``eps_target / 2**10``; a :class:`DomainError` (a
    collapsed spectral gap) and a rank jump abort the continuation.

    The grid nodes come as a stream of ``(eps, projection, tangent, T)``
    with ``T = family.at(eps)``.  By default the stream is collected into
    a :class:`ContinuationResult`, recording per uniform grid node one
    :class:`PathPoint`, the projection, its tangent and ``T``; the
    separation of the blocks is left to :func:`gap_report`.  With
    ``consume`` the stream is handed to ``consume`` instead, which sees
    each node as soon as it is reached, so nothing need be kept, and its
    return value is returned.
    """
    if eps_target < 0:
        raise DomainError("eps_target must be nonnegative")
    nodes = _continuation_nodes(p0, family, eps_target, n_steps, tols,
                                accept_tol)
    if consume is not None:
        return consume(nodes)
    path, projections, tangents, operators = [], [], [], []
    for eps, proj, tangent, t in nodes:
        pm = proj.matrix
        path.append(PathPoint(eps, float(np.linalg.norm(phi(pm), "fro")),
                              float(np.linalg.norm(pm @ t - t @ pm, "fro")),
                              proj.rank))
        projections.append(proj)
        tangents.append(tangent)
        operators.append(t)
    return ContinuationResult(projections[-1], tuple(path),
                              tuple(projections), tuple(tangents),
                              tuple(operators))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    eigenvalues_image: np.ndarray
    eigenvalues_kernel: np.ndarray
    gap: float
    sep: float


def gap_report(t, p: Projection) -> GapReport:
    """Block spectra of ``T`` in the frame of ``P``, their distance, and the
    brute-force separation of the diagonal blocks (Kronecker-sized: the
    blocks' sizes multiply to at most ``KRON_CAP``)."""
    t = as_square(t, "T")
    t_p, _, _, t_q = p.frame.blocks(t)
    lam_p = np.linalg.eigvals(t_p) if t_p.size else np.zeros(0, complex)
    lam_q = np.linalg.eigvals(t_q) if t_q.size else np.zeros(0, complex)
    if lam_p.size == 0 or lam_q.size == 0:
        return GapReport(lam_p, lam_q, np.inf, np.inf)
    gap = float(np.abs(lam_p[:, None] - lam_q[None, :]).min())
    sep = min(sep_brute(t_p, t_q).value, sep_brute(t_q, t_p).value)
    return GapReport(lam_p, lam_q, gap, sep)
