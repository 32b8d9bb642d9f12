"""Spectral projections and their smooth continuation.

A projection ``P`` (idempotent matrix) splits the space into its image and
kernel; a transition operator ``T`` commuting with ``P`` block-diagonalizes
in that frame with diagonal blocks ``T_P`` and ``T_Q``.  The commutation
constraint ``[P, T] = 0`` defines an implicit manifold over the operator:
its linearization in tangent coordinates (the off-diagonal blocks) is a
pair of Sylvester equations, solvable exactly when the block spectra are
disjoint.  That yields

* :func:`derivative` -- the tangent response ``P'`` to a change ``T'``,
* :func:`continue_projection` -- the projection and its tangent at each
  node of a grid along a one-parameter operator family, each node read
  from one ordered real Schur form of the operator there.
"""

from __future__ import annotations

import functools
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
]


def phi(p) -> np.ndarray:
    """Manifold residual ``P^2 - P`` (zero exactly on projections)."""
    p = np.asarray(p, dtype=float)
    return p @ p - p


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
    """Idempotent operator with an image/kernel frame built on first use.

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
        ones = np.ones(p.shape[0])
        img = p @ ones
        if np.abs(img - ones).max() <= 1e-10:
            self.submanifold = "fixes_one"
        elif np.abs(img).max() <= 1e-10:
            self.submanifold = "kills_one"
        else:
            self.submanifold = None

    @functools.cached_property
    def frame(self) -> BlockFrame:
        """Orthonormal image and kernel bases by pivoted QR."""
        return _frame_of(self.matrix, self.rank)

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


def _trsyl(r11: np.ndarray, r22: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``X`` with ``R11 X - X R22 = C`` for quasi-triangular ``R11`` and
    ``R22`` in real Schur form, by LAPACK ``trsyl``; a nonzero ``info``
    raises :class:`NumericalError`."""
    if c.size == 0:
        return np.zeros(c.shape)
    x, scale, info = _TRSYL(r11, r22, c, isgn=-1)
    if info != 0:
        raise NumericalError(f"trsyl failed with info {info}")
    return x / scale


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
    y = _trsyl(r[:k, :k], r[k:, k:], r[:k, k:])
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


def _schur_node(t, tp, previous, rank, eps, tols, accept_tol):
    """Projection and tangent at one node, from one ordered Schur form.

    ``previous`` is ``(X, L, kernel)`` of the previous node: its image
    basis ``X``, the rows ``L`` with ``P = X L`` and ``L X = I``, and its
    kernel-block spectrum.  The image block of ``T`` compressed onto that
    image, ``L T X``, predicts the new image-block spectrum, and ``gees``
    orders ``T = Z R Z^T`` so that the eigenvalues nearer to that
    prediction than to the previous kernel-block spectrum lead.  One
    ``trsyl``, ``R11 Y - Y R22 = R12``, gives ``P = Z1 (Z1^T + Y Z2^T)``.
    In the frame ``W = Z [[I, -Y], [0, I]]``, whose inverse is
    ``[[I, Y], [0, I]] Z^T``, ``T`` is ``diag(R11, R22)``, so the tangent
    equations of :func:`derivative` for ``T' = tp`` are two more ``trsyl``
    on the same quasi-triangular blocks.  ``W`` stays here: ``R22`` is
    similar to the kernel block of the projection's orthonormal frame, but
    not orthogonally, so the returned :class:`Projection` builds its own
    frame if asked.  Returns the projection, ``P'`` and this node's
    ``(X, L, kernel)``.
    """
    basis, rows, kernel = previous
    image = np.linalg.eigvals(rows @ t @ basis)
    guess = np.concatenate([image, kernel])
    r, z, lam, k = _schur(
        t, lambda wr, wi: np.abs(guess - complex(wr, wi)).argmin()
        < image.size)
    if k != rank:
        raise DomainError(f"{k} eigenvalues continue the image block at "
                          f"eps={eps:.6g}, not the rank {rank}: spectral "
                          f"gap lost")
    if 0 < k < lam.size:
        gap = np.abs(lam[:k, None] - lam[None, k:]).min()
        if gap <= tols.cluster:
            raise DomainError(f"spectral gap {gap:.3e} at eps={eps:.6g} is "
                              f"below {tols.cluster:g}")
    r11, r22 = r[:k, :k], r[k:, k:]
    y = _trsyl(r11, r22, r[:k, k:])
    # W = [Z1, Z2 - Z1 Y] and W^-1 = [Z1^T + Y Z2^T; Z2^T]
    basis, kernel_basis = z[:, :k], z[:, k:] - z[:, :k] @ y
    rows, kernel_rows = z[:, :k].T + y @ z[:, k:].T, z[:, k:].T
    p = basis @ rows
    phi_r = np.linalg.norm(phi(p), "fro")
    comm = np.linalg.norm(p @ t - t @ p, "fro")
    if max(phi_r, comm) > accept_tol:
        raise NumericalError(f"projection residuals |P^2-P| = {phi_r:.3e}, "
                             f"|[P,T]| = {comm:.3e} at eps={eps:.6g} above "
                             f"{accept_tol:g}")

    # the tangent equations on the off-diagonal blocks of T' in the frame
    # W, and P' = W [[0, U], [V, 0]] W^-1
    u = _trsyl(r11, r22, rows @ tp @ kernel_basis)
    v = _trsyl(r22, r11, -(kernel_rows @ (tp @ basis)))
    pp = basis @ (u @ kernel_rows) + (kernel_basis @ v) @ rows
    resid = np.linalg.norm((pp @ t - t @ pp) + (p @ tp - tp @ p), "fro")
    if resid > 1e-9 * max(1.0, np.linalg.norm(tp, "fro")) + comm:
        raise NumericalError(f"linearized equation residual {resid:.3e} at "
                             f"eps={eps:.6g}")
    return (Projection(p, tols=tols, idem_tol=accept_tol), pp,
            (basis, rows, lam[k:]))


def _continuation_nodes(p0, family, eps_target, n_steps, tols, accept_tol):
    """Yield ``(eps, projection, tangent, T)`` at each uniform grid node,
    as the continuation reaches it; ``T`` is ``family.at(eps)``."""
    t = family.at(0.0)
    tangent = derivative(p0, t, family.derivative(0.0), tols=tols)
    yield 0.0, p0, tangent, t
    if eps_target == 0 or n_steps < 1:
        return

    frame, k = p0.frame, p0.rank
    previous = (frame.w[:, :k], frame.w_inv[:k],
                np.linalg.eigvals(frame.blocks(t)[3]))
    for eps in np.linspace(0.0, eps_target, n_steps + 1)[1:]:
        t = family.at(eps)
        proj, tangent, previous = _schur_node(
            t, family.derivative(eps), previous, k, eps, tols, accept_tol)
        yield eps, proj, tangent, t


def continue_projection(p0: Projection, family, eps_target: float,
                        n_steps: int = 8, *,
                        tols: Tolerances = DEFAULT_TOLS,
                        accept_tol: float = 1e-11, consume=None):
    """Continue a projection along the operator family up to ``eps_target``.

    Node 0 is ``p0`` itself, with its tangent from :func:`derivative`.
    Every later node is computed from ``T(eps)`` alone, with no predictor
    and no corrector: one real Schur form of ``T(eps)``, ordered by
    ``gees`` to put first the eigenvalues nearer to the image-block
    spectrum predicted from the previous node (``T(eps)`` compressed onto
    that node's image, accurate to second order in the step) than to that
    node's kernel-block spectrum, and three ``trsyl`` on its
    quasi-triangular blocks, one for the projection and two for its
    tangent (Bartels & Stewart 1972).  ``family.at`` and
    ``family.derivative`` are evaluated once per node.  A node whose
    ordering selects other than ``p0.rank`` eigenvalues (a kernel
    eigenvalue moved further in one step than its distance to the image
    block: more steps help), or whose block spectra come within
    ``tols.cluster``, raises :class:`DomainError` naming its ``eps``;
    ``|P^2 - P|`` or ``|[P, T]|`` above ``accept_tol``, or a
    linearized-equation residual above that of :func:`derivative`, raises
    :class:`NumericalError`.

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
