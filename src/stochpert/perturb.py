"""Second-order reduced dynamics of a stochastic operator family.

Along a continued spectral projection ``P(eps)`` one can pick an invertible
transport ``psi(eps)`` with ``P(eps) = psi P(0) psi^-1``; fixing its
logarithmic derivative to ``S = P'(P - Q)`` (which satisfies
``[S, P] = P'``) makes the transport, and hence the reduced operator

    That = psi^-1 T psi   restricted to the image of P(0),

well-defined.  Taylor expansion of That at 0 gives the closed second-order
form

    P0 T_eps P0 + Q0 T_eps Q0 + eps^2/2 [[T0, P0'], P0'],

whose restriction is computed by :func:`effective_operator` alongside the
exact transported reduction.  For the 3-state models the image of ``P(0)``
carries a natural near-delta basis indexed by the frozen +/- patterns, in
which all reductions are row-stochastic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .numerics import DEFAULT_TOLS, Tolerances, as_square
from .projection import Projection, continue_projection, derivative
from .model import MINUS, PLUS, PcaModel, config_index

__all__ = [
    "gauge_generator",
    "commutator_identity_defect",
    "GaugePath",
    "integrate_gauge",
    "reduced_first_order",
    "block_diagonal_part",
    "second_order_term",
    "ReducedOperator",
    "reduced_basis",
    "effective_operator",
    "two_state_row",
]


def gauge_generator(p: Projection, pp, *, tangent_tol: float = 1e-8,
                    ) -> np.ndarray:
    """Transport generator ``S = P'(P - Q)`` for a tangent direction ``P'``.

    Satisfies ``[S, P] = P'`` and sends the constant function to zero
    whenever ``P'`` does.
    """
    pp = as_square(pp, "P'")
    pm = p.matrix
    tangency = np.linalg.norm(pm @ pp + pp @ pm - pp, "fro")
    if tangency > tangent_tol * max(1.0, np.linalg.norm(pp, "fro")):
        raise DomainError(f"P' is not tangent at P: defect {tangency:.3e}")
    s = pp @ (2.0 * pm - np.eye(p.n))
    check = np.linalg.norm((s @ pm - pm @ s) - pp, "fro")
    if check > 1e-10 * max(1.0, np.linalg.norm(pp, "fro")):
        raise NumericalError(f"[S,P] = P' violated by {check:.3e}")
    return s


def commutator_identity_defect(t, tp, p: Projection, pp) -> float:
    """Residual of the linearized invariance equation,
    ``|| [T, P'] - [P, T'] ||_F``; vanishes for the exact tangent ``P'``."""
    t = as_square(t, "T")
    tp = as_square(tp, "T'")
    pp = as_square(pp, "P'")
    pm = p.matrix
    lhs = t @ pp - pp @ t
    rhs = pm @ tp - tp @ pm
    return float(np.linalg.norm(lhs - rhs, "fro"))


@dataclass(frozen=True)
class GaugePath:
    """Transport to the end of a uniform grid: ``psi P0 psi_inv = P(eps)``
    and ``psi @ 1 = 1`` at ``eps = eps_target``."""

    psi: np.ndarray
    psi_inv: np.ndarray


def integrate_gauge(family, eps_target: float, n_steps: int = 64, *,
                    tols: Tolerances = DEFAULT_TOLS,
                    conjugation_tol: float = 1e-8) -> GaugePath:
    """Integrate ``d psi / d eps = S(eps) psi`` with classical fourth-order
    steps on a uniform grid.

    The projection path and its tangents (and with them ``S``) are
    evaluated on the half-step grid by continuation, and each RK4 step
    runs as soon as the continuation reaches the end of it.  At each grid
    node, as it is reached, the conjugation identity
    ``psi P0 psi^-1 = P`` (to ``conjugation_tol``) and the preservation of
    the constant function (to ``1e-9``) are verified; a failure raises
    :class:`NumericalError` naming the node.  Only the generators of the
    current step and the current ``psi`` are kept, and only the end point
    is returned.
    """
    t0 = family.t0
    p0 = Projection(t0, tols=tols)
    if eps_target == 0:
        eye = np.eye(p0.n)
        return GaugePath(eye, eye)

    h = eps_target / n_steps
    ones = np.ones(p0.n)

    def transport(nodes):
        psi = np.eye(p0.n)
        for k, (_, proj, tangent, _) in enumerate(nodes):
            s = gauge_generator(proj, tangent)
            if k % 2:                   # the midpoint of a step
                sh = s
                continue
            if k:
                k1 = s0 @ psi
                k2 = sh @ (psi + 0.5 * h * k1)
                k3 = sh @ (psi + 0.5 * h * k2)
                k4 = s @ (psi + h * k3)
                psi = psi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s0 = s
            psi_inv = np.linalg.inv(psi)
            conj = np.abs(psi @ p0.matrix @ psi_inv - proj.matrix).max()
            if conj > conjugation_tol:
                raise NumericalError(
                    f"transport defect {conj:.3e} at node {k // 2} exceeds "
                    f"{conjugation_tol:g}")
            if np.abs(psi @ ones - ones).max() > 1e-9:
                raise NumericalError(f"transport moved the constant function "
                                     f"at node {k // 2}")
        return GaugePath(psi, psi_inv)

    return continue_projection(p0, family, eps_target, 2 * n_steps,
                               tols=tols, consume=transport)


def block_diagonal_part(op, p: Projection) -> np.ndarray:
    """``P op P + Q op Q``: the part of an operator preserving the
    image/kernel splitting."""
    op = as_square(op, "operator")
    pm = p.matrix
    q = p.complement
    return pm @ op @ pm + q @ op @ q


def reduced_first_order(tp, p: Projection) -> np.ndarray:
    """First-order reduced generator ``J = P T' P + Q T' Q``."""
    return block_diagonal_part(tp, p)


def second_order_term(t0, p0_prime) -> np.ndarray:
    """Coefficient of ``eps^2`` in the reduced expansion:
    ``[[T0, P0'], P0'] / 2`` (insensitive to the overall sign of ``P0'``)."""
    t0 = as_square(t0, "T0")
    p0_prime = as_square(p0_prime, "P0'")
    inner = t0 @ p0_prime - p0_prime @ t0
    return 0.5 * (inner @ p0_prime - p0_prime @ inner)


# ---------------------------------------------------------------------------
# reduced operator in the frozen +/- basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedOperator:
    """Reduction of an operator to the image of the reference projection.

    ``basis`` holds the near-delta basis columns (the projection applied to
    the frozen +/- configuration indicators, scaled to value 1 at the
    defining configuration); ``matrix`` is the operator in that basis.
    """

    basis: np.ndarray
    matrix: np.ndarray
    eps: float
    order: str
    offblock_residual: float
    row_sum_defect: float

    @property
    def stochastic(self) -> bool:
        return self.row_sum_defect <= 1e-8


def frozen_configs(n_sites: int):
    """Configurations with every site in {+, -}, ordered little-endian by
    the +/- pattern (+ first)."""
    out = []
    for bits in itertools.product((PLUS, MINUS), repeat=n_sites):
        # itertools.product varies the LAST position fastest; flip so that
        # site 0 is fastest, matching the configuration indexing convention
        out.append(tuple(reversed(bits)))
    return out


def reduced_basis(p0: Projection, n_sites: int) -> np.ndarray:
    """Near-delta basis of the image: ``P0`` applied to each frozen +/-
    indicator, scaled to evaluate to 1 at its own configuration."""
    cfgs = frozen_configs(n_sites)
    if p0.rank != len(cfgs):
        raise DomainError(f"projection rank {p0.rank} does not match "
                          f"{len(cfgs)} frozen configurations")
    cols = []
    for cfg in cfgs:
        ind = np.zeros(p0.n)
        ind[config_index(cfg)] = 1.0
        col = p0.matrix @ ind
        pivot = col[config_index(cfg)]
        if abs(pivot) < 1e-8:
            raise NumericalError("basis column vanishes at its own "
                                 "configuration")
        cols.append(col / pivot)
    return np.stack(cols, axis=1)


def _restrict(op: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, float]:
    image = op @ basis
    m, *_ = np.linalg.lstsq(basis, image, rcond=None)
    resid = float(np.abs(basis @ m - image).max())
    return m, resid


def effective_operator(model: PcaModel, eps: float, order="2", *,
                       n_steps: int = 64,
                       tols: Tolerances = DEFAULT_TOLS) -> ReducedOperator:
    """Reduced slow dynamics of the model at ``eps``.

    ``order`` selects the closed-form truncation ("1" keeps the
    block-diagonal part of the operator, "2" adds the second-order double
    commutator) or the exact transported reduction ("exact").  All three
    are expressed in the frozen +/- basis of the reference projection and
    are row-stochastic up to the reported defect.
    """
    order = str(order)
    if order not in ("1", "2", "exact"):
        raise DomainError(f"order must be '1', '2' or 'exact', got {order!r}")
    family = model.family()
    t0 = family.t0
    p0 = Projection(t0, tols=tols)     # the zero-eps operator is idempotent
    basis = reduced_basis(p0, model.n_sites)
    t_eps = family.at(eps)

    if order == "exact":
        path = integrate_gauge(family, eps, n_steps, tols=tols)
        op = path.psi_inv @ t_eps @ path.psi
    else:
        op = block_diagonal_part(t_eps, p0)
        if order == "2":
            p0p = derivative(p0, t0, family.t0_prime, tols=tols)
            op = op + eps**2 * second_order_term(t0, p0p)

    m, resid = _restrict(op, basis)
    if resid > 1e-8:
        raise NumericalError(f"reduction is not well-defined: the operator "
                             f"leaks out of the image by {resid:.3e}")
    row_defect = float(np.abs(m.sum(axis=1) - 1.0).max())
    return ReducedOperator(basis, m, float(eps), order, resid, row_defect)


def two_state_row(beta_minus: float, beta_plus: float, eps: float,
                  ) -> np.ndarray:
    """Closed-form per-site 2x2 reduced kernel in basis ``(+, -)``:
    transitions fire at rate ``eps * beta -/+ 2`` with a second-order
    correction ``eps^2 beta (beta_- - beta_+) / 4``."""
    c = eps**2 / 4.0
    a = eps * beta_minus / 2.0 - c * beta_minus * (beta_minus - beta_plus)
    b = eps * beta_plus / 2.0 - c * beta_plus * (beta_plus - beta_minus)
    return np.array([[1.0 - a, a], [b, 1.0 - b]])
