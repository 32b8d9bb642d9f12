"""Second-order reduced dynamics of a stochastic operator family.

Along a continued spectral projection ``P(eps)`` the transformation function
``psi(eps)`` (Kato, *Perturbation Theory for Linear Operators*, II.4.2),
``psi' = S psi`` with ``S = P'(P - Q)``, conjugates ``P(0)`` onto ``P(eps)``
and makes the reduced operator

    That = psi^-1 T psi   restricted to the image of P(0)

well-defined.  Only its action on that image is ever read, so only the
image frame is transported: for a basis ``B`` of the image of ``P(0)`` and
a left inverse ``Y0`` with ``Y0 P(0) = Y0``, the frame ``X = psi B``,
``Y = Y0 psi^-1`` keeps ``P X = X`` and ``Y P = Y``, so that

    X' = P' X,    Y' = Y P',

and the exact reduced matrix is ``Y T X``.  Taylor expansion of That at 0
gives the closed second-order form

    P0 T_eps P0 + Q0 T_eps Q0 + eps^2/2 [[T0, P0'], P0'],

which :func:`effective_operator` reduces in the same way, alongside the
exact transported reduction.  For the 3-state models the image of ``P(0)``
carries a natural near-delta basis ``B`` indexed by the frozen +/-
configurations: its rows there are the identity and those rows of ``P(0)``
are unit rows, so ``Y0`` selects the frozen rows and every order reads
``Y op X`` through them.  All reductions are row-stochastic in that basis.
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
    "transport_image",
    "block_diagonal_part",
    "second_order_term",
    "ReducedOperator",
    "reduced_basis",
    "effective_operator",
    "two_state_row",
]


def _rk4(v, g0, gh, g1, h):
    """One classical fourth-order step of ``v' = g v`` over ``h``, with the
    generator ``g`` given at the start, midpoint and end of the step."""
    k1 = g0 @ v
    k2 = gh @ (v + 0.5 * h * k1)
    k3 = gh @ (v + 0.5 * h * k2)
    k4 = g1 @ (v + h * k3)
    return v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def transport_image(p0: Projection, x0, y0, family, eps_target: float,
                    n_steps: int = 64, *, tols: Tolerances = DEFAULT_TOLS,
                    conjugation_tol: float = 1e-8):
    """Transport the image frame of ``p0`` along the continued projection:
    integrate ``X' = P' X`` and ``Y' = Y P'`` from ``(x0, y0)`` to
    ``eps_target`` with classical fourth-order steps on a uniform grid of
    ``n_steps``, and return ``(X, Y, T)`` there, ``T = family.at(eps)``.

    ``x0`` spans the image of ``p0`` with ``x0 @ 1 = 1``, and ``y0`` is a
    left inverse with ``y0 @ p0 = y0``.  The projections and tangents come
    from :func:`continue_projection` on the half-step grid, and each step
    runs as soon as the continuation reaches its end.  At each grid node,
    as it is reached, the largest of ``|PX - X|``, ``|YP - Y|`` and
    ``|YX - I|`` is checked against ``conjugation_tol`` and ``X @ 1 = 1``
    against ``1e-9``; a failure raises :class:`NumericalError` naming the
    node and the step count.  Only the current frame is kept.
    """
    h = eps_target / n_steps
    eye = np.eye(x0.shape[1])

    def transport(nodes):
        x, y = x0, y0
        for k, (_, proj, tangent, t) in enumerate(nodes):
            if k % 2:                   # the midpoint of a step
                mid = tangent
                continue
            if k:
                x = _rk4(x, start, mid, tangent, h)
                y = _rk4(y.T, start.T, mid.T, tangent.T, h).T
            start = tangent
            pm = proj.matrix
            where = f"at node {k // 2} of {n_steps}"
            defects = {"|PX - X|": np.abs(pm @ x - x).max(),
                       "|YP - Y|": np.abs(y @ pm - y).max(),
                       "|YX - I|": np.abs(y @ x - eye).max()}
            name = max(defects, key=defects.get)
            if defects[name] > conjugation_tol:
                raise NumericalError(
                    f"transport defect {defects[name]:.3e} ({name}) {where} "
                    f"exceeds {conjugation_tol:g}; more steps reduce it")
            if np.abs(x.sum(axis=1) - 1.0).max() > 1e-9:
                raise NumericalError(f"transport moved the constant function "
                                     f"{where}")
        return x, y, t

    return continue_projection(p0, family, eps_target, 2 * n_steps,
                               tols=tols, consume=transport)


def block_diagonal_part(op, p: Projection) -> np.ndarray:
    """``P op P + Q op Q``: the part of an operator preserving the
    image/kernel splitting."""
    op = as_square(op, "operator")
    pm = p.matrix
    q = p.complement
    return pm @ op @ pm + q @ op @ q


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


def frozen_rows(n_sites: int) -> np.ndarray:
    """Indices of the frozen +/- configurations, in :func:`frozen_configs`
    order."""
    return np.array([config_index(cfg) for cfg in frozen_configs(n_sites)])


def reduced_basis(p0: Projection, n_sites: int) -> np.ndarray:
    """Near-delta basis of the image: the columns of ``P0`` at the frozen
    +/- configurations, each scaled to 1 at its own configuration."""
    rows = frozen_rows(n_sites)
    if p0.rank != len(rows):
        raise DomainError(f"projection rank {p0.rank} does not match "
                          f"{len(rows)} frozen configurations")
    cols = p0.matrix[:, rows]
    pivots = cols[rows, np.arange(len(rows))]
    if np.abs(pivots).min() < 1e-8:
        raise NumericalError("basis column vanishes at its own "
                             "configuration")
    return cols / pivots


def effective_operator(model: PcaModel, eps: float, order="2", *,
                       n_steps: int = 64,
                       tols: Tolerances = DEFAULT_TOLS) -> ReducedOperator:
    """Reduced slow dynamics of the model at ``eps``.

    ``order`` selects the closed-form truncation ("1" keeps the
    block-diagonal part of the operator, "2" adds the second-order double
    commutator) or the exact transported reduction ("exact", the frame
    carried by :func:`transport_image` in ``n_steps`` steps).  Every order
    is read as ``Y op X`` on the frozen rows ``Y``: the truncations on the
    frozen basis ``X = B``, the exact one on the transported frame.  All
    three are row-stochastic up to the reported defect; an operator that
    leaks out of the frame, ``|op X - X m|`` above ``1e-8``, raises
    :class:`NumericalError`.
    """
    order = str(order)
    if order not in ("1", "2", "exact"):
        raise DomainError(f"order must be '1', '2' or 'exact', got {order!r}")
    family = model.family()
    t0 = family.t0
    p0 = Projection(t0, tols=tols)     # the zero-eps operator is idempotent
    basis = reduced_basis(p0, model.n_sites)
    rows = frozen_rows(model.n_sites)

    if order == "exact":
        x, y, t_eps = transport_image(p0, basis, np.eye(p0.n)[rows], family,
                                      eps, n_steps, tols=tols)
        image = t_eps @ x
        m = y @ image
    else:
        op = block_diagonal_part(family.at(eps), p0)
        if order == "2":
            p0p = derivative(p0, t0, family.t0_prime, tols=tols)
            op = op + eps**2 * second_order_term(t0, p0p)
        x = basis
        image = op @ x
        m = image[rows]

    resid = float(np.abs(image - x @ m).max())
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
