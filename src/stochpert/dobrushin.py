"""Dobrushin-style norms and metrics on finite product spaces.

Functions live on the product of per-site finite state spaces.  The smooth
seminorm of a function is the sum over sites of its site-Lipschitz
constants; the norm of a zero-charge measure is dual to it.  On a finite
product both sides are exactly computable:

* primal: a linear program over function values and per-site Lipschitz
  budgets;
* dual: the unit ball of the measure norm is the convex hull of "polar
  generators" (sums over a site subset of single-site dipole measures), so
  the norm is the gauge of that hull, again a linear program.

Both routes are computed independently and must agree; this is the main
internal consistency check of the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError
from .model import _LocalRule
from .numerics import DEFAULT_TOLS, LinearProgram, Tolerances, lp_solve

__all__ = [
    "ProductMetric",
    "site_lipschitz",
    "f_seminorm",
    "ZNorm",
    "z_norm",
    "dobrushin_distance",
    "StarNorm",
    "star_norm",
    "polar_generators",
    "generator_count",
    "DependencyReport",
    "dependency_matrix",
    "stationary_sensitivity",
]

#: refuse to enumerate polar generators beyond this count
GENERATOR_CAP = 1_000_000


@dataclass(frozen=True)
class ProductMetric:
    """Per-site finite metric spaces; the default is the discrete metric."""

    sizes: tuple[int, ...]
    metrics: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.sizes) != len(self.metrics):
            raise DomainError("one distance matrix required per site")
        for s, (k, d) in enumerate(zip(self.sizes, self.metrics)):
            d = np.asarray(d, dtype=float)
            if d.shape != (k, k):
                raise DomainError(f"site {s}: distance matrix shape {d.shape}")
            if np.abs(np.diag(d)).max() > 0 or not np.allclose(d, d.T):
                raise DomainError(f"site {s}: distances must be symmetric "
                                  "with zero diagonal")
            off = np.where(np.eye(k, dtype=bool), np.inf, d)
            if off.min() <= 0:
                raise DomainError(f"site {s}: off-diagonal distances must be "
                                  "positive")
            for a in range(k):
                for b in range(k):
                    if d[a, b] > (d[a, None, :] + d[None, :, b]).min() + 1e-12:
                        raise DomainError(f"site {s}: triangle inequality "
                                          "violated")

    @classmethod
    def discrete(cls, sizes) -> "ProductMetric":
        sizes = tuple(int(k) for k in sizes)
        mats = tuple(1.0 - np.eye(k) for k in sizes)
        return cls(sizes, mats)

    @property
    def n_configs(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def n_sites(self) -> int:
        return len(self.sizes)

    @property
    def diameter(self) -> float:
        return max(float(d.max()) for d in self.metrics)

    def config_index(self, cfg) -> int:
        idx, mult = 0, 1
        for x, k in zip(cfg, self.sizes):
            idx += int(x) * mult
            mult *= k
        return idx

    def configs(self):
        for cfg in itertools.product(*[range(k) for k in self.sizes]):
            yield cfg


def _as_grid(f, pm: ProductMetric) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (pm.n_configs,):
        raise DomainError(f"function length {f.shape} vs {pm.n_configs} "
                          "configurations")
    return f.reshape(pm.sizes, order="F")


def site_lipschitz(f, s: int, pm: ProductMetric) -> float:
    """Largest slope of ``f`` over configuration pairs differing only at
    site ``s`` (exact maximum by enumeration)."""
    grid = _as_grid(f, pm)
    d = pm.metrics[s]
    best = 0.0
    for a in range(pm.sizes[s]):
        fa = np.take(grid, a, axis=s)
        for b in range(pm.sizes[s]):
            if b == a:
                continue
            gap = float((fa - np.take(grid, b, axis=s)).max() / d[a, b])
            best = max(best, gap)
    return best


def f_seminorm(f, pm: ProductMetric) -> float:
    """Summed site-Lipschitz constants (zero exactly on constants)."""
    return sum(site_lipschitz(f, s, pm) for s in range(pm.n_sites))


# ---------------------------------------------------------------------------
# polar generators of the zero-charge unit ball
# ---------------------------------------------------------------------------

def _site_dipoles(pm: ProductMetric, s: int) -> np.ndarray:
    """All ordered single-site dipoles ``(delta_a - delta_b)/d_s(a_s, b_s)``
    for configuration pairs differing only at site ``s``."""
    n = pm.n_configs
    d = pm.metrics[s]
    out = []
    for cfg in pm.configs():
        i = pm.config_index(cfg)
        for alt in range(pm.sizes[s]):
            if alt == cfg[s]:
                continue
            other = list(cfg)
            other[s] = alt
            v = np.zeros(n)
            v[i] = 1.0 / d[cfg[s], alt]
            v[pm.config_index(other)] = -1.0 / d[cfg[s], alt]
            out.append(v)
    return np.array(out)


def generator_count(pm: ProductMetric) -> int:
    """Number of polar generators: one dipole (or none) per site, not all
    absent."""
    total = 1
    for s, k in enumerate(pm.sizes):
        total *= 1 + pm.n_configs * (k - 1)
    return total - 1


def polar_generators(pm: ProductMetric) -> np.ndarray:
    """Extreme directions of the zero-charge unit ball, stacked as rows.

    Each generator sums, over a nonempty subset of sites, one single-site
    dipole per chosen site.  The count grows fast with the number of
    sites; enumeration is refused above :data:`GENERATOR_CAP`.
    """
    count = generator_count(pm)
    if count > GENERATOR_CAP:
        raise DomainError(f"{count} polar generators exceed the cap "
                          f"{GENERATOR_CAP}")
    per_site = [_site_dipoles(pm, s) for s in range(pm.n_sites)]
    gens = np.zeros((count, pm.n_configs))
    row = 0
    for mask in range(1, 2 ** pm.n_sites):
        chosen = [per_site[s] for s in range(pm.n_sites) if mask >> s & 1]
        for combo in itertools.product(*chosen):
            g = combo[0].copy()
            for v in combo[1:]:
                g += v
            gens[row] = g
            row += 1
    return gens


# ---------------------------------------------------------------------------
# the zero-charge norm, both routes
# ---------------------------------------------------------------------------

class _PrimalProgram:
    """Reusable primal LP skeleton: variables are the function values plus
    one Lipschitz budget per site; only the objective changes per measure."""

    def __init__(self, pm: ProductMetric):
        self.pm = pm
        n, ns = pm.n_configs, pm.n_sites
        rows, rhs, senses = [], [], []
        for s in range(ns):
            d = pm.metrics[s]
            for cfg in pm.configs():
                i = pm.config_index(cfg)
                for alt in range(cfg[s] + 1, pm.sizes[s]):
                    other = list(cfg)
                    other[s] = alt
                    j = pm.config_index(other)
                    for (p, q) in ((i, j), (j, i)):
                        row = np.zeros(n + ns)
                        row[p] = 1.0
                        row[q] = -1.0
                        row[n + s] = -d[cfg[s], alt]
                        rows.append(row)
                        rhs.append(0.0)
                        senses.append("<=")
        total_budget = np.zeros(n + ns)
        total_budget[n:] = 1.0
        rows.append(total_budget)
        rhs.append(1.0)
        senses.append("<=")
        gauge = np.zeros(n + ns)          # pin f at one configuration
        gauge[0] = 1.0
        rows.append(gauge)
        rhs.append(0.0)
        senses.append("=")
        self._lhs = np.array(rows)
        self._rhs = np.array(rhs)
        self._senses = senses
        self._bounds = [(None, None)] * n + [(0.0, None)] * ns

    def value(self, mu: np.ndarray) -> float:
        n = self.pm.n_configs
        obj = np.concatenate([mu, np.zeros(self.pm.n_sites)])
        res = lp_solve(LinearProgram(obj, self._lhs, self._senses, self._rhs,
                                     self._bounds, maximize=True))
        if not res.optimal:
            raise NumericalError(f"primal norm LP ended {res.status}")
        return res.value


def _check_zero_charge(mu: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    charge = abs(float(mu.sum()))
    if charge > tol:
        raise DomainError(f"measure has nonzero total charge {charge:.3e}")
    return mu


class ZNorm(NamedTuple):
    """Zero-charge norm by the two independent routes."""

    primal: float
    dual: float

    @property
    def value(self) -> float:
        return self.primal


def z_norm(mu, pm: ProductMetric, *, agree_tol: float = 1e-7) -> ZNorm:
    """Norm of a zero-charge measure, computed two independent ways.

    The primal maximizes ``mu(f)`` over the unit ball of the smooth
    seminorm; the dual expresses ``mu`` as the cheapest conic combination
    of polar generators.  Disagreement beyond ``agree_tol`` raises
    :class:`NumericalError`.
    """
    mu = _check_zero_charge(mu)
    if mu.shape != (pm.n_configs,):
        raise DomainError("measure length does not match the product space")
    primal = _PrimalProgram(pm).value(mu)

    gens = polar_generators(pm)
    k = gens.shape[0]
    # min sum(v) with gens.T @ v = mu, v >= 0; the total-charge row is
    # redundant (every column and mu have zero charge), so drop one row
    lhs = gens.T[:-1, :]
    res = lp_solve(LinearProgram(np.ones(k), lhs, ["="] * lhs.shape[0],
                                 mu[:-1], [(0.0, None)] * k, maximize=False))
    if not res.optimal:
        raise NumericalError(f"dual norm LP ended {res.status}")
    dual = res.value
    if abs(primal - dual) > agree_tol * max(1.0, abs(primal)):
        raise NumericalError(
            f"primal/dual norm mismatch: {primal!r} vs {dual!r}")
    return ZNorm(primal, dual)


def dobrushin_distance(p, q, pm: ProductMetric) -> float:
    """Distance ``|p - q|`` between two probability rows in the zero-charge
    norm."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, v in (("p", p), ("q", q)):
        if v.min() < -1e-12 or abs(v.sum() - 1.0) > 1e-9:
            raise DomainError(f"{name} is not a probability row")
    return z_norm(p - q, pm).value


# ---------------------------------------------------------------------------
# operator norm of a stochastic tangent direction
# ---------------------------------------------------------------------------

class StarNorm(NamedTuple):
    """Norm of a tangent direction ``T'`` with ``T' @ 1 = 0``:
    the operator norm on zero-charge measures plus the worst zero-charge
    image of a probability."""

    z_operator: float
    simplex_image: float

    @property
    def value(self) -> float:
        return self.z_operator + self.simplex_image


def star_norm(tp, pm: ProductMetric, *, tangent_tol: float = 1e-10) -> StarNorm:
    """Both parts of the tangent norm, as exact finite maxima.

    The image part maximizes the zero-charge norm of ``delta_x T'`` over
    configurations (vertices of the probability simplex); the operator part
    maximizes ``|g T'|`` over polar generators (extreme points of the
    zero-charge unit ball).  Both maxima of a convex function over a
    polytope are attained at listed extreme points, so the results are
    exact up to LP accuracy.
    """
    tp = np.asarray(tp, dtype=float)
    n = pm.n_configs
    if tp.shape != (n, n):
        raise DomainError(f"operator shape {tp.shape} vs {n} configurations")
    defect = np.abs(tp.sum(axis=1)).max()
    if defect > tangent_tol:
        raise DomainError(f"T' @ 1 = 0 violated by {defect:.3e}")

    prog = _PrimalProgram(pm)
    simplex_image = max(prog.value(tp[i, :]) for i in range(n))
    z_operator = max(prog.value(g @ tp) for g in polar_generators(pm))
    return StarNorm(z_operator, simplex_image)


# ---------------------------------------------------------------------------
# dependency matrix and stationary sensitivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependencyReport:
    """Worst-case local-update sensitivities and the ergodicity certificate."""

    gamma: np.ndarray
    linf_norm: float
    geometrically_ergodic: bool


def dependency_matrix(model) -> DependencyReport:
    """Exact dependency matrix of a model by enumeration.

    ``gamma[s, t]`` is the largest total-variation distance between the
    update rows at site ``s`` for two configurations differing only at
    site ``t``.  An l-infinity norm below 1 certifies geometric ergodicity.
    """
    rule = _LocalRule(model.graph, model.alpha, model.beta_override)
    rows = rule.rows(model.epsilon)
    ns = model.n_sites
    gamma = np.zeros((ns, ns))
    idx = np.arange(rows.shape[0])
    for t in range(ns):
        # moving site t on by one state (mod 3) meets every unordered pair
        # of configurations differing only there
        x = rule.digits[:, t]
        other = rows[idx + ((x + 1) % 3 - x) * rule.strides[t]]
        gamma[:, t] = 0.5 * np.abs(rows - other).sum(axis=2).max(axis=0)
    linf = float(np.abs(gamma).sum(axis=1).max())
    return DependencyReport(gamma, linf, linf < 1.0)


def stationary_sensitivity(t, tp, *, tols: Tolerances = DEFAULT_TOLS,
                           gap_tol: float = 1e-8) -> np.ndarray:
    """Derivative of the stationary probability under a change ``T'``.

    Solves ``p' (I - T) = p T'`` on the space of zero-charge measures,
    which is invertible exactly when the second-largest eigenvalue modulus
    stays below 1.  The zero-charge basis is the set of differences of
    consecutive configuration indicators.
    """
    t = np.asarray(t, dtype=float)
    tp = np.asarray(tp, dtype=float)
    n = t.shape[0]
    if t.shape != (n, n) or tp.shape != (n, n):
        raise DomainError("operator shapes inconsistent")

    lam, vecs = np.linalg.eig(t.T)
    near_one = np.abs(lam - 1.0) < tols.cluster
    if near_one.sum() != 1:
        raise DomainError(
            f"eigenvalue 1 has multiplicity {int(near_one.sum())}; "
            "stationary sensitivity needs a simple stationary eigenvalue")
    others = np.abs(lam[~near_one])
    if others.size and others.max() >= 1.0 - gap_tol:
        bad = lam[~near_one][int(np.argmax(others))]
        raise DomainError(
            f"operator is not geometrically ergodic: eigenvalue {bad:.12g} "
            f"has modulus {abs(bad):.12g}")

    p = vecs[:, near_one][:, 0]
    if np.abs(p.imag).max() > 1e-10:
        raise NumericalError("stationary vector has large imaginary part")
    p = p.real
    p = p / p.sum()

    # zero-charge basis: rows delta_{i+1} - delta_i
    basis = np.zeros((n - 1, n))
    for i in range(n - 1):
        basis[i, i] = -1.0
        basis[i, i + 1] = 1.0

    shrink = basis @ (np.eye(n) - t)              # rows stay zero-charge
    m_t, res, *_ = np.linalg.lstsq(basis.T, shrink.T, rcond=None)
    rhs = p @ tp
    c0, *_ = np.linalg.lstsq(basis.T, rhs, rcond=None)
    c = np.linalg.solve(m_t, c0)
    return c @ basis
