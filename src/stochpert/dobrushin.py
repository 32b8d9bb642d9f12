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
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError
from .model import _LocalRule
from .numerics import (DEFAULT_TOLS, LinearProgram, Tolerances, lp_solve,
                       lp_solve_many)

__all__ = [
    "ProductMetric",
    "site_lipschitz",
    "f_seminorm",
    "ZNorm",
    "z_norm",
    "dobrushin_distance",
    "StarNorm",
    "star_norm",
    "check_star_norm_size",
    "polar_generators",
    "generator_count",
    "DependencyReport",
    "dependency_matrix",
    "stationary_sensitivity",
]

#: refuse to enumerate polar generators beyond this count
GENERATOR_CAP = 1_000_000

#: refuse a tangent norm needing more primal LPs than this, one per
#: configuration plus one per +/- pair of polar generators.  The tangent
#: norm runs up to two 3-state sites: 189 LPs, 0.1-0.15 s on one core.
#: Three sites would need 83,214 LPs of about 11 ms each (15 min)
_STAR_NORM_LP_CAP = 1_000


@dataclass(frozen=True)
class ProductMetric:
    """Per-site finite metric spaces; the default is the discrete metric.

    A distance matrix need only be symmetric to ``np.allclose``; it is
    stored as the mean of it and its transpose, which is exactly symmetric
    (and bit-for-bit the same matrix when it already was).  The +/-
    pairing of polar generators relies on that symmetry."""

    sizes: tuple[int, ...]
    metrics: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.sizes) != len(self.metrics):
            raise DomainError("one distance matrix required per site")
        stored = []
        for s, (k, d) in enumerate(zip(self.sizes, self.metrics)):
            d = np.asarray(d, dtype=float)
            if d.shape != (k, k):
                raise DomainError(f"site {s}: distance matrix shape {d.shape}")
            if np.abs(np.diag(d)).max() > 0 or not np.allclose(d, d.T):
                raise DomainError(f"site {s}: distances must be symmetric "
                                  "with zero diagonal")
            d = (d + d.T) / 2
            stored.append(d)
            off = np.where(np.eye(k, dtype=bool), np.inf, d)
            if off.min() <= 0:
                raise DomainError(f"site {s}: off-diagonal distances must be "
                                  "positive")
            for a in range(k):      # d[a, c] + d[c, b] over c, per a
                if np.any(d[a] > (d[a, :, None] + d).min(axis=0) + 1e-12):
                    raise DomainError(f"site {s}: triangle inequality violated")
        object.__setattr__(self, "metrics", tuple(stored))

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


def _site_pairs(pm: ProductMetric, s: int):
    """Index arrays ``i``, ``j`` and site distances ``d`` of every ordered
    configuration pair differing only at site ``s``: ``i`` in ``configs()``
    order (last site fastest), the other state ascending.  ``j > i`` exactly
    when the other state is the larger one."""
    sizes = pm.sizes
    # configuration indices (site 0 fastest) and site-s states, both listed
    # in configs() order
    idx = np.arange(pm.n_configs).reshape(sizes, order="F").ravel()[:, None]
    own = np.indices(sizes)[s].ravel()[:, None]
    alt = np.arange(sizes[s])
    other = alt != own
    i = np.broadcast_to(idx, other.shape)[other]
    j = (idx + (alt - own) * int(np.prod(sizes[:s])))[other]
    d = np.asarray(pm.metrics[s], dtype=float)[own, alt][other]
    return i, j, d


def site_lipschitz(f, s: int, pm: ProductMetric) -> float:
    """Largest slope of ``f`` over configuration pairs differing only at
    site ``s`` (exact maximum by enumeration)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (pm.n_configs,):
        raise DomainError(f"function length {f.shape} vs {pm.n_configs} "
                          "configurations")
    i, j, d = _site_pairs(pm, s)
    return float(np.max((f[i] - f[j]) / d, initial=0.0))


def f_seminorm(f, pm: ProductMetric) -> float:
    """Summed site-Lipschitz constants (zero exactly on constants)."""
    return sum(site_lipschitz(f, s, pm) for s in range(pm.n_sites))


# ---------------------------------------------------------------------------
# polar generators of the zero-charge unit ball
# ---------------------------------------------------------------------------

def _site_dipoles(pm: ProductMetric, s: int) -> np.ndarray:
    """All ordered single-site dipoles ``(delta_a - delta_b)/d_s(a_s, b_s)``
    for configuration pairs differing only at site ``s``."""
    i, j, d = _site_pairs(pm, s)
    out = np.zeros((i.size, pm.n_configs))
    rows = np.arange(i.size)
    out[rows, i] = 1.0 / d
    out[rows, j] = -1.0 / d
    return out


def generator_count(pm: ProductMetric) -> int:
    """Number of polar generators: one dipole (or none) per site, not all
    absent."""
    return _generator_count(pm.sizes)


def _generator_count(sizes) -> int:
    n = math.prod(sizes)
    return math.prod(1 + n * (k - 1) for k in sizes) - 1


def _star_norm_lps(sizes) -> int:
    """Primal LPs of a tangent norm: one per configuration and one per +/-
    pair of polar generators."""
    return math.prod(sizes) + _generator_count(sizes) // 2


def _refuse_above(norm: str, need, sizes, cap: int, what: str) -> None:
    """Raise :class:`DomainError` in user terms when ``need(sizes)``
    exceeds ``cap``: how many sites of the largest state count ``norm``
    runs on, and what this product space would need."""
    count = need(sizes)
    if count > cap:
        k = max(sizes)
        fit = max((m for m in range(1, len(sizes)) if need((k,) * m) <= cap),
                  default=0)
        raise DomainError(
            f"{norm} runs on at most {fit} sites of {k} states; this product "
            f"space needs {count} {what}, above the limit of {cap}")


def check_star_norm_size(sizes) -> None:
    """Refuse a tangent norm (:func:`star_norm`) on per-site state counts
    ``sizes`` that would need more than :data:`_STAR_NORM_LP_CAP` primal
    LPs, before any operator or LP is built."""
    _refuse_above("the tangent norm", _star_norm_lps, sizes,
                  _STAR_NORM_LP_CAP, "linear programs")


def _one_per_sign(gens: np.ndarray) -> np.ndarray:
    """One generator of each pair ``g, -g``: the one whose first nonzero
    entry is positive.  Negating every dipole of a generator negates its
    row exactly (the site metrics are stored exactly symmetric), so this
    keeps exactly half of :func:`polar_generators`."""
    first = gens[np.arange(len(gens)), (gens != 0).argmax(axis=1)]
    return gens[first > 0]


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
    n = pm.n_configs
    per_site = [_site_dipoles(pm, s) for s in range(pm.n_sites)]
    gens = np.empty((count, n))
    row = 0
    for mask in range(1, 2 ** pm.n_sites):
        chosen = [per_site[s] for s in range(pm.n_sites) if mask >> s & 1]
        # every combination, the first chosen site slowest (the order of
        # itertools.product), its dipoles summed left to right
        acc = chosen[0]
        for block in chosen[1:]:
            acc = (acc[:, None] + block).reshape(-1, n)
        gens[row:row + len(acc)] = acc
        row += len(acc)
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
        # per site and unordered pair, f_p - f_q <= d * budget_s for
        # (p, q) = (i, j) then (j, i); then the total budget <= 1 and the
        # gauge f[0] = 0 that pins the constant
        blocks = []
        for s in range(ns):
            i, j, d = _site_pairs(pm, s)
            up = j > i
            p = np.stack([i[up], j[up]], axis=1).ravel()
            q = np.stack([j[up], i[up]], axis=1).ravel()
            block = np.zeros((p.size, n + ns))
            block[np.arange(p.size), p] = 1.0
            block[np.arange(p.size), q] = -1.0
            block[:, n + s] = -np.repeat(d[up], 2)
            blocks.append(block)
        self._lhs = np.vstack(blocks + [np.r_[np.zeros(n), np.ones(ns)],
                                        np.eye(1, n + ns)[0]])
        m = self._lhs.shape[0]
        self._rhs = np.zeros(m)
        self._rhs[-2] = 1.0
        self._senses = ["<="] * (m - 1) + ["="]
        self._bounds = [(None, None)] * n + [(0.0, None)] * ns

    def _program(self, objective: np.ndarray) -> LinearProgram:
        return LinearProgram(objective, self._lhs, self._senses, self._rhs,
                             self._bounds, maximize=True)

    def value(self, mu: np.ndarray) -> float:
        obj = np.concatenate([mu, np.zeros(self.pm.n_sites)])
        res = lp_solve(self._program(obj))
        if not res.optimal:
            raise NumericalError(f"primal norm LP ended {res.status}")
        return res.value

    def maximum(self, rows: np.ndarray) -> float:
        """Largest norm over the measures ``rows``: one LP skeleton, one
        warm-started phase 2 per row (:func:`lp_solve_many`)."""
        objs = np.hstack([rows, np.zeros((len(rows), self.pm.n_sites))])
        results = lp_solve_many(self._program(objs[0]), objs)
        for res in results:
            if not res.optimal:
                raise NumericalError(f"primal norm LP ended {res.status}")
        return max(res.value for res in results)


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
    :class:`NumericalError`.  A product space with more than
    :data:`GENERATOR_CAP` polar generators (more than three 3-state
    sites) is refused with :class:`DomainError` before either LP.
    """
    mu = _check_zero_charge(mu)
    if mu.shape != (pm.n_configs,):
        raise DomainError("measure length does not match the product space")
    _refuse_above("the zero-charge norm", _generator_count, pm.sizes,
                  GENERATOR_CAP, "polar generators")
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
    exact up to LP accuracy.  The norm is even and ``-g`` is a generator
    whenever ``g`` is, so one generator of each pair is enough.  That is
    one primal LP per configuration and per generator pair, all on one
    constraint skeleton (:meth:`_PrimalProgram.maximum`): 189 for two
    3-state sites.  Beyond two 3-state sites (more than
    :data:`_STAR_NORM_LP_CAP` LPs, :func:`check_star_norm_size`)
    :class:`DomainError` is raised before the first.
    """
    tp = np.asarray(tp, dtype=float)
    n = pm.n_configs
    if tp.shape != (n, n):
        raise DomainError(f"operator shape {tp.shape} vs {n} configurations")
    defect = np.abs(tp.sum(axis=1)).max()
    if defect > tangent_tol:
        raise DomainError(f"T' @ 1 = 0 violated by {defect:.3e}")

    check_star_norm_size(pm.sizes)
    prog = _PrimalProgram(pm)
    simplex_image = prog.maximum(tp)
    z_operator = prog.maximum(_one_per_sign(polar_generators(pm)) @ tp)
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
    basis = np.eye(n - 1, n, 1) - np.eye(n - 1, n)

    shrink = basis @ (np.eye(n) - t)              # rows stay zero-charge
    m_t, res, *_ = np.linalg.lstsq(basis.T, shrink.T, rcond=None)
    rhs = p @ tp
    c0, *_ = np.linalg.lstsq(basis.T, rhs, rcond=None)
    c = np.linalg.solve(m_t, c0)
    return c @ basis
