"""Probabilistic cellular automata on finite graphs.

A model is a finite undirected site graph together with a 3-state local
update rule (states ``+, 0, -`` encoded ``0, 1, 2``).  All sites update
synchronously and independently given the current configuration, so the
global transition operator over the ``3^N`` configurations factorizes row
by row into per-site probability rows.

Configuration indexing is mixed-radix little-endian: site 0 varies fastest,
``index = sum_s x_s * 3**s``.  Every local row is affine in eps; the rule
is tabulated once over all configurations as a constant part plus an
eps-slope, and operators and their derivatives are built from that table.
Matrices built here are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "PLUS", "ZERO", "MINUS",
    "SiteGraph",
    "three_state_row",
    "PcaModel",
    "PerturbationFamily",
    "assemble_operator",
    "family_at_zero",
    "config_index", "index_config", "all_configs",
    "delta_measure", "apply_measure", "apply_function",
    "validate_stochastic",
    "model_from_json",
]

PLUS, ZERO, MINUS = 0, 1, 2

#: hard size cap: 3**8 = 6561 configurations
MAX_SITES = 8


@dataclass(frozen=True)
class SiteGraph:
    """Finite undirected graph: ``n_sites`` nodes and an edge list."""

    n_sites: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_sites < 1:
            raise DomainError("graph needs at least one node")
        seen = set()
        for (u, v) in self.edges:
            if u == v:
                raise DomainError(f"self-loop at node {u}")
            if not (0 <= u < self.n_sites and 0 <= v < self.n_sites):
                raise DomainError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DomainError(f"duplicate edge ({u},{v})")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @staticmethod
    def path(n: int) -> "SiteGraph":
        return SiteGraph(n, tuple((i, i + 1) for i in range(n - 1)))

    def neighbors(self, s: int) -> tuple[int, ...]:
        out = [v for (u, v) in self.edges if u == s]
        out += [u for (u, v) in self.edges if v == s]
        return tuple(sorted(out))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(self.neighbors(s)) for s in range(self.n_sites))

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.n_sites else 0


def three_state_row(own: int, n_plus: int, n_minus: int, alpha: float,
                    eps: float, beta_override: tuple[float, float] | None = None,
                    ) -> np.ndarray:
    """One row of the local update kernel in basis ``(+, 0, -)``.

    The ``+`` state decays to ``0`` with probability ``beta_minus * eps``
    and the ``-`` state with ``beta_plus * eps``, where by default
    ``beta_minus = 1 + alpha * n_minus`` and ``beta_plus = 1 + alpha * n_plus``
    are driven by the neighbour counts.  The ``0`` state resolves to ``+``
    or ``-`` with probability one half each.  ``beta_override`` replaces the
    count-driven rates by fixed constants ``(beta_plus, beta_minus)``.
    """
    if own not in (PLUS, ZERO, MINUS):
        raise DomainError(f"unknown local state {own}")
    if n_plus < 0 or n_minus < 0:
        raise DomainError("neighbour counts must be nonnegative")
    base, slope, rate = _local_rule(np.array(own, dtype=int), n_plus, n_minus,
                                    alpha, beta_override)
    _check_eps(eps, rate)
    return base + slope * eps


#: the row of a site in state ``own`` is ``_BASE[own] + eps * rate *
#: _DIRECTION[own]``, with rate ``beta_minus`` for ``+`` and ``beta_plus``
#: for ``-``; the ``0`` row does not depend on eps
_BASE = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
_DIRECTION = np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]])


def _local_rule(own, n_plus, n_minus, alpha, beta_override):
    """Constant part and eps-slope of the local rows, elementwise.

    ``own``, ``n_plus`` and ``n_minus`` are arrays of one shape ``S`` (or
    broadcast to it).  Returns ``base`` and ``slope`` of shape ``S + (3,)``
    and the larger of the two rates per entry, which bounds eps.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if beta_override is None:
        beta_plus = 1.0 + alpha * np.asarray(n_plus)
        beta_minus = 1.0 + alpha * np.asarray(n_minus)
    else:
        beta_plus = np.full(own.shape, beta_override[0], dtype=float)
        beta_minus = np.full(own.shape, beta_override[1], dtype=float)
    rate = np.where(own == PLUS, beta_minus,
                    np.where(own == MINUS, beta_plus, 0.0))
    slope = rate[..., None] * _DIRECTION[own]
    return _BASE[own], slope, np.maximum(beta_plus, beta_minus)


def _check_eps(eps: float, rate) -> None:
    """Require ``0 <= eps * r <= 1`` for every rate ``r``."""
    lo, hi = np.min(rate), np.max(rate)
    if eps < 0 or not (0.0 <= eps * lo and eps * hi <= 1.0):
        raise DomainError(
            f"epsilon={eps} outside [0, {1.0 / hi:g}] for these rates")


# ---------------------------------------------------------------------------
# configuration indexing (site 0 fastest)
# ---------------------------------------------------------------------------

def config_index(cfg) -> int:
    idx = 0
    for s, x in enumerate(cfg):
        idx += int(x) * 3 ** s
    return idx


def index_config(idx: int, n_sites: int) -> tuple[int, ...]:
    out = []
    for _ in range(n_sites):
        out.append(idx % 3)
        idx //= 3
    return tuple(out)


def all_configs(n_sites: int) -> Iterator[tuple[int, ...]]:
    """Configurations in index order (site 0 fastest)."""
    for idx in range(3 ** n_sites):
        yield index_config(idx, n_sites)


# ---------------------------------------------------------------------------
# the local rule over all configurations
# ---------------------------------------------------------------------------

class _LocalRule:
    """The local rule tabulated over all ``3^N`` configurations.

    ``digits[idx]`` is configuration ``idx``; ``base[idx, s] + eps *
    slope[idx, s]`` is the update row of site ``s`` given it, with neighbour
    counts read through the adjacency matrix.  Every row is affine in eps,
    so the derivative of a row is its slope.
    """

    def __init__(self, graph: SiteGraph, alpha: float, beta_override=None):
        if graph.n_sites > MAX_SITES:
            raise DomainError(f"site count exceeds cap {MAX_SITES}")
        n_sites = graph.n_sites
        adjacency = np.zeros((n_sites, n_sites), dtype=int)
        for (u, v) in graph.edges:
            adjacency[u, v] = adjacency[v, u] = 1
        self.strides = 3 ** np.arange(n_sites)
        self.digits = np.arange(3 ** n_sites)[:, None] // self.strides % 3
        self.base, self.slope, self.rate = _local_rule(
            self.digits, (self.digits == PLUS) @ adjacency,
            (self.digits == MINUS) @ adjacency, alpha, beta_override)

    def rows(self, eps: float) -> np.ndarray:
        """All local rows at ``eps``, shape ``3^N x N x 3``."""
        _check_eps(eps, self.rate)
        return self.base + self.slope * eps

    def operator(self, eps: float) -> np.ndarray:
        rows = self.rows(eps)
        return _tensor(rows, np.empty((rows.shape[0],) * 2))

    def derivative(self, eps: float) -> np.ndarray:
        """Product rule over sites: one site's row replaced by its slope."""
        rows = self.rows(eps)
        out = np.zeros((rows.shape[0],) * 2)
        term = np.empty_like(out)
        for s in range(rows.shape[1]):
            parts = rows.copy()
            parts[:, s] = self.slope[:, s]
            out += _tensor(parts, term)
        return out


def _tensor(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise tensor product of the per-site rows, site 0 fastest.

    Multiplies from the highest site down, one batched outer product per
    site, as ``np.kron(np.kron(r[N-1], r[N-2]), ...)`` would; the last
    product is written into ``out``.
    """
    n_rows, n_sites, _ = rows.shape
    acc = np.ones((n_rows, 1))
    for s in range(n_sites - 1, -1, -1):
        dest = out.reshape(n_rows, -1, 3) if s == 0 else None
        acc = np.multiply(acc[:, :, None], rows[:, s, None, :],
                          out=dest).reshape(n_rows, -1)
    return out


# ---------------------------------------------------------------------------
# model and global operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaModel:
    """Immutable model: graph plus local-rule parameters."""

    graph: SiteGraph
    alpha: float
    epsilon: float
    beta_override: tuple[float, float] | None = None

    def __post_init__(self):
        if self.graph.n_sites > MAX_SITES:
            raise DomainError(
                f"{self.graph.n_sites} sites exceeds the desk-scale cap of "
                f"{MAX_SITES} (3^{self.graph.n_sites} configurations)")
        # the largest rate: a site with all its neighbours in one state
        _check_eps(self.epsilon,
                   _local_rule(np.array(PLUS), self.graph.max_degree, 0,
                               self.alpha, self.beta_override)[2])

    @property
    def n_sites(self) -> int:
        return self.graph.n_sites

    @property
    def n_configs(self) -> int:
        return 3 ** self.graph.n_sites

    @property
    def flip_symmetric(self) -> bool:
        """Whether swapping ``+`` and ``-`` at every site leaves the rule
        unchanged: the rates are count-driven, or the two fixed rates are
        equal.  The swap maps configuration index ``i`` to ``3^N - 1 - i``,
        so every operator of the model is then exactly centrosymmetric,
        ``T[::-1, ::-1] == T`` entry for entry."""
        return (self.beta_override is None
                or self.beta_override[0] == self.beta_override[1])

    def operator(self, eps: float | None = None) -> np.ndarray:
        """Global synchronous transition operator at ``eps``."""
        e = self.epsilon if eps is None else eps
        return assemble_operator(self.graph, self.alpha, e, self.beta_override)

    def family(self) -> "PerturbationFamily":
        """The operator family parameterized by eps, with exact derivatives."""
        return _pca_family(self.graph, self.alpha, self.beta_override)

    def product_metric_sizes(self) -> tuple[int, ...]:
        return (3,) * self.graph.n_sites


def assemble_operator(graph: SiteGraph, alpha: float, eps: float,
                      beta_override=None) -> np.ndarray:
    """Dense ``3^N x 3^N`` row-stochastic operator of the synchronous update.

    ``T[x, y]`` is the product over sites of the local row probabilities,
    with neighbour counts read from the pre-update configuration ``x``.
    """
    return _LocalRule(graph, alpha, beta_override).operator(eps)


@dataclass(frozen=True)
class PerturbationFamily:
    """eps-parameterized operator family with exact derivatives.

    ``at(eps)`` evaluates the operator and ``derivative(eps)`` its first
    eps-derivative.  The cached ``t0``/``t0_prime`` give the operator and
    its derivative at 0.
    Tangent directions satisfy ``T' @ 1 = 0`` (rows of the derivative sum
    to zero) because every member is row-stochastic.
    """

    at: Callable[[float], np.ndarray]
    derivative: Callable[[float], np.ndarray]
    t0: np.ndarray
    t0_prime: np.ndarray


def _pca_family(graph: SiteGraph, alpha: float, beta_override) -> PerturbationFamily:
    rule = _LocalRule(graph, alpha, beta_override)
    return PerturbationFamily(rule.operator, rule.derivative,
                              t0=rule.operator(0.0),
                              t0_prime=rule.derivative(0.0))


def family_at_zero(graph: SiteGraph, alpha: float, beta_override=None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Operator and exact eps-derivative at eps = 0."""
    fam = _pca_family(graph, alpha, beta_override)
    return fam.t0, fam.t0_prime


# ---------------------------------------------------------------------------
# measures and functions over configurations
# ---------------------------------------------------------------------------

def delta_measure(cfg, n_sites: int) -> np.ndarray:
    """Unit point mass at a configuration, as a dense row vector."""
    if len(cfg) != n_sites:
        raise DomainError("configuration length mismatch")
    mu = np.zeros(3 ** n_sites)
    mu[config_index(cfg)] = 1.0
    return mu


def apply_measure(mu, t) -> np.ndarray:
    """Left action ``mu T`` of an operator on a measure (row vector)."""
    mu = np.asarray(mu, dtype=float)
    t = np.asarray(t, dtype=float)
    if mu.shape[0] != t.shape[0]:
        raise DomainError(f"measure length {mu.shape[0]} vs operator {t.shape}")
    return mu @ t


def apply_function(t, f) -> np.ndarray:
    """Right action ``T f`` of an operator on a function (column vector)."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape[0] != t.shape[1]:
        raise DomainError(f"function length {f.shape[0]} vs operator {t.shape}")
    return t @ f


def validate_stochastic(t: np.ndarray, tol: float = 1e-12) -> None:
    """Check row sums equal 1 within ``tol`` and entries are nonnegative."""
    t = np.asarray(t, dtype=float)
    rs = np.abs(t.sum(axis=1) - 1.0).max()
    if rs > tol:
        raise DomainError(f"row sums deviate from 1 by {rs:.3e}")
    if t.min() < -1e-15:
        raise DomainError(f"negative entry {t.min():.3e}")


# ---------------------------------------------------------------------------
# JSON configuration ingestion
# ---------------------------------------------------------------------------

def _expect(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}: missing required field")
    val = doc[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ConfigError(
            f"{path}.{key}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(val).__name__}")
    return val


def model_from_json(doc) -> PcaModel:
    """Build a model from a JSON document (text, path content, or dict).

    Schema::

        {"graph": {"nodes": int, "edges": [[int, int], ...]},
         "alpha": float, "epsilon": float,
         "beta_override": null | {"plus": float, "minus": float}}
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON at line {e.lineno}, column "
                              f"{e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError("$: expected a JSON object")

    graph_doc = _expect(doc, "graph", dict, "$")
    nodes = _expect(graph_doc, "nodes", int, "$.graph")
    raw_edges = _expect(graph_doc, "edges", list, "$.graph")
    edges = []
    for i, e in enumerate(raw_edges):
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           for v in e)):
            raise ConfigError(f"$.graph.edges[{i}]: expected a pair of ints")
        edges.append((e[0], e[1]))
    alpha = _expect(doc, "alpha", float, "$")
    epsilon = _expect(doc, "epsilon", float, "$")
    beta = None
    if doc.get("beta_override") is not None:
        bo = _expect(doc, "beta_override", dict, "$")
        beta = (_expect(bo, "plus", float, "$.beta_override"),
                _expect(bo, "minus", float, "$.beta_override"))
    unknown = set(doc) - {"graph", "alpha", "epsilon", "beta_override"}
    if unknown:
        raise ConfigError(f"$.{sorted(unknown)[0]}: unknown field")
    try:
        graph = SiteGraph(nodes, tuple(edges))
        return PcaModel(graph, alpha, epsilon, beta)
    except DomainError as e:
        raise ConfigError(f"$: {e}") from e
