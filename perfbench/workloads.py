"""Workload definitions: op kinds, seeded config generation and oracles.

An op is one ``stochpert.cli.main([...])`` call on a generated JSON config.
An op kind fixes the command, its options and the model size; the seed
varies only the parameters (graph edges, alpha, epsilon, beta_override and
measure values).  Each kind draws a pool of configs in Latin-hypercube
blocks, and a run takes them in order, so the configs one run reaches
cover the parameter ranges evenly however far into the pool it gets.  The
run-to-run spread of a median then comes from timing noise, not from a
lucky draw of cheap or expensive parameters.

Every kind has an oracle that checks the report by a route independent of
the code path the op exercised.  Oracles run outside the timed interval.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stochpert import dobrushin, model, projection
from stochpert.numerics import Disk

#: configs drawn per op kind; more than a run reaches at the seed commit,
#: so most ops of a run see a config of their own
POOL_SIZE = 128
#: each run of ``BLOCK`` consecutive configs of a pool is a Latin hypercube
BLOCK = 4

EPS_RANGE = (0.03, 0.12)
ALPHA_RANGE = (0.05, 0.4)
MODEL_KEYS = ("graph", "alpha", "epsilon", "beta_override")


@dataclass(frozen=True)
class OpKind:
    """One command at one size.

    ``make(rng, u)`` builds a config from a row ``u`` of stratified
    uniforms in [0, 1); ``check(cfg, report)`` returns ``None`` when the
    report passes the oracle and a failure message otherwise.
    """

    name: str
    argv: tuple[str, ...]
    make: Callable[[np.random.Generator, np.ndarray], dict]
    check: Callable[[dict, dict], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[OpKind, ...]      # op order of one loop cycle

    @property
    def kinds(self) -> tuple[OpKind, ...]:
        return tuple(dict((k.name, k) for k in self.cycle).values())


def latin_hypercube(rng: np.random.Generator, k: int, dims: int) -> np.ndarray:
    """``k`` points in [0, 1)^dims with one point per stratum on each axis."""
    return np.stack([(rng.permutation(k) + rng.random(k)) / k
                     for _ in range(dims)], axis=1)


def make_pools(workload: Workload, seed: int) -> dict[str, list[dict]]:
    """``POOL_SIZE`` configs per op kind, a pure function of the seed."""
    pools = {}
    for index, kind in enumerate(workload.kinds):
        rng = np.random.default_rng([seed, index])
        u = np.concatenate([latin_hypercube(rng, BLOCK, 4)
                            for _ in range(POOL_SIZE // BLOCK)])
        pools[kind.name] = [kind.make(rng, row) for row in u]
    return pools


# ---------------------------------------------------------------------------
# config generation
# ---------------------------------------------------------------------------

def _lerp(lo_hi: tuple[float, float], u: float) -> float:
    return float(lo_hi[0] + (lo_hi[1] - lo_hi[0]) * u)


def _random_graph(rng: np.random.Generator, n: int) -> list[list[int]]:
    """Random spanning tree plus each remaining pair with probability 1/4."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for pair in itertools.combinations(range(n), 2):
        if pair not in edges and rng.random() < 0.25:
            edges.add(pair)
    return [list(e) for e in sorted(edges)]


def _beta(u: float, rng: np.random.Generator) -> dict:
    """Unequal fixed rates, so the reduction is not symmetric under +/-."""
    hi = 1.25 + 0.75 * u
    plus, minus = (hi, 1.0) if rng.random() < 0.5 else (1.0, hi)
    return {"plus": plus, "minus": minus}


def pca_config(n: int, *, beta: float = 0.0):
    """Config maker for an ``n``-site model on a random graph; a share
    ``beta`` of the pool (exact, by stratification) gets fixed rates."""
    def make(rng, u):
        return {
            "graph": {"nodes": n, "edges": _random_graph(rng, n)},
            "alpha": _lerp(ALPHA_RANGE, u[1]),
            "epsilon": _lerp(EPS_RANGE, u[0]),
            "beta_override": _beta(u[2], rng) if u[3] < beta else None,
        }
    return make


def measure_config(n: int, *, point_masses: bool):
    """Model config plus a ``measure``: a zero-charge vector of values or a
    pair of distinct configurations."""
    base = pca_config(n)

    def make(rng, u):
        cfg = base(rng, u)
        if point_masses:
            x = [int(v) for v in rng.integers(0, 3, n)]
            y = list(x)
            site = int(rng.integers(0, n))
            y[site] = (x[site] + 1 + int(rng.integers(0, 2))) % 3
            for s in range(n):
                if s != site and rng.random() < 0.5:
                    y[s] = int(rng.integers(0, 3))
            cfg["measure"] = {"point_masses": [x, y]}
        else:
            mu = rng.normal(size=3 ** n)
            mu[-1] = -mu[:-1].sum()
            cfg["measure"] = {"values": mu.tolist()}
        return cfg
    return make


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _model(cfg: dict) -> model.PcaModel:
    return model.model_from_json({k: cfg[k] for k in MODEL_KEYS if k in cfg})


def _eigs(values: list[dict]) -> np.ndarray:
    return np.array([complex(v["re"], v["im"]) for v in values])


def _slow_split(cfg: dict) -> tuple[np.ndarray, float]:
    """Slow spectrum of dense T(eps) and a radius about 1 that separates it.

    The slow eigenvalues are the 2^N nearest to 1 (they start at 1 for
    eps = 0, the rest at 0).  For N <= 2 these are exactly the ones inside
    ``Disk(1, 0.5)``; at larger N the slowest modes can leave that disk.
    """
    mdl = _model(cfg)
    eigs = np.linalg.eigvals(mdl.operator(mdl.epsilon))
    order = np.argsort(np.abs(eigs - 1.0))
    dist = np.abs(eigs[order] - 1.0)
    k = 2 ** mdl.n_sites
    return eigs[order[:k]], 0.5 * (dist[k - 1] + dist[k])


def _match_error(found: np.ndarray, expected: np.ndarray) -> float:
    """Largest distance of the best one-to-one matching of two spectra."""
    from scipy.optimize import linear_sum_assignment
    if found.size != expected.size:
        return np.inf
    dist = np.abs(found[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max())


def _reduced_check(cfg: dict, report: dict, bound: float) -> str | None:
    res = report["result"]
    m = np.array(res["matrix"])
    defect = float(np.abs(m.sum(axis=1) - 1.0).max())
    if defect > 1e-8 or res["row_sum_defect"] > 1e-8:
        return f"row-sum defect {defect:.3e}"
    err = _match_error(np.linalg.eigvals(m), _slow_split(cfg)[0])
    if not err <= bound:
        return f"reduced eigenvalues off the slow spectrum by {err:.3e} " \
               f"(bound {bound:.3e})"
    return None


def check_exact(cfg, report):
    """The exact transported reduction is a similarity transform of the slow
    block, so its eigenvalues are the slow eigenvalues of dense T(eps)."""
    return _reduced_check(cfg, report, 1e-8)


def cubic_bound(cfg: dict) -> float:
    """``N (eps beta_max)^3``: one cubic remainder per site at the largest
    local jump probability.  Seed-commit errors stay below a fifth of it."""
    mdl = _model(cfg)
    if mdl.beta_override is None:
        beta_max = 1.0 + mdl.alpha * mdl.graph.max_degree
    else:
        beta_max = max(mdl.beta_override)
    return mdl.n_sites * (mdl.epsilon * beta_max) ** 3


def check_order2(cfg, report):
    return _reduced_check(cfg, report, cubic_bound(cfg))


def check_continue(cfg, report):
    """Acceptance criterion 5: within 1e-7 (Frobenius) of the projection
    computed directly from the slow spectrum of T(eps)."""
    mdl = _model(cfg)
    radius = _slow_split(cfg)[1]
    exact = projection.spectral_projection(mdl.operator(mdl.epsilon),
                                           Disk(1.0, radius))
    got = np.array(report["result"]["projection"])
    gap = float(np.linalg.norm(got - exact.matrix, "fro"))
    return None if gap <= 1e-7 else f"continued projection off by {gap:.3e}"


def check_spectrum(cfg, report):
    """Trace identities for T and T^2, the stochastic bound |lambda| <= 1
    and the eigenvalue 1."""
    mdl = _model(cfg)
    res = report["result"]
    eigs = _eigs(res["eigenvalues"])
    n = mdl.n_configs
    if eigs.size != n or sum(c["count"] for c in res["clusters"]) != n:
        return f"{eigs.size} eigenvalues for {n} configurations"
    t = mdl.operator(mdl.epsilon)
    for power, trace in ((1, np.trace(t)), (2, np.trace(t @ t))):
        total = (eigs ** power).sum()
        if abs(total - trace) > 1e-9 * n:
            return f"sum of eigenvalues^{power} {total:.12g} vs trace " \
                   f"{trace:.12g}"
    if np.abs(eigs).max() > 1.0 + 1e-9:
        return "eigenvalue outside the unit disk"
    if np.abs(eigs - 1.0).min() > 1e-9:
        return "no eigenvalue 1"
    return None


def check_ergodicity(cfg, report):
    mdl = _model(cfg)
    res = report["result"]
    bound = 1.0 - (1.0 - mdl.graph.max_degree * mdl.alpha) * mdl.epsilon
    if abs(res["closed_form_bound"] - bound) > 1e-12:
        return f"closed-form bound {res['closed_form_bound']!r} vs {bound!r}"
    if res["linf_norm"] > bound + 1e-12:
        return f"linf norm {res['linf_norm']!r} above the bound {bound!r}"
    return None


def _dual_norm(mu: np.ndarray, gens: np.ndarray) -> float:
    """Zero-charge norm as the cheapest conic combination of polar
    generators, solved by HiGHS rather than the package's simplex."""
    from scipy.optimize import linprog
    res = linprog(np.ones(gens.shape[0]), A_eq=gens.T, b_eq=mu,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise ArithmeticError(f"HiGHS dual LP ended: {res.message}")
    return float(res.fun)


def _close(a: float, b: float, tol: float = 1e-7) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_tangent(cfg, report):
    """Recheck every row of the simplex part with the dual LP."""
    mdl = _model(cfg)
    res = report["result"]
    tp = mdl.family().derivative(mdl.epsilon)
    gens = dobrushin.polar_generators(
        dobrushin.ProductMetric.discrete(mdl.product_metric_sizes()))
    simplex = max(_dual_norm(row, gens) for row in tp)
    if not _close(res["simplex_image_norm"], simplex):
        return (f"simplex part {res['simplex_image_norm']!r}, dual LP gives "
                f"{simplex!r}")
    total = res["z_operator_norm"] + res["simplex_image_norm"]
    if not _close(res["tangent_norm"], total, 1e-12):
        return "tangent norm is not the sum of its parts"
    return None


def check_values(cfg, report):
    res = report["result"]
    mdl = _model(cfg)
    gens = dobrushin.polar_generators(
        dobrushin.ProductMetric.discrete(mdl.product_metric_sizes()))
    dual = _dual_norm(np.array(cfg["measure"]["values"]), gens)
    if not (_close(res["z_norm_primal"], res["z_norm_dual"])
            and _close(res["z_norm_primal"], dual)):
        return (f"primal {res['z_norm_primal']!r}, dual "
                f"{res['z_norm_dual']!r}, HiGHS dual {dual!r}")
    return None


def check_point_masses(cfg, report):
    """Distinct point masses are at distance exactly 1."""
    res = report["result"]
    if not (_close(res["z_norm_primal"], 1.0)
            and _close(res["z_norm_dual"], 1.0)):
        return (f"point-mass distance {res['z_norm_primal']!r} / "
                f"{res['z_norm_dual']!r}, expected 1")
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# 16 gauge steps, not the CLI default of 64: the same corrector, Sylvester
# and transport calls, a quarter as many per op, so a run completes enough
# ops for its tail order statistic to fall inside one op kind's range
_EXACT = ("effective", "--order", "exact", "--steps", "16")
_ORDER2 = ("effective", "--order", "2")

# a single site without fixed rates is +/- symmetric and its corrector
# converges at once; fixed unequal rates give it real Newton work
EXACT_N1 = OpKind("exact_n1", _EXACT, pca_config(1, beta=1.0), check_exact)
EXACT_N2 = OpKind("exact_n2", _EXACT, pca_config(2, beta=0.5), check_exact)

CONTINUE_N3 = OpKind("continue_n3", ("continue", "--steps", "4"),
                     pca_config(3), check_continue)
ORDER2_N3 = OpKind("order2_n3", _ORDER2, pca_config(3), check_order2)
ORDER2_N4 = OpKind("order2_n4", _ORDER2, pca_config(4), check_order2)
SPECTRUM_N6 = OpKind("spectrum_n6", ("spectrum",), pca_config(6),
                     check_spectrum)
ERGODICITY_N6 = OpKind("ergodicity_n6", ("ergodicity",), pca_config(6),
                       check_ergodicity)

TANGENT_N1 = OpKind("tangent_n1", ("dobrushin",), pca_config(1),
                    check_tangent)
TANGENT_N2 = OpKind("tangent_n2", ("dobrushin",), pca_config(2),
                    check_tangent)
VALUES_N1 = OpKind("znorm_n1", ("dobrushin",),
                   measure_config(1, point_masses=False), check_values)
VALUES_N2 = OpKind("znorm_n2", ("dobrushin",),
                   measure_config(2, point_masses=False), check_values)
MASSES_N1 = OpKind("distance_n1", ("dobrushin",),
                   measure_config(1, point_masses=True), check_point_masses)
MASSES_N2 = OpKind("distance_n2", ("dobrushin",),
                   measure_config(2, point_masses=True), check_point_masses)

WORKLOADS = {w.name: w for w in (
    # the model/projection/sylvester/perturb hot path at small sizes, where
    # per-call overhead rather than flops sets the cost; no LP work.  Two
    # thirds of the ops are N = 1, so the median is an N = 1 op; a run
    # starts 20-30 N = 2 ops, so the tail is an N = 2 op
    Workload("gauge_exact", (EXACT_N2, EXACT_N1, EXACT_N1)),
    # few calls on large matrices: the flop-bound side of the same layers.
    # Two order2_n4 ops per cycle put more than ten of them in a run, so
    # the tail falls inside their cost range; two ergodicity ops keep the
    # median inside the continue/ergodicity range
    Workload("large_n", (CONTINUE_N3, ORDER2_N3, ORDER2_N4, SPECTRUM_N6,
                         ERGODICITY_N6, ORDER2_N4, ERGODICITY_N6)),
    # the simplex LP solver and polar-generator enumeration only.  Half the
    # ops are the N = 2 light kinds, so the median falls inside their cost
    # range rather than between the N = 1 and N = 2 light ops
    Workload("norm_lp", (TANGENT_N2, TANGENT_N1, VALUES_N1, VALUES_N2,
                         MASSES_N1, MASSES_N2, VALUES_N2, MASSES_N2)),
)}
