"""Property tests of the Dobrushin/LP layer: the vectorised constraint and
generator tables against per-configuration references built from
``configs()`` and ``config_index``, the two norm routes against each other
and against the seminorm, the tangent norm against its per-LP loop, and
the simplex against HiGHS."""

import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, event, given, settings, strategies as st

from stochpert.dobrushin import (ProductMetric, _PrimalProgram, _one_per_sign,
                                 f_seminorm, generator_count,
                                 polar_generators, site_lipschitz, star_norm,
                                 z_norm)
from stochpert.errors import NumericalError
from stochpert.numerics import LinearProgram, lp_solve

#: keep the per-configuration references and the dual LP quick
MAX_GENERATORS = 5_000


@st.composite
def product_metrics(draw, max_sites=3, sizes=None):
    """Up to ``max_sites`` sites of 2 or 3 states (or the given ``sizes``),
    each with the discrete metric or the Euclidean metric of distinct
    integer points in the plane."""
    if sizes is None:
        sizes = draw(st.lists(st.sampled_from([2, 3]), min_size=1,
                              max_size=max_sites))
    metrics = []
    for k in sizes:
        if draw(st.booleans()):
            metrics.append(1.0 - np.eye(k))
            continue
        pts = np.array(draw(st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=k, max_size=k, unique=True)), dtype=float)
        metrics.append(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
    return ProductMetric(tuple(sizes), tuple(metrics))


def small_product_metrics():
    return product_metrics().filter(
        lambda pm: generator_count(pm) <= MAX_GENERATORS)


def zero_charge(draw, n):
    mu = np.array(draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n)))
    return mu - mu.mean()


def with_state(cfg, s, state):
    return cfg[:s] + (state,) + cfg[s + 1:]


def reference_primal_rows(pm):
    n, ns = pm.n_configs, pm.n_sites
    rows = []
    for s in range(ns):
        for cfg in pm.configs():
            i = pm.config_index(cfg)
            for alt in range(cfg[s] + 1, pm.sizes[s]):
                j = pm.config_index(with_state(cfg, s, alt))
                for p, q in ((i, j), (j, i)):
                    row = np.zeros(n + ns)
                    row[p], row[q] = 1.0, -1.0
                    row[n + s] = -pm.metrics[s][cfg[s], alt]
                    rows.append(row)
    budget = np.zeros(n + ns)
    budget[n:] = 1.0
    gauge = np.zeros(n + ns)
    gauge[0] = 1.0
    return np.array(rows + [budget, gauge])


def reference_generators(pm):
    per_site = []
    for s in range(pm.n_sites):
        dipoles = []
        for cfg in pm.configs():
            for alt in range(pm.sizes[s]):
                if alt == cfg[s]:
                    continue
                v = np.zeros(pm.n_configs)
                w = 1.0 / pm.metrics[s][cfg[s], alt]
                v[pm.config_index(cfg)] = w
                v[pm.config_index(with_state(cfg, s, alt))] = -w
                dipoles.append(v)
        per_site.append(dipoles)
    gens = []
    for mask in range(1, 2 ** pm.n_sites):
        chosen = [per_site[s] for s in range(pm.n_sites) if mask >> s & 1]
        for combo in itertools.product(*chosen):
            g = combo[0].copy()
            for v in combo[1:]:
                g += v
            gens.append(g)
    return np.array(gens)


@settings(max_examples=40, deadline=None)
@given(product_metrics())
def test_primal_constraints_match_per_configuration_reference(pm):
    prog = _PrimalProgram(pm)
    expected = reference_primal_rows(pm)
    assert np.array_equal(prog._lhs, expected)
    budget_only = np.zeros(len(expected))
    budget_only[-2] = 1.0
    assert np.array_equal(prog._rhs, budget_only)
    assert prog._senses == ["<="] * (len(expected) - 1) + ["="]


@settings(max_examples=40, deadline=None)
@given(product_metrics(), st.data())
def test_site_lipschitz_matches_per_configuration_reference(pm, data):
    f = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=pm.n_configs,
                                    max_size=pm.n_configs)))
    for s in range(pm.n_sites):
        expected = 0.0
        for cfg in pm.configs():
            for alt in range(pm.sizes[s]):
                if alt != cfg[s]:
                    gap = (f[pm.config_index(cfg)]
                           - f[pm.config_index(with_state(cfg, s, alt))])
                    expected = max(expected, gap / pm.metrics[s][cfg[s], alt])
        assert site_lipschitz(f, s, pm) == expected


@settings(max_examples=40, deadline=None)
@given(small_product_metrics())
def test_polar_generators_match_per_configuration_reference(pm):
    assert np.array_equal(polar_generators(pm), reference_generators(pm))


def reference_star_norm(tp, pm):
    """The loop ``star_norm`` replaced: one cold-started primal LP per
    configuration and per polar generator, both signs included."""
    prog = _PrimalProgram(pm)
    simplex_image = max(prog.value(tp[i, :]) for i in range(pm.n_configs))
    z_operator = max(prog.value(g @ tp) for g in polar_generators(pm))
    return z_operator, simplex_image


@settings(max_examples=40, deadline=None)
@given(small_product_metrics())
def test_one_generator_per_sign_pair(pm):
    gens = polar_generators(pm)
    kept = _one_per_sign(gens)
    assert 2 * len(kept) == len(gens)
    assert (sorted(map(tuple, np.vstack([kept, -kept])))
            == sorted(map(tuple, gens)))


def test_nearly_symmetric_metric_keeps_exact_sign_pairs():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    d[1, 0] += 1e-7
    pm = ProductMetric((3, 2), (d, 1.0 - np.eye(2)))
    assert np.array_equal(pm.metrics[0], pm.metrics[0].T)
    gens = polar_generators(pm)
    kept = _one_per_sign(gens)
    assert (sorted(map(tuple, np.vstack([kept, -kept])))
            == sorted(map(tuple, gens)))
    tp = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 6))
    tp -= tp.mean(axis=1, keepdims=True)
    for got, ref in zip(star_norm(tp, pm), reference_star_norm(tp, pm)):
        assert abs(got - ref) <= 1e-12 * abs(ref)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(3,), (2, 3), (3, 3)]).flatmap(
    lambda sizes: product_metrics(sizes=sizes)), st.data())
def test_star_norm_matches_per_lp_reference(pm, data):
    n = pm.n_configs
    tp = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=n * n,
                                     max_size=n * n))).reshape(n, n)
    tp -= tp.mean(axis=1, keepdims=True)
    try:
        expected = reference_star_norm(tp, pm)
    except NumericalError:
        # on a few Euclidean metrics one of the loop's own cold solves
        # loses accuracy (see test_dobrushin.py::TestRoundoff); there is
        # nothing to compare with then
        event("per-LP reference lost accuracy")
        assume(False)
    for value, ref in zip(star_norm(tp, pm), expected):
        assert abs(value - ref) <= 1e-12 * abs(ref)


#: found by hypothesis: a 2 x 3 space with a Euclidean site metric (the
#: squared distances given) and a T' with one +/-1 entry.  Warm starts
#: carried over without recomputing the tableau ended "lost accuracy"
#: (the first) or 1.9e-12 off (the second); in the third one warm start
#: loses accuracy anyway and is solved again from the phase-1 basis
WARM_START_CASES = [
    ([[0, 17, 53], [17, 0, 10], [53, 10, 0]], (5, 5), -1.0),
    ([[0, 5, 58], [5, 0, 29], [58, 29, 0]], (5, 5), 1.0),
    ([[0, 34, 5], [34, 0, 65], [5, 65, 0]], (2, 5), -1.0),
]


@pytest.mark.parametrize("squared, entry, value", WARM_START_CASES)
def test_star_norm_where_warm_starts_lose_accuracy(squared, entry, value):
    d = np.sqrt(np.array(squared, dtype=float))
    pm = ProductMetric((2, 3), (1.0 - np.eye(2), d))
    tp = np.zeros((6, 6))
    tp[entry] = value
    tp -= tp.mean(axis=1, keepdims=True)
    for got, ref in zip(star_norm(tp, pm), reference_star_norm(tp, pm)):
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_star_norm_of_zero_is_exactly_zero_on_two_sites():
    sn = star_norm(np.zeros((9, 9)), ProductMetric.discrete((3, 3)))
    assert sn == (0.0, 0.0)
    assert sn.value == 0.0


@settings(max_examples=25, deadline=None)
@given(small_product_metrics(), st.data())
def test_z_norm_primal_equals_dual(pm, data):
    mu = zero_charge(data.draw, pm.n_configs)
    zn = z_norm(mu, pm, agree_tol=np.inf)
    assert abs(zn.primal - zn.dual) <= 1e-7 * max(1.0, abs(zn.primal))


@settings(max_examples=25, deadline=None)
@given(small_product_metrics(), st.data())
def test_pairing_bounded_by_norm_times_seminorm(pm, data):
    mu = zero_charge(data.draw, pm.n_configs)
    f = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=pm.n_configs,
                                    max_size=pm.n_configs)))
    bound = z_norm(mu, pm).value * f_seminorm(f, pm)
    assert abs(mu @ f) <= bound + 1e-9 * max(1.0, bound)


@settings(max_examples=25, deadline=None)
@given(small_product_metrics(), st.data())
def test_single_site_point_masses_at_site_distance(pm, data):
    cfg = tuple(data.draw(st.integers(0, k - 1)) for k in pm.sizes)
    s = data.draw(st.integers(0, pm.n_sites - 1))
    alt = data.draw(st.integers(0, pm.sizes[s] - 1).filter(
        lambda b: b != cfg[s]))
    mu = np.zeros(pm.n_configs)
    mu[pm.config_index(cfg)] = 1.0
    mu[pm.config_index(with_state(cfg, s, alt))] = -1.0
    assert z_norm(mu, pm).value == pytest.approx(pm.metrics[s][cfg[s], alt],
                                                 rel=1e-9, abs=1e-9)


small_ints = st.integers(-3, 3)


@st.composite
def linear_programs(draw):
    """Small integer programs with mixed senses and free, lower, upper and
    boxed bounds; feasible, infeasible and unbounded ones all occur."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    lhs = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n),
                        min_size=m, max_size=m))
    rhs = draw(st.lists(small_ints, min_size=m, max_size=m))
    senses = draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m,
                           max_size=m))
    bounds = []
    for _ in range(n):
        lo = draw(st.none() | small_ints)
        hi = draw(st.none() | small_ints)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        bounds.append((lo, hi))
    objective = draw(st.lists(small_ints, min_size=n, max_size=n))
    return LinearProgram(np.array(objective, float), np.array(lhs, float),
                         senses, np.array(rhs, float), bounds,
                         maximize=draw(st.booleans()))


def highs(lp, objective):
    """HiGHS on ``lp`` as a minimization of ``objective``."""
    senses = np.array(lp.senses)
    ub = senses != "="
    sign = np.where(senses[ub] == "<=", 1.0, -1.0)
    kwargs = {}
    if ub.any():
        kwargs.update(A_ub=sign[:, None] * lp.lhs[ub], b_ub=sign * lp.rhs[ub])
    if (~ub).any():
        kwargs.update(A_eq=lp.lhs[~ub], b_eq=lp.rhs[~ub])
    return scipy.optimize.linprog(objective, bounds=lp.bounds,
                                  method="highs", **kwargs)


@settings(max_examples=200, deadline=None)
@given(linear_programs())
def test_lp_solve_agrees_with_highs(lp):
    mine = lp_solve(lp)
    event(mine.status)
    # settle feasibility first with a zero objective, so that HiGHS cannot
    # answer "infeasible or unbounded"
    feasible = highs(lp, np.zeros(lp.objective.size))
    assert feasible.status in (0, 2)
    if feasible.status == 2:
        assert mine.status == "infeasible"
        return
    ref = highs(lp, -lp.objective if lp.maximize else lp.objective)
    # on a feasible program HiGHS's presolve may answer "infeasible" for
    # "infeasible or unbounded", which here can only mean unbounded
    assert ref.status in (0, 2, 3)
    if ref.status != 0:
        assert mine.status == "unbounded"
        return
    assert mine.status == "optimal"
    value = -ref.fun if lp.maximize else ref.fun
    assert mine.value == pytest.approx(value, rel=1e-9, abs=1e-9)

