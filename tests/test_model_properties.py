"""Property tests of the model layer against per-configuration references
built from the scalar local rule."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochpert.dobrushin import dependency_matrix
from stochpert.errors import DomainError
from stochpert.model import (MINUS, PLUS, PcaModel, SiteGraph, index_config,
                             three_state_row)


@st.composite
def models(draw, max_sites=4):
    """A random graph with at most ``max_sites`` nodes, alpha and an
    optional rate override; eps is left at 0."""
    n = draw(st.integers(1, max_sites))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.none() | st.tuples(st.floats(0.1, 3.0),
                                      st.floats(0.1, 3.0)))
    return PcaModel(SiteGraph(n, tuple(edges)), alpha, 0.0, beta)


def eps_cap(model):
    if model.beta_override is None:
        return 1.0 / (1.0 + model.alpha * model.graph.max_degree)
    return 1.0 / max(model.beta_override)


def local_rows(model, cfg, eps):
    rows = []
    for s in range(model.n_sites):
        nbrs = model.graph.neighbors(s)
        n_plus = sum(1 for v in nbrs if cfg[v] == PLUS)
        n_minus = sum(1 for v in nbrs if cfg[v] == MINUS)
        rows.append(three_state_row(cfg[s], n_plus, n_minus, model.alpha, eps,
                                    model.beta_override))
    return rows


def reference_operator(model, eps):
    n = model.n_configs
    t = np.empty((n, n))
    for idx in range(n):
        rows = local_rows(model, index_config(idx, model.n_sites), eps)
        row = rows[-1]
        for r in reversed(rows[:-1]):
            row = np.kron(row, r)
        t[idx] = row
    return t


def reference_gamma(model, eps):
    ns = model.n_sites
    gamma = np.zeros((ns, ns))
    for idx in range(model.n_configs):
        cfg = index_config(idx, ns)
        rows = local_rows(model, cfg, eps)
        for t in range(ns):
            for alt in set(range(3)) - {cfg[t]}:
                other = local_rows(model, cfg[:t] + (alt,) + cfg[t + 1:], eps)
                for s in range(ns):
                    tv = 0.5 * np.abs(rows[s] - other[s]).sum()
                    gamma[s, t] = max(gamma[s, t], tv)
    return gamma


fractions = st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(models(), fractions)
def test_operator_matches_per_configuration_reference(model, u):
    eps = u * eps_cap(model)
    fam = model.family()
    try:
        expected = reference_operator(model, eps)
    except DomainError:
        # the cap rounded just past the rates: both routes refuse
        with pytest.raises(DomainError):
            fam.at(eps)
        return
    t = fam.at(eps)
    assert np.array_equal(t, expected)
    assert t.min() >= 0.0
    assert np.abs(t.sum(axis=1) - 1.0).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(models(), fractions)
def test_derivative_is_a_tangent_and_matches_central_difference(model, u):
    h = 1e-5
    # eps + h stays a step below the cap: at u = 1, cap - h + h can round
    # one ulp past the rates, where the family rightly refuses
    eps = h + u * (eps_cap(model) - 3 * h)
    fam = model.family()
    tp = fam.derivative(eps)
    assert np.abs(tp.sum(axis=1)).max() <= 1e-12
    fd = (fam.at(eps + h) - fam.at(eps - h)) / (2 * h)
    assert np.abs(tp - fd).max() <= 1e-6


@settings(max_examples=40, deadline=None)
@given(models(), fractions)
def test_dependency_matrix_matches_pairwise_reference(model, u):
    eps = u * eps_cap(model)
    at_eps = PcaModel(model.graph, model.alpha, eps, model.beta_override)
    try:
        expected = reference_gamma(model, eps)
    except DomainError:
        with pytest.raises(DomainError):
            dependency_matrix(at_eps)
        return
    assert np.array_equal(dependency_matrix(at_eps).gamma, expected)


@settings(max_examples=40, deadline=None)
@given(models(), st.floats(1e-6, 2.0))
def test_eps_above_cap_is_refused(model, excess):
    fam = model.family()
    with pytest.raises(DomainError, match="epsilon"):
        fam.at(eps_cap(model) * (1.0 + excess))
    with pytest.raises(DomainError, match="epsilon"):
        fam.at(-excess)


@settings(max_examples=40, deadline=None)
@given(models(), st.integers(-4, 4))
def test_model_constructs_exactly_when_its_operator_does(model, ulps):
    eps = eps_cap(model)
    for _ in range(abs(ulps)):
        eps = float(np.nextafter(eps, np.sign(ulps) * np.inf))
    try:
        at_eps = PcaModel(model.graph, model.alpha, eps, model.beta_override)
    except DomainError:
        with pytest.raises(DomainError):
            model.family().at(eps)
        return
    assert at_eps.operator().shape == (model.n_configs,) * 2


@settings(max_examples=40, deadline=None)
@given(models(), st.floats(0.0, 0.99), st.floats(0.1, 3.0))
def test_flip_symmetric_models_are_exactly_centrosymmetric(model, u, rate):
    # the draws with fixed rates get two equal ones instead; eps stays
    # below the cap, which can round one ulp past the rates
    if model.beta_override is not None:
        model = PcaModel(model.graph, model.alpha, 0.0, (rate, rate))
    assert model.flip_symmetric
    t = model.family().at(u * eps_cap(model))
    assert np.array_equal(t, t[::-1, ::-1])


@settings(max_examples=40, deadline=None)
@given(models(), st.floats(0.01, 0.99), st.floats(0.01, 1.0),
       st.booleans())
def test_unequal_fixed_rates_break_the_flip(model, u, gap, plus_first):
    # rates at least 0.01 apart, so their products with eps stay distinct
    low, high = 1.0, 1.0 + 2.0 * gap
    beta = (high, low) if plus_first else (low, high)
    model = PcaModel(model.graph, model.alpha, 0.0, beta)
    assert not model.flip_symmetric
    t = model.family().at(u * eps_cap(model))
    assert not np.array_equal(t, t[::-1, ::-1])
