import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stochpert.dobrushin as dobrushin_module
from stochpert.dobrushin import (ProductMetric, dependency_matrix,
                                 dobrushin_distance, f_seminorm,
                                 generator_count, polar_generators,
                                 site_lipschitz, star_norm,
                                 stationary_sensitivity, z_norm)
from stochpert.errors import DomainError, NumericalError
from stochpert.model import PcaModel, SiteGraph, config_index, family_at_zero
from stochpert.numerics import LinearProgram, lp_solve

PM1 = ProductMetric.discrete((3,))
PM2 = ProductMetric.discrete((3, 3))


def centered(vec):
    vec = np.asarray(vec, dtype=float)
    return vec - vec.mean()


class TestSiteLipschitz:
    def test_indicator(self):
        f = np.array([1.0, 0.0, 0.0])       # indicator of the + state
        assert site_lipschitz(f, 0, PM1) == pytest.approx(1.0)
        assert f_seminorm(f, PM1) == pytest.approx(1.0)

    def test_constant(self):
        f = np.full(9, 3.7)
        assert f_seminorm(f, PM2) == 0.0

    def test_separable(self):
        # f(x) = 1[x0 = +] + 2 * 1[x1 = +]
        f = np.zeros(9)
        for cfg in [(a, b) for a in range(3) for b in range(3)]:
            f[config_index(cfg)] = (cfg[0] == 0) + 2.0 * (cfg[1] == 0)
        assert site_lipschitz(f, 0, PM2) == pytest.approx(1.0)
        assert site_lipschitz(f, 1, PM2) == pytest.approx(2.0)
        assert f_seminorm(f, PM2) == pytest.approx(3.0)

    def test_custom_metric_scaling(self):
        pm = ProductMetric((3,), (np.array([[0.0, 2.0, 2.0],
                                            [2.0, 0.0, 2.0],
                                            [2.0, 2.0, 0.0]]),))
        f = np.array([1.0, 0.0, 0.0])
        assert site_lipschitz(f, 0, pm) == pytest.approx(0.5)


class TestPolarGenerators:
    def test_counts(self):
        assert generator_count(PM1) == 6
        assert generator_count(PM2) == (1 + 18) * (1 + 18) - 1
        assert polar_generators(PM2).shape == (360, 9)

    def test_zero_charge_columns(self):
        gens = polar_generators(PM2)
        assert np.abs(gens.sum(axis=1)).max() < 1e-14

    def test_cap(self):
        pm = ProductMetric.discrete((3,) * 5)
        with pytest.raises(DomainError, match="cap"):
            polar_generators(pm)


class TestZNorm:
    def test_single_site_delta_difference(self):
        mu = np.array([1.0, -1.0, 0.0])
        zn = z_norm(mu, PM1)
        assert zn.primal == pytest.approx(1.0, abs=1e-9)
        assert zn.dual == pytest.approx(1.0, abs=1e-9)

    def test_two_site_delta_difference(self):
        mu = np.zeros(9)
        mu[config_index((0, 0))] = 1.0
        mu[config_index((2, 2))] = -1.0
        zn = z_norm(mu, PM2)
        assert zn.primal == pytest.approx(1.0, abs=1e-9)

    def test_zero_measure(self):
        assert z_norm(np.zeros(9), PM2).value == pytest.approx(0.0, abs=1e-12)

    def test_beyond_three_sites_refused_before_the_primal(self, monkeypatch):
        def lp_solve(*args, **kwargs):
            raise AssertionError("an LP ran before the size check")
        monkeypatch.setattr(dobrushin_module, "lp_solve", lp_solve)
        pm = ProductMetric.discrete((3,) * 4)
        mu = np.zeros(pm.n_configs)
        mu[[0, -1]] = 1.0, -1.0
        with pytest.raises(DomainError, match="the zero-charge norm runs on "
                           "at most 3 sites of 3 states; this product space "
                           "needs 705911760 polar generators"):
            z_norm(mu, pm)

    def test_nonzero_charge_rejected(self):
        with pytest.raises(DomainError, match="charge"):
            z_norm(np.array([1.0, 0.0, 0.0]), PM1)

    def test_single_site_total_variation_formula(self):
        # one site + discrete metric: the norm is half the l1 norm
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = centered(rng.standard_normal(3))
            assert z_norm(mu, PM1).value == pytest.approx(
                0.5 * np.abs(mu).sum(), abs=1e-9)

    @pytest.mark.parametrize("pm", [PM1, PM2], ids=["N1", "N2"])
    def test_primal_dual_agreement(self, pm):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = centered(rng.standard_normal(pm.n_configs))
            zn = z_norm(mu, pm, agree_tol=np.inf)
            assert abs(zn.primal - zn.dual) < 1e-7

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
           st.floats(-3, 3))
    def test_homogeneity(self, vals, c):
        mu = centered(vals)
        base = z_norm(mu, PM1).value
        assert z_norm(c * mu, PM1).value == pytest.approx(abs(c) * base,
                                                          abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
           st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    def test_triangle_inequality(self, a, b):
        mu, nu = centered(a), centered(b)
        lhs = z_norm(mu + nu, PM1).value
        assert lhs <= z_norm(mu, PM1).value + z_norm(nu, PM1).value + 1e-9

    def test_definiteness(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            mu = centered(rng.standard_normal(9))
            if np.abs(mu).max() > 1e-6:
                assert z_norm(mu, PM2).value > 1e-8


def _sqrt_metric(squared):
    return np.sqrt(np.array(squared, dtype=float))


#: point masses on product metrics with irrational distances, where the
#: simplex once pivoted on roundoff-sized entries and ended "optimal" at an
#: infeasible point; their distance is the largest site distance between them
ROUNDOFF_CASES = [
    (ProductMetric((2, 2, 3), (
        1.0 - np.eye(2), 3.0 * (1.0 - np.eye(2)),
        _sqrt_metric([[0, 65, 10], [65, 0, 37], [10, 37, 0]]))),
     (1, 0, 2), (1, 0, 1), np.sqrt(37.0)),
    (ProductMetric((3, 2, 2), (
        _sqrt_metric([[0, 17, 10], [17, 0, 1], [10, 1, 0]]),
        1.0 - np.eye(2), 1.0 - np.eye(2))),
     (1, 1, 1), (0, 0, 0), np.sqrt(17.0)),
]


def point_masses(pm, x, y):
    mu = np.zeros(pm.n_configs)
    mu[pm.config_index(x)], mu[pm.config_index(y)] = 1.0, -1.0
    return mu


class TestRoundoff:
    @pytest.mark.parametrize("pm,x,y,expected", ROUNDOFF_CASES)
    def test_point_masses_at_largest_site_distance(self, pm, x, y, expected):
        zn = z_norm(point_masses(pm, x, y), pm)
        assert zn.primal == pytest.approx(expected, rel=1e-9)
        assert zn.dual == pytest.approx(expected, rel=1e-9)

    def test_lost_accuracy_is_raised_not_returned(self):
        # the first case's dual LP with the old, roundoff-sized pivot
        # tolerance: the tableau blows up, and the result must say so
        pm, x, y, _ = ROUNDOFF_CASES[0]
        mu = point_masses(pm, x, y)
        gens = polar_generators(pm)
        lp = LinearProgram(np.ones(len(gens)), gens.T[:-1],
                           ["="] * (pm.n_configs - 1), mu[:-1],
                           [(0.0, None)] * len(gens), maximize=False)
        with pytest.raises(NumericalError, match="lost accuracy"):
            lp_solve(lp, pivot_tol=1e-11)


class TestDistance:
    def test_identical(self):
        p = np.full(9, 1.0 / 9)
        assert dobrushin_distance(p, p, PM2) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses_one_site_apart(self):
        p, q = np.zeros(9), np.zeros(9)
        p[config_index((0, 1))] = 1.0
        q[config_index((2, 1))] = 1.0
        assert dobrushin_distance(p, q, PM2) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_and_triangle_on_random_triples(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p, q, r = (rng.dirichlet(np.ones(9)) for _ in range(3))
            dpq = dobrushin_distance(p, q, PM2)
            dqp = dobrushin_distance(q, p, PM2)
            assert dpq == pytest.approx(dqp, abs=1e-9)
            assert dpq <= (dobrushin_distance(p, r, PM2)
                           + dobrushin_distance(r, q, PM2) + 1e-9)

    def test_diameter(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            p, q = rng.dirichlet(np.ones(9)), rng.dirichlet(np.ones(9))
            assert dobrushin_distance(p, q, PM2) <= 1.0 + 1e-9

    def test_non_probability_rejected(self):
        with pytest.raises(DomainError, match="probability"):
            dobrushin_distance(np.array([0.5, 0.2, 0.2]),
                               np.array([1.0, 0.0, 0.0]), PM1)


class TestStarNorm:
    def test_zero_operator(self):
        sn = star_norm(np.zeros((3, 3)), PM1)
        assert sn == (0.0, 0.0)
        assert sn.value == 0.0

    def test_definiteness(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            tp = rng.standard_normal((3, 3))
            tp -= tp.mean(axis=1, keepdims=True)
            assert star_norm(tp, PM1).value > 0

    def test_tangency_required(self):
        with pytest.raises(DomainError, match="T'"):
            star_norm(np.eye(3), PM1)

    def test_non_finite_rejected(self):
        # a NaN row would have a NaN bound, which no pruning rule may skip
        tp = np.zeros((3, 3))
        tp[0, 0] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            star_norm(tp, PM1)

    def test_worked_single_site_value(self):
        _, t0p = family_at_zero(SiteGraph(1, ()), 0.0)
        sn = star_norm(t0p, PM1)
        # rows of T0' have total-variation norm 1; dipole images reach 1 too
        assert sn.simplex_image == pytest.approx(1.0, abs=1e-9)
        assert sn.z_operator == pytest.approx(1.0, abs=1e-9)

    def test_randomized_lower_bounds_never_exceed_generator_maximum(self):
        # single site + discrete metric: the zero-charge norm equals half
        # the l1 norm (verified above), giving a cheap independent oracle
        _, t0p = family_at_zero(SiteGraph(1, ()), 0.0)
        zop = star_norm(t0p, PM1).z_operator
        rng = np.random.default_rng(41)
        mus = rng.standard_normal((10_000, 3))
        mus -= mus.mean(axis=1, keepdims=True)
        norms = 0.5 * np.abs(mus).sum(axis=1)
        keep = norms > 1e-12
        ratios = 0.5 * np.abs(mus[keep] @ t0p).sum(axis=1) / norms[keep]
        assert ratios.max() <= zop + 1e-9
        # spot-check the closed form against the LP route on a subsample
        for mu in mus[:25]:
            assert z_norm(mu, PM1).value == pytest.approx(
                0.5 * np.abs(mu).sum(), abs=1e-9)


class TestDependencyMatrix:
    def test_neighbour_entry_formula(self):
        model = PcaModel(SiteGraph.path(2), 0.3, 0.05)
        rep = dependency_matrix(model)
        assert rep.gamma[0, 1] == pytest.approx(0.3 * 0.05, abs=1e-12)
        assert rep.gamma[1, 0] == pytest.approx(0.3 * 0.05, abs=1e-12)

    def test_diagonal_bound(self):
        model = PcaModel(SiteGraph.path(3), 0.2, 0.1)
        rep = dependency_matrix(model)
        assert np.all(np.diag(rep.gamma) <= 1.0 - 0.1 + 1e-12)
        assert rep.gamma[0, 0] == pytest.approx(1.0 - 0.1, abs=1e-12)

    def test_closed_form_norm_bound(self):
        for alpha in (0.0, 0.2, 0.45):
            for eps in (0.05, 0.1):
                model = PcaModel(SiteGraph.path(3), alpha, eps)
                rep = dependency_matrix(model)
                assert rep.linf_norm <= 1 - (1 - 2 * alpha) * eps + 1e-12

    def test_certificate_true_in_contraction_regime(self):
        rep = dependency_matrix(PcaModel(SiteGraph.path(3), 0.45, 0.1))
        assert rep.geometrically_ergodic

    def test_certificate_false_at_zero_eps(self):
        rep = dependency_matrix(PcaModel(SiteGraph.path(3), 0.2, 0.0))
        assert rep.linf_norm == pytest.approx(1.0, abs=1e-12)
        assert not rep.geometrically_ergodic

    def test_supercritical_alpha_reported_exactly(self):
        # alpha * max_degree > 1: the closed-form bound is useless (>= 1)
        # but the exact norm is still computed
        model = PcaModel(SiteGraph.path(3), 0.6, 0.3)
        rep = dependency_matrix(model)
        assert 1 - (1 - 2 * 0.6) * 0.3 >= 1.0
        assert rep.linf_norm == pytest.approx(1 - 0.3 + 2 * 0.6 * 0.3,
                                              abs=1e-12)

    def test_far_sites_are_independent(self):
        rep = dependency_matrix(PcaModel(SiteGraph.path(3), 0.4, 0.1))
        assert rep.gamma[0, 2] == 0.0
        assert rep.gamma[2, 0] == 0.0


class TestStationarySensitivity:
    def test_zero_change(self):
        t = np.array([[0.7, 0.3], [0.4, 0.6]])
        assert np.allclose(stationary_sensitivity(t, np.zeros((2, 2))), 0.0,
                           atol=1e-12)

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.5
        t = np.array([[1 - a, a], [b, 1 - b]])
        tp = np.array([[-1.0, 1.0], [0.0, 0.0]])   # d/da
        got = stationary_sensitivity(t, tp)
        expected = np.array([-b, b]) / (a + b) ** 2
        assert np.abs(got - expected).max() < 1e-8

    def test_pca_example_matches_finite_differences(self):
        fam = PcaModel(SiteGraph.path(2), 0.1, 0.2).family()

        def stationary(t):
            lam, vecs = np.linalg.eig(t.T)
            k = int(np.argmin(np.abs(lam - 1)))
            p = vecs[:, k].real
            return p / p.sum()

        h, eps = 1e-5, 0.2
        fd = (stationary(fam.at(eps + h)) - stationary(fam.at(eps - h))) / (2 * h)
        got = stationary_sensitivity(fam.at(eps), fam.derivative(eps))
        assert np.abs(got - fd).max() < 1e-6

    def test_result_is_zero_charge(self):
        fam = PcaModel(SiteGraph.path(2), 0.1, 0.2).family()
        pprime = stationary_sensitivity(fam.at(0.2), fam.derivative(0.2))
        assert abs(pprime.sum()) < 1e-10

    def test_non_ergodic_rejected(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])    # eigenvalue -1
        with pytest.raises(DomainError, match="ergodic"):
            stationary_sensitivity(swap, np.zeros((2, 2)))
        with pytest.raises(DomainError, match="multiplicity"):
            stationary_sensitivity(np.eye(2), np.zeros((2, 2)))
