import json

import numpy as np
import pytest

from stochpert.errors import ConfigError, DomainError
from stochpert.model import (MINUS, PLUS, ZERO, PcaModel, PerturbationFamily,
                             SiteGraph, all_configs, apply_function,
                             apply_measure, assemble_operator, config_index,
                             delta_measure, family_at_zero, index_config,
                             model_from_json, three_state_row,
                             validate_stochastic)


class TestThreeStateRow:
    def test_plus_row_substitution(self):
        row = three_state_row(PLUS, n_plus=0, n_minus=0, alpha=0.0, eps=0.1)
        assert np.allclose(row, [0.9, 0.1, 0.0])

    def test_middle_row_parameter_free(self):
        for n_plus, n_minus, alpha, eps in [(0, 0, 0.0, 0.0), (3, 1, 0.5, 0.2)]:
            row = three_state_row(ZERO, n_plus, n_minus, alpha, eps)
            assert np.allclose(row, [0.5, 0.0, 0.5])

    def test_minus_row_neighbour_driven(self):
        row = three_state_row(MINUS, n_plus=2, n_minus=0, alpha=0.5, eps=0.1)
        assert np.allclose(row, [0.0, 0.2, 0.8])

    def test_rows_are_probabilities(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            alpha = rng.uniform(0, 1)
            n_plus, n_minus = rng.integers(0, 4, 2)
            eps = rng.uniform(0, 1.0 / (1 + alpha * max(n_plus, n_minus, 1)))
            for own in (PLUS, ZERO, MINUS):
                row = three_state_row(own, n_plus, n_minus, alpha, eps)
                assert row.sum() == pytest.approx(1.0, abs=1e-12)
                assert row.min() >= 0

    def test_epsilon_out_of_range(self):
        with pytest.raises(DomainError, match="epsilon"):
            three_state_row(PLUS, 0, 2, alpha=1.0, eps=0.5)
        with pytest.raises(DomainError):
            three_state_row(PLUS, 0, 0, alpha=0.0, eps=-0.01)

    def test_beta_override(self):
        row = three_state_row(MINUS, 0, 0, 0.0, 0.1, beta_override=(2.0, 1.0))
        assert np.allclose(row, [0.0, 0.2, 0.8])


class TestIndexing:
    def test_roundtrip(self):
        for n in (1, 2, 3):
            for idx in range(3 ** n):
                assert config_index(index_config(idx, n)) == idx

    def test_site_zero_fastest(self):
        # incrementing site 0 moves the index by 1, site 1 by 3
        assert config_index((1, 0)) == 1
        assert config_index((0, 1)) == 3
        assert config_index((2, 1, 1)) == 2 + 3 + 9


class TestAssembly:
    def test_single_site_equals_local_matrix(self):
        t = assemble_operator(SiteGraph(1, ()), 0.0, 0.1)
        expected = np.array([[0.9, 0.1, 0.0], [0.5, 0.0, 0.5],
                             [0.0, 0.1, 0.9]])
        assert np.allclose(t, expected, atol=1e-15)

    def test_independent_sites_tensor_factorize(self):
        local = np.array([[0.95, 0.05, 0.0], [0.5, 0.0, 0.5],
                          [0.0, 0.05, 0.95]])
        t = assemble_operator(SiteGraph(2, ()), 0.0, 0.05)
        assert np.allclose(t, np.kron(local, local), atol=1e-14)
        # the same must hold on a connected graph when alpha = 0
        t = assemble_operator(SiteGraph.path(2), 0.0, 0.05)
        assert np.allclose(t, np.kron(local, local), atol=1e-14)

    def test_row_sums(self):
        t = assemble_operator(SiteGraph.path(2), 0.5, 0.05)
        validate_stochastic(t, tol=1e-12)
        assert np.allclose(t @ np.ones(9), np.ones(9), atol=1e-12)

    def test_idempotent_at_zero(self):
        for n, alpha in ((1, 0.0), (2, 0.4), (3, 0.2)):
            t0 = assemble_operator(SiteGraph.path(n), alpha, 0.0)
            assert np.abs(t0 @ t0 - t0).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_multiplicities_at_zero(self, n):
        t0 = assemble_operator(SiteGraph.path(n), 0.3, 0.0)
        lam = np.linalg.eigvals(t0)
        assert int(np.sum(np.abs(lam - 1) < 1e-8)) == 2 ** n
        assert int(np.sum(np.abs(lam) < 1e-8)) == 3 ** n - 2 ** n

    def test_size_cap(self):
        with pytest.raises(DomainError, match="cap"):
            PcaModel(SiteGraph(9, ()), 0.0, 0.1)

    def test_eps_just_past_the_cap_refused_at_construction(self):
        # 1/1.01 rounds down, so one ulp above it gives eps * rate > 1
        eps = float(np.nextafter(1 / 1.01, 1))
        with pytest.raises(DomainError, match="epsilon"):
            PcaModel(SiteGraph.path(2), 0.01, eps)
        model = PcaModel(SiteGraph.path(2), 0.01, 1 / 1.01)
        assert model.operator().shape == (9, 9)


class TestFamily:
    def test_worked_single_site_operators(self):
        t0, t0p = family_at_zero(SiteGraph(1, ()), 0.0)
        assert np.allclose(t0, [[1, 0, 0], [0.5, 0, 0.5], [0, 0, 1]],
                           atol=1e-15)
        assert np.allclose(t0p, [[-1, 1, 0], [0, 0, 0], [0, 1, -1]],
                           atol=1e-15)

    def test_derivative_matches_finite_differences(self):
        # one-sided second-order stencil: the family is only defined for
        # eps >= 0, so a centered difference at 0 is unavailable
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0).family()
        h = 1e-6
        fd = (4 * fam.at(h) - 3 * fam.at(0.0) - fam.at(2 * h)) / (2 * h)
        assert np.abs(fam.t0_prime - fd).max() <= 1e-6

    def test_interior_derivatives_match_central_differences(self):
        fam = PcaModel(SiteGraph.path(3), 0.2, 0.0).family()
        h, eps = 1e-5, 0.1
        fd1 = (fam.at(eps + h) - fam.at(eps - h)) / (2 * h)
        assert np.abs(fam.derivative(eps) - fd1).max() <= 1e-8

    def test_tangent_rows_sum_to_zero(self):
        fam = PcaModel(SiteGraph.path(2), 0.5, 0.0).family()
        assert np.abs(fam.t0_prime.sum(axis=1)).max() <= 1e-13

    def test_family_at_zero_equals_operator(self):
        model = PcaModel(SiteGraph.path(2), 0.3, 0.0)
        fam = model.family()
        assert np.array_equal(fam.t0, model.operator(0.0))


class TestMeasuresAndFunctions:
    def test_delta_measure_action(self):
        t = assemble_operator(SiteGraph(1, ()), 0.0, 0.1)
        mu = apply_measure(delta_measure((ZERO,), 1), t)
        assert np.allclose(mu, [0.5, 0.0, 0.5])

    def test_zero_measure(self):
        t = assemble_operator(SiteGraph(1, ()), 0.0, 0.1)
        assert np.allclose(apply_measure(np.zeros(3), t), 0.0)

    def test_operator_preserves_ones(self):
        t = assemble_operator(SiteGraph.path(3), 0.4, 0.08)
        assert np.allclose(apply_function(t, np.ones(27)), np.ones(27),
                           atol=1e-12)

    def test_dimension_mismatch(self):
        t = np.eye(3)
        with pytest.raises(DomainError):
            apply_measure(np.zeros(4), t)
        with pytest.raises(DomainError):
            apply_function(t, np.zeros(4))


class TestGraph:
    def test_path(self):
        g = SiteGraph.path(4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.degrees == (1, 2, 2, 1)
        assert g.max_degree == 2

    def test_validation(self):
        with pytest.raises(DomainError, match="self-loop"):
            SiteGraph(2, ((0, 0),))
        with pytest.raises(DomainError, match="duplicate"):
            SiteGraph(2, ((0, 1), (1, 0)))
        with pytest.raises(DomainError, match="range"):
            SiteGraph(2, ((0, 5),))


class TestJsonConfig:
    GOOD = {"graph": {"nodes": 2, "edges": [[0, 1]]}, "alpha": 0.3,
            "epsilon": 0.05, "beta_override": None}

    def test_valid_document(self):
        model = model_from_json(json.dumps(self.GOOD))
        assert model.n_sites == 2
        assert model.alpha == 0.3

    def test_beta_override(self):
        doc = dict(self.GOOD, beta_override={"plus": 2.0, "minus": 1.0})
        model = model_from_json(doc)
        assert model.beta_override == (2.0, 1.0)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            model_from_json("{nope")

    def test_missing_field(self):
        doc = {k: v for k, v in self.GOOD.items() if k != "alpha"}
        with pytest.raises(ConfigError, match=r"\$\.alpha"):
            model_from_json(doc)

    def test_wrong_type(self):
        with pytest.raises(ConfigError, match=r"\$\.graph\.nodes"):
            model_from_json(dict(self.GOOD, graph={"nodes": "2", "edges": []}))

    def test_bad_edge(self):
        with pytest.raises(ConfigError, match=r"edges\[0\]"):
            model_from_json(dict(self.GOOD,
                                 graph={"nodes": 2, "edges": [[0]]}))

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown"):
            model_from_json(dict(self.GOOD, extra=1))

    def test_epsilon_range_is_config_error(self):
        with pytest.raises(ConfigError, match="epsilon"):
            model_from_json(dict(self.GOOD, epsilon=2.0))
