import numpy as np
import pytest

from stochpert import perturb
from stochpert.errors import DomainError, NumericalError
from stochpert.model import PcaModel, SiteGraph, family_at_zero
from stochpert.perturb import (block_diagonal_part, commutator_identity_defect,
                               effective_operator, frozen_configs,
                               gauge_generator, integrate_gauge, reduced_basis,
                               reduced_first_order, second_order_term,
                               two_state_row)
from stochpert.projection import Projection, derivative, tangent_split

BETA12 = (2.0, 1.0)          # (beta_plus, beta_minus)


def single_site(beta=None):
    t0, t0p = family_at_zero(SiteGraph(1, ()), 0.0, beta)
    p0 = Projection(t0)
    return t0, t0p, p0


class TestGaugeGenerator:
    def test_zero_tangent(self):
        _, _, p0 = single_site()
        assert np.allclose(gauge_generator(p0, np.zeros((3, 3))), 0.0)

    def test_commutator_identity_on_random_tangents(self):
        rng = np.random.default_rng(1)
        _, _, p0 = single_site()
        for _ in range(100):
            tangent, _ = tangent_split(p0, rng.standard_normal((3, 3)))
            s = gauge_generator(p0, tangent)
            lhs = s @ p0.matrix - p0.matrix @ s
            assert np.abs(lhs - tangent).max() < 1e-12

    def test_worked_single_site_generator(self):
        t0, t0p, p0 = single_site(BETA12)
        p0p = derivative(p0, t0, t0p)
        s0 = gauge_generator(p0, p0p)
        assert np.abs((s0 @ p0.matrix - p0.matrix @ s0) - p0p).max() <= 1e-12
        assert np.abs(s0 @ np.ones(3)).max() < 1e-12

    def test_non_tangent_rejected(self):
        _, _, p0 = single_site()
        with pytest.raises(DomainError, match="tangent"):
            gauge_generator(p0, np.eye(3))


class TestCommutatorIdentity:
    def test_zero_inputs(self):
        t0, _, p0 = single_site()
        assert commutator_identity_defect(t0, np.zeros((3, 3)), p0,
                                          np.zeros((3, 3))) == 0.0

    def test_worked_commutator_matrix(self):
        t0, t0p, _ = single_site(BETA12)
        expected = np.array([[0.5, -1.0, 0.5],
                             [0.5, -1.5, 1.0],
                             [1.0, -2.0, 1.0]])
        assert np.abs((t0p @ t0 - t0 @ t0p) - expected).max() < 1e-12

    @pytest.mark.parametrize("n,alpha", [(1, 0.0), (2, 0.3)])
    def test_defect_vanishes_for_computed_tangent(self, n, alpha):
        fam = PcaModel(SiteGraph.path(n), alpha, 0.0).family()
        p0 = Projection(fam.t0)
        pp = derivative(p0, fam.t0, fam.t0_prime)
        assert commutator_identity_defect(fam.t0, fam.t0_prime, p0, pp) <= 1e-9


class TestIntegrateGauge:
    def test_zero_target_is_identity(self):
        fam = PcaModel(SiteGraph(1, ()), 0.0, 0.0).family()
        path = integrate_gauge(fam, 0.0)
        assert np.allclose(path.psi, np.eye(3))
        assert np.allclose(path.psi_inv, np.eye(3))

    def test_conjugation_against_eigendecomposition(self):
        fam = PcaModel(SiteGraph(1, ()), 0.0, 0.0).family()
        path = integrate_gauge(fam, 0.05, 16)
        t = fam.at(0.05)
        lam, v = np.linalg.eig(t)
        sel = np.abs(lam - 1.0) < 0.5
        exact = (v[:, sel] @ np.linalg.inv(v)[sel, :]).real
        conj = path.psi @ fam.t0 @ path.psi_inv
        assert np.abs(conj - exact).max() <= 1e-7

    def test_fourth_order_step_halving(self):
        fam = PcaModel(SiteGraph(1, ()), 0.0, 0.0,
                       beta_override=BETA12).family()
        coarse = integrate_gauge(fam, 0.08, 32).psi
        fine = integrate_gauge(fam, 0.08, 64).psi
        assert np.abs(coarse - fine).max() <= 1e-8

    def test_preserves_constant_function(self):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0).family()
        path = integrate_gauge(fam, 0.05, 16)
        ones = np.ones(9)
        assert np.abs(path.psi @ ones - ones).max() <= 1e-9
        assert np.abs(path.psi @ path.psi_inv - np.eye(9)).max() <= 1e-12

    @pytest.mark.parametrize("corruption, message", [
        # a multiple of I commutes with every P, so psi still conjugates
        # P0 onto P(eps) but scales the constant function
        ("identity", "transport moved the constant function at node 2"),
        ("rank_one", "transport defect .* at node 2 exceeds"),
    ], ids=["identity", "rank_one"])
    def test_corrupted_generator_fails_at_its_node(self, monkeypatch,
                                                   corruption, message):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0).family()
        calls = []

        def corrupted(p, pp, **kwargs):
            s = gauge_generator(p, pp, **kwargs)
            calls.append(None)
            if len(calls) != 5:         # grid node 2: generators alternate
                return s                # between nodes and midpoints
            if corruption == "identity":
                return s + 1e-3 * np.eye(p.n)
            return s + 1e-2 * np.outer(np.arange(p.n), np.ones(p.n))

        monkeypatch.setattr(perturb, "gauge_generator", corrupted)
        with pytest.raises(NumericalError, match=message):
            integrate_gauge(fam, 0.05, 16)


class TestFirstOrderBlock:
    def test_literal_formula(self):
        rng = np.random.default_rng(2)
        _, _, p0 = single_site()
        tp = rng.standard_normal((3, 3))
        j = reduced_first_order(tp, p0)
        q = p0.complement
        assert np.allclose(j, p0.matrix @ tp @ p0.matrix + q @ tp @ q)

    def test_zero_change(self):
        _, _, p0 = single_site()
        assert np.allclose(reduced_first_order(np.zeros((3, 3)), p0), 0.0)

    def test_identity_projection(self):
        tp = np.arange(9.0).reshape(3, 3)
        assert np.allclose(reduced_first_order(tp, Projection(np.eye(3))), tp)

    def test_worked_block_matrix(self):
        # frozen entrywise reference; the middle entry is the negative of
        # the off-diagonal sums so the rows sum to one
        bp, bm = BETA12
        eps = 0.1
        fam = PcaModel(SiteGraph(1, ()), 0.0, eps,
                       beta_override=BETA12).family()
        p0 = Projection(fam.t0)
        got = block_diagonal_part(fam.at(eps), p0)
        expected = np.array([
            [1 - bm * eps / 2, 0.0, bm * eps / 2],
            [0.5 + bp * eps / 2, -(bp + bm) * eps / 2, 0.5 + bm * eps / 2],
            [bp * eps / 2, 0.0, 1 - bp * eps / 2],
        ])
        assert np.abs(got - expected).max() < 1e-12
        assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-12

    def test_first_order_matches_reduction_derivative(self):
        # d/deps of the transported reduction at 0 equals P T' P + Q T' Q
        fam = PcaModel(SiteGraph(1, ()), 0.0, 0.0,
                       beta_override=BETA12).family()
        p0 = Projection(fam.t0)
        j = reduced_first_order(fam.t0_prime, p0)

        def reduced(eps):
            if eps == 0.0:
                return fam.t0
            path = integrate_gauge(fam, eps, 16)
            return path.psi_inv @ fam.at(eps) @ path.psi

        h = 5e-4
        fd = (4 * reduced(h) - 3 * reduced(0.0) - reduced(2 * h)) / (2 * h)
        assert np.abs(j - fd).max() < 1e-6


class TestSecondOrderTerm:
    def test_worked_double_commutator(self):
        t0, t0p, p0 = single_site(BETA12)
        p0p = derivative(p0, t0, t0p)
        expected = 0.5 * np.array([[-1.0, 0.0, 1.0],
                                   [-1.0, -1.0, 2.0],
                                   [-2.0, 0.0, 2.0]])
        assert np.abs(2.0 * second_order_term(t0, p0p) - expected).max() < 1e-12

    def test_vanishes_for_uniform_rates(self):
        t0, t0p, p0 = single_site((1.0, 1.0))
        p0p = derivative(p0, t0, t0p)
        assert np.abs(second_order_term(t0, p0p)).max() < 1e-12

    def test_zero_tangent(self):
        t0, _, _ = single_site()
        assert np.allclose(second_order_term(t0, np.zeros((3, 3))), 0.0)

    def test_sign_insensitive(self):
        t0, t0p, p0 = single_site(BETA12)
        p0p = derivative(p0, t0, t0p)
        assert np.allclose(second_order_term(t0, p0p),
                           second_order_term(t0, -p0p), atol=1e-14)


class TestReducedBasis:
    def test_frozen_configs_order(self):
        assert frozen_configs(1) == [(0,), (2,)]
        assert frozen_configs(2) == [(0, 0), (2, 0), (0, 2), (2, 2)]

    def test_single_site_basis(self):
        _, _, p0 = single_site()
        b = reduced_basis(p0, 1)
        assert np.allclose(b, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])

    def test_columns_sum_to_one_function(self):
        fam = PcaModel(SiteGraph.path(2), 0.4, 0.0).family()
        b = reduced_basis(Projection(fam.t0), 2)
        assert np.allclose(b.sum(axis=1), np.ones(9), atol=1e-12)


class TestEffectiveOperator:
    def test_uniform_rates_order2(self):
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.1)
        red = effective_operator(model, 0.1, "2")
        assert np.abs(red.matrix - [[0.95, 0.05], [0.05, 0.95]]).max() < 1e-10
        assert red.stochastic

    def test_skewed_rates_order2(self):
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.1, beta_override=BETA12)
        red = effective_operator(model, 0.1, "2")
        expected = np.array([[0.9475, 0.0525], [0.0950, 0.9050]])
        assert np.abs(red.matrix - expected).max() < 1e-10
        assert np.abs(red.matrix - two_state_row(1.0, 2.0, 0.1)).max() < 1e-10

    def test_order1_offdiagonals_are_leading_rates(self):
        bp, bm = BETA12
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.08, beta_override=BETA12)
        red = effective_operator(model, 0.08, "1")
        assert red.matrix[0, 1] == pytest.approx(0.08 * bm / 2, abs=1e-12)
        assert red.matrix[1, 0] == pytest.approx(0.08 * bp / 2, abs=1e-12)

    def test_order2_is_order1_plus_restricted_term(self):
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.1, beta_override=BETA12)
        eps = 0.1
        o1 = effective_operator(model, eps, "1")
        o2 = effective_operator(model, eps, "2")
        fam = model.family()
        p0 = Projection(fam.t0)
        sot = second_order_term(fam.t0, derivative(p0, fam.t0, fam.t0_prime))
        restricted = np.linalg.lstsq(o1.basis, sot @ o1.basis, rcond=None)[0]
        assert np.abs(o2.matrix - (o1.matrix + eps**2 * restricted)).max() < 1e-12

    def test_exact_reduction_is_stochastic(self):
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.1, beta_override=BETA12)
        red = effective_operator(model, 0.1, "exact")
        assert red.row_sum_defect <= 1e-8

    def test_cubic_remainder(self):
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.1, beta_override=BETA12)

        def err(eps):
            exact = effective_operator(model, eps, "exact").matrix
            return np.abs(exact - effective_operator(model, eps, "2").matrix).max()

        ratio = err(0.02) / err(0.04)
        assert 0.1 <= ratio <= 0.2

    def test_bitwise_reproducible(self):
        model = PcaModel(SiteGraph.path(2), 0.3, 0.0)
        a = effective_operator(model, 0.05, "exact", n_steps=16)
        b = effective_operator(model, 0.05, "exact", n_steps=16)
        assert np.array_equal(a.matrix, b.matrix)

    def test_two_site_reduction_rank(self):
        model = PcaModel(SiteGraph.path(2), 0.3, 0.0)
        red = effective_operator(model, 0.05, "2")
        assert red.matrix.shape == (4, 4)
        assert red.row_sum_defect <= 1e-8

    def test_exact_eigenvalues_match_slow_block(self):
        # the transported reduction is a similarity: its spectrum must be
        # the near-1 eigenvalue group of the full operator
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.1, beta_override=BETA12)
        red = effective_operator(model, 0.1, "exact")
        lam_full = np.linalg.eigvals(model.operator(0.1))
        slow = np.sort(lam_full[np.abs(lam_full - 1.0) < 0.5].real)
        got = np.sort(np.linalg.eigvals(red.matrix).real)
        assert np.abs(got - slow).max() < 1e-9

    def test_bad_order_rejected(self):
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.1)
        with pytest.raises(DomainError, match="order"):
            effective_operator(model, 0.1, "3")
