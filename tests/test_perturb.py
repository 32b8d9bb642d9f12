import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochpert import perturb
from stochpert.errors import DomainError, NumericalError
from stochpert.model import PcaModel, SiteGraph, family_at_zero
from stochpert.numerics import Disk, as_square
from stochpert.perturb import (block_diagonal_part, effective_operator,
                               frozen_configs, frozen_rows, reduced_basis,
                               second_order_term, transport_image,
                               two_state_row)
from stochpert.projection import Projection, derivative, spectral_projection

from test_numerics import matched_distance
from test_projection import slow_split_operators

BETA12 = (2.0, 1.0)          # (beta_plus, beta_minus)


def single_site(beta=None):
    t0, t0p = family_at_zero(SiteGraph(1, ()), 0.0, beta)
    p0 = Projection(t0)
    return t0, t0p, p0


def commutator_identity_defect(t, tp, p: Projection, pp) -> float:
    """Residual of the linearized invariance equation,
    ``|| [T, P'] - [P, T'] ||_F``; vanishes for the exact tangent ``P'``."""
    t = as_square(t, "T")
    tp = as_square(tp, "T'")
    pp = as_square(pp, "P'")
    pm = p.matrix
    lhs = t @ pp - pp @ t
    rhs = pm @ tp - tp @ pm
    return float(np.linalg.norm(lhs - rhs, "fro"))


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


def frozen_frame(model):
    """The family, ``P0``, and the frame ``(B, Y0)`` the exact reduction
    starts from: the frozen basis and the selection of the frozen rows."""
    fam = model.family()
    p0 = Projection(fam.t0)
    y0 = np.eye(p0.n)[frozen_rows(model.n_sites)]
    return fam, p0, reduced_basis(p0, model.n_sites), y0


def transport(model, eps, n_steps):
    fam, p0, b, y0 = frozen_frame(model)
    return transport_image(p0, b, y0, fam, eps, n_steps)


class TestIntegrateGauge:
    """The gauge integrated on the image only: :func:`transport_image`."""

    def test_zero_target_is_identity(self):
        model = PcaModel(SiteGraph.path(2), 0.3, 0.0)
        fam, p0, b, y0 = frozen_frame(model)
        x, y, t = transport_image(p0, b, y0, fam, 0.0)
        assert np.array_equal(x, b) and np.array_equal(y, y0)
        assert np.array_equal(t, fam.t0)
        assert np.array_equal(y0 @ b, np.eye(4))
        assert np.array_equal(y0 @ p0.matrix, y0)

    def test_conjugation_against_eigendecomposition(self):
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.0)
        x, y, t = transport(model, 0.05, 16)
        assert np.array_equal(t, model.operator(0.05))
        lam, v = np.linalg.eig(t)
        sel = np.abs(lam - 1.0) < 0.5
        exact = (v[:, sel] @ np.linalg.inv(v)[sel, :]).real
        assert np.abs(x @ y - exact).max() <= 1e-7

    def test_fourth_order_step_halving(self):
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.0, beta_override=BETA12)
        coarse = transport(model, 0.08, 32)[0]
        fine = transport(model, 0.08, 64)[0]
        assert np.abs(coarse - fine).max() <= 1e-8

    def test_preserves_constant_function(self):
        x, y, _ = transport(PcaModel(SiteGraph.path(2), 0.3, 0.0), 0.05, 16)
        assert np.abs(x @ np.ones(4) - np.ones(9)).max() <= 1e-9
        assert np.abs(y @ x - np.eye(4)).max() <= 1e-12

    @pytest.mark.parametrize("corruption, message", [
        # a rank-one term from the image into the kernel moves X out of the
        # image of P and leaves Y alone
        ("rank_one", r"\(\|PX - X\|\) at node 2 of 16 exceeds"),
        # a term whose rows annihilate the image, 1 (1^T Q), leaves X alone
        # but moves Y off the rows of P
        ("coimage", r"\(\|YP - Y\|\) at node 2 of 16 exceeds"),
        # a multiple of I keeps both in place but rescales them
        ("scaled_identity", r"\(\|YX - I\|\) at node 2 of 16 exceeds"),
        # a small multiple of I: YX - I stays below its 1e-8 and only the
        # constant function, checked to 1e-9, shows it
        ("identity", "transport moved the constant function at node 2 of "
                     "16"),
    ], ids=["rank_one", "coimage", "scaled_identity", "identity"])
    def test_corrupted_generator_fails_at_its_node(self, monkeypatch,
                                                   corruption, message):
        terms = {
            "rank_one": lambda pm: 1e-2 * (np.eye(9) - pm) @ np.outer(
                np.arange(9), np.ones(9)) @ pm,
            "coimage": lambda pm: 1e-2 * np.ones((9, 9)) @ (np.eye(9) - pm),
            "scaled_identity": lambda pm: 1e-3 * np.eye(9),
            "identity": lambda pm: 6e-6 * np.eye(9),
        }
        continued = perturb.continue_projection

        def corrupted(p0, family, eps, n, *, consume, **kwargs):
            def nodes_with_corruption(nodes):
                for k, (e, proj, tangent, t) in enumerate(nodes):
                    if k == 4:      # grid node 2: nodes alternate with
                        tangent = tangent + terms[corruption](proj.matrix)
                    yield e, proj, tangent, t       # midpoints
            return continued(p0, family, eps, n, **kwargs,
                             consume=lambda nodes: consume(
                                 nodes_with_corruption(nodes)))

        monkeypatch.setattr(perturb, "continue_projection", corrupted)
        with pytest.raises(NumericalError, match=message):
            transport(PcaModel(SiteGraph.path(2), 0.3, 0.0), 0.05, 16)


@settings(max_examples=40, deadline=None)
@given(slow_split_operators(max_sites=3), st.sampled_from([32, 64]))
def test_transported_frame_spans_the_slow_block(case, n_steps):
    """The reduced matrix is similar to the slow block of T(eps), and the
    frame spans it.  The step counts keep the RK4 error of ``X Y`` under
    1e-9 across the draws: at 16 steps it reaches 2.6e-9 near 30% of the
    rate cap, and at 8 steps the per-node checks refuse some draws there
    (defects 1.0e-8 to 1.7e-8)."""
    mdl, t, radius = case
    fam, p0, b, y0 = frozen_frame(mdl)
    x, y, t_end = transport_image(p0, b, y0, fam, mdl.epsilon, n_steps)
    assert np.array_equal(t_end, t)
    m = y @ t @ x
    lam = np.linalg.eigvals(t)
    slow = lam[np.abs(lam - 1.0) < radius]
    assert matched_distance(np.linalg.eigvals(m), slow) <= 1e-8
    exact = spectral_projection(t, Disk(1.0, radius)).matrix
    assert np.abs(x @ y - exact).max() <= 1e-9
    assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12


class TestFirstOrderBlock:
    def test_literal_formula(self):
        rng = np.random.default_rng(2)
        _, _, p0 = single_site()
        tp = rng.standard_normal((3, 3))
        j = block_diagonal_part(tp, p0)
        q = p0.complement
        assert np.allclose(j, p0.matrix @ tp @ p0.matrix + q @ tp @ q)

    def test_zero_change(self):
        _, _, p0 = single_site()
        assert np.allclose(block_diagonal_part(np.zeros((3, 3)), p0), 0.0)

    def test_identity_projection(self):
        tp = np.arange(9.0).reshape(3, 3)
        assert np.allclose(block_diagonal_part(tp, Projection(np.eye(3))), tp)

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
        # d/deps of the transported reduction Y T X at 0 is Y0 T' B, the
        # first-order block P T' P + Q T' Q read through the frozen rows
        model = PcaModel(SiteGraph(1, ()), 0.0, 0.0, beta_override=BETA12)
        fam, p0, b, y0 = frozen_frame(model)
        j = y0 @ fam.t0_prime @ b
        assert np.abs(j - y0 @ block_diagonal_part(fam.t0_prime, p0) @ b
                      ).max() < 1e-15

        def reduced(eps):
            x, y, t = transport_image(p0, b, y0, fam, eps, 16)
            return y @ t @ x

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
