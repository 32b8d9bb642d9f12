import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import stochpert.projection as projection_module
from stochpert.errors import DomainError, NumericalError
from stochpert.model import PcaModel, PerturbationFamily, SiteGraph, \
    family_at_zero
from stochpert.numerics import DEFAULT_TOLS, Disk
from stochpert.projection import (Projection, _newton_correct, _rank_basis,
                                  continue_projection, derivative, gap_report,
                                  phi, retract, spectral_projection,
                                  tangent_split)

T0_1SITE = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])


def exact_projection(t, radius=0.5):
    """Eigendecomposition oracle for the near-1 spectral projection."""
    lam, v = np.linalg.eig(t)
    sel = np.abs(lam - 1.0) < radius
    return (v[:, sel] @ np.linalg.inv(v)[sel, :]).real


class TestPhiAndRetract:
    def test_idempotent_is_a_zero(self):
        assert np.allclose(phi(T0_1SITE), 0.0, atol=1e-15)

    def test_half_identity(self):
        assert np.allclose(phi(0.5 * np.eye(2)), -0.25 * np.eye(2))

    def test_retraction_contracts_quadratically(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            e = rng.standard_normal((3, 3))
            p = T0_1SITE + 0.02 * e / np.linalg.norm(e)
            r0 = np.linalg.norm(phi(p), "fro")
            r1 = np.linalg.norm(phi(retract(p)), "fro")
            assert r0 <= 0.1
            assert r1 <= 10.0 * r0 ** 2


class TestRankBasis:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 8), data=st.data(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_spans_what_scipy_pivoted_qr_spans(self, n, data, seed):
        # an oblique projection of every rank 0..n and its complement, the
        # matrices the frames are built from
        rank = data.draw(st.integers(0, n))
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        p = w @ np.diag([1.0] * rank + [0.0] * (n - rank)) @ np.linalg.inv(w)
        for mat, r in ((p, rank), (np.eye(n) - p, n - rank)):
            basis = _rank_basis(mat, r)
            ref = scipy.linalg.qr(mat, mode="economic", pivoting=True)[0]
            assert basis.shape == (n, r)
            assert np.abs(basis.T @ basis - np.eye(r)).max(initial=0.0) \
                <= 1e-12
            assert np.abs(basis @ basis.T - ref[:, :r] @ ref[:, :r].T).max() \
                <= 1e-12


class TestProjectionType:
    def test_caches_rank_and_bases(self):
        p = Projection(T0_1SITE)
        assert p.rank == 2
        assert p.image_basis.shape == (3, 2)
        assert p.kernel_basis.shape == (3, 1)
        assert p.submanifold == "fixes_one"

    def test_rejects_non_idempotent(self):
        with pytest.raises(DomainError, match="idempotent"):
            Projection(0.5 * np.eye(2))

    def test_complement_flag(self):
        q = np.eye(3) - T0_1SITE
        assert Projection(q).submanifold == "kills_one"

    def test_frame_roundtrip(self):
        p = Projection(T0_1SITE)
        rng = np.random.default_rng(0)
        op = rng.standard_normal((3, 3))
        assert np.allclose(p.frame.from_frame(p.frame.to_frame(op)), op,
                           atol=1e-12)


class TestSpectralProjection:
    def test_idempotent_operator_is_its_own_projection(self):
        p = spectral_projection(T0_1SITE, Disk(1.0, 0.5))
        assert np.abs(p.matrix - T0_1SITE).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank_counts(self, n):
        t0 = PcaModel(SiteGraph.path(n), 0.3, 0.0).operator(0.0)
        p = spectral_projection(t0, Disk(1.0, 0.5))
        assert p.rank == 2 ** n

    def test_whole_spectrum_gives_identity(self):
        t = np.array([[0.3, 0.7], [0.6, 0.4]])
        p = spectral_projection(t, Disk(0.0, 100.0))
        assert np.allclose(p.matrix, np.eye(2), atol=1e-12)

    def test_matches_eigendecomposition(self):
        t = PcaModel(SiteGraph.path(2), 0.2, 0.07).operator()
        p = spectral_projection(t, Disk(1.0, 0.5))
        assert np.abs(p.matrix - exact_projection(t)).max() < 1e-10

    def test_boundary_eigenvalue_rejected(self):
        with pytest.raises(DomainError, match="boundary"):
            spectral_projection(np.diag([0.5, 0.0]), Disk(1.0, 0.5))

    def test_boundary_conjugate_pair_rejected(self):
        # 1 +/- 0.5i lie on the circle of radius 0.5 about 1
        a = np.array([[1.0, -0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match="boundary"):
            spectral_projection(a, Disk(1.0, 0.5))

    def test_idempotent_range_and_kernel_invariant(self):
        # the transpose of the one-site T0: an idempotent with other
        # invariant subspaces
        p0 = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]).T
        p = spectral_projection(p0, Disk(1.0, 0.5))
        assert p.rank == 2
        assert np.abs(p.matrix @ p.matrix - p.matrix).max() < 1e-12
        assert np.abs(p.matrix @ p0 - p0 @ p.matrix).max() < 1e-12
        assert np.abs(p.matrix - p0).max() < 1e-12

    def test_diagonal(self):
        p = spectral_projection(np.diag([1.0, 0.0]), Disk(1.0, 0.5))
        assert p.rank == 1
        assert np.abs(p.matrix - np.diag([1.0, 0.0])).max() < 1e-15

    def test_clustered_spectrum(self):
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = q @ np.diag([1.0 + 1e-3, 1.0 - 1e-3, 1e-3, -1e-3]) @ q.T
        p = spectral_projection(a, Disk(1.0, 0.5))
        assert p.rank == 2
        assert np.abs(p.matrix - q[:, :2] @ q[:, :2].T).max() < 1e-12
        assert np.linalg.norm(p.matrix @ a - a @ p.matrix) < 1e-12

    def test_defective_matrix(self):
        # a Jordan block at 1 plus an eigenvalue at 0
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.2, 0.0]])
        p = spectral_projection(a, Disk(1.0, 0.5))
        assert p.rank == 2
        assert np.abs(phi(p.matrix)).max() < 1e-12
        assert np.abs(p.matrix @ a - a @ p.matrix).max() < 1e-12

    def test_whole_and_empty_regions(self):
        a = np.diag([1.0, 2.0])
        everything = spectral_projection(a, Disk(1.5, 10.0))
        assert everything.rank == 2
        assert np.abs(everything.matrix - np.eye(2)).max() < 1e-15
        nothing = spectral_projection(a, Disk(50.0, 1.0))
        assert nothing.rank == 0
        assert not nothing.matrix.any()

    def test_split_conjugate_pair_rejected(self):
        # the disk about i holds i but not -i; gees selects the pair
        a = np.array([[0.5, -1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 0.1]])
        with pytest.raises(NumericalError, match="split a conjugate pair"):
            spectral_projection(a, Disk(0.5 + 1j, 0.5))

    def test_non_disk_region_rejected(self):
        with pytest.raises(DomainError, match="region must be a Disk"):
            spectral_projection(np.diag([2.0, -1.0]), lambda z: z.real > 0)


@st.composite
def slow_split_operators(draw, max_sites=4):
    """A random model on at most ``max_sites`` sites, count-driven or with
    fixed rates, its T(eps), and the radius about 1 midway between the
    2^N-th and the next distance of its eigenvalues from 1 (the
    benchmark's placement).

    eps is 0 or 1-30% of the largest admissible value.  Much closer to 0
    the slow eigenvalues crowd within about eps of 1 and the
    eigendecomposition oracle loses digits (its own |[P, T]| reaches 6e-8
    at 7e-5 of the cap); from about 40% the 2^N-th and the next distance
    can tie, and then no disk about 1 holds exactly the slow block."""
    n = draw(st.integers(1, max_sites))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.none() | st.tuples(st.floats(0.1, 3.0),
                                      st.floats(0.1, 3.0)))
    graph = SiteGraph(n, tuple(edges))
    cap = (1.0 / (1.0 + alpha * graph.max_degree) if beta is None
           else 1.0 / max(beta))
    eps = draw(st.just(0.0) | st.floats(0.01, 0.3)) * cap
    mdl = PcaModel(graph, alpha, eps, beta)
    t = mdl.operator(eps)
    dist = np.sort(np.abs(np.linalg.eigvals(t) - 1.0))
    return mdl, t, 0.5 * (dist[2 ** n - 1] + dist[2 ** n])


@settings(max_examples=60, deadline=None)
@given(slow_split_operators())
def test_spectral_projection_of_the_slow_block(case):
    mdl, t, radius = case
    n = mdl.n_sites
    p = spectral_projection(t, Disk(1.0, radius))
    assert p.rank == 2 ** n
    assert p.submanifold == "fixes_one"
    assert np.abs(phi(p.matrix)).max() <= 1e-12
    assert np.abs(p.matrix @ t - t @ p.matrix).max() <= 1e-12
    assert np.abs(p.matrix - exact_projection(t, radius)).max() <= 1e-10


class TestTangentSplit:
    def setup_method(self):
        self.p = Projection(T0_1SITE)
        self.rng = np.random.default_rng(5)

    def test_parts_sum_back(self):
        pi = self.rng.standard_normal((3, 3))
        tangent, normal = tangent_split(self.p, pi)
        assert np.abs(tangent + normal - pi).max() < 1e-12

    def test_tangent_part_satisfies_tangency(self):
        pi = self.rng.standard_normal((3, 3))
        tangent, _ = tangent_split(self.p, pi)
        pm = self.p.matrix
        assert np.abs(pm @ tangent + tangent @ pm - tangent).max() < 1e-10

    def test_diagonal_operator_has_no_tangent_part(self):
        # anything commuting with P is purely normal
        tangent, normal = tangent_split(self.p, T0_1SITE)
        assert np.abs(tangent).max() < 1e-12
        assert np.abs(normal - T0_1SITE).max() < 1e-12

    def test_tangent_input_has_no_normal_part(self):
        pi = self.rng.standard_normal((3, 3))
        tangent, _ = tangent_split(self.p, pi)
        tangent2, normal2 = tangent_split(self.p, tangent)
        assert np.abs(normal2).max() < 1e-12
        assert np.abs(tangent2 - tangent).max() < 1e-12


class TestDerivative:
    def test_zero_change(self):
        p = Projection(T0_1SITE)
        assert np.allclose(derivative(p, T0_1SITE, np.zeros((3, 3))), 0.0,
                           atol=1e-14)

    def test_single_site_uniform_rates(self):
        t0, t0p = family_at_zero(SiteGraph(1, ()), 0.0)
        pp = derivative(Projection(t0), t0, t0p)
        expected = np.array([[-0.5, 1.0, -0.5]] * 3)
        assert np.abs(pp - expected).max() < 1e-12

    def test_single_site_skewed_rates(self):
        t0, t0p = family_at_zero(SiteGraph(1, ()), 0.0, (2.0, 1.0))
        pp = derivative(Projection(t0), t0, t0p)
        expected = np.array([[-0.5, 1.0, -0.5],
                             [-1.0, 1.5, -0.5],
                             [-1.0, 2.0, -1.0]])
        assert np.abs(pp - expected).max() < 1e-12

    @pytest.mark.parametrize("n,alpha", [(1, 0.0), (2, 0.3)])
    def test_matches_finite_differences_of_exact_projections(self, n, alpha):
        # one-sided second-order stencil (the family needs eps >= 0); the
        # step balances truncation against eigensolver noise amplification
        fam = PcaModel(SiteGraph.path(n), alpha, 0.0).family()
        pp = derivative(Projection(fam.t0), fam.t0, fam.t0_prime)
        h = 1e-4
        fd = (4 * exact_projection(fam.at(h))
              - 3 * exact_projection(fam.at(0.0))
              - exact_projection(fam.at(2 * h))) / (2 * h)
        assert np.abs(pp - fd).max() < 1e-6

    def test_interior_point_central_difference(self):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0).family()
        eps, h = 0.05, 1e-5
        p_eps = Projection(exact_projection(fam.at(eps)), idem_tol=1e-9)
        pp = derivative(p_eps, fam.at(eps), fam.derivative(eps))
        fd = (exact_projection(fam.at(eps + h))
              - exact_projection(fam.at(eps - h))) / (2 * h)
        assert np.abs(pp - fd).max() < 1e-6

    def test_kills_constant_function(self):
        fam = PcaModel(SiteGraph.path(2), 0.4, 0.0).family()
        pp = derivative(Projection(fam.t0), fam.t0, fam.t0_prime)
        assert np.abs(pp @ np.ones(9)).max() < 1e-10

    def test_linearized_equation_residual(self):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0).family()
        p = Projection(fam.t0)
        pp = derivative(p, fam.t0, fam.t0_prime)
        resid = (pp @ fam.t0 - fam.t0 @ pp) \
            + (p.matrix @ fam.t0_prime - fam.t0_prime @ p.matrix)
        assert np.linalg.norm(resid, "fro") < 1e-9

    def test_gap_collapse_error(self):
        t = np.diag([1.0, 1.0 - 1e-10])
        p = Projection(np.diag([1.0, 0.0]))
        with pytest.raises(DomainError, match="gap"):
            derivative(p, t, np.array([[0.0, 1.0], [1.0, 0.0]]))


def constant_family(t0):
    zero = np.zeros_like(t0)
    return PerturbationFamily(lambda e: t0, lambda e: zero, t0, zero)


def recording_corrector(iters, fail=()):
    """``_newton_correct`` that appends each call's Newton step count to
    ``iters`` (``None`` for a call that raised); the calls numbered in
    ``fail`` (from 0) raise :class:`NumericalError` without running."""
    correct = projection_module._newton_correct

    def corrector(*args, **kwargs):
        if len(iters) in fail:
            iters.append(None)
            raise NumericalError("forced corrector failure")
        try:
            out = correct(*args, **kwargs)
        except NumericalError:
            iters.append(None)
            raise
        iters.append(out[3])
        return out
    return corrector


class TestHermitePredictor:
    @pytest.mark.parametrize("h,step", [(0.1, 0.1), (0.05, 0.1),
                                        (0.1, 0.05)])
    def test_exact_on_cubics(self, h, step):
        # matrix-valued cubic; equal spacing, and both unequal ones
        rng = np.random.default_rng(7)
        c = rng.standard_normal((4, 3, 3))

        def p(e):
            return c[0] + e * (c[1] + e * (c[2] + e * c[3]))

        def dp(e):
            return c[1] + e * (2.0 * c[2] + 3.0 * e * c[3])

        e0 = 0.2
        e1 = e0 + h
        guess = projection_module._hermite((e0, p(e0), dp(e0)),
                                           (e1, p(e1), dp(e1)), step)
        assert np.abs(guess - p(e1 + step)).max() <= 1e-13


class TestContinuation:
    def test_constant_family_is_stationary(self):
        fam = constant_family(T0_1SITE)
        res = continue_projection(Projection(T0_1SITE), fam, 0.3, 5)
        assert np.abs(res.projection.matrix - T0_1SITE).max() < 1e-12
        assert len(res.path) == 6

    def test_single_site_against_oracle(self):
        fam = PcaModel(SiteGraph(1, ()), 0.0, 0.0).family()
        res = continue_projection(Projection(fam.t0), fam, 0.05, 4)
        exact = exact_projection(fam.at(0.05))
        assert np.linalg.norm(res.projection.matrix - exact, "fro") <= 1e-8

    def test_two_site_against_oracle(self):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0).family()
        res = continue_projection(Projection(fam.t0), fam, 0.05, 4)
        exact = exact_projection(fam.at(0.05))
        assert np.linalg.norm(res.projection.matrix - exact, "fro") <= 1e-7
        assert all(pt.rank == 4 for pt in res.path)

    def test_residuals_at_every_accepted_step(self):
        fam = PcaModel(SiteGraph.path(2), 0.2, 0.0).family()
        res = continue_projection(Projection(fam.t0), fam, 0.1, 8)
        for pt in res.path:
            assert pt.phi_residual <= 1e-11
            assert pt.comm_residual <= 1e-11

    def test_path_on_uniform_grid(self):
        fam = PcaModel(SiteGraph(1, ()), 0.0, 0.0).family()
        res = continue_projection(Projection(fam.t0), fam, 0.08, 4)
        assert np.allclose([pt.eps for pt in res.path],
                           np.linspace(0.0, 0.08, 5))
        assert len(res.projections) == 5

    def test_constant_function_constraint_held(self):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0).family()
        res = continue_projection(Projection(fam.t0), fam, 0.1, 8)
        ones = np.ones(9)
        assert np.abs(res.projection.matrix @ ones - ones).max() < 1e-11

    def test_corrector_converges_quadratically(self):
        # one Euler step from eps = 0; a linearly converging corrector
        # needs tens of iterations here
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0, (1.7, 1.0)).family()
        p0 = Projection(fam.t0)
        pred = p0.matrix + 0.05 * derivative(p0, fam.t0, fam.t0_prime)
        _, phi_r, comm_r, iters = _newton_correct(pred, fam.at(0.05), p0.rank,
                                                  DEFAULT_TOLS)
        assert iters <= 6
        assert max(phi_r, comm_r) <= DEFAULT_TOLS.solve

    def test_converged_input_builds_no_frame(self, monkeypatch):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0, (1.7, 1.0)).family()
        p0 = Projection(fam.t0)
        pred = p0.matrix + 0.05 * derivative(p0, fam.t0, fam.t0_prime)
        frames = []

        def counted(p, rank):
            frames.append(rank)
            return frame_of(p, rank)

        frame_of = projection_module._frame_of
        monkeypatch.setattr(projection_module, "_frame_of", counted)
        _, _, _, iters = _newton_correct(p0.matrix, fam.t0, p0.rank,
                                         DEFAULT_TOLS)
        assert iters == 0 and frames == []
        # otherwise one frame per Newton iteration, none for the final test
        _, _, _, iters = _newton_correct(pred, fam.at(0.05), p0.rank,
                                         DEFAULT_TOLS)
        assert iters >= 1 and len(frames) == iters

    def test_one_operator_per_attempted_node(self):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0).family()
        calls = []

        def at(eps):
            calls.append(eps)
            return fam.at(eps)

        counted = dataclasses.replace(fam, at=at)
        res = continue_projection(Projection(fam.t0), counted, 0.08, 4)
        # no step was halved: one evaluation per grid node, on the node
        assert calls == list(np.linspace(0.0, 0.08, 5))
        assert len(res.path) == 5

    def test_consume_sees_the_nodes_as_they_are_reached(self):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0).family()
        calls = []

        def at(eps):
            calls.append(eps)
            return fam.at(eps)

        counted = dataclasses.replace(fam, at=at)
        first_two = continue_projection(
            Projection(fam.t0), counted, 0.08, 4,
            consume=lambda nodes: list(itertools.islice(nodes, 2)))
        assert len(calls) == 2
        res = continue_projection(Projection(fam.t0), fam, 0.08, 4)
        for (eps, proj, tangent, t), pt, proj_ref, tangent_ref in zip(
                first_two, res.path, res.projections, res.tangents):
            assert eps == pt.eps
            assert np.array_equal(t, fam.at(eps))
            assert np.array_equal(proj.matrix, proj_ref.matrix)
            assert np.array_equal(tangent, tangent_ref)

    def test_zero_target(self):
        fam = constant_family(T0_1SITE)
        res = continue_projection(Projection(T0_1SITE), fam, 0.0, 4)
        assert len(res.path) == 1
        assert len(res.tangents) == 1

    @pytest.mark.parametrize("n,alpha,eps,steps", [
        (1, 0.0, 0.1, 4), (2, 0.3, 0.08, 5), (3, 0.2, 0.05, 3)])
    def test_tangents_are_the_derivatives_at_the_grid_nodes(self, n, alpha,
                                                            eps, steps):
        fam = PcaModel(SiteGraph.path(n), alpha, 0.0).family()
        res = continue_projection(Projection(fam.t0), fam, eps, steps)
        grid = np.linspace(0.0, eps, steps + 1)
        assert [pt.eps for pt in res.path] == list(grid)
        assert len(res.tangents) == len(res.projections) == steps + 1
        for k, (proj, tangent) in enumerate(zip(res.projections,
                                                res.tangents)):
            assert np.array_equal(tangent, derivative(
                proj, fam.at(grid[k]), fam.derivative(grid[k])))

    def test_one_newton_step_per_node_after_the_first(self, monkeypatch):
        # the first node is predicted by an Euler step, the later ones by
        # cubic Hermite extrapolation; each predictor is retracted onto the
        # projections before the first Newton step
        iters = []
        monkeypatch.setattr(projection_module, "_newton_correct",
                            recording_corrector(iters))
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0, (1.7, 1.0)).family()
        continue_projection(Projection(fam.t0), fam, 0.2, 32)
        assert len(iters) == 32
        assert iters[0] <= 2
        assert iters[1:] == [1] * 31

    def test_halved_step_extrapolates_with_unequal_spacing(self,
                                                           monkeypatch):
        fam = PcaModel(SiteGraph.path(2), 0.3, 0.0, (1.7, 1.0)).family()
        ref = continue_projection(Projection(fam.t0), fam, 0.08, 8)
        calls, spacings, iters = [], [], []

        def at(eps):
            calls.append(eps)
            return fam.at(eps)

        def hermite(prev, last, step):
            spacings.append((last[0] - prev[0], step))
            return extrapolate(prev, last, step)

        extrapolate = projection_module._hermite
        monkeypatch.setattr(projection_module, "_hermite", hermite)
        # the first attempt at the fourth node fails
        monkeypatch.setattr(projection_module, "_newton_correct",
                            recording_corrector(iters, fail={3}))
        res = continue_projection(Projection(fam.t0),
                                  dataclasses.replace(fam, at=at), 0.08, 8)
        grid = np.linspace(0.0, 0.08, 9)
        half = grid[3] + 0.5 * (grid[4] - grid[3])
        assert calls == [*grid[:5], half, *grid[4:]]
        assert iters[3] is None and None not in iters[4:]
        # the failed attempt, the half step, then spacing h/2 with the
        # steps h/2 and h
        h = grid[1]
        assert np.allclose(spacings[2:6], [(h, h), (h, h / 2),
                                           (h / 2, h / 2), (h / 2, h)],
                           rtol=1e-12, atol=0.0)
        assert [pt.eps for pt in res.path] == list(grid)
        assert np.abs(res.projection.matrix
                      - ref.projection.matrix).max() <= 1e-11

    def test_collapsed_gap_raises_domain_error_at_once(self):
        # the gap of 1e-10 is below tols.cluster from the start: a domain
        # error, not a step-halving retry ending in "stalled"
        t = np.diag([1.0, 1.0 - 1e-10])
        fam = PerturbationFamily(lambda e: t, lambda e: np.zeros((2, 2)), t,
                                 np.zeros((2, 2)))
        with pytest.raises(DomainError, match="gap"):
            continue_projection(Projection(np.diag([1.0, 0.0])), fam, 0.1, 4)


@settings(max_examples=40, deadline=None)
@given(slow_split_operators(max_sites=3), st.integers(1, 8))
def test_continuation_reaches_the_slow_block(case, n_steps):
    mdl, t, radius = case
    fam = mdl.family()
    iters = []
    with mock.patch.object(projection_module, "_newton_correct",
                           recording_corrector(iters)):
        res = continue_projection(Projection(fam.t0), fam, mdl.epsilon,
                                  n_steps)
    exact = spectral_projection(t, Disk(1.0, radius))
    assert np.abs(res.projection.matrix - exact.matrix).max() <= 1e-10
    assert None not in iters
    # the Hermite-predicted nodes take at most 3 Newton steps; the Euler
    # step from 0 takes 4 when one step spans about a fifth of the rate cap
    assert max(iters[1:], default=0) <= 3
    assert max(iters, default=0) <= 4


class TestGapReport:
    def test_zero_eps_unit_gap(self):
        p = Projection(T0_1SITE)
        rep = gap_report(T0_1SITE, p)
        assert np.allclose(sorted(rep.eigenvalues_image.real), [1.0, 1.0])
        assert np.allclose(rep.eigenvalues_kernel.real, [0.0])
        assert rep.gap == pytest.approx(1.0, abs=1e-12)

    def test_small_eps_single_site(self):
        fam = PcaModel(SiteGraph(1, ()), 0.0, 0.0).family()
        t = fam.at(0.1)
        p = Projection(exact_projection(t), idem_tol=1e-9)
        rep = gap_report(t, p)
        assert np.abs(rep.eigenvalues_image - 1.0).max() <= 1.5 * 0.1
        assert rep.gap > 0.5

    def test_identity_projection_has_empty_kernel_block(self):
        rep = gap_report(np.diag([0.3, 0.9]), Projection(np.eye(2)))
        assert rep.gap == np.inf
        assert rep.sep == np.inf

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_uniform_separation_at_zero_eps(self, n):
        t0 = PcaModel(SiteGraph.path(n), 0.3, 0.0).operator(0.0)
        rep = gap_report(t0, Projection(t0))
        assert rep.sep >= 0.9
