import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import stochpert.projection as projection_module
from stochpert.errors import DomainError, NumericalError
from stochpert.model import PcaModel, PerturbationFamily, SiteGraph, \
    family_at_zero
from stochpert.numerics import Disk
from stochpert.perturb import effective_operator
from stochpert.projection import (Projection, _rank_basis,
                                  continue_projection, derivative, gap_report,
                                  phi, spectral_projection, tangent_split)

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


def slow_radius(t, n_sites):
    """Radius about 1 midway between the 2^N-th and the next distance of
    the eigenvalues of ``t`` from 1."""
    dist = np.sort(np.abs(np.linalg.eigvals(t) - 1.0))
    return 0.5 * (dist[2 ** n_sites - 1] + dist[2 ** n_sites])


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
    return mdl, t, slow_radius(t, n)


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
            # the same linearized equation, solved in the node's Schur
            # frame instead of the projection's QR frame
            ref = derivative(proj, fam.at(grid[k]), fam.derivative(grid[k]))
            assert (np.abs(tangent - ref).max()
                    <= 1e-13 * np.abs(ref).max())

    def test_collapsed_gap_raises_domain_error_at_once(self):
        # the gap of 1e-10 is below tols.cluster from the start: a domain
        # error at node 0
        t = np.diag([1.0, 1.0 - 1e-10])
        fam = PerturbationFamily(lambda e: t, lambda e: np.zeros((2, 2)), t,
                                 np.zeros((2, 2)))
        with pytest.raises(DomainError, match="gap"):
            continue_projection(Projection(np.diag([1.0, 0.0])), fam, 0.1, 4)

    def test_selection_other_than_the_rank_raises_naming_eps(self):
        # in one step the kernel eigenvalue moves from 0 to 0.6, nearer the
        # image block's 1 than its own 0
        t0 = np.diag([1.0, 0.0])
        tp = np.diag([0.0, 2.0])
        fam = PerturbationFamily(lambda e: t0 + e * tp, lambda e: tp, t0, tp)
        with pytest.raises(DomainError, match="2 eigenvalues .* at eps=0.3,"):
            continue_projection(Projection(t0), fam, 0.3, 1)
        # in steps of 0.15 it is followed
        res = continue_projection(Projection(t0), fam, 0.3, 4)
        assert np.array_equal(res.projection.matrix, t0)

    def test_one_long_step_follows_the_slow_block(self):
        # three independent sites, one step to a quarter of the rate cap:
        # the slowest image eigenvalue ends at 0.42, nearer the kernel's 0
        # than the image's 1 at eps = 0, so the image spectrum is predicted
        # at the new eps rather than carried over
        fam = PcaModel(SiteGraph(3, ()), 0.0, 0.0).family()
        res = continue_projection(Projection(fam.t0), fam, 0.25, 1)
        t = fam.at(0.25)
        exact = spectral_projection(t, Disk(1.0, slow_radius(t, 3)))
        assert np.abs(res.projection.matrix - exact.matrix).max() <= 1e-10

    def test_an_exact_reduction_builds_one_frame_and_one_schur_per_node(
            self, monkeypatch):
        frames, schurs = [], []

        def counted(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(args[0].shape)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(projection_module, "_frame_of",
                            counted(frames, projection_module._frame_of))
        monkeypatch.setattr(projection_module, "_schur",
                            counted(schurs, projection_module._schur))
        mdl = PcaModel(SiteGraph.path(2), 0.2, 0.05)
        effective_operator(mdl, 0.05, "exact", n_steps=4)
        # p0's frame only; one Schur form of T per half-step node after 0
        assert frames == [(9, 9)]
        assert schurs == [(9, 9)] * 8

    def test_gap_report_of_a_node_is_that_of_its_matrix(self):
        # the node's frame is the QR frame of its own matrix, so the
        # reported separation does not depend on how the node was found
        fam = PcaModel(SiteGraph.path(3), 0.2, 0.0).family()
        res = continue_projection(Projection(fam.t0), fam, 0.05, 4)
        for proj, t in zip(res.projections, res.operators):
            rep = gap_report(t, proj)
            ref = gap_report(t, Projection(proj.matrix))
            assert abs(rep.gap - ref.gap) <= 1e-12
            assert abs(rep.sep - ref.sep) <= 1e-12
            for lam, lam_ref in ((rep.eigenvalues_image,
                                  ref.eigenvalues_image),
                                 (rep.eigenvalues_kernel,
                                  ref.eigenvalues_kernel)):
                assert np.abs(np.sort_complex(lam)
                              - np.sort_complex(lam_ref)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(slow_split_operators(max_sites=3), st.integers(1, 8))
def test_continuation_reaches_the_slow_block(case, n_steps):
    mdl, t, radius = case
    fam = mdl.family()
    res = continue_projection(Projection(fam.t0), fam, mdl.epsilon, n_steps)
    exact = spectral_projection(t, Disk(1.0, radius))
    assert np.abs(res.projection.matrix - exact.matrix).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(slow_split_operators(max_sites=3), st.integers(1, 8))
def test_nodes_match_the_eigendecomposition(case, n_steps):
    # P and P' at every node after 0 against an oracle that shares no code
    # with the Schur route: the eigendecomposition of T, and a central
    # difference of it for P'
    mdl, _, _ = case
    fam = mdl.family()
    n = mdl.n_sites
    res = continue_projection(Projection(fam.t0), fam, mdl.epsilon, n_steps)
    for pt, proj, tangent, t in list(zip(res.path, res.projections,
                                         res.tangents, res.operators))[1:]:
        radius = slow_radius(t, n)
        assert np.abs(proj.matrix - exact_projection(t, radius)).max() <= 1e-9
        h = min(1e-4, 0.5 * pt.eps)
        fd = (exact_projection(fam.at(pt.eps + h), radius)
              - exact_projection(fam.at(pt.eps - h), radius)) / (2.0 * h)
        assert np.abs(tangent - fd).max() <= 1e-5 * max(1.0,
                                                        np.abs(fd).max())


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
