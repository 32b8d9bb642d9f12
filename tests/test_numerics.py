import dataclasses

import numpy as np
import pytest
import scipy.optimize
from hypothesis import event, given, settings, strategies as st

from stochpert.errors import DomainError
from stochpert.numerics import (LinearProgram, centrosymmetric_eigvals, expm,
                                lp_solve, lp_solve_many, sylvester_kron_matrix)


def lp(c, A, senses, b, bounds, maximize=True):
    return LinearProgram(np.asarray(c, float), np.asarray(A, float), senses,
                         np.asarray(b, float), bounds, maximize)


class TestLpSolve:
    def test_single_constraint(self):
        res = lp_solve(lp([1.0], [[1.0]], ["<="], [3.0], [(0.0, None)]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-9)

    def test_two_variables(self):
        res = lp_solve(lp([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0],
                          [(0.0, None)] * 2))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        res = lp_solve(lp([1.0], [[1.0], [1.0]], [">=", "<="], [1.0, 0.0],
                          [(None, None)]))
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = lp_solve(lp([1.0], [[0.0]], ["<="], [1.0], [(0.0, None)]))
        assert res.status == "unbounded"

    def test_free_variable_bound_through_equality(self):
        # min x + y with x - y = 2, x >= 0: x >= 0 forces y >= -2
        res = lp_solve(lp([1.0, 1.0], [[1.0, -1.0]], ["="], [2.0],
                          [(0.0, None), (None, 5.0)], maximize=False))
        assert res.status == "optimal"
        assert res.value == pytest.approx(-2.0, abs=1e-9)

    def test_free_variable_unbounded_below(self):
        res = lp_solve(lp([0.0, 1.0], [[1.0, 1.0]], ["<="], [5.0],
                          [(0.0, None), (None, None)], maximize=False))
        assert res.status == "unbounded"

    def test_free_variable_optimal(self):
        # max y with y <= x - 2 and x <= 5, y free
        res = lp_solve(lp([0.0, 1.0], [[-1.0, 1.0], [1.0, 0.0]],
                          ["<=", "<="], [-2.0, 5.0],
                          [(0.0, None), (None, None)]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-9)

    def test_box_bounds(self):
        res = lp_solve(lp([2.0, -1.0], [[1.0, 1.0]], ["<="], [10.0],
                          [(1.0, 4.0), (-2.0, 3.0)]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(2 * 4.0 - 1 * (-2.0), abs=1e-9)
        assert np.all(res.x >= [1.0 - 1e-9, -2.0 - 1e-9])

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_scipy_on_random_programs(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        A = rng.standard_normal((m, n))
        b = rng.uniform(0.5, 2.0, m)
        c = rng.standard_normal(n)
        senses = ["<="] * m
        bounds = [(0.0, float(rng.uniform(1.0, 5.0))) for _ in range(n)]
        mine = lp_solve(lp(c, A, senses, b, bounds))
        ref = scipy.optimize.linprog(-c, A_ub=A, b_ub=b, bounds=bounds,
                                     method="highs")
        assert mine.status == "optimal" and ref.status == 0
        assert mine.value == pytest.approx(-ref.fun, abs=1e-8)
        assert np.all(A @ mine.x <= b + 1e-9)

    @pytest.mark.parametrize("trial", range(10))
    def test_strong_duality(self, trial):
        # max c.x st Ax <= b, x >= 0 and its dual min b.y st A'y >= c, y >= 0
        rng = np.random.default_rng(300 + trial)
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        A = rng.uniform(0.2, 2.0, (m, n))
        b = rng.uniform(1.0, 3.0, m)
        c = rng.uniform(0.1, 1.0, n)
        primal = lp_solve(lp(c, A, ["<="] * m, b, [(0.0, None)] * n))
        dual = lp_solve(lp(b, A.T, [">="] * n, c, [(0.0, None)] * m,
                           maximize=False))
        assert primal.status == dual.status == "optimal"
        assert primal.value == pytest.approx(dual.value, abs=1e-8)

    def test_degenerate_program_terminates(self):
        # many redundant rows; Bland's rule must not cycle
        A = np.vstack([np.eye(3)] * 4)
        res = lp_solve(lp([1.0, 1.0, 1.0], A, ["<="] * 12, np.ones(12) * 2,
                          [(0.0, None)] * 3))
        assert res.value == pytest.approx(6.0, abs=1e-9)


small_ints = st.integers(-3, 3)


@st.composite
def programs_and_objectives(draw):
    """A small integer program with mixed senses and free, lower, upper and
    boxed bounds, plus a list of objectives with a zero objective and an
    unbounded one in the middle.  The last variable is in no constraint and
    only the planted objective rewards it, so that objective is unbounded
    on every feasible program."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    lhs = np.array(draw(st.lists(st.lists(small_ints, min_size=n,
                                          max_size=n),
                                 min_size=m, max_size=m)), float)
    rhs = np.array(draw(st.lists(small_ints, min_size=m, max_size=m)), float)
    senses = draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m,
                           max_size=m))
    bounds = []
    for _ in range(n):
        lo = draw(st.none() | small_ints)
        hi = draw(st.none() | small_ints)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        bounds.append((lo, hi))
    maximize = draw(st.booleans())
    objectives = [draw(st.lists(small_ints, min_size=n, max_size=n)) + [0]
                  for _ in range(draw(st.integers(2, 6)))]
    middle = draw(st.integers(1, len(objectives) - 1))
    objectives.insert(middle, [0] * (n + 1))
    objectives.insert(middle + 1, [0] * n + [1 if maximize else -1])
    lp = LinearProgram(np.zeros(n + 1), np.hstack([lhs, np.zeros((m, 1))]),
                       senses, rhs, bounds + [(0.0, None)], maximize)
    return lp, np.array(objectives, float), middle


class TestLpSolveMany:
    @settings(max_examples=200, deadline=None)
    @given(programs_and_objectives())
    def test_matches_one_solve_per_objective(self, case):
        lp, objectives, middle = case
        many = lp_solve_many(lp, objectives)
        assert len(many) == len(objectives)
        event(many[0].status)
        for objective, got in zip(objectives, many):
            ref = lp_solve(dataclasses.replace(lp, objective=objective))
            assert got.status == ref.status
            if ref.optimal:
                assert abs(got.value - ref.value) <= 1e-9 * max(
                    1.0, abs(ref.value))
        if many[0].status != "infeasible":
            assert many[middle].value == 0.0
            assert many[middle + 1].status == "unbounded"

    def test_infeasible_for_every_objective(self):
        res = lp_solve_many(lp([1.0], [[1.0], [1.0]], [">=", "<="],
                               [1.0, 0.0], [(None, None)]),
                            [[1.0], [-1.0], [0.0]])
        assert [r.status for r in res] == ["infeasible"] * 3

    def test_objective_shape_checked(self):
        prog = lp([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0], [(0.0, None)] * 2)
        with pytest.raises(DomainError, match="objectives of shape"):
            lp_solve_many(prog, [1.0, 1.0])
        with pytest.raises(DomainError, match="finite"):
            lp_solve_many(prog, [[1.0, np.nan]])
        assert lp_solve_many(prog, np.empty((0, 2))) == []


def centrosymmetric(a, b, x, y, c):
    """``[[A, x, B J], [y, c, y J], [J B, J x, J A J]]``, which ``J T J``
    maps to itself."""
    m = a.shape[0]
    t = np.empty((2 * m + 1,) * 2)
    t[:m, :m], t[:m, m], t[:m, m + 1:] = a, x, b[:, ::-1]
    t[m, :m], t[m, m], t[m, m + 1:] = y, c, y[::-1]
    t[m + 1:] = t[m - 1::-1, ::-1] if m else t[:0]
    return t


def matched_distance(got, expected):
    """Largest distance in the best one-to-one matching of two multisets."""
    cost = np.abs(got[:, None] - expected[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return cost[rows, cols].max(initial=0.0)


class TestCentrosymmetricEigvals:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 20), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_same_spectrum_as_eigvals(self, m, seed, scale):
        rng = np.random.default_rng(seed)
        a, b = scale * rng.standard_normal((2, m, m))
        x, y = scale * rng.standard_normal((2, m))
        t = centrosymmetric(a, b, x, y, scale * rng.standard_normal())
        assert np.array_equal(t, t[::-1, ::-1])
        got = centrosymmetric_eigvals(t)
        expected = np.linalg.eigvals(t)
        assert got.shape == expected.shape == (2 * m + 1,)
        assert matched_distance(got, expected) <= 1e-10 * np.linalg.norm(t)

    def test_order_one(self):
        got = centrosymmetric_eigvals(np.array([[0.25]]))
        assert got.tolist() == [0.25]

    def test_stochastic_matrix_keeps_eigenvalue_one_in_the_even_block(self):
        # the even block [[0.75, 0.25], [0.5, 0.5]] is the chain lumped by
        # {x, flip(x)}, itself stochastic; the odd block is A - B = 0.25
        t = centrosymmetric(np.array([[0.5]]), np.array([[0.25]]),
                            np.array([0.25]), np.array([0.25]), 0.5)
        assert np.array_equal(t.sum(axis=1), np.ones(3))
        got = centrosymmetric_eigvals(t)
        assert sorted(got[:2].real) == pytest.approx([0.25, 1.0], abs=1e-15)
        assert got[2] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 2), (4, 4), (3, 5), (3,)])
    def test_even_or_non_square_order_rejected(self, shape):
        with pytest.raises(DomainError, match="odd order"):
            centrosymmetric_eigvals(np.zeros(shape))


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_scalar_one(self):
        assert expm(np.array([[1.0]]))[0, 0] == pytest.approx(np.e, rel=1e-12)

    def test_nilpotent(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(n), [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    @pytest.mark.parametrize("trial", range(5))
    def test_inverse_identity(self, trial):
        rng = np.random.default_rng(40 + trial)
        a = rng.standard_normal((4, 4))
        a *= 5.0 / np.linalg.norm(a, 2)
        assert np.linalg.norm(expm(a) @ expm(-a) - np.eye(4)) < 1e-10


class TestSylvesterKron:
    def test_scalars(self):
        assert np.allclose(sylvester_kron_matrix([[2.0]], [[1.0]]), [[1.0]])

    def test_identity_times_zero(self):
        assert np.allclose(sylvester_kron_matrix(np.eye(2), [[0.0]]), np.eye(2))

    def test_diagonal(self):
        k = sylvester_kron_matrix(np.diag([3.0, 5.0]), [[2.0]])
        assert np.allclose(k, np.diag([1.0, 3.0]))

    def test_vectorization_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2))
        x = rng.standard_normal((3, 2))
        k = sylvester_kron_matrix(a, b)
        lhs = (a @ x - x @ b).flatten(order="F")
        assert np.allclose(k @ x.flatten(order="F"), lhs, atol=1e-12)
