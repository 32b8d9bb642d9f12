import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import stochpert.sylvester as sylvester_module
from stochpert.errors import DomainError, NumericalError
from stochpert.sylvester import (_schur, sep_bound_ct,
                                 sep_bound_discrete, sep_brute, solve_dense,
                                 solve_integral, solve_series)


def rand_sym(rng, n, lo, hi):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def kron_oracle(a, b):
    """Entrywise construction of the matrix of X -> AX - XB on vec(X)
    (column stacking), independent of the library's Kronecker helper."""
    m, n = a.shape[0], b.shape[0]
    k = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            row = j * m + i
            for p in range(m):
                k[row, j * m + p] += a[i, p]
            for q in range(n):
                k[row, q * m + i] -= b[q, j]
    return k


class TestSolveDense:
    def test_scalar(self):
        x = solve_dense([[2.0]], [[1.0]], [[3.0]])
        assert x == pytest.approx(np.array([[3.0]]))

    def test_zero_rhs(self):
        x = solve_dense(np.diag([2.0, 3.0]), np.diag([0.5]), np.zeros((2, 1)))
        assert np.allclose(x, 0.0)

    @pytest.mark.parametrize("trial", range(10))
    def test_random_residuals(self, trial):
        rng = np.random.default_rng(trial)
        a = rand_sym(rng, 4, 2.0, 3.0)
        b = rand_sym(rng, 3, -1.0, 0.5)
        c = rng.standard_normal((4, 3))
        x = solve_dense(a, b, c)
        resid = np.linalg.norm(a @ x - x @ b - c, "fro")
        bound = 1e-10 * (np.linalg.norm(a, "fro")
                         + np.linalg.norm(b, "fro")) * np.linalg.norm(x, "fro")
        assert resid <= bound

    def test_schur_method_agrees(self):
        rng = np.random.default_rng(9)
        a = rand_sym(rng, 5, 2.0, 3.0)
        b = rand_sym(rng, 4, -1.0, 0.0)
        c = rng.standard_normal((5, 4))
        x1 = solve_dense(a, b, c, method="kron")
        x2 = solve_dense(a, b, c, method="schur")
        assert np.abs(x1 - x2).max() < 1e-10

    def test_kron_refused_above_its_cap_before_allocating(self, monkeypatch):
        def kron_matrix(a, b):
            raise AssertionError("Kronecker matrix built above the cap")
        monkeypatch.setattr(sylvester_module, "sylvester_kron_matrix",
                            kron_matrix)
        # 64 * 65 = 4160 unknowns, past KRON_CAP = 4096
        a = np.diag(np.arange(1.0, 65.0))
        b = -np.eye(65)
        c = np.ones((64, 65))
        with pytest.raises(DomainError, match='at most 4096 unknowns .*'
                           'method="schur"'):
            solve_dense(a, b, c, method="kron")
        x = solve_dense(a, b, c)
        assert np.abs(a @ x - x @ b - c).max() < 1e-12

    def test_shared_eigenvalue_named(self):
        with pytest.raises(DomainError, match="0.7"):
            solve_dense(np.diag([0.7, 2.0]), np.diag([0.7]), np.ones((2, 1)))

    @pytest.mark.parametrize("method", ["schur", "kron"])
    def test_shared_complex_pair_named(self, method):
        # the pair 0.3 +/- 0.8i sits in a 2x2 block of both Schur forms
        rng = np.random.default_rng(12)
        rot = np.array([[0.3, 0.8], [-0.8, 0.3]])
        qa = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        qb = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        a = qa @ scipy.linalg.block_diag(rot, 2.0) @ qa.T
        b = qb @ rot @ qb.T
        with pytest.raises(DomainError, match=r"0\.3[+-]0\.8j.*gap"):
            solve_dense(a, b, np.ones((3, 2)), method=method)

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError, match="unknown method"):
            solve_dense([[2.0]], [[1.0]], [[3.0]], method="lu")

    @pytest.mark.parametrize("method", ["schur", "kron"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, method, bad):
        c = np.ones((2, 1))
        c[1, 0] = bad
        with pytest.raises(DomainError, match="C has non-finite"):
            solve_dense(np.diag([2.0, 3.0]), np.diag([0.5]), c, method=method)

    @pytest.mark.parametrize("method", ["schur", "kron"])
    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (0, 0)])
    def test_empty_operand_gives_empty_solution(self, method, m, n):
        x = solve_dense(np.eye(m), -np.eye(n), np.zeros((m, n)),
                        method=method)
        assert x.shape == (m, n)


def quasi_block_matrix(rng, size, centre, nonnormal):
    """Orthogonal similarity of a block upper-triangular matrix whose
    diagonal holds real eigenvalues and 2x2 rotation blocks (complex pairs)
    near ``centre``, plus coupling of size ``nonnormal`` above the blocks."""
    d = np.zeros((size, size))
    k = 0
    while k < size:
        re = centre + rng.uniform(-0.5, 0.5)
        if k + 1 < size and rng.random() < 0.5:
            im = rng.uniform(0.1, 1.0)
            d[k:k + 2, k:k + 2] = [[re, im], [-im, re]]
            k += 2
        else:
            d[k, k] = re
            k += 1
    d += nonnormal * np.triu(rng.uniform(-1.0, 1.0, (size, size)), 2)
    q = np.linalg.qr(rng.standard_normal((size, size)))[0]
    return q @ d @ q.T


class TestSchurAgainstKron:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 7), n=st.integers(1, 7),
           seed=st.integers(0, 2 ** 32 - 1),
           gap=st.floats(1.5, 3.0), nonnormal=st.sampled_from([0.0, 1.0, 3.0]))
    def test_schur_matches_kron(self, m, n, seed, gap, nonnormal):
        rng = np.random.default_rng(seed)
        a = quasi_block_matrix(rng, m, 1.0, nonnormal)
        b = quasi_block_matrix(rng, n, 1.0 - gap, nonnormal)
        c = rng.standard_normal((m, n))
        x_schur = solve_dense(a, b, c, method="schur")
        x_kron = solve_dense(a, b, c, method="kron")
        assert np.abs(x_schur - x_kron).max() <= \
            1e-10 * max(1.0, np.abs(x_kron).max())

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           nonnormal=st.sampled_from([0.0, 1.0, 3.0]))
    def test_gees_spectrum_matches_eigvals(self, size, seed, nonnormal):
        a = quasi_block_matrix(np.random.default_rng(seed), size, 0.0,
                               nonnormal)
        r, z, lam, _ = _schur(a)
        assert np.abs(np.tril(r, -2)).max(initial=0.0) == 0.0
        assert np.abs(z @ r @ z.T - a).max() <= \
            1e-12 * max(1.0, np.abs(a).max())
        ref = np.linalg.eigvals(a)
        dist = np.abs(lam[:, None] - ref[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) < 1e-9


class TestSolveSeries:
    def test_scalar_geometric(self):
        x = solve_series([[0.5]], [[2.0]], [[1.0]])
        assert x[0, 0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert 0.5 * x[0, 0] - x[0, 0] * 2.0 == pytest.approx(1.0)

    def test_zero_rhs(self):
        x = solve_series(np.diag([0.5, 0.3]), np.diag([2.0]), np.zeros((2, 1)))
        assert np.allclose(x, 0.0)

    @pytest.mark.parametrize("trial", range(10))
    def test_agrees_with_dense(self, trial):
        rng = np.random.default_rng(50 + trial)
        a = rng.standard_normal((4, 4))
        a *= 0.4 / np.abs(np.linalg.eigvals(a)).max()
        b = 2.0 * np.eye(3)
        c = rng.standard_normal((4, 3))
        assert np.abs(solve_series(a, b, c)
                      - solve_dense(a, b, c)).max() < 1e-9

    def test_divergent_rejected(self):
        with pytest.raises(DomainError, match="diverges"):
            solve_series([[1.5]], [[1.0]], [[1.0]])

    def test_singular_b_rejected(self):
        with pytest.raises(DomainError, match="singular"):
            solve_series([[0.5]], [[0.0]], [[1.0]])

    def test_slow_convergence_reports_tail(self):
        with pytest.raises(NumericalError, match="tail"):
            solve_series([[0.9999]], [[1.0001]], [[1.0]], n_max=50)


class TestSolveIntegral:
    def test_scalar(self):
        x = solve_integral([[1.0]], [[-1.0]], [[1.0]], 0.0)
        assert x[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_zero_rhs(self):
        x = solve_integral(np.diag([1.0, 2.0]), np.diag([-1.0]),
                           np.zeros((2, 1)), 0.0)
        assert np.allclose(x, 0.0)

    @pytest.mark.parametrize("trial", range(5))
    def test_random_residuals(self, trial):
        rng = np.random.default_rng(70 + trial)
        a = np.diag(rng.uniform(1.0, 2.0, 4))
        b = np.diag(rng.uniform(-2.0, -1.0, 3))
        c = rng.standard_normal((4, 3))
        x = solve_integral(a, b, c, 0.0)
        assert np.linalg.norm(a @ x - x @ b - c, "fro") <= 1e-8

    def test_agrees_with_dense(self):
        rng = np.random.default_rng(77)
        a = rand_sym(rng, 3, 1.0, 2.0)
        b = rand_sym(rng, 3, -2.0, -1.0)
        c = rng.standard_normal((3, 3))
        assert np.abs(solve_integral(a, b, c, 0.0)
                      - solve_dense(a, b, c)).max() < 1e-8

    def test_r_outside_gap_rejected(self):
        with pytest.raises(DomainError, match="gap"):
            solve_integral([[1.0]], [[-1.0]], [[1.0]], 5.0)


class TestSepBrute:
    def test_scalar(self):
        assert sep_brute([[2.0]], [[1.0]]).value == pytest.approx(1.0)

    def test_shared_spectrum_is_zero(self):
        assert sep_brute([[1.0]], [[1.0]]).value <= 1e-10

    @pytest.mark.parametrize("trial", range(5))
    def test_frobenius_matches_singular_value_oracle(self, trial):
        rng = np.random.default_rng(90 + trial)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        rep = sep_brute(a, b)
        oracle = np.linalg.svd(kron_oracle(a, b), compute_uv=False)[-1]
        assert rep.value == pytest.approx(oracle, abs=1e-10)

    def test_not_symmetric_in_arguments(self):
        # both orders computed independently; equality is not assumed
        a = np.array([[0.0, 4.0], [0.0, 0.5]])
        b = np.array([[2.0]])
        fwd = sep_brute(a, b).value
        bwd = sep_brute(b, a).value
        assert fwd >= 0 and bwd >= 0
        oracle_fwd = np.linalg.svd(kron_oracle(a, b), compute_uv=False)[-1]
        oracle_bwd = np.linalg.svd(kron_oracle(b, a), compute_uv=False)[-1]
        assert fwd == pytest.approx(oracle_fwd, abs=1e-12)
        assert bwd == pytest.approx(oracle_bwd, abs=1e-12)

    def test_positive_iff_spectra_disjoint(self):
        rng = np.random.default_rng(13)
        shared = rand_sym(rng, 3, 1.0, 1.0)     # eigenvalue 1 three times
        other = np.diag([1.0, 3.0])
        assert sep_brute(shared, other).value <= 1e-10
        gapped = np.diag([2.0, 2.5])
        assert sep_brute(gapped, np.diag([0.5, 1.0])).value >= 1e-6

    def test_spectral_interval(self):
        rng = np.random.default_rng(14)
        a = rand_sym(rng, 3, 2.0, 3.0)
        b = rand_sym(rng, 2, -1.0, 0.0)
        rep = sep_brute(a, b, norm="spectral", n_restarts=50)
        lo, hi = rep.interval
        assert lo <= rep.value <= hi
        assert lo <= rep.constants["sep_frobenius"] * np.sqrt(2) + 1e-12

    def test_scalar_spectral_equals_frobenius(self):
        rep = sep_brute([[2.0]], [[1.0]], norm="spectral", n_restarts=20)
        assert rep.value == pytest.approx(1.0, abs=1e-6)
        assert rep.interval[0] == pytest.approx(1.0, abs=1e-10)


class TestSepBoundDiscrete:
    def test_scalar_tight(self):
        rep = sep_bound_discrete([[0.5]], [[2.0]], 1.0 + 1e-12)
        assert rep.value == pytest.approx(1.5, abs=1e-9)
        assert rep.constants["C_A"] == pytest.approx(1.0)
        assert rep.constants["conclusive"]

    def test_precondition(self):
        with pytest.raises(DomainError, match=">= 1"):
            sep_bound_discrete([[0.9]], [[1.0]], 1.1)
        with pytest.raises(DomainError, match="lam"):
            sep_bound_discrete([[0.5]], [[2.0]], 0.9)

    @pytest.mark.parametrize("trial", range(10))
    def test_never_exceeds_brute(self, trial):
        rng = np.random.default_rng(200 + trial)
        a = rand_sym(rng, 3, 0.1, 0.5)
        b = rand_sym(rng, 3, 1.5, 3.0)
        bound = sep_bound_discrete(a, b, 1.05)
        brute = sep_brute(a, b)
        assert bound.value <= brute.value + 1e-12

    def test_inconclusive_flag_at_cap(self):
        # non-normal growth: the ratio still rises at a tiny cap
        a = np.array([[0.5, 50.0], [0.0, 0.5]])
        rep = sep_bound_discrete(a, 3.0 * np.eye(2), 1.01, n_max=1)
        assert not rep.constants["conclusive"]

    def test_report_carries_constants(self):
        rep = sep_bound_discrete([[0.5]], [[2.0]], 1.2)
        for key in ("lam", "rho_A", "rho_Binv", "C_A", "C_Binv"):
            assert key in rep.constants
        assert rep.method == "series-bound"


class TestSepBoundCt:
    def test_scalar(self):
        rep = sep_bound_ct([[1.0]], [[-1.0]], r=0.0, eps_margin=1e-6)
        assert rep.value == pytest.approx(2.0 - 2e-6, abs=1e-9)

    def test_gap_precondition(self):
        with pytest.raises(DomainError, match="gap"):
            sep_bound_ct([[1.0]], [[1.0 - 1e-9]])
        with pytest.raises(DomainError, match="outside"):
            sep_bound_ct([[1.0]], [[-1.0]], r=5.0)

    @pytest.mark.parametrize("trial", range(5))
    def test_never_exceeds_brute(self, trial):
        rng = np.random.default_rng(300 + trial)
        a = rand_sym(rng, 3, 1.0, 2.0)
        b = rand_sym(rng, 2, -3.0, -1.5)
        bound = sep_bound_ct(a, b)
        brute = sep_brute(a, b)
        assert bound.value <= brute.value + 1e-12

    def test_report_carries_constants(self):
        rep = sep_bound_ct([[1.0]], [[-1.0]])
        for key in ("r", "r_A", "r_B", "eps_margin", "c_A", "c_B"):
            assert key in rep.constants
        assert rep.method == "ct-bound"


class TestSolverAgreement:
    def test_three_way_on_common_domain(self):
        # contraction A, positive-definite B: the series applies directly;
        # the integral applies to the transposed equation
        # B' Y - Y A' = -C' whose transpose solves A X - X B = C
        rng = np.random.default_rng(400)
        a = rand_sym(rng, 3, 0.2, 0.4)
        b = rand_sym(rng, 3, 2.0, 3.0)
        c = rng.standard_normal((3, 3))
        dense = solve_dense(a, b, c)
        series = solve_series(a, b, c)
        integral = solve_integral(b.T, a.T, -c.T, 1.0).T
        assert np.abs(dense - series).max() < 1e-8
        assert np.abs(dense - integral).max() < 1e-8
