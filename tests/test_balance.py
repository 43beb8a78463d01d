import resource
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from factorbal import balance
from factorbal.balance import (
    BasisSpec,
    balance_residuals,
    build_balance_system,
    split_contrast,
)
from factorbal.data import Dataset
from factorbal.design import (
    Effect,
    SUMMARY,
    build_incomplete_design,
    contrast_vector,
    effect_index_set,
    enumerate_combinations,
    full_design,
    interaction_value,
)
from factorbal.errors import ConfigurationError, DataError
from factorbal.simulation import Scenario, generate
from factorbal.solver import solve_dual
from oracles import check_feasibility, column_spans, span_rank, span_residual


def memberships(effect, Z, design):
    """Each unit's weight on the positive and negative side of the contrast."""
    return split_contrast(design.contrasts(np.atleast_2d(Z), [effect])[0])


def random_dataset(seed, n=60, k=3, d=4, cells=None):
    rng = np.random.default_rng(seed)
    combos = enumerate_combinations(k)
    if cells is None:
        idx = rng.integers(0, combos.shape[0], n)
    else:
        idx = rng.choice(cells, n)
    Z = combos[idx]
    X = rng.normal(size=(n, d))
    Y = rng.normal(size=n)
    return Dataset(Z, X, Y)


@contextmanager
def address_space_cap(extra):
    """Cap this process's address space at its current size plus ``extra``
    bytes, so that a larger allocation fails instead of filling memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestSplitContrast:
    def test_simple(self):
        gp, gm = split_contrast(np.array([-1.0, 1.0]))
        assert np.array_equal(gp, [0, 1])
        assert np.array_equal(gm, [1, 0])

    def test_main_effect_positions(self):
        g1 = contrast_vector(Effect((1,)), 3)
        gp, gm = split_contrast(g1)
        assert np.array_equal(gp, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_nonnegative_effective_row(self):
        des = build_incomplete_design(3, 2, [(1, 1, 1)])
        gp, gm = split_contrast(des.effective[0])
        assert np.all(gm == 0)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_exact_decomposition(self, vals):
        g = np.array(vals)
        gp, gm = split_contrast(g)
        assert np.all(gp >= 0) and np.all(gm >= 0)
        assert np.array_equal(gp - gm, g)


class TestMembership:
    def test_full_design_indicators(self):
        des = full_design(3, 2)
        assert np.array_equal(memberships(Effect((2,)), [-1, 1, -1], des), [[1.0], [0.0]])
        assert np.array_equal(memberships(Effect((1,)), [-1, 1, -1], des), [[0.0], [1.0]])

    def test_summary_always_positive(self):
        des = full_design(3, 2)
        assert np.array_equal(memberships(SUMMARY, [1, 1, 1], des), [[1.0], [0.0]])
        # also on an incomplete design, whose effective summary row is not all ones
        des = build_incomplete_design(3, 2, [(1, 1, 1)])
        assert np.array_equal(memberships(SUMMARY, [-1, -1, -1], des), [[1.0], [0.0]])

    def test_incomplete_real_valued(self):
        # effective row for the first main effect is (0,-2,-2,0,0,+2,+2)
        des = build_incomplete_design(3, 2, [(1, 1, 1)])
        assert np.array_equal(memberships(Effect((1,)), [-1, -1, 1], des), [[0.0], [2.0]])

    def test_complement_identity_full(self):
        des = full_design(3, 3)
        Z = enumerate_combinations(3)
        for e in effect_index_set(3, 3):
            a_plus, a_minus = memberships(e, Z, des)
            assert np.array_equal(a_plus + a_minus, np.ones(8))


class TestBuildSystem:
    def test_row_count_by_brute_force(self):
        # P is the rank of the paper's candidate rows, column by column
        k, k_prime, s_user = 3, 1, 5
        ds = random_dataset(0, n=50, k=k, d=s_user)
        system = build_balance_system(ds, BasisSpec(), full_design(k, k_prime))
        ranks = [span_rank(spanning) for _, spanning in column_spans(system)]
        assert system.p == sum(ranks) == (s_user + 1) * 7  # |A| <= 2 of three factors

    def test_balanced_design_constant_basis_weight_two(self):
        Z = enumerate_combinations(2)
        ds = Dataset(Z, np.zeros((4, 1)), Z[:, 0].astype(float))
        spec = BasisSpec(covariate_bases=[lambda x: np.ones(x.shape[0])])
        system = build_balance_system(ds, spec, full_design(2, 1))
        report = balance_residuals(np.full(4, 2.0), system)
        assert report.max_abs < 1e-12

    def test_summary_targets_vanish_on_full_design(self):
        # every row is a +-1 character; only the constant one has a target
        ds = random_dataset(3)
        system = build_balance_system(ds, BasisSpec(), full_design(3, 2))
        assert np.array_equal(np.abs(system.G), np.ones_like(system.G))
        constant = np.all(system.G == 1.0, axis=1)
        assert np.all(system.b[~constant] == 0.0)
        sums = system.basis_values.sum(axis=0)
        assert np.allclose(system.b[constant], 2 * sums[system.basis_ids[constant]])
        assert np.array_equal(np.sort(system.basis_ids[constant]), np.arange(5))

    def test_pair_sum_identity(self):
        # the omitted negative-part row equals summary minus positive,
        # identically in coefficients and targets
        ds = random_dataset(7, n=40)
        k = 3
        des = full_design(k, 2)
        spec = BasisSpec()
        system = build_balance_system(ds, spec, des)
        H = system.basis_values
        cells = des.observed
        for e in effect_index_set(k, 2)[:3]:
            g = contrast_vector(e, k).astype(float)
            gp, gm = split_contrast(g)
            a_plus, a_minus = memberships(e, ds.Z, des)
            for s, J in [(0, (1,)), (2, (2, 3)), (4, (1,))]:
                q_units = H[:, s] * interaction_value(ds.Z, J)
                r_cells = interaction_value(cells, J)
                neg_lhs = a_minus * q_units
                neg_target = (gm @ r_cells) / 4 * H[:, s]
                sum_lhs = q_units
                sum_target = (np.ones(8) @ r_cells) / 4 * H[:, s]
                pos_lhs = a_plus * q_units
                pos_target = (gp @ r_cells) / 4 * H[:, s]
                assert np.max(np.abs(neg_lhs - (sum_lhs - pos_lhs))) < 1e-10
                assert np.max(np.abs(neg_target - (sum_target - pos_target))) < 1e-10

    def test_canonicalization_identity(self):
        # row built from (K, s, J) equals the row from (K, s, J minus K)
        ds = random_dataset(11, n=35)
        des = full_design(3, 2)
        H = ds.X
        for members, J in [((1,), (1, 2)), ((2,), (2,)), ((1, 2), (1, 2, 3))]:
            if max(J) > 3:
                continue
            e = Effect(members)
            a_plus, _ = memberships(e, ds.Z, des)
            jc = tuple(x for x in J if x not in members)
            lhs_full = a_plus * H[:, 0] * interaction_value(ds.Z, J)
            lhs_canon = a_plus * H[:, 0] * interaction_value(ds.Z, jc)
            assert np.max(np.abs(lhs_full - lhs_canon)) < 1e-12
            g = contrast_vector(e, 3).astype(float)
            gp, _ = split_contrast(g)
            cells = des.observed
            t_full = gp @ interaction_value(cells, J)
            t_canon = gp @ interaction_value(cells, jc)
            assert t_full == pytest.approx(t_canon, abs=1e-12)

    def test_duplicate_keys_emitted_once(self):
        # no row repeats or combines others: each column's rows are
        # orthogonal, each of squared norm the number of observed cells
        for design in (full_design(3, 2), build_incomplete_design(3, 2, [(1, 1, 1)])):
            ds = random_dataset(5, k=3, cells=np.arange(design.n_observed_cells))
            system = build_balance_system(ds, BasisSpec(), design)
            for s in range(system.basis_values.shape[1]):
                g = system.G[system.basis_ids == s]
                gram = g @ g.T / design.n_observed_cells
                assert np.max(np.abs(gram - np.eye(len(g)))) < 1e-12

    def test_nonfinite_basis_rejected(self):
        ds = random_dataset(1, n=20)

        def bad(x):
            v = x[:, 0].copy()
            v[3] = np.inf
            return v

        with pytest.raises(DataError, match="row 3"):
            build_balance_system(
                ds, BasisSpec(covariate_bases=[bad]), full_design(3, 1)
            )

    def test_default_basis_is_the_covariates(self):
        X = np.arange(12).reshape(3, 4)[:, ::2]  # integer, not contiguous
        H = BasisSpec().evaluate(X)
        assert H.flags.c_contiguous and np.array_equal(H, X.astype(float))
        X = np.ones((5, 3))
        X[3, 1] = np.nan
        with pytest.raises(DataError, match="basis 1 is non-finite at row 3"):
            BasisSpec().evaluate(X)
        with pytest.raises(ConfigurationError, match="at least one basis"):
            BasisSpec().evaluate(np.ones((5, 0)))

    @pytest.mark.parametrize("k, drop", [(15, False), (16, True), (14, True)])
    def test_oversized_gather_rejected_before_allocating(self, k, drop):
        # K=15: 5823 rows (the characters of order <= 4 on three columns)
        # x 32768 cells, about 4.3 GiB with the arrays G is made from;
        # K=16: 7551 x 65536; K=14 True: G passes (4413 rows, 1.6 GiB),
        # but the data stage may compress its rows to length 49155,
        # about 5 GiB, which is priced up front
        ds, design = random_dataset(3, n=300, k=k, d=2), full_design(k, 2)
        tracemalloc.start()
        try:
            with address_space_cap(2**30), pytest.raises(ConfigurationError, match="GiB budget"):
                build_balance_system(ds, BasisSpec(), design, drop_redundant=drop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**26  # the build would take over 6 GiB

    def test_numeric_filter_on_nine_factors(self):
        # the data stage compresses only the 768 span rows (the characters
        # of order <= 4 on three columns), and none is redundant on this
        # data; filtering the 5994 candidate rows took about 10 s and a
        # 189 MB traced peak. Some cells hold fewer units than the three
        # basis columns, so the Gram certificate fails and the filter runs
        rng = np.random.default_rng(0)
        X = rng.normal(size=(2000, 2))
        Z = np.where(rng.normal(size=(2000, 9)) + 0.3 * X[:, np.arange(9) % 2] > 0, 1, -1)
        ds, design = Dataset(Z, X, np.zeros(2000)), full_design(9, 2)
        structural = build_balance_system(ds, BasisSpec(), design, drop_redundant=False)
        tracemalloc.start()
        try:
            numeric = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert numeric.p == 768
        assert np.array_equal(numeric.G, structural.G)
        assert np.array_equal(numeric.basis_ids, structural.basis_ids)
        assert peak < 2**26

    @pytest.mark.parametrize("collinear", [False, True])
    def test_gram_certificate_decides_the_filter(self, collinear):
        # a five-factor draw: every cell's Gram matrix of H is well
        # conditioned, so True returns the unfiltered system without
        # running the filter, and its cached Gram is bitwise the one the
        # solver's all-active first step would form; with X3 = X1 - X2
        # every cell's is singular, and the filter drops column 2's rows
        ds, _ = generate(Scenario("five_factor", 2000, "Y2", seed=0), 0)
        if collinear:
            X = ds.X[:, :3].copy()
            X[:, 2] = X[:, 0] - X[:, 1]
            ds = Dataset(ds.Z, X, ds.Y)
        design = full_design(5, 2)
        full = build_balance_system(ds, BasisSpec(), design)
        with mock.patch.object(balance, "_numeric_keep", wraps=balance._numeric_keep) as spy:
            system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        assert spy.called == collinear
        assert (2 in system.basis_ids) != collinear
        if not collinear:
            assert np.array_equal(system.G, full.G) and np.array_equal(system.coef, full.coef)
            mask = np.ones(system.n, dtype=bool)
            masked = system._cell_sums(system.basis_values * mask.astype(float)[:, None])
            assert np.array_equal(system.cell_gram, masked)

    def test_flavor_validation(self):
        with pytest.raises(ConfigurationError):
            BasisSpec(model_flavor="quadratic")

    @pytest.mark.parametrize("mode", ["numeric", "Numeric", "structural", None, 2])
    def test_drop_redundant_validation(self, mode):
        ds = random_dataset(0)
        with pytest.raises(ConfigurationError, match="drop_redundant"):
            build_balance_system(ds, BasisSpec(), full_design(3, 2), drop_redundant=mode)

    def test_additive_flavor_rows(self):
        ds = random_dataset(4, d=2)
        system = build_balance_system(
            ds, BasisSpec(model_flavor="additive"), full_design(3, 1)
        )
        # covariate elements carry no interaction; treatment elements are
        # carried by the constant basis column
        const_col = system.basis_values.shape[1] - 1
        for s, J in system.elements:
            assert (J == ()) == (s != const_col)

    def test_drop_redundant_preserves_solution(self):
        ds = random_dataset(9, n=120, k=2, d=2)
        des = full_design(2, 1)
        full = build_balance_system(ds, BasisSpec(), des)
        slim = build_balance_system(ds, BasisSpec(), des, drop_redundant=True)
        assert slim.p <= full.p
        assert np.linalg.matrix_rank(np.hstack([slim.B, slim.unit_targets])) == slim.p
        sol_full = solve_dual(full)
        sol_slim = solve_dual(slim)
        assert sol_full.converged and sol_slim.converged
        assert np.max(np.abs(sol_full.weights - sol_slim.weights)) < 1e-6

    def test_incomplete_system_has_signed_rows(self):
        # each column's rows span exactly its candidate rows, both signed
        # split-contrast rows included
        des = build_incomplete_design(3, 2, [(1, 1, 1)])
        cells_idx = np.arange(7)
        ds = random_dataset(13, n=80, k=3, cells=cells_idx)
        system = build_balance_system(ds, BasisSpec(), des)
        for rows, spanning in column_spans(system):
            assert len(rows) == span_rank(spanning)
            assert span_residual(rows, spanning) <= 1e-10
            assert span_residual(spanning, rows) <= 1e-10


class TestResiduals:
    def test_exact_solution_near_zero(self):
        ds = random_dataset(21, n=200, k=2, d=2)
        system = build_balance_system(ds, BasisSpec(), full_design(2, 1))
        sol = solve_dual(system)
        assert sol.converged
        assert balance_residuals(sol.weights, system).max_abs <= 1e-8 * (
            1 + np.max(np.abs(system.b))
        )

    def test_zero_weights_give_targets(self):
        ds = random_dataset(22, n=30)
        system = build_balance_system(ds, BasisSpec(), full_design(3, 1))
        report = balance_residuals(np.zeros(ds.n), system)
        assert np.allclose(report.residuals, -system.b)

    def test_single_weight_perturbation_is_linear(self):
        ds = random_dataset(23, n=30)
        system = build_balance_system(ds, BasisSpec(), full_design(3, 1))
        w = np.ones(ds.n)
        base = balance_residuals(w, system).residuals
        delta = 0.37
        w2 = w.copy()
        w2[4] += delta
        moved = balance_residuals(w2, system).residuals
        assert np.allclose(moved - base, system.B[:, 4] * delta)

    def test_length_mismatch(self):
        ds = random_dataset(24, n=30)
        system = build_balance_system(ds, BasisSpec(), full_design(3, 1))
        with pytest.raises(ConfigurationError):
            balance_residuals(np.ones(29), system)


class TestFeasibilityProperty:
    def test_refined_system_feasible_at_moderate_n(self):
        # nonnegative solutions exist for nearly every draw once the
        # sample is large relative to the constraint count
        n, draws = 500, 60
        feasible = 0
        for rep in range(draws):
            rng = np.random.default_rng(1000 + rep)
            X = rng.normal(size=(n, 5))
            Z = np.empty((n, 3), dtype=int)
            betas = [
                np.array([0.25, 0.5, 0, 0.75, 1.0]),
                np.array([0.75, 0.25, 1.0, 0, 0.5]),
                np.array([1.0, 0, 0.75, 0.5, 0.25]),
            ]
            for j, b in enumerate(betas):
                Z[:, j] = np.where(rng.random(n) < expit(X @ b), 1, -1)
            ds = Dataset(Z, X, rng.normal(size=n))
            system = build_balance_system(
                ds, BasisSpec(), full_design(3, 2), drop_redundant=True
            )
            feasible += check_feasibility(system)
        assert feasible >= draws - 1
