import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorbal.balance import BalanceSystem, BasisSpec, build_balance_system
from factorbal.data import Dataset
from factorbal.design import (
    Effect,
    build_incomplete_design,
    combination_bits,
    contrast_vector,
    effect_index_set,
    enumerate_combinations,
    full_design,
)
from factorbal import estimation
from factorbal.errors import BaselineError, ConfigurationError, IdentificationError, VarianceError
from factorbal.estimation import (
    MAX_CURVATURE_CONDITION,
    MIN_CURVATURE_EIGENVALUE,
    _factor_curvature,
    augmented_estimate,
    fit_outcome_coeffs,
    ols_regression_baseline,
    smd_report,
    unadjusted_baseline,
    weighted_estimates,
)
from factorbal.simulation import Scenario, generate
from factorbal.solver import SolverOptions, solve_dual
from oracles import eigh_sandwich, sandwich_sigma2


def converged_fit(seed=0, n=400, flavor="heterogeneous", outcome="Y1"):
    # small samples can be genuinely infeasible; scan seeds for a converged fit
    design = full_design(3, 1)
    for attempt in range(10):
        ds, _ = generate(
            Scenario("three_factor", max(n, 100), outcome, seed=seed + 1000 * attempt), 0
        )
        system = build_balance_system(
            ds, BasisSpec(model_flavor=flavor), design, drop_redundant=True
        )
        sol = solve_dual(system)
        if sol.converged:
            return ds, design, system, sol
    raise RuntimeError("no converged fit found")


def incomplete_fit(seed=0, n=600):
    """Converged fit on three factors with cell (+1,+1,+1) never observed,
    so the effective contrasts take values other than +-1."""
    design = build_incomplete_design(3, 2, [(1, 1, 1)])
    for attempt in range(10):
        ds, _ = generate(Scenario("three_factor", n, "Y2", seed=seed + 1000 * attempt), 0)
        keep = ~np.all(ds.Z == 1, axis=1)
        ds = Dataset(ds.Z[keep], ds.X[keep], ds.Y[keep])
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        sol = solve_dual(system)
        if sol.converged:
            return ds, design, system, sol
    raise RuntimeError("no converged fit found")


def five_factor_fit(seed=0, n=20_000):
    """Converged fit of the five-factor study's first replication."""
    ds, _ = generate(Scenario("five_factor", n, "Y2", seed=seed), 0)
    design = full_design(5, 2)
    system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
    sol = solve_dual(system)
    assert sol.converged
    return ds, design, system, sol


def binary_covariate_draw(seed=3, cell=(1, 1, -1)):
    """Three-factor Y1 draw with x1 replaced by [x1 > 0] and set to 0
    throughout ``cell``. No balance row is redundant on it, but on seed 3
    the units with positive weight share one value of x1 in three cells,
    so the variance's curvature is singular."""
    ds, _ = generate(Scenario("three_factor", 600, "Y1", seed=seed), 0)
    X = ds.X.copy()
    X[:, 0] = X[:, 0] > 0
    X[np.all(ds.Z == cell, axis=1), 0] = 0
    return Dataset(ds.Z, X, ds.Y)


def estimate(ds, system, sol, effect, weights=None):
    """The single-effect result of ``weighted_estimates``."""
    w = sol.weights if weights is None else weights
    return weighted_estimates(ds, system, w, sol.lam, [effect])[0]


class TestEstimateEffect:
    def test_unit_cell_design(self):
        Z = enumerate_combinations(2)
        ds = Dataset(Z, np.zeros((4, 1)), Z[:, 0].astype(float))
        design = full_design(2, 1)
        spec = BasisSpec(covariate_bases=[lambda x: np.ones(x.shape[0])])
        system = build_balance_system(ds, spec, design, drop_redundant=True)
        sol = solve_dual(system)
        w = np.full(4, 2.0)
        assert estimate(ds, system, sol, Effect((1,)), w).tau_hat == pytest.approx(2.0)
        assert estimate(ds, system, sol, Effect((2,)), w).tau_hat == pytest.approx(0.0)

    def test_matches_cell_regrouping(self):
        # direct contrast of weighted per-cell outcome sums
        ds, design, system, sol = converged_fit(seed=5, n=300)
        w = sol.weights
        bits = combination_bits(ds.Z)
        for e in effect_index_set(3, 1):
            g = contrast_vector(e, 3).astype(float)
            by_cell = np.zeros(8)
            np.add.at(by_cell, bits, w * ds.Y)
            expected = float(g @ by_cell) / ds.n
            got = estimate(ds, system, sol, e).tau_hat
            assert got == pytest.approx(expected, rel=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_outcome(self, a, b):
        ds, design, system, sol = converged_fit(seed=7, n=200)
        e = Effect((2,))
        t1 = estimate(ds, system, sol, e).tau_hat
        ds2 = Dataset(ds.Z, ds.X, a * ds.Y + b)
        # the constant shifts cancel only through the computed side masses
        t2 = estimate(ds2, system, sol, e).tau_hat
        assert np.isfinite(t2)
        ds3 = Dataset(ds.Z, ds.X, a * ds.Y)
        t3 = estimate(ds3, system, sol, e).tau_hat
        assert t3 == pytest.approx(a * t1, rel=1e-9, abs=1e-9)

    def test_positive_and_negative_parts_nonnegative_weights(self):
        ds, design, system, sol = converged_fit(seed=11, n=250)
        assert np.all(sol.weights >= 0)

    @pytest.mark.parametrize("fit", [converged_fit, incomplete_fit, five_factor_fit])
    def test_equals_mean_of_weighted_outcomes_exactly(self, fit):
        # perfbench's mc5 check matches each study estimate to the refit's
        # np.mean(w * c * Y) at rtol=1e-12, atol=0; summing the same
        # products in another order (a BLAS matvec, per-cell sums) misses
        # that on some draws, so the arithmetic is pinned here with ==;
        # the five-factor draw's effects x units terms span several blocks
        ds, design, system, sol = fit(seed=9)
        effects = [e for e in design.effects if e.order > 0]
        if fit is five_factor_fit:
            assert 8 * ds.n * len(effects) > estimation._ESTIMATE_BLOCK
        ests = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        for est, c in zip(ests, design.contrasts(ds.Z, effects)):
            assert est.tau_hat == np.mean(sol.weights * c * ds.Y)

    def test_effect_beyond_retained_order(self):
        ds, design, system, sol = converged_fit(seed=3, n=200)
        with pytest.raises(ConfigurationError):
            estimate(ds, system, sol, Effect((1, 2)))

    @pytest.mark.parametrize("fit", [converged_fit, incomplete_fit])
    def test_all_effects_match_one_at_a_time(self, fit):
        # each effect's column of the joint pass is its own estimate
        ds, design, system, sol = fit(seed=9)
        effects = [e for e in design.effects if e.order > 0]
        joint = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        assert [r.effect for r in joint] == effects
        for r in joint:
            alone = estimate(ds, system, sol, r.effect)
            assert r.tau_hat == alone.tau_hat
            assert r.sigma2_hat == pytest.approx(alone.sigma2_hat, rel=1e-12)
            assert (r.ci_low, r.ci_high) == pytest.approx((alone.ci_low, alone.ci_high))
        # reversing the order only reverses the results
        backward = weighted_estimates(ds, system, sol.weights, sol.lam, effects[::-1])
        assert [r.tau_hat for r in backward] == [r.tau_hat for r in joint[::-1]]


def check_finite_difference_sandwich(ds, system, sol, e, c):
    """The closed-form variance of effect ``e``, whose per-unit contrast
    coefficients are ``c``, against the sandwich built from a central
    finite-difference Jacobian of the stacked estimating equations."""
    tau = estimate(ds, system, sol, e).tau_hat
    theta = np.concatenate([sol.lam, [tau]])
    B, T = system.B, system.unit_targets

    def eta_bar(th):
        lam, t = th[:-1], th[-1]
        u = B.T @ lam
        w = np.where(u < 0, -0.5 * u, 0.0)
        psi = B * w - T
        top = psi.mean(axis=1)
        bottom = np.mean(w * c * ds.Y - t)
        return np.concatenate([top, [bottom]])

    # guard: no unit close enough to the kink for the step to cross
    u = B.T @ sol.lam
    h = 1e-6
    assert np.min(np.abs(u[np.abs(u) > 0])) > 10 * h * np.max(np.abs(B))

    p = theta.size
    H = np.zeros((p, p))
    for j in range(p):
        step = np.zeros(p)
        step[j] = h
        H[:, j] = (eta_bar(theta + step) - eta_bar(theta - step)) / (2 * h)
    w = sol.weights
    eta = np.vstack([B * w - T, (w * c * ds.Y - tau)[None, :]])
    meat = (eta @ eta.T) / ds.n
    Hinv = np.linalg.inv(H)
    sandwich = Hinv @ meat @ Hinv.T
    fd_value = sandwich[-1, -1]
    direct = estimate(ds, system, sol, e).sigma2_hat
    assert direct == pytest.approx(fd_value, rel=1e-4)


class TestVariance:
    def test_zero_variation_data(self):
        # constant covariates and outcomes with balanced cells: every
        # influence contribution vanishes
        Z = np.vstack([enumerate_combinations(2)] * 3)
        ds = Dataset(Z, np.full((12, 1), 0.5), np.full(12, 3.0))
        design = full_design(2, 1)
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        sol = solve_dual(system)
        assert sol.converged
        s2 = estimate(ds, system, sol, Effect((1,))).sigma2_hat
        assert s2 == pytest.approx(0.0, abs=1e-18)

    def test_matches_finite_difference_sandwich(self):
        ds, design, system, sol = converged_fit(seed=13, n=150)
        e = Effect((1,))
        c = contrast_vector(e, 3).astype(float)[combination_bits(ds.Z)]
        check_finite_difference_sandwich(ds, system, sol, e, c)

    @pytest.mark.parametrize("members", [(1,), (1, 2)])
    def test_matches_finite_difference_sandwich_incomplete(self, members):
        ds, design, system, sol = incomplete_fit(seed=13)
        e = Effect(members)
        c = design.effect_row(e)[design.observed_positions(ds.Z)]
        assert set(np.unique(np.abs(c))) == {0.0, 2.0}  # not +-1 contrasts
        check_finite_difference_sandwich(ds, system, sol, e, c)

    @pytest.mark.parametrize("fit", [converged_fit, incomplete_fit, five_factor_fit])
    def test_unit_blocks_leave_variance_unchanged(self, fit, monkeypatch):
        # blocks of nine units, the last one ragged, against one block
        ds, design, system, sol = fit(seed=21)
        effects = [e for e in design.effects if e.order > 0]
        monkeypatch.setattr(estimation, "_ESTIMATE_BLOCK", 2**40)
        whole = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        monkeypatch.setattr(estimation, "_ESTIMATE_BLOCK", 8 * 9 * len(effects))
        assert ds.n % 9
        blocked = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        assert [r.tau_hat for r in blocked] == [r.tau_hat for r in whole]
        np.testing.assert_allclose(
            [r.sigma2_hat for r in blocked], [r.sigma2_hat for r in whole], rtol=1e-12, atol=0
        )

    def test_traced_peak_below_one_unit_by_effect_array(self):
        # the per-unit terms go in blocks of units; one N x E array of
        # them (12 MB here) would be most of a 46 MB peak
        ds, design, system, sol = five_factor_fit(seed=1, n=100_000)
        effects = effect_index_set(5, 2)
        tracemalloc.start()
        try:
            weighted_estimates(ds, system, sol.weights, sol.lam, effects)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * ds.n * len(effects)

    def test_variance_nonnegative(self):
        ds, design, system, sol = converged_fit(seed=17, n=200)
        for e in effect_index_set(3, 1):
            assert estimate(ds, system, sol, e).sigma2_hat >= 0

    def test_singular_curvature_rejected(self):
        # X3 = X1 - X2: the rows on basis column 2 are those on columns 0
        # and 1 combined, and without the data stage they stay
        ds, design, system, sol = converged_fit(seed=19, n=200)
        X = ds.X[:, :3].copy()
        X[:, 2] = X[:, 0] - X[:, 1]
        ds = Dataset(ds.Z, X, ds.Y)
        redundant = build_balance_system(ds, BasisSpec(), design, drop_redundant=False)
        sol2 = solve_dual(redundant)
        assert sol2.converged
        with pytest.raises(VarianceError):
            estimate(ds, redundant, sol2, Effect((1,)))

    def test_singular_curvature_advice_gives_finite_variances(self):
        # X3 = X1 - X2: without the data stage the rows redundant only on
        # this data stay until the advised True build removes them
        ds, _ = generate(Scenario("three_factor", 600, "Y1", seed=0), 0)
        X = ds.X[:, :3].copy()
        X[:, 2] = X[:, 0] - X[:, 1]
        ds = Dataset(ds.Z, X, ds.Y)
        design, effects = full_design(3, 1), effect_index_set(3, 1)
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=False)
        sol = solve_dual(system)
        assert sol.converged
        with pytest.raises(VarianceError, match="drop_redundant=True") as info:
            weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        assert "numeric" not in str(info.value)
        slim = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        assert slim.p < system.p
        sol = solve_dual(slim)
        assert sol.converged
        for est in weighted_estimates(ds, slim, sol.weights, sol.lam, effects):
            assert np.isfinite(est.tau_hat) and np.isfinite(est.sigma2_hat) and est.sigma2_hat > 0

    @pytest.mark.parametrize("seed, rep", [(25, 2), (66, 3), (91, 1)])
    def test_singular_five_factor_draws_rejected(self, seed, rep):
        # converged draws whose curvature has a zero eigenvalue; on every
        # other converged draw of seeds 0-149, reps 0-3, it is above 1e-6
        ds, _ = generate(Scenario("five_factor", 2000, "Y2", seed=seed), rep)
        design = full_design(5, 2)
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        sol = solve_dual(system)
        assert sol.converged
        effects = effect_index_set(5, 2)
        assert eigh_sandwich(ds, system, sol.weights, sol.lam, effects)[1] < MIN_CURVATURE_EIGENVALUE
        with pytest.raises(VarianceError, match="singular"):
            weighted_estimates(ds, system, sol.weights, sol.lam, effects)

    def test_singular_active_cells_named_without_advice(self):
        # rebuilding with the data stage cannot help here: the message names
        # the cells whose Gram matrix of H over the units with positive
        # weight is singular, with the number of such units
        ds = binary_covariate_draw()
        design, effects = full_design(3, 1), effect_index_set(3, 1)
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        sol = solve_dual(system)
        assert sol.converged
        with pytest.raises(VarianceError, match="no balance row is redundant") as info:
            weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        message = str(info.value)
        assert "drop_redundant" not in message and "S = 6 basis functions" in message
        named = re.findall(r"\(([-\d, ]+)\): (\d+)", message)
        assert len(named) == 3 and "in 3 observed cell(s)" in message
        counts = np.bincount(system.unit_cells[system.rmatvec(sol.lam) < 0], minlength=8)
        for levels, count in named:
            levels = [int(v) for v in levels.split(",")]
            cell = np.flatnonzero(np.all(design.observed == levels, axis=1))
            assert counts[cell[0]] == int(count) >= 1

    def test_certified_fit_never_factors_the_curvature(self, monkeypatch):
        # the five-factor fit passes the cell certificate, so the variance
        # is solved in cell space without the P x P factorization
        ds, design, system, sol = five_factor_fit(seed=0)
        effects = effect_index_set(5, 2)
        want = [est.sigma2_hat for est in weighted_estimates(ds, system, sol.weights, sol.lam, effects)]

        def refuse(A):
            raise AssertionError("the curvature was factored")

        monkeypatch.setattr(estimation, "_factor_curvature", refuse)
        ests = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        assert [est.sigma2_hat for est in ests] == want
        np.testing.assert_allclose(
            want, sandwich_sigma2(ds, system, sol.weights, sol.lam, effects), rtol=1e-10, atol=0
        )

    @staticmethod
    def variance_verdict(ds, system, sol, effects, p_space):
        """sigma2 of ``weighted_estimates`` (None if it raises
        ``VarianceError``), the warnings it emits and whether it solved in
        cell space; with ``p_space`` the P x P path is taken throughout."""
        solved = []
        cell_solve = BalanceSystem.cell_solve

        def spy(self, gram, ridge, v):
            out = None if p_space and v.ndim == 2 else cell_solve(self, gram, ridge, v)
            solved.append(v.ndim == 2 and out is not None)
            return out

        with mock.patch.object(BalanceSystem, "cell_solve", spy), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ests = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
                sigma2 = np.array([est.sigma2_hat for est in ests])
            except VarianceError:
                sigma2 = None
        return sigma2, [str(w.message) for w in caught], any(solved)

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(3, 6),
        complete=st.booleans(),
        flavor=st.sampled_from(["heterogeneous", "additive"]),
        binary=st.booleans(),
        x1=st.sampled_from([(0.0, 1.0), (0.0, 1e-3), (0.0, 1e-5), (0.0, 1e3), (1e3, 1.0)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cell_certificate_keeps_the_p_space_verdicts(self, k, complete, flavor, binary, x1, seed):
        # cells of 0 to 59 units (some with fewer active units than S), a
        # binary covariate constant over one cell's units, and x1 shifted or
        # scaled so that some curvatures are singular or ill-conditioned:
        # the VarianceError verdict and the warnings are those of the P x P
        # path; where the cell certificate holds, the curvature's eigenvalues
        # clear both bounds and sigma2 is the per-unit oracle's
        rng = np.random.default_rng(seed)
        k_prime = 1 if k == 3 else int(rng.integers(1, 3))
        if complete:
            design = full_design(k, k_prime)
        else:
            cells = enumerate_combinations(k)
            unobserved = cells[rng.choice(len(cells), 1 if k == 3 else 2, replace=False)]
            try:
                design = build_incomplete_design(k, k_prime, unobserved)
            except IdentificationError:
                assume(False)
        Z = np.repeat(design.observed, rng.integers(rng.integers(0, 30), 60, len(design.observed)), axis=0)
        X = rng.normal(size=(len(Z), 2))
        X[:, 0] = x1[0] + x1[1] * X[:, 0]
        if binary:
            X[:, 1] = X[:, 1] > 0
            X[np.all(Z == design.observed[rng.integers(len(design.observed))], axis=1), 1] = 1.0
        ds = Dataset(Z, X, Z[:, 0] + rng.normal(size=len(Z)))
        system = build_balance_system(ds, BasisSpec(model_flavor=flavor), design, drop_redundant=True)
        sol = solve_dual(system, SolverOptions(max_iters=30))
        effects = [e for e in design.effects if e.order > 0]
        sigma2, warned, in_cells = self.variance_verdict(ds, system, sol, effects, p_space=False)
        want, want_warned, _ = self.variance_verdict(ds, system, sol, effects, p_space=True)
        assert (sigma2 is None) == (want is None)
        assert warned == want_warned
        if in_cells:
            _, lam_min, cond = eigh_sandwich(ds, system, sol.weights, sol.lam, effects)
            assert lam_min >= MIN_CURVATURE_EIGENVALUE and cond <= MAX_CURVATURE_CONDITION
            oracle = sandwich_sigma2(ds, system, sol.weights, sol.lam, effects)
            np.testing.assert_allclose(sigma2, oracle, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("draw", ["three", "incomplete", (25, 0), (66, 0), (91, 0)])
    def test_matches_eigh_oracle(self, draw):
        if draw == "three":
            ds, design, system, sol = converged_fit(seed=23, n=200)
        elif draw == "incomplete":
            ds, design, system, sol = incomplete_fit(seed=9)
        else:
            ds, _ = generate(Scenario("five_factor", 2000, "Y2", seed=draw[0]), draw[1])
            design = full_design(5, 2)
            system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
            sol = solve_dual(system)
            assert sol.converged
        effects = [e for e in design.effects if e.order > 0]
        sigma2, lam_min, cond = eigh_sandwich(ds, system, sol.weights, sol.lam, effects)
        assert lam_min > MIN_CURVATURE_EIGENVALUE and cond < MAX_CURVATURE_CONDITION
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        got = np.array([est.sigma2_hat for est in ests])
        np.testing.assert_allclose(got, sigma2, rtol=1e-9, atol=0)

    @pytest.mark.parametrize(
        "draw",
        ["three", "incomplete", "additive", "five-blocks", "unweighted-cell", "shifted-outcome"],
    )
    def test_matches_per_unit_oracle(self, draw, monkeypatch):
        # sigma2 from per-cell moments against the mean square of each
        # unit's own residuals; an outcome shifted by 1e4 (the weights do
        # not depend on it) cancels in the moments unless Y is centered
        if draw == "incomplete":
            ds, design, system, sol = incomplete_fit(seed=5)
        elif draw == "additive":
            ds, design, system, sol = converged_fit(seed=5, flavor="additive")
        elif draw == "five-blocks":
            ds, design, system, sol = five_factor_fit(seed=4)
            monkeypatch.setattr(estimation, "_ESTIMATE_BLOCK", 2**16)
            assert ds.n // (2**16 // (8 * system.basis_values.shape[1])) >= 10  # blocks
        else:
            ds, design, system, sol = converged_fit(seed=5)
        w = sol.weights
        if draw == "unweighted-cell":
            # an observed cell whose units carry no weight
            w = np.where(system.unit_cells == 3, 0.0, w)
            assert np.any(system.unit_cells == 3)
        if draw == "shifted-outcome":
            ds = Dataset(ds.Z, ds.X, ds.Y + 1e4)
        effects = [e for e in design.effects if e.order > 0]
        ests = weighted_estimates(ds, system, w, sol.lam, effects)
        want = sandwich_sigma2(ds, system, w, sol.lam, effects)
        np.testing.assert_allclose([e.sigma2_hat for e in ests], want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("fit", [converged_fit, incomplete_fit])
    def test_permuting_units_permutes_the_fit(self, fit):
        # the per-cell sums of the Gram update and of the variance's
        # moments add the units in their order; the fit must not depend on it
        ds, design, system, sol = fit(seed=7)
        perm = np.random.default_rng(7).permutation(ds.n)
        moved = Dataset(ds.Z[perm], ds.X[perm], ds.Y[perm])
        moved_system = build_balance_system(moved, BasisSpec(), design, drop_redundant=True)
        moved_sol = solve_dual(moved_system)
        assert moved_sol.converged
        assert np.max(np.abs(moved_sol.weights - sol.weights[perm])) <= 1e-10
        effects = [e for e in design.effects if e.order > 0]
        ests = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        moved_ests = weighted_estimates(
            moved, moved_system, moved_sol.weights, moved_sol.lam, effects
        )
        scale = 1 + np.mean(np.abs(sol.weights * ds.Y))
        for est, moved_est in zip(ests, moved_ests):
            assert abs(moved_est.tau_hat - est.tau_hat) <= 1e-10 * scale
            assert moved_est.sigma2_hat == pytest.approx(est.sigma2_hat, rel=1e-9)

    @pytest.mark.parametrize("j", [1, 3])
    @pytest.mark.parametrize("fit", [converged_fit, incomplete_fit])
    def test_flipping_a_factor_negates_its_effects(self, fit, j):
        # relabeling factor j's levels, and the unobserved cells with them,
        # maps each basis column's span onto itself: the weights stay and
        # every effect containing j changes sign. The relabeled cells come
        # in another order, which the per-cell sums and the cell-space
        # Newton step must not depend on
        ds, design, system, sol = fit(seed=7)
        Z, unobserved = ds.Z.copy(), design.unobserved.copy()
        Z[:, j - 1] *= -1
        unobserved[:, j - 1] *= -1
        flipped = Dataset(Z, ds.X, ds.Y)
        flipped_design = build_incomplete_design(design.k, design.k_prime, unobserved)
        flipped_system = build_balance_system(
            flipped, BasisSpec(), flipped_design, drop_redundant=True
        )
        flipped_sol = solve_dual(flipped_system)
        assert flipped_sol.converged
        assert np.max(np.abs(flipped_sol.weights - sol.weights)) <= 1e-10
        effects = [e for e in design.effects if e.order > 0]
        ests = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        flipped_ests = weighted_estimates(
            flipped, flipped_system, flipped_sol.weights, flipped_sol.lam, effects
        )
        for est, flipped_est in zip(ests, flipped_ests):
            sign = -1 if j in est.effect.members else 1
            assert abs(flipped_est.tau_hat - sign * est.tau_hat) <= 1e-10 * (1 + abs(est.tau_hat))
            assert flipped_est.sigma2_hat == pytest.approx(est.sigma2_hat, rel=1e-9)

    @pytest.mark.parametrize("fit", [converged_fit, incomplete_fit])
    def test_duplicating_the_sample_keeps_the_fit(self, fit):
        # the sample twice over has the same balance constraints and the
        # same multipliers, so each copy of a unit takes its weight, and
        # tau and sigma2 are unchanged
        ds, design, system, sol = fit(seed=7)
        twice = Dataset(np.vstack([ds.Z, ds.Z]), np.vstack([ds.X, ds.X]), np.tile(ds.Y, 2))
        twice_system = build_balance_system(twice, BasisSpec(), design, drop_redundant=True)
        twice_sol = solve_dual(twice_system)
        assert twice_sol.converged
        assert np.max(np.abs(twice_sol.weights - np.tile(sol.weights, 2))) <= 1e-10
        effects = [e for e in design.effects if e.order > 0]
        ests = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        twice_ests = weighted_estimates(
            twice, twice_system, twice_sol.weights, twice_sol.lam, effects
        )
        for est, twice_est in zip(ests, twice_ests):
            assert abs(twice_est.tau_hat - est.tau_hat) <= 1e-10 * (1 + abs(est.tau_hat))
            assert twice_est.sigma2_hat == pytest.approx(est.sigma2_hat, rel=1e-9)

    @staticmethod
    def spd(lam_min, lam_max, p=40):
        """SPD matrix with log-spaced eigenvalues from lam_min to lam_max."""
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((p, p)))
        return (q * np.geomspace(lam_min, lam_max, p)) @ q.T

    @pytest.mark.parametrize("scale, singular", [(0.5, True), (2.0, False)])
    def test_curvature_singular_threshold(self, scale, singular):
        A = self.spd(scale * MIN_CURVATURE_EIGENVALUE, 1.0)
        if singular:
            with pytest.raises(VarianceError, match="drop_redundant=True"):
                _factor_curvature(A)
        else:
            c, lower = _factor_curvature(A)
            U = np.tril(c).T if lower else np.triu(c)
            np.testing.assert_allclose(U.T @ U, A, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scale, warns", [(0.5, False), (2.0, True)])
    def test_curvature_condition_warning(self, scale, warns):
        # the estimate reads within a few percent of the condition number
        # on this spectrum, so it falls on the same side of the bound
        A = self.spd(1e-4, scale * MAX_CURVATURE_CONDITION * 1e-4)
        if warns:
            with pytest.warns(UserWarning, match="ill-conditioned"):
                _factor_curvature(A)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _factor_curvature(A)

    def test_ci_construction(self):
        ds, design, system, sol = converged_fit(seed=23, n=200)
        ests = weighted_estimates(ds, system, sol.weights, sol.lam, effect_index_set(3, 1))
        for est in ests:
            half = 1.96 * np.sqrt(est.sigma2_hat / ds.n)
            assert est.ci_low == pytest.approx(est.tau_hat - half)
            assert est.ci_high == pytest.approx(est.tau_hat + half)

    def test_fields_are_python_floats(self):
        ds, design, system, sol = converged_fit(seed=23, n=200)
        for est in weighted_estimates(ds, system, sol.weights, sol.lam, effect_index_set(3, 1)):
            for value in (est.tau_hat, est.sigma2_hat, est.ci_low, est.ci_high):
                assert type(value) is float


class TestAugmented:
    def test_equals_plain_with_fitted_coeffs(self):
        ds, design, system, sol = converged_fit(seed=29, n=300)
        coeffs = fit_outcome_coeffs(ds, system)
        for e in effect_index_set(3, 1):
            plain = estimate(ds, system, sol, e).tau_hat
            aug = augmented_estimate(ds, sol.weights, system, e, coeffs)
            assert abs(aug - plain) <= 1e-8

    def test_zero_coefficients_reduce_to_plain(self):
        ds, design, system, sol = converged_fit(seed=31, n=200)
        e = Effect((3,))
        plain = estimate(ds, system, sol, e).tau_hat
        aug = augmented_estimate(
            ds, sol.weights, system, e, np.zeros(len(system.elements))
        )
        assert aug == pytest.approx(plain, abs=1e-12)

    def test_random_coefficients_cancel(self):
        ds, design, system, sol = converged_fit(seed=37, n=250)
        rng = np.random.default_rng(0)
        e = Effect((2,))
        plain = estimate(ds, system, sol, e).tau_hat
        for _ in range(5):
            coeffs = rng.normal(size=len(system.elements))
            aug = augmented_estimate(ds, sol.weights, system, e, coeffs)
            assert abs(aug - plain) <= 1e-8

    def test_unbalanced_weights_warn(self):
        ds, design, system, sol = converged_fit(seed=41, n=200)
        bad = sol.weights.copy()
        bad[0] += 1.0
        with pytest.warns(UserWarning, match="balance"):
            augmented_estimate(
                ds, bad, system, Effect((1,)), np.ones(len(system.elements))
            )


class TestBaselines:
    def test_regression_recovers_exact_linear_model(self):
        rng = np.random.default_rng(5)
        Z = enumerate_combinations(2)[rng.integers(0, 4, 50)]
        X = rng.normal(size=(50, 2))
        Y = X[:, 0] + Z[:, 0]
        ds = Dataset(Z, X, Y)
        est = ols_regression_baseline(ds, effect_index_set(2, 1))
        assert est[Effect((1,))] == pytest.approx(2.0, abs=1e-10)
        assert est[Effect((2,))] == pytest.approx(0.0, abs=1e-10)

    def test_regression_rank_deficiency(self):
        rng = np.random.default_rng(6)
        Z = enumerate_combinations(2)[rng.integers(0, 4, 30)]
        x = rng.normal(size=30)
        X = np.column_stack([x, x])  # duplicated covariate
        ds = Dataset(Z, X, rng.normal(size=30))
        with pytest.raises(BaselineError):
            ols_regression_baseline(ds, effect_index_set(2, 1))

    def test_unadjusted_constant_outcome(self):
        rng = np.random.default_rng(7)
        Z = enumerate_combinations(2)[rng.integers(0, 4, 40)]
        ds = Dataset(Z, rng.normal(size=(40, 1)), np.full(40, 2.5))
        assert unadjusted_baseline(ds, Effect((1,))) == pytest.approx(0.0)

    def test_unadjusted_two_point(self):
        ds = Dataset(
            np.array([[-1, -1], [1, 1]]), np.zeros((2, 1)), np.array([0.0, 1.0])
        )
        assert unadjusted_baseline(ds, Effect((1,))) == pytest.approx(1.0)

    def test_unadjusted_empty_group(self):
        ds = Dataset(
            np.array([[1, -1], [1, 1]]), np.zeros((2, 1)), np.array([0.0, 1.0])
        )
        with pytest.raises(BaselineError):
            unadjusted_baseline(ds, Effect((1,)))

    def test_unadjusted_rejects_interactions(self):
        ds = Dataset(
            np.array([[-1, -1], [1, 1]]), np.zeros((2, 1)), np.array([0.0, 1.0])
        )
        with pytest.raises(BaselineError):
            unadjusted_baseline(ds, Effect((1, 2)))


class TestSmd:
    def test_identical_groups_zero(self):
        # every cell carries the same covariate values, so both contrast
        # sides see identical groups
        Z = np.repeat(enumerate_combinations(2), 4, axis=0)
        X = np.tile(np.arange(4.0), 4)[:, None]
        ds = Dataset(Z, X, np.zeros(16))
        rows = smd_report(ds, np.ones(16), effect_index_set(2, 1), full_design(2, 1))
        assert all(r.before == pytest.approx(0.0) for r in rows)

    def test_unit_weights_leave_smd_unchanged(self):
        ds, design, system, sol = converged_fit(seed=43, n=200)
        rows = smd_report(ds, np.ones(ds.n), effect_index_set(3, 1), design)
        for r in rows:
            assert r.after == pytest.approx(r.before)

    def test_weighting_removes_imbalance(self):
        ds, design, system, sol = converged_fit(seed=47, n=500)
        rows = smd_report(ds, sol.weights, effect_index_set(3, 1), design)
        assert max(r.after for r in rows) <= 1e-6
        assert max(r.before for r in rows) > 0.1

    def test_constant_covariate_flagged(self):
        rng = np.random.default_rng(8)
        Z = enumerate_combinations(2)[rng.integers(0, 4, 40)]
        X = np.column_stack([rng.normal(size=40), np.full(40, 1.0)])
        ds = Dataset(Z, X, rng.normal(size=40))
        rows = smd_report(ds, np.ones(40), effect_index_set(2, 1), full_design(2, 1))
        flagged = [r for r in rows if r.covariate == 1]
        assert all(r.skipped for r in flagged)
