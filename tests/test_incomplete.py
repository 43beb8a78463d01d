"""End-to-end estimation when treatment combinations are never observed."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from factorbal.balance import BasisSpec, balance_residuals, build_balance_system
from factorbal.data import Dataset
from factorbal.design import build_incomplete_design, effect_index_set, enumerate_combinations
from factorbal.errors import IdentificationError
from factorbal.estimation import (
    augmented_estimate,
    fit_outcome_coeffs,
    smd_report,
    weighted_estimates,
)
from factorbal.solver import INFEASIBLE, solve_dual
from oracles import (
    candidate_system,
    check_feasibility,
    column_spans,
    span_rank,
    span_residual,
    span_rounding,
)

TRUTH = {(1,): 2.0, (2,): 0.0, (3,): 0.0, (1, 2): 1.0, (1, 3): 0.0, (2, 3): 0.0}


def draw_without_cell(seed, n=5000):
    """Confounded three-factor draw with cell (+1,+1,+1) removed.

    The outcome model stays inside the order-2 heterogeneous class, so
    the retained effects remain identified from the observed cells.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    Z = np.empty((n, 3), dtype=int)
    betas = [np.array([0.5, -0.3]), np.array([-0.2, 0.6]), np.array([0.4, 0.4])]
    for j, b in enumerate(betas):
        Z[:, j] = np.where(rng.random(n) < expit(X @ b), 1, -1)
    keep = ~np.all(Z == 1, axis=1)
    X, Z = X[keep], Z[keep]
    Y = (
        X[:, 0]
        + X[:, 1]
        + Z[:, 0]
        + 0.5 * Z[:, 0] * Z[:, 1]
        + rng.normal(size=int(keep.sum()))
    )
    return Dataset(Z, X, Y)


@pytest.fixture(scope="module")
def incomplete_fit():
    ds = draw_without_cell(12345)
    design = build_incomplete_design(3, 2, [(1, 1, 1)])
    system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
    sol = solve_dual(system)
    assert sol.converged
    return ds, design, system, sol


class TestIncompleteEstimation:
    def test_balance_is_exact(self, incomplete_fit):
        ds, design, system, sol = incomplete_fit
        resid = np.max(np.abs(system.B @ sol.weights - system.b))
        assert resid <= 1e-6 * (1 + np.max(np.abs(system.b)))

    def test_recovers_true_effects(self, incomplete_fit):
        ds, design, system, sol = incomplete_fit
        ests = weighted_estimates(
            ds, system, sol.weights, sol.lam, effect_index_set(3, 2)
        )
        for e in ests:
            truth = TRUTH[e.effect.members]
            se = np.sqrt(e.sigma2_hat / ds.n)
            assert abs(e.tau_hat - truth) <= 5 * se, e.effect.label()
            assert se < 0.2

    def test_augmented_equivalence_carries_over(self, incomplete_fit):
        ds, design, system, sol = incomplete_fit
        coeffs = fit_outcome_coeffs(ds, system)
        effects = effect_index_set(3, 2)[:4]
        plains = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        for e, plain in zip(effects, plains):
            aug = augmented_estimate(ds, sol.weights, system, e, coeffs)
            assert abs(aug - plain.tau_hat) <= 1e-8

    def test_smd_diagnostics_improve(self, incomplete_fit):
        ds, design, system, sol = incomplete_fit
        rows = smd_report(ds, sol.weights, effect_index_set(3, 2), design)
        before = max(r.before for r in rows)
        after = max(r.after for r in rows)
        assert before > 0.05
        assert after <= 1e-6


def incomplete_draw(k, q_u, n, seed):
    """Logistic assignment of K factors in two standard-normal covariates
    (coefficients N(0, 0.5^2)), with every unit of ``q_u`` random cells
    removed; the cells are redrawn until the order-2 effects are
    identified. Returns the dataset and its design."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    beta = rng.normal(scale=0.5, size=(2, k))
    Z = np.where(rng.random((n, k)) < expit(X @ beta), 1, -1)
    while True:
        cells = enumerate_combinations(k)[rng.choice(2**k, q_u, replace=False)]
        try:
            design = build_incomplete_design(k, 2, cells)
            break
        except IdentificationError:
            continue
    keep = ~(Z[:, None, :] == cells).all(axis=2).any(axis=1)
    X, Z = X[keep], Z[keep]
    Y = X.sum(axis=1) + Z[:, 0] + rng.normal(size=len(Z))
    return Dataset(Z, X, Y), design


class TestManyFactors:
    """Incomplete designs past six factors, where keeping rows one by one
    by a residual test lost part of the span and kept near-dependent rows:
    these fits ran to the iteration limit or raised ``VarianceError``."""

    @pytest.mark.parametrize(
        "k, q_u, n, seed",
        [(7, 3, 5000, 0), (7, 3, 5000, 1), (7, 3, 5000, 2), (8, 4, 10_000, 0), (9, 4, 20_000, 0)],
    )
    def test_fit_converges_or_is_infeasible(self, k, q_u, n, seed):
        ds, design = incomplete_draw(k, q_u, n, seed)
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        sol = solve_dual(system)
        if sol.status == INFEASIBLE:
            assert not check_feasibility(system)
            return
        assert sol.converged and sol.iterations <= 20
        ests = weighted_estimates(ds, system, sol.weights, sol.lam, effect_index_set(k, 2))
        assert all(np.isfinite(e.sigma2_hat) and e.sigma2_hat > 0 for e in ests)
        cand = candidate_system(system)
        bound = 1e-9 * (1 + np.max(np.abs(cand.b)))
        assert balance_residuals(sol.weights, cand).max_abs <= bound

    @pytest.mark.parametrize("seed", range(6))
    def test_weights_meet_every_candidate_row(self, seed):
        # six factors, three cells removed: every fit converges, and the
        # weights balance the paper's unfiltered candidate rows, not only
        # the kept ones
        ds, design = incomplete_draw(6, 3, 5000, seed)
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        sol = solve_dual(system)
        assert sol.converged
        cand = candidate_system(system)
        bound = 1e-9 * (1 + np.max(np.abs(cand.b)))
        assert balance_residuals(sol.weights, cand).max_abs <= bound


@st.composite
def incomplete_shapes(draw):
    """K, k' and the number of unobserved cells of an incomplete design."""
    k = draw(st.integers(3, 8))
    k_prime = draw(st.integers(1, min(k - 1, 3 if k <= 5 else 2)))
    q_u = draw(st.integers(1, min(4, 2**k - len(effect_index_set(k, k_prime)) - 1)))
    return k, k_prime, q_u


@settings(max_examples=30, deadline=None)
@given(
    shape=incomplete_shapes(),
    flavor=st.sampled_from(["heterogeneous", "additive"]),
    seed=st.integers(0, 2**32 - 1),
)
# candidate rows whose smallest kept singular value is 1.3e-6 of the largest
@example(shape=(8, 1, 4), flavor="heterogeneous", seed=774)
def test_rows_span_the_candidate_rows(shape, flavor, seed):
    # on a random identifiable incomplete design each column's rows and
    # its candidate rows span each other, and P is their rank. The oracle's
    # SVD places the candidate span only within about eps times the ratio
    # of their largest kept singular value to the smallest of the exact
    # span, so the bound grows with that ratio (a kept row moved off the
    # span by 1e-8 of its norm still fails it on the pinned draw, whose
    # rows lie 1.1e-10 off against a bound of 1.7e-9)
    k, k_prime, q_u = shape
    rng = np.random.default_rng(seed)
    cells = enumerate_combinations(k)[rng.choice(2**k, q_u, replace=False)]
    try:
        design = build_incomplete_design(k, k_prime, cells)
    except IdentificationError:
        assume(False)
    ds = Dataset(design.observed, rng.normal(size=(len(design.observed), 2)), np.zeros(len(design.observed)))
    system = build_balance_system(ds, BasisSpec(model_flavor=flavor), design)
    ranks = 0
    for rows, spanning in column_spans(system):
        ranks += span_rank(spanning)
        bound = max(1e-10, 10 * span_rounding(spanning))
        assert span_residual(rows, spanning) <= bound
        assert span_residual(spanning, rows) <= bound
    assert system.p == ranks
