"""End-to-end estimation when one treatment combination is never observed."""

import numpy as np
import pytest
from scipy.special import expit

from factorbal.balance import BasisSpec, build_balance_system
from factorbal.data import Dataset
from factorbal.design import build_incomplete_design, effect_index_set
from factorbal.estimation import (
    augmented_estimate,
    fit_outcome_coeffs,
    smd_report,
    weighted_estimates,
)
from factorbal.solver import solve_dual

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
