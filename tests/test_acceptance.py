"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte Carlo
criteria replicate the built-in studies at full size (1000 replications,
500 for the five-factor spot check) and take a few minutes in total.
"""

import time

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import kurtosis, skew

from factorbal.balance import BasisSpec, balance_residuals, build_balance_system
from factorbal.data import Dataset
from factorbal.design import (
    Effect,
    build_incomplete_design,
    contrast_vector,
    design_matrix,
    effect_index_set,
    enumerate_combinations,
    full_design,
)
from factorbal.errors import IdentificationError, InfeasibleProblemError
from factorbal.estimation import (
    augmented_estimate,
    fit_outcome_coeffs,
    smd_report,
    weighted_estimates,
)
from factorbal.simulation import Scenario, generate, run_study, true_effects
from factorbal.solver import solve_dual
from oracles import check_feasibility, primal_oracle

SEED = 20260809
E1, E2, E3 = Effect((1,)), Effect((2,)), Effect((3,))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def three_factor_studies():
    out = {}
    for outcome in ("Y1", "Y2", "Y3"):
        sc = Scenario("three_factor", 1000, outcome, seed=SEED)
        out[outcome] = run_study(sc, reps=1000, keep_estimates=True)
    return out


@pytest.fixture(scope="module")
def five_factor_study():
    sc = Scenario("five_factor", 2000, "Y2", seed=SEED)
    return run_study(sc, reps=500, estimators=("regression", "weighting_interaction"))


@pytest.fixture(scope="module")
def hetero_studies():
    out = {}
    for outcome in ("Y1", "Y2", "Y3"):
        sc = Scenario("three_factor", 1000, outcome, hetero_c=10.0, seed=SEED)
        out[outcome] = run_study(sc, reps=1000, estimators=("weighting_interaction",))
    return out


def test_criterion_01_golden_contrast_algebra():
    g3 = np.array(
        [
            [+1, -1, -1, -1, +1, +1, +1, -1],
            [+1, -1, -1, +1, +1, -1, -1, +1],
            [+1, -1, +1, -1, -1, +1, -1, +1],
            [+1, -1, +1, +1, -1, -1, +1, -1],
            [+1, +1, -1, -1, -1, -1, +1, +1],
            [+1, +1, -1, +1, -1, +1, -1, -1],
            [+1, +1, +1, -1, +1, -1, -1, -1],
            [+1, +1, +1, +1, +1, +1, +1, +1],
        ]
    )
    ok = (
        np.array_equal(contrast_vector(E1, 3), [-1, -1, -1, -1, 1, 1, 1, 1])
        and np.array_equal(contrast_vector(E2, 3), [-1, -1, 1, 1, -1, -1, 1, 1])
        and np.array_equal(contrast_vector(E3, 3), [-1, 1, -1, 1, -1, 1, -1, 1])
        and np.array_equal(design_matrix(3), g3)
    )
    best = min(
        _timed(lambda: (contrast_vector(E1, 3), design_matrix(3))) for _ in range(5)
    )
    ok = ok and best < 1e-3
    report(1, ok, f"contrast vectors and design matrix bit-exact, {best * 1e6:.0f}us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_incomplete_identification():
    printed = np.array(
        [
            [+2, 0, 0, +2, 0, +2, +2],
            [0, -2, -2, 0, 0, +2, +2],
            [0, -2, 0, +2, -2, 0, +2],
            [0, 0, -2, +2, -2, +2, 0],
            [+2, 0, -2, 0, -2, 0, +2],
            [+2, -2, 0, 0, -2, +2, 0],
            [+2, -2, -2, +2, 0, 0, 0],
        ],
        dtype=float,
    )
    des = build_incomplete_design(3, 2, [(1, 1, 1)])
    g = design_matrix(3).astype(float)
    implied = -np.linalg.pinv(g[7:, 7:].T) @ g[:7, 7:].T
    ok = np.array_equal(des.effective, printed)
    ok = ok and np.array_equal(implied.ravel(), [1, -1, -1, 1, -1, 1, 1])
    try:
        build_incomplete_design(3, 2, [(1, 1, -1), (1, 1, 1)])
        ok = False
    except IdentificationError:
        pass
    best = min(
        _timed(lambda: build_incomplete_design(3, 2, [(1, 1, 1)])) for _ in range(5)
    )
    ok = ok and best < 1e-2
    report(2, ok, f"worked example matrices exact, rank failure raised, {best * 1e3:.2f}ms")


def test_criterion_03_solver_matches_oracle():
    t0 = time.perf_counter()
    rng_master = np.random.default_rng(SEED)
    checked = 0
    worst_gap = worst_res = worst_slack = 0.0
    attempts = 0
    while checked < 50 and attempts < 400:
        attempts += 1
        seed = int(rng_master.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        n = int(rng.integers(4 * 2**k, 51))
        d = int(rng.integers(1, 4))
        combos = enumerate_combinations(k)
        Z = combos[rng.integers(0, combos.shape[0], n)]
        ds = Dataset(Z, rng.normal(size=(n, d)), rng.normal(size=n))
        system = build_balance_system(
            ds, BasisSpec(), full_design(k, 1), drop_redundant=True
        )
        try:
            w_oracle = primal_oracle(system)
        except InfeasibleProblemError:
            sol = solve_dual(system)
            assert sol.status == "infeasible"
            continue
        sol = solve_dual(system)
        if not sol.converged:
            continue
        checked += 1
        worst_gap = max(worst_gap, float(np.max(np.abs(sol.weights - w_oracle))))
        worst_res = max(worst_res, balance_residuals(sol.weights, system).max_abs)
        worst_slack = max(worst_slack, float(np.max(sol.gamma * sol.weights)))
    elapsed = time.perf_counter() - t0
    ok = (
        checked == 50
        and worst_gap < 1e-5
        and worst_res < 1e-6
        and worst_slack < 1e-8
        and elapsed < 5.0
    )
    report(
        3,
        ok,
        f"50 instances: max|dual-oracle| {worst_gap:.1e}, residual {worst_res:.1e}, "
        f"slack {worst_slack:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_balanced_designs_weight_two():
    worst = 0.0
    for k in (2, 3, 4):
        for flavor in ("heterogeneous", "additive"):
            Z = enumerate_combinations(k)
            ds = Dataset(Z, np.zeros((2**k, 1)), np.zeros(2**k))
            spec = BasisSpec(
                covariate_bases=[lambda x: np.ones(x.shape[0])], model_flavor=flavor
            )
            system = build_balance_system(ds, spec, full_design(k, 1))
            sol = solve_dual(system)
            assert sol.converged, (k, flavor)
            worst = max(worst, float(np.max(np.abs(sol.weights - 2.0))))
    report(4, worst <= 1e-9, f"one-unit-per-cell designs give weight 2 (max dev {worst:.1e})")


def test_criterion_05_augmented_equivalence():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    fits = 0
    attempt = 0
    while fits < 20 and attempt < 60:
        attempt += 1
        sc = Scenario("three_factor", 600, "Y2", seed=int(rng.integers(2**31)))
        ds, _ = generate(sc, 0)
        design = full_design(3, 1)
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        sol = solve_dual(system)
        if not sol.converged:
            continue
        fits += 1
        coeffs = fit_outcome_coeffs(ds, system)
        effects = effect_index_set(3, 1)
        plains = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
        for e, plain in zip(effects, plains):
            aug = augmented_estimate(ds, sol.weights, system, e, coeffs)
            worst = max(worst, abs(aug - plain.tau_hat))
    ok = fits == 20 and worst <= 1e-8
    report(5, ok, f"20 converged fits, max |augmented - plain| = {worst:.1e}")


def test_criterion_06_bias_rmse_table(three_factor_studies):
    y1, y2 = three_factor_studies["Y1"], three_factor_studies["Y2"]
    checks = []
    for e, rmse_ref in zip((E1, E2, E3), (0.270, 0.216, 0.096)):
        row = y2.row("weighting_interaction", e)
        checks.append(abs(row.bias) <= 0.03)
        checks.append(0.8 * rmse_ref <= row.rmse <= 1.2 * rmse_ref)
    for e, bias_ref in zip((E1, E2, E3), (3.427, 5.107, 4.459)):
        row = y2.row("unadjusted", e)
        checks.append(abs(row.bias - bias_ref) <= 0.15)
    for e in (E1, E2, E3):
        row = y1.row("regression", e)
        checks.append(0.8 * 0.073 <= row.rmse <= 1.2 * 0.074)
    elapsed = sum(s.wall_time for s in three_factor_studies.values())
    checks.append(elapsed <= 900)
    detail = (
        "interaction bias/RMSE, unadjusted bias, regression RMSE within bands "
        f"({elapsed:.0f}s for 3x1000 reps)"
    )
    report(6, all(checks), detail)


def test_criterion_07_five_factor_spot_check(five_factor_study):
    e12 = Effect((1, 2))
    reg = five_factor_study.row("regression", e12)
    wgt = five_factor_study.row("weighting_interaction", e12)
    ok = (
        abs(reg.bias - 4.225) <= 0.15
        and abs(wgt.bias) <= 0.03
        and 0.75 * 0.087 <= wgt.rmse <= 1.25 * 0.087
        and five_factor_study.wall_time <= 1800
    )
    report(
        7,
        ok,
        f"regression z1*z2 bias {reg.bias:.3f}, weighting bias {wgt.bias:.3f}, "
        f"rmse {wgt.rmse:.3f}, {five_factor_study.wall_time:.0f}s",
    )


def test_criterion_08_variance_calibration(three_factor_studies):
    checks = []
    cells = []
    for outcome, study in three_factor_studies.items():
        for e in (E1, E2, E3):
            row = study.row("weighting_additive", e)
            cells.append((outcome, e.label(), row.var_ratio, row.coverage))
            checks.append(0.85 <= row.var_ratio <= 1.05)
            checks.append(0.91 <= row.coverage <= 0.97)
    y1_row = three_factor_studies["Y1"].row("weighting_additive", E1)
    checks.append(abs(y1_row.cons_var - 8.155) <= 0.15 * 8.155)
    worst_ratio = min(c[2] for c in cells), max(c[2] for c in cells)
    worst_cov = min(c[3] for c in cells), max(c[3] for c in cells)
    report(
        8,
        all(checks),
        f"additive var ratios in {worst_ratio}, coverage in {worst_cov}, "
        f"Y1 consistent var {y1_row.cons_var:.3f} (target 8.155 +-15%)",
    )


def test_criterion_09_heteroskedastic(hetero_studies):
    checks = []
    covs = []
    for outcome, study in hetero_studies.items():
        for e in (E1, E2, E3):
            row = study.row("weighting_interaction", e)
            covs.append(row.coverage)
            checks.append(0.91 <= row.coverage <= 0.97)
    rmse = hetero_studies["Y1"].row("weighting_interaction", E1).rmse
    checks.append(0.8 * 0.200 <= rmse <= 1.2 * 0.200)
    report(
        9,
        all(checks),
        f"C=10 coverage in [{min(covs):.3f}, {max(covs):.3f}], Y1 z1 RMSE {rmse:.3f}",
    )


def certified_feasible(system):
    """Whether a converged dual solve gives weights that pass the LP's own
    acceptance check in ``oracles.check_feasibility``: ``w >= 0`` and
    ``max|Bw - b| <= 1e-7 * max(1, max|b|)`` on the dense ``B``. Such
    weights prove feasibility as the LP's would; a draw without them goes
    to the LP."""
    sol = solve_dual(system)
    if not sol.converged:
        return False
    w, b = sol.weights, system.b
    scale = max(1.0, float(np.max(np.abs(b))))
    return bool(np.all(w >= 0) and np.max(np.abs(system.B @ w - b)) <= 1e-7 * scale)


def test_criterion_10_feasibility_rate():
    n, draws = 2000, 1000
    feasible = 0
    betas = [
        np.array([0.25, 0.5, 0.0, 0.75, 1.0]),
        np.array([0.75, 0.25, 1.0, 0.0, 0.5]),
        np.array([1.0, 0.0, 0.75, 0.5, 0.25]),
    ]
    design = full_design(3, 2)
    for rep in range(draws):
        rng = np.random.default_rng([SEED + 10, rep])
        X = rng.normal(size=(n, 5))
        Z = np.empty((n, 3), dtype=int)
        for j, b in enumerate(betas):
            Z[:, j] = np.where(rng.random(n) < expit(X @ b), 1, -1)
        ds = Dataset(Z, X, np.zeros(n))
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        feasible += certified_feasible(system) or check_feasibility(system)
    report(10, feasible >= 995, f"{feasible}/1000 draws feasible at N=2000")


def test_criterion_11_studentized_normality(three_factor_studies):
    study = three_factor_studies["Y1"]
    truth = true_effects(Scenario("three_factor", 1000, "Y1", seed=SEED))
    vals, sig2 = study.estimates[("weighting_interaction", E1)]
    stats = (vals - truth[E1]) / np.sqrt(sig2 / 1000)
    sk = float(skew(stats))
    ku = float(kurtosis(stats))
    cover = study.row("weighting_interaction", E1).coverage
    ok = abs(sk) < 0.15 and abs(ku) < 0.3 and 0.93 <= cover <= 0.97
    report(
        11,
        ok,
        f"studentized z1: skew {sk:+.3f}, excess kurtosis {ku:+.3f}, coverage {cover:.3f}",
    )


def test_criterion_12_balance_diagnostics():
    sc = Scenario("three_factor", 1000, "Y1", seed=SEED + 12)
    ds, _ = generate(sc, 0)
    design = full_design(3, 1)
    system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
    sol = solve_dual(system)
    assert sol.converged
    rows = smd_report(ds, sol.weights, effect_index_set(3, 1), design)
    worst_after = max(r.after for r in rows)
    worst_before = max(r.before for r in rows)
    ok = worst_after <= 1e-6
    report(
        12,
        ok,
        f"max SMD after weighting {worst_after:.1e} (before {worst_before:.2f})",
    )
