import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from factorbal.design import Effect
from factorbal.errors import ConfigurationError, FactorbalError
from factorbal.simulation import (
    ASSIGNMENT_COEFS,
    MEAN_MAX_TWO_NORMALS,
    Scenario,
    StudyReport,
    generate,
    run_study,
    true_effects,
)


class TestScenario:
    def test_assignment_coefficients(self):
        assert np.array_equal(ASSIGNMENT_COEFS[1], [0.25, 0.5, 0.0, 0.75, 1.0])
        assert np.array_equal(ASSIGNMENT_COEFS[2], [0.75, 0.25, 1.0, 0.0, 0.5])
        assert np.array_equal(ASSIGNMENT_COEFS[3], [1.0, 0.0, 0.75, 0.5, 0.25])
        assert np.array_equal(ASSIGNMENT_COEFS[4], [0.25, -0.25, 1.0, 0.75, 0.5])
        assert np.array_equal(ASSIGNMENT_COEFS[5], [0.0, 0.75, -0.5, 0.5, 0.25])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario("four_factor", 1000)
        with pytest.raises(ConfigurationError):
            Scenario("three_factor", 50)
        with pytest.raises(ConfigurationError):
            Scenario("five_factor", 1000, "Y3")
        with pytest.raises(ConfigurationError):
            Scenario("three_factor", 1000, hetero_c=-1)


class TestTruth:
    def test_three_factor_additive_and_heterogeneous(self):
        for outcome in ("Y1", "Y2"):
            truth = true_effects(Scenario("three_factor", 1000, outcome))
            assert truth[Effect((1,))] == 0.0
            assert truth[Effect((2,))] == 0.0
            assert truth[Effect((3,))] == 4.0

    def test_three_factor_misspecified(self):
        truth = true_effects(Scenario("three_factor", 1000, "Y3"))
        assert truth[Effect((1,))] == 0.0
        assert truth[Effect((3,))] == pytest.approx(4.0)
        assert truth[Effect((2,))] == pytest.approx(6 / math.sqrt(math.pi))

    def test_five_factor(self):
        truth = true_effects(Scenario("five_factor", 2000, "Y2"))
        nonzero = {e: v for e, v in truth.items() if v != 0.0}
        assert nonzero == {Effect((3,)): 4.0, Effect((4, 5)): 2.0}
        assert len(truth) == 15

    def test_truth_is_a_fresh_dict_per_call(self):
        sc = Scenario("five_factor", 2000, "Y2", seed=3, hetero_c=2.0)
        truth = true_effects(sc)
        truth[Effect((3,))] = -1.0
        again = generate(sc, 1)[1]
        assert again == true_effects(Scenario("five_factor", 500, "Y2")) != truth
        assert again[Effect((3,))] == 4.0 and again is not generate(sc, 2)[1]

    def test_max_of_normals_constant_against_quadrature(self):
        # independent check of E[max(U, V)] for standard normal U, V
        val, err = integrate.quad(
            lambda x: 2 * x * stats.norm.pdf(x) * stats.norm.cdf(x), -10, 10
        )
        assert err < 1e-10
        assert MEAN_MAX_TWO_NORMALS == pytest.approx(val, abs=1e-10)


class TestGenerate:
    def test_shapes_and_coding(self):
        ds, truth = generate(Scenario("three_factor", 500, "Y2", seed=1), 0)
        assert ds.Z.shape == (500, 3)
        assert ds.X.shape == (500, 5)
        assert set(np.unique(ds.Z)) <= {-1, 1}
        assert len(truth) == 3

    def test_reproducible_streams(self):
        sc = Scenario("three_factor", 300, "Y1", seed=9)
        a, _ = generate(sc, 4)
        b, _ = generate(sc, 4)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Z, b.Z)
        assert np.array_equal(a.Y, b.Y)
        c, _ = generate(sc, 5)
        assert not np.array_equal(a.Y, c.Y)

    def test_logistic_assignment_rate(self):
        # at the coefficient scale used, the marginal share of +1 must
        # stay near one half (symmetric covariates)
        ds, _ = generate(Scenario("three_factor", 20000, "Y1", seed=2), 0)
        shares = (ds.Z == 1).mean(axis=0)
        assert np.all(np.abs(shares - 0.5) < 0.02)

    def test_heteroskedastic_errors_scale(self):
        sc = Scenario("three_factor", 40000, "Y1", hetero_c=10.0, seed=3)
        ds, _ = generate(sc, 0)
        base = (
            6 * ds.X[:, 0] + 5 * ds.X[:, 1] + 4 * ds.X[:, 2] + 3 * ds.X[:, 4]
            + 2 * ds.Z[:, 2]
        )
        resid_var = np.var(ds.Y - base)
        # variances drawn uniformly on [0, 10] average to 5
        assert resid_var == pytest.approx(5.0, rel=0.1)


class TestRunStudy:
    def test_single_rep_degenerate_aggregation(self):
        sc = Scenario("three_factor", 400, "Y1", seed=11)
        report = run_study(sc, reps=1, estimators=("regression",))
        row = report.row("regression", Effect((3,)))
        assert row.sim_var is None
        assert row.var_ratio is None
        assert row.rmse == pytest.approx(abs(row.bias))

    def test_bitwise_reproducibility(self):
        sc = Scenario("three_factor", 300, "Y1", seed=13)
        r1 = run_study(sc, reps=3, estimators=("regression", "weighting_additive"))
        r2 = run_study(sc, reps=3, estimators=("regression", "weighting_additive"))
        assert r1.rows == r2.rows

    def test_rmse_identity(self):
        sc = Scenario("three_factor", 300, "Y1", seed=17)
        report = run_study(
            sc, reps=12, estimators=("regression",), keep_estimates=True
        )
        truth = true_effects(sc)
        for e in truth:
            vals, _ = report.estimates[("regression", e)]
            row = report.row("regression", e)
            lhs = row.rmse**2
            rhs = row.bias**2 + np.mean((vals - vals.mean()) ** 2)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_failures_counted_and_excluded(self, monkeypatch):
        import factorbal.simulation as sim

        real = sim.solve_dual
        calls = {"n": 0}

        def flaky(system, options=None):
            calls["n"] += 1
            sol = real(system, options)
            if calls["n"] == 2:
                return dataclasses.replace(sol, status="max_iters", stop_reason="max_iters")
            return sol

        monkeypatch.setattr(sim, "solve_dual", flaky)
        sc = Scenario("three_factor", 300, "Y1", seed=19)
        report = run_study(sc, reps=3, estimators=("weighting_additive",))
        row = report.row("weighting_additive", Effect((1,)))
        assert row.failures == 1
        assert row.reps_used == 2

    def test_all_failures_is_an_error(self, monkeypatch):
        import factorbal.simulation as sim

        solve_dual_orig = sim.solve_dual

        def bad_solve(system, options=None):
            real = solve_dual_orig(system, options)
            return dataclasses.replace(real, status="max_iters", stop_reason="max_iters")

        monkeypatch.setattr(sim, "solve_dual", bad_solve)
        sc = Scenario("three_factor", 300, "Y1", seed=23)
        with pytest.raises(FactorbalError):
            run_study(sc, reps=2, estimators=("weighting_additive",))

    def test_unknown_estimator_rejected(self):
        sc = Scenario("three_factor", 300, "Y1", seed=29)
        with pytest.raises(ConfigurationError):
            run_study(sc, reps=1, estimators=("magic",))
        with pytest.raises(ConfigurationError):
            run_study(sc, reps=0)

    def test_unadjusted_covers_main_effects_only(self):
        sc = Scenario("five_factor", 600, "Y1", seed=31)
        report = run_study(sc, reps=1, estimators=("regression",))
        assert len([r for r in report.rows if r.estimator == "regression"]) == 15

    def test_parallel_matches_sequential(self):
        sc = Scenario("three_factor", 300, "Y1", seed=41)
        seq = run_study(sc, reps=4, estimators=("regression",))
        par = run_study(sc, reps=4, estimators=("regression",), parallelism=2)
        assert seq.rows == par.rows

    def test_report_export(self, tmp_path):
        sc = Scenario("three_factor", 300, "Y1", seed=37)
        report = run_study(sc, reps=2, estimators=("regression", "unadjusted"))
        csv_path = tmp_path / "study.csv"
        json_path = tmp_path / "study.json"
        report.to_csv(csv_path)
        report.to_json(json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,effect,bias,rmse")
        assert len(lines) == 1 + 6  # two estimators, three effects
        import json as _json

        payload = _json.loads(json_path.read_text())
        assert payload["reps"] == 2
        assert len(payload["rows"]) == 6
