import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from factorbal.balance import BasisSpec, balance_residuals, build_balance_system
from factorbal.data import Dataset
from factorbal.design import enumerate_combinations, full_design
from factorbal.errors import InfeasibleProblemError
from factorbal.simulation import Scenario, generate
import factorbal
from factorbal import solver
from factorbal.solver import ROUNDOFF, SolverOptions, _eval, solve_dual, stall_tolerance
from oracles import check_feasibility, primal_oracle


def feasible_instance(seed, n=30, k=2, d=2, k_prime=1):
    """Random instance, resampled until exactly balanceable."""
    combos = enumerate_combinations(k)
    for attempt in range(20):
        rng = np.random.default_rng(seed * 100 + attempt)
        Z = combos[rng.integers(0, combos.shape[0], n)]
        X = rng.normal(size=(n, d))
        ds = Dataset(Z, X, rng.normal(size=n))
        system = build_balance_system(
            ds, BasisSpec(), full_design(k, k_prime), drop_redundant=True
        )
        if check_feasibility(system):
            return ds, system
    raise RuntimeError("could not draw a feasible instance")


def dual_objective(lam, system):
    return _eval(np.asarray(lam, dtype=float), system, system.b)[3]


def balanced_constant_system(k):
    Z = enumerate_combinations(k)
    ds = Dataset(Z, np.zeros((2**k, 1)), np.zeros(2**k))
    spec = BasisSpec(covariate_bases=[lambda x: np.ones(x.shape[0])])
    return build_balance_system(ds, spec, full_design(k, 1))


class TestDualObjective:
    def test_zero_multipliers(self):
        _, system = feasible_instance(1)
        assert dual_objective(np.zeros(system.p), system) == 0.0

    def test_zero_targets_inactive_region(self):
        _, system = feasible_instance(2)
        zeroed = dataclasses.replace(system, coef=np.zeros_like(system.coef))
        # any multiplier keeping lam'B_i >= 0 for all units scores zero
        lam = np.zeros(system.p)
        found = None
        rng = np.random.default_rng(0)
        for _ in range(200):
            cand = rng.normal(size=system.p)
            if np.all(system.B.T @ cand >= 0):
                found = cand
                break
        if found is None:
            # negated column sums always work for nonnegative rows; fall
            # back to the trivial point
            found = lam
        assert dual_objective(found, zeroed) == pytest.approx(0.0)

    def test_matches_general_objective_form(self):
        # rho(gamma_i - lam'B_i) - lam'b_i with rho(v) = -v^2/4 and the
        # explicit multiplier gamma_i = lam'B_i on its nonnegative side
        _, system = feasible_instance(3)
        rng = np.random.default_rng(42)
        for _ in range(5):
            lam = rng.normal(scale=0.5, size=system.p)
            u = system.B.T @ lam
            gamma = np.where(u >= 0, u, 0.0)
            rho = -((gamma - u) ** 2) / 4.0
            expected = float(rho.sum() - lam @ system.b)
            assert dual_objective(lam, system) == pytest.approx(expected, rel=1e-12)


class TestSolveDual:
    def test_balanced_design_exact_weights(self):
        system = balanced_constant_system(2)
        sol = solve_dual(system)
        assert (sol.status, sol.stop_reason) == ("converged", "gradient")
        assert np.max(np.abs(sol.weights - 2.0)) < 1e-9
        assert balance_residuals(sol.weights, system).max_abs < 1e-9

    def test_single_cell_infeasible(self):
        Z = np.tile([[1, 1]], (4, 1))
        ds = Dataset(Z, np.zeros((4, 1)), np.zeros(4))
        spec = BasisSpec(covariate_bases=[lambda x: np.ones(x.shape[0])])
        system = build_balance_system(ds, spec, full_design(2, 1))
        sol = solve_dual(system)
        assert (sol.status, sol.stop_reason) == ("infeasible", "diverged")
        # certificate: the targets are inconsistent with the coefficients
        aug = np.hstack([system.B, system.b[:, None]])
        assert np.linalg.matrix_rank(aug) > np.linalg.matrix_rank(system.B)

    def test_matches_primal_oracle(self):
        ds, system = feasible_instance(4)
        sol = solve_dual(system)
        assert sol.converged
        w_oracle = primal_oracle(system)
        assert np.max(np.abs(sol.weights - w_oracle)) < 1e-6

    def test_kkt_identities(self):
        _, system = feasible_instance(5)
        sol = solve_dual(system)
        assert sol.converged
        assert np.all(sol.weights >= 0)
        assert np.max(np.abs(sol.gamma * sol.weights)) <= 1e-8
        recon = (sol.gamma - system.B.T @ sol.lam) / 2.0
        assert np.max(np.abs(sol.weights - recon)) < 1e-10

    def test_monotone_objective_trace(self):
        _, system = feasible_instance(6)
        sol = solve_dual(system)
        trace = np.array(sol.objective_trace)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_row_rescaling_leaves_weights_unchanged(self):
        _, system = feasible_instance(7)
        sol = solve_dual(system)
        rng = np.random.default_rng(7)
        scale = rng.uniform(0.2, 5.0, system.p)
        scaled = dataclasses.replace(
            system, G=system.G * scale[:, None], coef=system.coef * scale
        )
        sol2 = solve_dual(scaled)
        assert sol2.converged
        assert np.max(np.abs(sol.weights - sol2.weights)) < 1e-6

    def test_roundoff_level_steps_must_lower_the_gradient(self):
        # rows scaled by 1e3 put the last Newton steps' objective changes
        # within roundoff; accepting them regardless of the gradient left
        # the solver stepping in place until max_iters
        ds, _ = generate(Scenario("five_factor", 2000, "Y2", seed=0), 0)
        system = build_balance_system(ds, BasisSpec(), full_design(5, 2), drop_redundant=True)
        scaled = dataclasses.replace(system, G=system.G * 1e3, coef=system.coef * 1e3)
        sol = solve_dual(scaled, SolverOptions(max_iters=60))
        assert sol.converged
        assert sol.iterations <= 20
        assert balance_residuals(sol.weights, scaled).max_abs <= sol.grad_norm
        trace = np.array(sol.objective_trace)
        assert np.all(np.diff(trace) >= -ROUNDOFF * np.maximum(1.0, np.abs(trace[:-1])))

    def test_converges_within_iteration_budget(self):
        _, system = feasible_instance(8)
        sol = solve_dual(system, SolverOptions(max_iters=100))
        assert sol.converged
        assert sol.iterations < 100

    def test_max_iters_status(self):
        _, system = feasible_instance(9)
        sol = solve_dual(system, SolverOptions(max_iters=1))
        assert (sol.status, sol.stop_reason) == ("max_iters", "max_iters")

    def test_stall_is_recorded(self, monkeypatch):
        # no iterate reaches a 1e-30-per-unit gradient: the line search runs
        # out of ascent at floating precision and the looser tolerance decides
        monkeypatch.setattr(solver, "GRAD_TOL", 1e-30)
        _, system = feasible_instance(1)
        sol = solve_dual(system)
        assert (sol.status, sol.stop_reason) == ("converged", "stalled")
        assert sol.grad_norm <= stall_tolerance(system.b)

    def test_stall_above_the_balance_bound_is_not_converged(self):
        # with one BLAS thread this five-factor draw's line search stalls
        # at max|Bw - b| = 2.16e-5, above the balance bound
        # 1e-8 * (1 + max|b|) = 2.0e-5 (with two it reaches the gradient
        # tolerance); the rounding follows the thread count, which is set
        # before numpy loads, so the solve runs in a fresh process
        code = (
            "import json, numpy as np\n"
            "from factorbal.balance import BasisSpec, balance_residuals, build_balance_system\n"
            "from factorbal.design import full_design\n"
            "from factorbal.simulation import Scenario, generate\n"
            "from factorbal.solver import solve_dual, stall_tolerance\n"
            "ds, _ = generate(Scenario('five_factor', 2000, 'Y2', seed=5_000_093), 2)\n"
            "system = build_balance_system(ds, BasisSpec(), full_design(5, 2), drop_redundant=True)\n"
            "sol = solve_dual(system)\n"
            "print(json.dumps([sol.status, sol.stop_reason, sol.grad_norm,\n"
            "    balance_residuals(sol.weights, system).max_abs,\n"
            "    1e-8 * (1 + float(np.max(np.abs(system.b)))), stall_tolerance(system.b)]))\n"
        )
        src = str(Path(factorbal.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        status, reason, grad_norm, resid, bound, tolerance = json.loads(out.stdout)
        assert tolerance == bound
        assert status != "converged" or resid <= bound
        if reason == "stalled":
            assert status == ("converged" if grad_norm <= bound else "max_iters")

    def test_five_factor_solve_makes_few_evaluations(self, monkeypatch):
        # starting from the all-active step avoids a Newton step on a
        # nearly empty active set and its 32 backtracking evaluations
        ds, _ = generate(Scenario("five_factor", 2000, "Y2", seed=0), 0)
        system = build_balance_system(ds, BasisSpec(), full_design(5, 2), drop_redundant=True)
        calls = []

        def counted(*args):
            calls.append(1)
            return _eval(*args)

        monkeypatch.setattr(solver, "_eval", counted)
        assert solve_dual(system).converged
        assert len(calls) <= 12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_balanced_constant_system_takes_one_iteration(self, k):
        sol = solve_dual(balanced_constant_system(k))
        assert sol.converged
        assert sol.iterations == 1

    def test_first_step_gives_minimum_norm_weights(self, monkeypatch):
        # from lam = 0 every unit sits at the kink and counts as active, so
        # the first Newton step's weights are B'(BB')^{-1} b; a tiny ridge
        # keeps the regularization's own bias below the tolerance
        monkeypatch.setattr(solver, "HESSIAN_RIDGE", 1e-14)
        _, system = feasible_instance(11, n=80, k=2, d=1)
        w_min = np.linalg.lstsq(system.B, system.b, rcond=None)[0]
        assert np.all(w_min > 0)
        sol = solve_dual(system, SolverOptions(max_iters=1))
        assert sol.iterations == 1
        assert np.max(np.abs(sol.weights - w_min)) <= 1e-10

    def test_failed_cholesky_falls_back_to_gradient_steps(self, monkeypatch):
        # every Newton factorization fails: the solve takes gradient steps
        # only, ascends, and ends in a documented status without raising
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(solver.sla, "cho_factor", fail)
        _, system = feasible_instance(11, n=80, k=2, d=1)
        sol = solve_dual(system, SolverOptions(max_iters=50))
        assert sol.status in (solver.CONVERGED, solver.INFEASIBLE, solver.MAX_ITERS)
        assert sol.stop_reason in (solver.GRADIENT, solver.STALLED, solver.DIVERGED, solver.MAX_ITERS)
        assert sol.iterations > 0 and sol.objective > sol.objective_trace[0]
        assert np.all(np.diff(sol.objective_trace) >= -ROUNDOFF * np.abs(sol.objective_trace[1:]))
        assert np.all(sol.weights >= 0) and np.all(np.isfinite(sol.weights))

    def test_option_validation(self):
        # only a positive int that is not a bool is a budget: a nan one ran
        # no iteration and returned all-zero weights as max_iters
        for bad in (0, -3, float("nan"), 2.5, 10.0, True, False, "5", None):
            with pytest.raises(ValueError, match="max_iters"):
                SolverOptions(max_iters=bad)
        assert SolverOptions(max_iters=1).max_iters == 1


class TestPrimalOracle:
    def test_balanced_design(self):
        system = balanced_constant_system(2)
        assert np.max(np.abs(primal_oracle(system) - 2.0)) < 1e-9

    def test_interior_solution_is_minimum_norm(self):
        # when nonnegativity never binds the answer is the pseudoinverse one
        ds, system = feasible_instance(10, n=80, k=2, d=1)
        w_min = np.linalg.lstsq(system.B, system.b, rcond=None)[0]
        if np.all(w_min >= 0):
            assert np.max(np.abs(primal_oracle(system) - w_min)) < 1e-8

    def test_beats_random_feasible_points(self):
        ds, system = feasible_instance(11)
        w_star = primal_oracle(system)
        obj_star = float(w_star @ w_star)
        # random feasible points: perturb within the nullspace, keep w >= 0
        _, _, vt = np.linalg.svd(system.B)
        null = vt[np.linalg.matrix_rank(system.B):]
        rng = np.random.default_rng(0)
        tried = 0
        for _ in range(1000):
            w = w_star + null.T @ rng.normal(scale=0.3, size=null.shape[0])
            if np.all(w >= 0):
                tried += 1
                assert float(w @ w) >= obj_star - 1e-9
        assert tried > 100

    def test_infeasible_raises(self):
        Z = np.tile([[1, 1]], (4, 1))
        ds = Dataset(Z, np.zeros((4, 1)), np.zeros(4))
        spec = BasisSpec(covariate_bases=[lambda x: np.ones(x.shape[0])])
        system = build_balance_system(ds, spec, full_design(2, 1))
        with pytest.raises(InfeasibleProblemError):
            primal_oracle(system)
        assert not check_feasibility(system)

    def test_oracle_agreement_with_dual_across_seeds(self):
        for seed in range(12, 22):
            _, system = feasible_instance(seed)
            sol = solve_dual(system)
            assert sol.converged
            gap = np.max(np.abs(sol.weights - primal_oracle(system)))
            assert gap < 1e-5
