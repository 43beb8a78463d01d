"""Monte Carlo studies: synthetic observational factorial data with known
effects, and a replication harness reporting bias, RMSE, variance
calibration and confidence-interval coverage per estimator and effect.

Two scenario families are built in. ``three_factor`` draws three binary
factors whose assignment follows independent logistic models in five
standard-normal covariates, with only main effects retained; outcomes Y1
(additive), Y2 (covariate-by-factor heterogeneity) and Y3 (nonlinear,
outside the balanced span) share the same assignment draw. ``five_factor``
adds two factors and a pairwise product term, retaining effects up to
order two. True effect values are derived from the closed-form expected
cell means, contracted with the contrast matrix.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .balance import BasisSpec, build_balance_system
from .data import Dataset
from .design import (
    Effect,
    FactorialDesign,
    contrast_vector,
    effect_index_set,
    enumerate_combinations,
    full_design,
)
from .errors import ConfigurationError, FactorbalError
from .estimation import (
    ols_regression_baseline,
    unadjusted_baseline,
    weighted_estimates,
)
from .solver import SolverOptions, solve_dual

ASSIGNMENT_COEFS = {
    1: np.array([1 / 4, 2 / 4, 0.0, 3 / 4, 1.0]),
    2: np.array([3 / 4, 1 / 4, 1.0, 0.0, 2 / 4]),
    3: np.array([1.0, 0.0, 3 / 4, 2 / 4, 1 / 4]),
    4: np.array([1 / 4, -1 / 4, 1.0, 3 / 4, 2 / 4]),
    5: np.array([0.0, 3 / 4, -2 / 4, 2 / 4, 1 / 4]),
}

ESTIMATORS = (
    "unadjusted",
    "regression",
    "weighting_additive",
    "weighting_interaction",
)

# expected value of max of two independent standard normals
MEAN_MAX_TWO_NORMALS = 1.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration."""

    name: str
    n: int
    outcome: str = "Y1"
    hetero_c: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.name not in ("three_factor", "five_factor"):
            raise ConfigurationError(f"unknown scenario {self.name!r}")
        if self.n < 100:
            raise ConfigurationError("scenario sample size must be at least 100")
        allowed = ("Y1", "Y2", "Y3") if self.name == "three_factor" else ("Y1", "Y2")
        if self.outcome not in allowed:
            raise ConfigurationError(
                f"outcome {self.outcome!r} not available for {self.name}"
            )
        if self.hetero_c is not None and self.hetero_c <= 0:
            raise ConfigurationError("heteroskedasticity bound must be positive")

    @property
    def k(self) -> int:
        return 3 if self.name == "three_factor" else 5

    @property
    def k_prime(self) -> int:
        return 1 if self.name == "three_factor" else 2


def _mean_outcome(scenario: Scenario, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    z = Z.astype(float)
    if scenario.outcome == "Y1":
        m = 6 * X[:, 0] + 5 * X[:, 1] + 4 * X[:, 2] + 3 * X[:, 4] + 2 * z[:, 2]
    elif scenario.outcome == "Y2":
        m = (
            6 * X[:, 0]
            + 5 * X[:, 1]
            + 4 * X[:, 2] * z[:, 0]
            + 3 * X[:, 4] * z[:, 1]
            + 2 * z[:, 2]
        )
    else:  # Y3, three_factor only
        m = (
            6 * np.sin(X[:, 0])
            + 5 * X[:, 1]
            + 4 * X[:, 2] * z[:, 0]
            + 3 * np.maximum(X[:, 3], X[:, 4]) * z[:, 1]
            + 2 * z[:, 2]
        )
    if scenario.name == "five_factor":
        m = m + z[:, 3] * z[:, 4]
    return m


def expected_cell_means(scenario: Scenario) -> np.ndarray:
    """E[Y(z)] for every treatment combination, in enumeration order.

    Covariates are standard normal, so linear covariate terms integrate to
    zero, E[sin(X)] = 0, and the max of two independent coordinates has
    mean 1/sqrt(pi).
    """
    cells = enumerate_combinations(scenario.k).astype(float)
    m = 2 * cells[:, 2]
    if scenario.outcome == "Y3":
        m = m + 3 * MEAN_MAX_TWO_NORMALS * cells[:, 1]
    if scenario.name == "five_factor":
        m = m + cells[:, 3] * cells[:, 4]
    return m


# true effects by (scenario name, outcome), the only fields they depend on
_TRUTH: dict[tuple[str, str], dict[Effect, float]] = {}


def true_effects(scenario: Scenario) -> dict[Effect, float]:
    """True factorial effects of order up to the scenario's retained order,
    as a fresh dict (computed once per scenario name and outcome)."""
    key = (scenario.name, scenario.outcome)
    if key not in _TRUTH:
        k = scenario.k
        means = expected_cell_means(scenario)
        _TRUTH[key] = {
            e: float(contrast_vector(e, k).astype(float) @ means) / 2 ** (k - 1)
            for e in effect_index_set(k, scenario.k_prime)
        }
    return dict(_TRUTH[key])


def generate(scenario: Scenario, rep_index: int) -> tuple[Dataset, dict[Effect, float]]:
    """Draw one replication; the stream is derived from (seed, rep_index)."""
    rng = np.random.default_rng([scenario.seed, rep_index])
    n, k = scenario.n, scenario.k
    X = rng.standard_normal((n, 5))
    Z = np.empty((n, k), dtype=np.int8)
    for j in range(k):
        p = expit(X @ ASSIGNMENT_COEFS[j + 1])
        Z[:, j] = np.where(rng.random(n) < p, 1, -1)
    if scenario.hetero_c is None:
        eps = rng.standard_normal(n)
    else:
        v = rng.uniform(0.0, scenario.hetero_c, n)
        eps = rng.standard_normal(n) * np.sqrt(v)
    Y = _mean_outcome(scenario, X, Z) + eps
    return Dataset(Z, X, Y), true_effects(scenario)


@dataclass(frozen=True)
class StudyRow:
    """Aggregated performance of one estimator on one effect."""

    estimator: str
    effect: Effect
    bias: float
    rmse: float
    sim_var: float | None
    cons_var: float | None
    var_ratio: float | None
    coverage: float | None
    failures: int
    reps_used: int


@dataclass(frozen=True)
class StudyReport:
    """Study-level summary with per-(estimator, effect) rows."""

    scenario: Scenario
    reps: int
    rows: tuple[StudyRow, ...]
    wall_time: float
    estimates: dict | None = field(default=None, compare=False)

    def row(self, estimator: str, effect: Effect) -> StudyRow:
        for r in self.rows:
            if r.estimator == estimator and r.effect == effect:
                return r
        raise KeyError((estimator, effect))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "estimator",
                    "effect",
                    "bias",
                    "rmse",
                    "sim_var",
                    "cons_var",
                    "var_ratio",
                    "coverage",
                    "failures",
                ]
            )
            for r in self.rows:
                writer.writerow(
                    [
                        r.estimator,
                        r.effect.label(),
                        f"{r.bias:.6g}",
                        f"{r.rmse:.6g}",
                        "" if r.sim_var is None else f"{r.sim_var:.6g}",
                        "" if r.cons_var is None else f"{r.cons_var:.6g}",
                        "" if r.var_ratio is None else f"{r.var_ratio:.6g}",
                        "" if r.coverage is None else f"{r.coverage:.6g}",
                        r.failures,
                    ]
                )

    def to_json(self, path) -> None:
        payload = {
            "scenario": {
                "name": self.scenario.name,
                "n": self.scenario.n,
                "outcome": self.scenario.outcome,
                "hetero_c": self.scenario.hetero_c,
                "seed": self.scenario.seed,
            },
            "reps": self.reps,
            "wall_time": self.wall_time,
            "rows": [
                {
                    "estimator": r.estimator,
                    "effect": r.effect.label(),
                    "bias": r.bias,
                    "rmse": r.rmse,
                    "sim_var": r.sim_var,
                    "cons_var": r.cons_var,
                    "var_ratio": r.var_ratio,
                    "coverage": r.coverage,
                    "failures": r.failures,
                    "reps_used": r.reps_used,
                }
                for r in self.rows
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)


def _fit_one_rep(
    scenario: Scenario,
    rep: int,
    estimators: tuple[str, ...],
    design: FactorialDesign,
    effects: list[Effect],
):
    """Per-replication estimates: {estimator: {effect: (value, variance)}},
    on the study's design and retained effects."""
    ds, _ = generate(scenario, rep)
    out: dict[str, dict | None] = {}
    for name in estimators:
        try:
            if name == "unadjusted":
                out[name] = {
                    e: (unadjusted_baseline(ds, e), None)
                    for e in effects
                    if e.order == 1
                }
            elif name == "regression":
                coefs = ols_regression_baseline(ds, effects)
                out[name] = {e: (v, None) for e, v in coefs.items()}
            elif name in ("weighting_additive", "weighting_interaction"):
                flavor = "additive" if name.endswith("additive") else "heterogeneous"
                system = build_balance_system(
                    ds, BasisSpec(model_flavor=flavor), design, drop_redundant=True
                )
                sol = solve_dual(system, SolverOptions())
                if not sol.converged:
                    out[name] = None
                    continue
                ests = weighted_estimates(ds, system, sol.weights, sol.lam, effects)
                out[name] = {r.effect: (r.tau_hat, r.sigma2_hat) for r in ests}
            else:
                raise ConfigurationError(f"unknown estimator {name!r}")
        except FactorbalError:
            out[name] = None
    return out


def run_study(
    scenario: Scenario,
    reps: int,
    estimators: tuple[str, ...] | list[str] = ESTIMATORS,
    parallelism: int = 1,
    keep_estimates: bool = False,
) -> StudyReport:
    """Replicate the scenario and aggregate estimator performance.

    Replications that fail to converge (or hit an infeasible draw) are
    counted per estimator and excluded from that estimator's aggregates.
    Results are independent of ``parallelism``.
    """
    if reps < 1:
        raise ConfigurationError("reps must be at least 1")
    estimators = tuple(estimators)
    for name in estimators:
        if name not in ESTIMATORS:
            raise ConfigurationError(f"unknown estimator {name!r}")
    t0 = time.perf_counter()
    truth = true_effects(scenario)
    design = full_design(scenario.k, scenario.k_prime)
    effects = effect_index_set(scenario.k, scenario.k_prime)

    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            per_rep = list(
                pool.map(
                    _fit_one_rep,
                    [scenario] * reps,
                    range(reps),
                    [estimators] * reps,
                    [design] * reps,
                    [effects] * reps,
                    chunksize=max(1, reps // (parallelism * 8)),
                )
            )
    else:
        per_rep = [
            _fit_one_rep(scenario, rep, estimators, design, effects) for rep in range(reps)
        ]

    rows: list[StudyRow] = []
    kept: dict = {} if keep_estimates else None
    for name in estimators:
        failures = sum(1 for r in per_rep if r[name] is None)
        ok = [r[name] for r in per_rep if r[name] is not None]
        if not ok:
            raise FactorbalError(
                f"estimator {name!r} failed on every replication"
            )
        for e in sorted(ok[0].keys()):
            vals = np.array([r[e][0] for r in ok])
            sig2 = np.array(
                [np.nan if r[e][1] is None else r[e][1] for r in ok], dtype=float
            )
            has_var = ~np.isnan(sig2)
            tau = truth[e]
            bias = float(vals.mean() - tau)
            rmse = float(np.sqrt(np.mean((vals - tau) ** 2)))
            sim_var = (
                float(scenario.n * vals.var(ddof=1)) if len(vals) > 1 else None
            )
            cons_var = float(sig2[has_var].mean()) if has_var.any() else None
            var_ratio = (
                cons_var / sim_var
                if cons_var is not None and sim_var not in (None, 0.0)
                else None
            )
            if has_var.any():
                half = 1.96 * np.sqrt(sig2[has_var] / scenario.n)
                coverage = float(
                    np.mean(np.abs(vals[has_var] - tau) <= half)
                )
            else:
                coverage = None
            rows.append(
                StudyRow(
                    name, e, bias, rmse, sim_var, cons_var, var_ratio, coverage,
                    failures, len(vals),
                )
            )
            if kept is not None:
                kept[(name, e)] = (vals, sig2)
    return StudyReport(
        scenario=scenario,
        reps=reps,
        rows=tuple(rows),
        wall_time=time.perf_counter() - t0,
        estimates=kept,
    )
