"""The benchmark's three workloads: inputs, the timed op, and output checks.

Every op is closed loop: one process, one op in flight. Inputs come from
``factorbal.simulation.generate`` with a stream derived from the
workload seed and the op index, so the same seed gives the same inputs
and each op of a run sees a fresh draw. See README.md for why each
workload exists and which module each per-layer metric belongs to.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

import factorbal
from factorbal import balance, cli, design, estimation, simulation, solver
from factorbal.design import effect_index_set, interaction_value
from factorbal.simulation import Scenario
from tracing import patched

K, K_PRIME = 5, 2
EFFECTS = effect_index_set(K, K_PRIME)
WARMUP_SEED = 999_999  # fixed, so that set-up does the same work for every seed
RESIDUAL_TOL = 1e-8  # max|Bw - b| <= RESIDUAL_TOL * (1 + max|b|)
REFERENCE_RTOL = 1e-7  # |value - ref| <= REFERENCE_RTOL * (1 + |ref|)


def derive_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


@dataclass
class Outcome:
    """Checked result of one op.

    ``errors`` are failed checks (wrong output). ``failed`` marks an op
    that gave no result: the estimate exited non-zero or the fit did not
    converge. ``fits``/``fits_failed`` count balancing-weight and baseline
    fits, failed ones being those that raised, did not converge or were
    infeasible; a study op reports its infeasible replications there and
    still succeeds. ``values`` are the
    op's estimates and variances by label, compared with the reference
    on the default seed and between repeated runs of one input.
    """

    fits: int
    fits_failed: int = 0
    failed: bool = False
    errors: list[str] = field(default_factory=list)
    values: dict[str, list] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors and not self.failed


def check_fit(system, weights, estimates, tag: str) -> list[str]:
    """Exact balance, nonnegative weights and finite positive variances."""
    if weights.shape != (system.n,):
        return [f"{tag}: {weights.shape[0]} weights for {system.n} units"]
    errors = []
    res = balance.balance_residuals(weights, system).max_abs
    if not res <= RESIDUAL_TOL * (1.0 + float(np.max(np.abs(system.b)))):
        errors.append(f"{tag}: max|Bw-b| = {res:.3e} above tolerance")
    if not np.all(weights >= 0) or not np.all(np.isfinite(weights)):
        errors.append(f"{tag}: weights negative or non-finite")
    if estimates is not None:
        if [e.effect for e in estimates] != EFFECTS:
            errors.append(f"{tag}: estimated effects differ from the retained set")
        for e in estimates:
            if not (math.isfinite(e.tau_hat) and math.isfinite(e.sigma2_hat)
                    and e.sigma2_hat > 0):
                errors.append(f"{tag}: {e.effect.label()} estimate or variance invalid")
    return errors


def compare(values: dict, ref: dict, what: str) -> list[str]:
    """Differences between two label -> [number | None] maps."""
    if values.keys() != ref.keys():
        return [f"{what}: labels differ"]
    errors = []
    for label, refs in ref.items():
        got = values[label]
        if len(got) != len(refs):
            errors.append(f"{what}: {label} has {len(got)} values, expected {len(refs)}")
            continue
        for a, r in zip(got, refs):
            if (a is None) != (r is None) or (
                r is not None and not abs(a - r) <= REFERENCE_RTOL * (1 + abs(r))
            ):
                errors.append(f"{what}: {label} = {a!r}, expected {r!r}")
                break
    return errors


class Workload:
    """One benchmark workload.

    ``units`` is the work per op that timings are divided by
    (replications for the study, one estimate or fit otherwise).
    ``traced`` lists (module, {attribute: span name}) pairs whose calls
    the traced run wraps in spans; the op itself reaches them through
    those module attributes.
    """

    name: str
    units = 1
    traced: list = []

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed = seed
        self.workdir = workdir

    def scenario(self, n: int, i: int | None) -> Scenario:
        """Op ``i``'s draw, or the warm-up draw when ``i`` is None."""
        seed = WARMUP_SEED if i is None else derive_seed(self.seed, i)
        return Scenario("five_factor", n, "Y2", seed=seed)

    def prepare(self, i: int):
        raise NotImplementedError

    def warmup_input(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> Outcome:
        raise NotImplementedError


class MonteCarlo(Workload):
    """The paper's five-factor study, in batches of replications."""

    name = "mc5-n2k"
    n = 2000
    estimators = ("regression", "weighting_interaction")
    traced = [
        (simulation, {
            "generate": "simulation.generate",
            "full_design": "design.build",
            "ols_regression_baseline": "estimation.baselines",
            "build_balance_system": "balance.build",
            "solve_dual": "solver.solve",
            "weighted_estimates": "estimation.estimates",
        }),
    ]

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.units = 2 if smoke else 4

    def prepare(self, i):
        return self.scenario(self.n, i)

    def warmup_input(self):
        return self.scenario(self.n, None)

    def run(self, scenario):
        return simulation.run_study(
            scenario, reps=self.units, estimators=self.estimators,
            keep_estimates=True,
        )

    def check(self, scenario, report) -> Outcome:
        """Refit every replication to check its weights and estimates.

        The study keeps the replications whose weighting fit converged and
        whose variance could be estimated; its estimates must be the refits'
        ``mean(w * c * Y)``, in order, and its failure count the reps it
        dropped.
        """
        failures = {r.estimator: r.failures for r in report.rows}
        out = Outcome(fits=self.units * len(self.estimators),
                      fits_failed=sum(failures.values()))
        full = design.full_design(K, K_PRIME)
        taus = []
        for rep in range(self.units):
            ds, _ = simulation.generate(scenario, rep)
            system = balance.build_balance_system(
                ds, balance.BasisSpec(), full, drop_redundant=True
            )
            sol = solver.solve_dual(system)
            if sol.converged:
                out.errors += check_fit(system, sol.weights, None, f"rep {rep}")
                taus.append([np.mean(sol.weights * interaction_value(ds.Z, e.members) * ds.Y)
                             for e in EFFECTS])
        for e in EFFECTS:
            for name in self.estimators:
                vals, sig2 = report.estimates[(name, e)]
                out.values[f"{name}|{e.label()}"] = [float(v) for v in vals] + [
                    None if math.isnan(s) else float(s) for s in sig2
                ]
                if not np.all(np.isfinite(vals)):
                    out.errors.append(f"{name} {e.label()}: non-finite estimate")
            sig2 = report.estimates[("weighting_interaction", e)][1]
            if not (np.all(np.isfinite(sig2)) and np.all(sig2 > 0)):
                out.errors.append(f"{e.label()}: variance not finite and positive")
        kept = np.array([report.estimates[("weighting_interaction", e)][0]
                         for e in EFFECTS]).T
        matched = 0
        for row in taus:
            if matched < len(kept) and np.allclose(row, kept[matched], rtol=1e-12, atol=0):
                matched += 1
        if matched != len(kept):
            out.errors.append("study estimates are not the refitted weights' means")
        if self.units - matched != failures["weighting_interaction"]:
            out.errors.append("study failure count differs from the dropped reps")
        return out


class CliEstimate(Workload):
    """``factorbal estimate`` on a CSV whose two cells have no units.

    The warm-up and smoke inputs keep two covariates and 800 units, which
    is about the smallest such input whose balance constraints are
    usually feasible.
    """

    name = "cli5-incomplete-n5k"
    removed = ((1, 1, 1, 1, 1), (1, 1, 1, -1, -1))
    small = (800, 2)  # units, covariates
    traced = [
        (cli, {
            "load_dataset": "cli.load",
            "resolve_design": "design.build",
            "build_balance_system": "balance.build",
            "solve_dual": "solver.solve",
            "weighted_estimates": "estimation.estimates",
        }),
    ]

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.size = self.small if smoke else (5000, 5)

    def _write(self, size: tuple[int, int], i: int | None):
        n, d = size
        ds, _ = simulation.generate(self.scenario(n, i), 0)
        keep = np.ones(ds.n, dtype=bool)
        for cell in self.removed:
            keep &= ~np.all(ds.Z == np.array(cell), axis=1)
        ds = factorbal.Dataset(ds.Z[keep], ds.X[keep, :d], ds.Y[keep])
        path = self.workdir / f"cli-{i}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"t{j + 1}" for j in range(K)]
                       + [f"x{j + 1}" for j in range(ds.d)] + ["y"])
            for z, x, y in zip(ds.Z.tolist(), ds.X.tolist(), ds.Y.tolist()):
                w.writerow(z + [repr(v) for v in x] + [repr(y)])
        return ds, path, self.workdir / f"cli-{i}"

    def prepare(self, i):
        return self._write(self.size, i)

    def warmup_input(self):
        return self._write(self.small, None)

    def run(self, inp):
        """The command, with a pass-through wrapper that keeps the balance
        system it solves, so that the check sees exactly that system."""
        ds, path, prefix = inp
        built = []
        build = cli.build_balance_system

        def keep(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        with patched(cli, {"build_balance_system": keep}):
            code = cli.main([
                "estimate", "--data", str(path),
                "--factors", ",".join(f"t{j + 1}" for j in range(K)),
                "--covariates", ",".join(f"x{j + 1}" for j in range(ds.d)),
                "--outcome", "y", "--unobserved", "auto",
                "--max-order", str(K_PRIME), "--out", str(prefix),
            ])
        return code, built

    def check(self, inp, result) -> Outcome:
        """Exit code, one effects row per retained effect, and the written
        weights' balance on the system the command solved."""
        ds, path, prefix = inp
        code, built = result
        out = Outcome(fits=1)
        if code != 0:
            out.fits_failed, out.failed = 1, True
            if code not in (cli.EXIT_INFEASIBLE, cli.EXIT_NONCONVERGENCE):
                out.errors.append(f"exit code {code}")
            return out
        with open(f"{prefix}_effects.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [r["effect"] for r in rows] != [e.label() for e in EFFECTS]:
            out.errors.append("effects rows differ from the retained effects")
        for r in rows:
            est, var = float(r["estimate"]), float(r["variance"])
            lo, hi = float(r["ci_low"]), float(r["ci_high"])
            if not (math.isfinite(est) and math.isfinite(var) and var > 0 and lo < est < hi):
                out.errors.append(f"{r['effect']}: estimate, variance or interval invalid")
            out.values[r["effect"]] = [est, var]
        with open(f"{prefix}_weights.csv", newline="") as fh:
            w = np.array([float(r["weight"]) for r in csv.DictReader(fh)])
        (system,) = built
        unobserved = system.design.unobserved.shape[0]
        if unobserved != len(self.removed):
            out.errors.append(f"{unobserved} cells unobserved")
        out.errors += check_fit(system, w, None, "weights")
        return out


class LibraryFit(Workload):
    """The README's library path on one large five-factor sample.

    One draw of the first 60 tried leaves ``solve_dual`` creeping just
    above its gradient tolerance (0.7 s per iteration at this size); with
    the default 500 iterations that op would run for minutes, past the
    benchmark's time limit. The solver is therefore given 40 iterations:
    such an op fails, visibly, in about 30 s. The other draws converged in
    9 to 13 iterations, so the cap does not change them.
    """

    name = "fit5-n100k"
    options = solver.SolverOptions(max_iters=40)
    traced = [
        (design, {"full_design": "design.build"}),
        (balance, {"build_balance_system": "balance.build"}),
        (solver, {"solve_dual": "solver.solve"}),
        (estimation, {"weighted_estimates": "estimation.estimates"}),
    ]

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.n = 2000 if smoke else 100_000

    def prepare(self, i):
        return simulation.generate(self.scenario(self.n, i), 0)[0]

    def warmup_input(self):
        return simulation.generate(self.scenario(2000, None), 0)[0]

    def run(self, ds):
        full = design.full_design(K, K_PRIME)
        system = balance.build_balance_system(
            ds, balance.BasisSpec(), full, drop_redundant=True
        )
        sol = solver.solve_dual(system, self.options)
        if not sol.converged:
            return system, sol, None
        ests = estimation.weighted_estimates(ds, system, sol.weights, sol.lam, EFFECTS)
        return system, sol, ests

    def check(self, ds, result) -> Outcome:
        system, sol, ests = result
        out = Outcome(fits=1)
        if ests is None:
            out.fits_failed, out.failed = 1, True
            return out
        out.errors += check_fit(system, sol.weights, ests, "fit")
        out.values = {e.effect.label(): [e.tau_hat, e.sigma2_hat] for e in ests}
        return out


WORKLOADS = {w.name: w for w in (MonteCarlo, CliEstimate, LibraryFit)}
