"""Command-line interface: estimate effects on CSV data, run simulation
studies, and report covariate balance diagnostics.

Exit codes: 0 success, 2 data or usage error, 3 identification error,
4 infeasible balance constraints, 5 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .balance import BasisSpec, build_balance_system
from .data import Dataset
from .design import (
    FactorialDesign,
    build_incomplete_design,
    combination_bits,
    effect_index_set,
    enumerate_combinations,
)
from .errors import (
    ConfigurationError,
    DataError,
    FactorbalError,
    IdentificationError,
    InfeasibleProblemError,
)
from .estimation import smd_report, weighted_estimates
from .simulation import ESTIMATORS, Scenario, run_study
from .solver import INFEASIBLE, STALLED, SolverOptions, solve_dual, stall_tolerance

EXIT_OK = 0
EXIT_DATA = 2
EXIT_IDENTIFICATION = 3
EXIT_INFEASIBLE = 4
EXIT_NONCONVERGENCE = 5

# the keys a --config file may set
CONFIG_KEYS = (
    "data_path", "factor_columns", "covariate_columns", "outcome_column",
    "unobserved_combinations", "max_iters", "factor_coding", "max_order",
    "model_flavor", "out_prefix", "out_format",
)


@dataclass
class RunConfig:
    """Configuration of an estimation or diagnostics run."""

    data_path: str
    factor_columns: list[str]
    covariate_columns: list[str]
    outcome_column: str
    factor_coding: str = "pm1"
    max_order: int = 2
    model_flavor: str = "heterogeneous"
    unobserved: str | list = "none"  # "none", "auto", or explicit combinations
    out_prefix: str = "factorbal"
    out_format: str = "csv"
    solver: SolverOptions = field(default_factory=SolverOptions)

    def validate(self) -> None:
        cols = self.factor_columns + self.covariate_columns + [self.outcome_column]
        if len(set(cols)) != len(cols):
            raise ConfigurationError("factor, covariate and outcome columns overlap")
        if self.factor_coding not in ("pm1", "zero_one"):
            raise ConfigurationError(f"unknown factor coding {self.factor_coding!r}")
        if self.max_order < 1:
            raise ConfigurationError("max interaction order must be at least 1")
        if self.out_format not in ("csv", "json"):
            raise ConfigurationError(f"unknown output format {self.out_format!r}")


class Table:
    """A comma-separated file with a mandatory header row, read as numbers.

    A body with no empty line (``loadtxt`` skips them) is parsed in one
    ``np.loadtxt`` pass, which accepts only cells ``float`` reads alike.
    Where it fails (text, a quote, a ragged row, an empty cell, ``1_0``,
    a non-ASCII digit), the scanner (``csv.reader``, then ``float``)
    reads the body and words each error by line and column, as it does
    for a column holding a non-finite value, or a field too long for it.
    """

    def __init__(self, path: str):
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                text = fh.read()  # decoded in one call, so exc.start is the file offset
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        buf = io.StringIO(text, newline="")
        header = next(self._records(path, buf, 1), None)
        if header is None:
            raise DataError(f"{path} is empty")
        self.path, self.header = path, header
        self._body = text[buf.tell() :]
        self._values = self._parse(self._body, len(header))
        # without the one-pass parse the scanner reports structure errors first
        self._rows = self._scan() if self._values is None else None

    @staticmethod
    def _parse(body: str, width: int) -> np.ndarray | None:
        if not body or body[0] in "\r\n" or any(p in body for p in ("\n\n", "\r\r", "\n\r")):
            return None
        try:
            values = np.loadtxt(io.StringIO(body, newline=""), delimiter=",",
                                comments=None, quotechar=None, ndmin=2)
        except ValueError:
            return None
        return values if values.shape[1] == width else None

    @staticmethod
    def _records(path: str, buf: io.StringIO, first_line: int):
        reader = csv.reader(buf)
        try:
            yield from reader
        except csv.Error as exc:
            raise DataError(f"{path} line {first_line + reader.line_num - 1}: {exc}") from None

    def _scan(self) -> list[list[str]]:
        rows = list(self._records(self.path, io.StringIO(self._body, newline=""), 2))
        if not rows:
            raise DataError(f"{self.path} has a header but no data rows")
        width = len(self.header)
        for i, row in enumerate(rows, start=2):
            if len(row) != width:
                raise DataError(f"{self.path} line {i}: expected {width} fields, got {len(row)}")
        return rows

    def column(self, name: str) -> np.ndarray:
        """The named column; a cell that is not a finite number is a ``DataError``."""
        if name not in self.header:
            raise DataError(f"{self.path}: column {name!r} not found in header")
        j = self.header.index(name)
        if self._values is not None and np.isfinite(self._values[:, j]).all():
            return self._values[:, j].copy()
        if self._rows is None:
            self._rows = self._scan()
        cells = [row[j] for row in self._rows]
        try:
            values = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            # name the first cell that does not parse
            for i, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"{self.path} line {i + 2}: cannot parse {cell!r} in column {name!r}"
                    ) from None
            raise
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise DataError(
                f"{self.path} line {i + 2}: non-finite value {cells[i]!r} in column {name!r}"
            )
        return values


def load_dataset(config: RunConfig) -> Dataset:
    table = Table(config.data_path)
    Z = np.column_stack([table.column(c) for c in config.factor_columns])
    if config.factor_coding == "zero_one":
        if not np.all(np.isin(Z, (0, 1))):
            raise DataError("factor columns must contain only 0/1 under zero_one coding")
        Z = 2 * Z - 1
    if not np.all(np.isin(Z, (-1, 1))):
        raise DataError("factor columns must contain only -1/+1 under pm1 coding")
    names = [*config.covariate_columns, config.outcome_column]
    columns = [table.column(c) for c in names]
    return Dataset(Z.astype(int), np.column_stack(columns[:-1]), columns[-1])


def resolve_design(config: RunConfig, dataset: Dataset) -> FactorialDesign:
    k = dataset.k
    unobserved = config.unobserved
    if unobserved is None or unobserved == "none":
        unobserved = []
    elif unobserved == "auto":
        present = np.zeros(2**k, dtype=bool)
        present[combination_bits(dataset.Z)] = True
        unobserved = enumerate_combinations(k)[~present]
    return build_incomplete_design(k, min(config.max_order, k), unobserved)


def _write_effects(path_prefix: str, fmt: str, estimates) -> list[str]:
    written = []
    rows = [
        {
            "effect": e.effect.label(),
            "estimate": e.tau_hat,
            "variance": e.sigma2_hat,
            "ci_low": e.ci_low,
            "ci_high": e.ci_high,
        }
        for e in estimates
    ]
    if fmt == "json":
        out = Path(f"{path_prefix}_effects.json")
        out.write_text(json.dumps(rows, indent=2))
        written.append(str(out))
    else:
        out = Path(f"{path_prefix}_effects.csv")
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["effect", "estimate", "variance", "ci_low", "ci_high"])
            for r in rows:
                w.writerow(
                    [
                        r["effect"],
                        f"{r['estimate']:.10g}",
                        f"{r['variance']:.10g}",
                        f"{r['ci_low']:.10g}",
                        f"{r['ci_high']:.10g}",
                    ]
                )
        written.append(str(out))
    return written


def _write_weights(path_prefix: str, weights: np.ndarray) -> str:
    out = Path(f"{path_prefix}_weights.csv")
    # the bytes csv.writer would write: no field needs quoting
    lines = [f"{i},{v:.12g}\r\n" for i, v in enumerate(np.asarray(weights).tolist())]
    with open(out, "w", newline="") as fh:
        fh.write("unit_index,weight\r\n" + "".join(lines))
    return str(out)


def cmd_estimate(config: RunConfig) -> int:
    config.validate()
    dataset = load_dataset(config)
    design = resolve_design(config, dataset)
    basis = BasisSpec(model_flavor=config.model_flavor)
    system = build_balance_system(dataset, basis, design, drop_redundant=True)
    solution = solve_dual(system, config.solver)
    if solution.status == INFEASIBLE:
        print(
            "error: balance constraints are infeasible on this sample; "
            f"largest residual at best iterate {solution.grad_norm:.3e}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    if not solution.converged:
        print(
            f"error: solver stopped ({solution.stop_reason}) after "
            f"{solution.iterations} iterations with "
            f"gradient norm {solution.grad_norm:.3e}",
            file=sys.stderr,
        )
        return EXIT_NONCONVERGENCE
    if solution.stop_reason == STALLED:
        print(
            "note: solver line search stalled; converged at the stall tolerance "
            f"1e-8*(1+max|b|) = {stall_tolerance(system.b):.3e} "
            f"(gradient norm {solution.grad_norm:.3e})",
            file=sys.stderr,
        )
    effects = effect_index_set(dataset.k, design.k_prime)
    estimates = weighted_estimates(dataset, system, solution.weights, solution.lam, effects)
    written = _write_effects(config.out_prefix, config.out_format, estimates)
    written.append(_write_weights(config.out_prefix, solution.weights))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_diagnose(config: RunConfig, weights_path: str) -> int:
    config.validate()
    dataset = load_dataset(config)
    design = resolve_design(config, dataset)
    table = Table(weights_path)
    if "weight" not in table.header:
        raise DataError(f"{weights_path}: missing 'weight' column")
    weights = table.column("weight")
    if "unit_index" in table.header:
        idx = table.column("unit_index")
        if not np.array_equal(idx, np.arange(len(idx))):
            raise DataError(f"{weights_path}: unit_index must be 0..N-1 in order")
    if weights.shape[0] != dataset.n:
        raise DataError(
            f"{weights_path} has {weights.shape[0]} weights for {dataset.n} data rows"
        )
    effects = effect_index_set(dataset.k, design.k_prime)
    rows = smd_report(dataset, weights, effects, design)
    out = Path(f"{config.out_prefix}_smd.csv")
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["effect", "covariate", "smd_before", "smd_after"])
        for r in rows:
            if r.skipped:
                print(
                    f"note: covariate {config.covariate_columns[r.covariate]} has zero "
                    "spread; skipped",
                    file=sys.stderr,
                )
                continue
            w.writerow(
                [
                    r.effect.label(),
                    config.covariate_columns[r.covariate],
                    f"{r.before:.10g}",
                    f"{r.after:.10g}",
                ]
            )
    print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = Scenario(
        name=args.scenario.replace("-", "_"),
        n=args.n,
        outcome=args.outcome,
        hetero_c=args.hetero_c,
        seed=args.seed,
    )
    estimators = (
        tuple(e.strip().replace("-", "_") for e in args.estimators.split(","))
        if args.estimators
        else (
            ESTIMATORS
            if scenario.name == "three_factor"
            else ("regression", "weighting_interaction")
        )
    )
    report = run_study(scenario, args.reps, estimators, parallelism=args.threads)
    base = Path(args.out)
    report.to_csv(base.with_suffix(".csv"))
    report.to_json(base.with_suffix(".json"))
    print(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.json')}")
    return EXIT_OK


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="input CSV path")
    p.add_argument("--factors", help="comma-separated factor column names")
    p.add_argument("--covariates", help="comma-separated covariate column names")
    p.add_argument("--outcome", help="outcome column name")
    p.add_argument("--coding", choices=["pm1", "zero_one"], default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument(
        "--flavor", choices=["additive", "heterogeneous"], default=None
    )
    p.add_argument(
        "--unobserved",
        default=None,
        help="'none', 'auto' (treat empty cells as unobserved), or a "
        "semicolon-separated list like '1,1,-1;1,1,1'",
    )
    p.add_argument("--out", default=None, help="output path prefix")
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--max-iters", type=int, default=None)


def _build_config(args) -> RunConfig:
    file_cfg = {}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigurationError(f"config {args.config} must be a JSON object")
        for key in file_cfg:
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"unknown key {key!r} in config {args.config}")

    def pick(flag_value, key, default=None):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    def whole(key, value):
        try:
            if not isinstance(value, bool) and int(value) == float(value):
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")

    def text(key, value, required=False):
        if not isinstance(value, str) and (required or value is not None):
            raise ConfigurationError(f"{key} must be a string, got {value!r}")
        return value

    def split_cols(key, v):
        if isinstance(v, str):
            return [c.strip() for c in v.split(",") if c.strip()]
        if v is not None and not (isinstance(v, list) and all(isinstance(c, str) for c in v)):
            raise ConfigurationError(f"{key} must be a list of column names, got {v!r}")
        return v

    data_path = text("data_path", pick(args.data, "data_path"))
    factors = split_cols("factor_columns", pick(args.factors, "factor_columns"))
    covariates = split_cols("covariate_columns", pick(args.covariates, "covariate_columns"))
    outcome = text("outcome_column", pick(args.outcome, "outcome_column"))
    if not data_path or not factors or not covariates or not outcome:
        raise ConfigurationError(
            "data path, factor, covariate and outcome columns are all required "
            "(via flags or --config)"
        )
    unobserved = pick(args.unobserved, "unobserved_combinations", "none")
    if isinstance(unobserved, str) and unobserved not in ("none", "auto"):
        try:
            unobserved = [
                [int(v) for v in part.split(",")] for part in unobserved.split(";")
            ]
        except ValueError:
            raise ConfigurationError(
                f"unobserved combinations must be integers like '1,1,-1;1,1,1', "
                f"got {unobserved!r}"
            ) from None
    solver = SolverOptions()
    max_iters = pick(args.max_iters, "max_iters")
    if max_iters is not None:
        try:
            solver = SolverOptions(max_iters=whole("max_iters", max_iters))
        except ValueError as exc:
            raise ConfigurationError(f"invalid max iterations {max_iters!r}: {exc}") from None
    return RunConfig(
        data_path=data_path,
        factor_columns=factors,
        covariate_columns=covariates,
        outcome_column=outcome,
        factor_coding=pick(args.coding, "factor_coding", "pm1"),
        max_order=whole("max_order", pick(args.max_order, "max_order", 2)),
        model_flavor=pick(args.flavor, "model_flavor", "heterogeneous"),
        unobserved=unobserved,
        out_prefix=text("out_prefix", pick(args.out, "out_prefix", "factorbal"), required=True),
        out_format=pick(args.format, "out_format", "csv"),
        solver=solver,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorbal",
        description="Balancing weights for factorial effects in observational data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate factorial effects from a CSV file")
    _add_data_options(p_est)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument(
        "--scenario", choices=["three-factor", "five-factor"], required=True
    )
    p_sim.add_argument("--n", type=int, default=1000)
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--outcome", choices=["Y1", "Y2", "Y3"], default="Y1")
    p_sim.add_argument(
        "--estimators",
        default=None,
        help="comma-separated subset of: " + ", ".join(ESTIMATORS),
    )
    p_sim.add_argument("--hetero-c", type=float, default=None)
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--out", default="study")

    p_diag = sub.add_parser("diagnose", help="covariate balance diagnostics")
    _add_data_options(p_diag)
    p_diag.add_argument("--weights", required=True, help="weights CSV from estimate")
    return parser


# parse_args leaves a parser as it was, so one serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return cmd_estimate(_build_config(args))
        if args.command == "diagnose":
            return cmd_diagnose(_build_config(args), args.weights)
        if args.command == "simulate":
            if args.reps < 1:
                parser.error("--reps must be at least 1")
            if args.n < 100:
                parser.error("--n must be at least 100")
            cpus = os.cpu_count() or 1
            if not 1 <= args.threads <= cpus:
                parser.error(f"--threads must be between 1 and {cpus}")
            return cmd_simulate(args)
        parser.error(f"unknown command {args.command}")
    except IdentificationError as exc:
        print(f"identification error: {exc}", file=sys.stderr)
        return EXIT_IDENTIFICATION
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except FactorbalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
