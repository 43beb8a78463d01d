import csv
import json
import os

import numpy as np
import pytest
from scipy.special import expit

from factorbal import cli, solver
from factorbal.cli import (
    EXIT_DATA,
    EXIT_IDENTIFICATION,
    EXIT_OK,
    main,
)
from factorbal.design import enumerate_combinations
from test_balance import address_space_cap
from test_estimation import binary_covariate_draw
from test_incomplete import incomplete_draw


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def make_survey_like(path, n=1500, seed=0, coding="pm1", drop_cells=()):
    """Four factors, six covariates, mild confounding, all cells populated
    unless explicitly dropped."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    Z = np.empty((n, 4), dtype=int)
    for j in range(4):
        p = expit(0.35 * X[:, j] - 0.2 * X[:, (j + 1) % 6])
        Z[:, j] = np.where(rng.random(n) < p, 1, -1)
    if drop_cells:
        bad = {tuple(c) for c in drop_cells}
        keep = np.array([tuple(z) not in bad for z in Z])
        X, Z = X[keep], Z[keep]
        n = keep.sum()
    Y = X[:, 0] + 0.5 * X[:, 1] + Z[:, 0] + 0.25 * Z[:, 1] * Z[:, 2] + rng.normal(size=n)
    zcols = Z if coding == "pm1" else (Z + 1) // 2
    header = [f"t{j}" for j in range(1, 5)] + [f"x{j}" for j in range(1, 7)] + ["y"]
    rows = np.column_stack([zcols, X, Y])
    write_csv(path, header, rows.tolist())
    return header


def base_args(data, out, coding="pm1", extra=()):
    return [
        "estimate",
        "--data", str(data),
        "--factors", "t1,t2,t3,t4",
        "--covariates", "x1,x2,x3,x4,x5,x6",
        "--outcome", "y",
        "--coding", coding,
        "--max-order", "2",
        "--out", str(out),
        *extra,
    ]


class TestEstimate:
    def test_survey_shaped_run(self, tmp_path):
        data = tmp_path / "data.csv"
        make_survey_like(data)
        out = tmp_path / "run"
        assert main(base_args(data, out)) == EXIT_OK
        effects = (tmp_path / "run_effects.csv").read_text().strip().splitlines()
        # header + 4 main effects + 6 pairwise interactions
        assert len(effects) == 11
        weights = (tmp_path / "run_weights.csv").read_text().strip().splitlines()
        assert weights[0] == "unit_index,weight"
        assert len(weights) == 1501
        # every reported effect carries a finite CI
        for line in effects[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert np.isfinite([float(v) for v in fields[1:]]).all()

    def test_json_output(self, tmp_path):
        data = tmp_path / "data.csv"
        make_survey_like(data)
        out = tmp_path / "run"
        assert main(base_args(data, out, extra=("--format", "json"))) == EXIT_OK
        payload = json.loads((tmp_path / "run_effects.json").read_text())
        assert len(payload) == 10

    def test_zero_one_coding_round_trip(self, tmp_path):
        d1, d2 = tmp_path / "pm1.csv", tmp_path / "01.csv"
        make_survey_like(d1, coding="pm1", seed=4)
        make_survey_like(d2, coding="zero_one", seed=4)
        assert main(base_args(d1, tmp_path / "a")) == EXIT_OK
        assert main(base_args(d2, tmp_path / "b", coding="zero_one")) == EXIT_OK
        a = (tmp_path / "a_effects.csv").read_text()
        b = (tmp_path / "b_effects.csv").read_text()
        assert a == b

    def test_empty_cells_auto_mode_identification_failure(self, tmp_path):
        # dropping two adjacent cells of a three-factor design leaves the
        # pairwise effects unidentified at order-2 retention
        rng = np.random.default_rng(1)
        n = 900
        X = rng.normal(size=(n, 2))
        combos = enumerate_combinations(3)
        Z = combos[rng.integers(0, 6, n)]  # cells 6, 7 never observed
        Y = rng.normal(size=n)
        data = tmp_path / "missing.csv"
        write_csv(
            data,
            ["t1", "t2", "t3", "x1", "x2", "y"],
            np.column_stack([Z, X, Y]).tolist(),
        )
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--factors", "t1,t2,t3",
                "--covariates", "x1,x2",
                "--outcome", "y",
                "--max-order", "2",
                "--unobserved", "auto",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_IDENTIFICATION

    def test_incomplete_single_cell_runs(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 1400
        X = rng.normal(size=(n, 2))
        combos = enumerate_combinations(3)
        Z = combos[rng.integers(0, 7, n)]  # cell (+1,+1,+1) unobserved
        Y = X[:, 0] + Z[:, 0] + rng.normal(size=n)
        data = tmp_path / "seven.csv"
        write_csv(
            data,
            ["t1", "t2", "t3", "x1", "x2", "y"],
            np.column_stack([Z, X, Y]).tolist(),
        )
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--factors", "t1,t2,t3",
                "--covariates", "x1,x2",
                "--outcome", "y",
                "--max-order", "2",
                "--unobserved", "auto",
                "--out", str(tmp_path / "inc"),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "inc_effects.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + 3 main + 3 pairwise

    def test_eight_factors_without_four_cells(self, tmp_path):
        # a fit whose balance rows, kept one by one by a residual test,
        # ran to the iteration limit (exit 5 after 500 iterations)
        ds, design = incomplete_draw(8, 4, 10_000, 0)
        factors = [f"t{j}" for j in range(1, 9)]
        data = tmp_path / "eight.csv"
        write_csv(data, [*factors, "x1", "x2", "y"], np.column_stack([ds.Z, ds.X, ds.Y]).tolist())
        unobserved = ";".join(",".join(str(v) for v in cell) for cell in design.unobserved)
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--factors", ",".join(factors),
                "--covariates", "x1,x2",
                "--outcome", "y",
                "--max-order", "2",
                f"--unobserved={unobserved}",  # the levels start with "-"
                "--out", str(tmp_path / "eight"),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "eight_effects.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 8 + 28
        assert all(np.isfinite([float(v) for v in line.split(",")[1:]]).all() for line in lines[1:])

    def test_missing_column_is_data_error(self, tmp_path):
        data = tmp_path / "data.csv"
        make_survey_like(data, n=200)
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--factors", "t1,t2,t3,t9",
                "--covariates", "x1",
                "--outcome", "y",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_DATA

    def test_unparseable_value_reports_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        write_csv(
            data,
            ["t1", "t2", "x1", "y"],
            [[1, -1, 0.5, 1.0], [-1, "oops", 0.1, 2.0]],
        )
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--factors", "t1,t2",
                "--covariates", "x1",
                "--outcome", "y",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_DATA
        assert "line 3" in capsys.readouterr().err

    def test_unparseable_last_line_in_covariate(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        make_survey_like(data, n=200)
        lines = data.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[5] = "1.5.2"  # x2
        lines[-1] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        assert main(base_args(data, tmp_path / "x")) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {data} line 201: cannot parse '1.5.2' in column 'x2'\n"
        )

    def test_data_file_not_utf8(self, tmp_path, capsys):
        # a cell of bytes that are not UTF-8 is a data error naming the
        # file and the first such byte, not a decoding traceback
        data = tmp_path / "data.csv"
        make_survey_like(data, n=200)
        lines = data.read_bytes().split(b"\r\n")
        lines[150] = lines[150].replace(b",", b",\xff\xfe", 1)
        data.write_bytes(b"\r\n".join(lines))
        assert main(base_args(data, tmp_path / "x")) == EXIT_DATA
        offset = data.read_bytes().index(b"\xff")
        assert capsys.readouterr().err == (
            f"error: {data} is not UTF-8 text: invalid start byte at byte {offset}\n"
        )

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_field_past_the_csv_limit_reports_line(self, tmp_path, capsys, where):
        # a column name, or a cell next to a text column (so the scanner
        # reads the body), longer than csv.field_size_limit()
        long = "1" * (csv.field_size_limit() + 10_000)
        data = tmp_path / "data.csv"
        rows = [["a", 1, -1, 0.5, 1.0], ["b", -1, 1, long, 2.0], ["c", 1, 1, 0.3, 0.5]]
        header = ["id", "t1", "t2", long if where == "header" else "x1", "y"]
        write_csv(data, header, rows)
        args = ["estimate", "--data", str(data), "--factors", "t1,t2", "--covariates", "x1",
                "--outcome", "y", "--out", str(tmp_path / "x")]
        assert main(args) == EXIT_DATA
        line = 1 if where == "header" else 3
        assert capsys.readouterr().err == (
            f"error: {data} line {line}: field larger than field limit "
            f"({csv.field_size_limit()})\n"
        )
        assert not list(tmp_path.glob("x_*"))

    @pytest.mark.parametrize("column, cell", [("x1", "nan"), ("y", "-inf")])
    def test_nonfinite_value_reports_line_and_column(self, tmp_path, capsys, column, cell):
        data = tmp_path / "bad.csv"
        rows = [[1, -1, 0.5, 1.0], [-1, 1, 0.1, 2.0], [1, 1, 0.3, 0.5]]
        rows[1][["t1", "t2", "x1", "y"].index(column)] = cell
        write_csv(data, ["t1", "t2", "x1", "y"], rows)
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--factors", "t1,t2",
                "--covariates", "x1",
                "--outcome", "y",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {data} line 3: non-finite value {cell!r} in column {column!r}\n"
        )

    def test_oversized_numeric_filter_is_usage_error(self, tmp_path, capsys):
        # 14 factors of order 2, two covariates: G (1.6 GiB) fits the
        # budget, the data stage's compressed rows (about 5 GiB) do not
        rng = np.random.default_rng(0)
        n, k = 300, 14
        header = [f"t{j}" for j in range(1, k + 1)] + ["x1", "x2", "y"]
        data = tmp_path / "data.csv"
        rows = np.column_stack([rng.choice([-1, 1], (n, k)), rng.normal(size=(n, 3))])
        write_csv(data, header, rows.tolist())
        args = [
            "estimate", "--data", str(data), "--factors", ",".join(header[:k]),
            "--covariates", "x1,x2", "--outcome", "y", "--max-order", "2",
            "--out", str(tmp_path / "run"),
        ]
        with address_space_cap(2**30):
            code = main(args)
        assert code == EXIT_DATA
        assert "GiB budget" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    def test_singular_active_cells_exit_2_without_advice(self, tmp_path, capsys):
        # the library's binary-covariate draw: the CLI already filters rows
        # redundant on the data, so the message names the cells instead
        ds = binary_covariate_draw()
        data = tmp_path / "binary.csv"
        header = ["t1", "t2", "t3", *(f"x{j}" for j in range(1, 6)), "y"]
        write_csv(data, header, np.column_stack([ds.Z, ds.X, ds.Y]).tolist())
        argv = ["estimate", "--data", str(data), "--factors", "t1,t2,t3",
                "--covariates", "x1,x2,x3,x4,x5", "--outcome", "y", "--max-order", "1",
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "no balance row is redundant" in err and "in 3 observed cell(s)" in err
        assert "drop_redundant" not in err

    def test_config_file(self, tmp_path):
        data = tmp_path / "data.csv"
        make_survey_like(data, n=1200, seed=8)
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "data_path": str(data),
                    "factor_columns": ["t1", "t2", "t3", "t4"],
                    "covariate_columns": ["x1", "x2", "x3", "x4", "x5", "x6"],
                    "outcome_column": "y",
                    "max_order": 1,
                    "out_prefix": str(tmp_path / "cfg"),
                }
            )
        )
        assert main(["estimate", "--config", str(cfg)]) == EXIT_OK
        lines = (tmp_path / "cfg_effects.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 main effects

    def test_stalled_solve_exits_zero_with_one_note(self, tmp_path, capsys, monkeypatch):
        # a 1e-30-per-unit gradient tolerance is out of reach, so the line
        # search stalls and the solve converges at the stall tolerance
        monkeypatch.setattr(solver, "GRAD_TOL", 1e-30)
        data = tmp_path / "data.csv"
        make_survey_like(data, n=1200, seed=8)
        config = cli.RunConfig(
            data_path=str(data),
            factor_columns=["t1", "t2", "t3", "t4"],
            covariate_columns=["x1", "x2", "x3", "x4", "x5", "x6"],
            outcome_column="y",
            max_order=1,
            out_prefix=str(tmp_path / "stall"),
        )
        assert cli.cmd_estimate(config) == EXIT_OK
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "stalled" in err[0] and "stall tolerance" in err[0]
        assert (tmp_path / "stall_effects.csv").exists()

    def test_fractional_unobserved_in_config_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        make_survey_like(data, n=400, seed=8)
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "data_path": str(data),
                    "factor_columns": ["t1", "t2", "t3", "t4"],
                    "covariate_columns": ["x1", "x2"],
                    "outcome_column": "y",
                    "unobserved_combinations": [[1.7, 1, 1, 1]],
                    "out_prefix": str(tmp_path / "cfg"),
                }
            )
        )
        assert main(["estimate", "--config", str(cfg)]) == EXIT_DATA
        assert "-1/+1" in capsys.readouterr().err
        assert not (tmp_path / "cfg_effects.csv").exists()

    @pytest.mark.parametrize(
        "entries, named",
        [
            (None, "JSON object"),  # the whole config is the list [1, 2]
            ({"max_order": "x"}, "max_order"),
            ({"max_order": 1.7}, "max_order"),
            ({"max_iters": 2.5}, "max_iters"),
            ({"max_order": True}, "max_order"),
            ({"data_path": 1.5}, "data_path"),
            ({"outcome_column": ["y"]}, "outcome_column"),
            ({"factor_columns": [["t1"], "t2", "t3", "t4"]}, "factor_columns"),
            ({"covariate_columns": ["x1", 2]}, "covariate_columns"),
            ({"factor_columns": 4}, "factor_columns"),
            ({"out_prefix": None}, "out_prefix"),
            ({"out_prefix": ["a"]}, "out_prefix"),
            ({"out_prefix": 7}, "out_prefix"),
            ({"max_ordr": 5}, "max_ordr"),
        ],
        ids=[
            "list-config",
            "text-max-order",
            "fractional-max-order",
            "fractional-max-iters",
            "boolean-max-order",
            "float-data-path",
            "list-outcome",
            "nested-factor-column",
            "numeric-covariate-column",
            "numeric-factor-columns",
            "null-out-prefix",
            "list-out-prefix",
            "numeric-out-prefix",
            "unknown-key",
        ],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, monkeypatch, capsys, entries, named):
        monkeypatch.chdir(tmp_path)  # a prefix that is not a string must not write here either
        data = tmp_path / "data.csv"
        make_survey_like(data, n=400, seed=8)
        config = [1, 2] if entries is None else {
            "data_path": str(data),
            "factor_columns": ["t1", "t2", "t3", "t4"],
            "covariate_columns": ["x1", "x2"],
            "outcome_column": "y",
            "out_prefix": str(tmp_path / "cfg"),
            **entries,
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert main(["estimate", "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not list(tmp_path.glob("*_effects.csv"))

    def test_descriptor_data_path_is_usage_error(self, tmp_path, capsys):
        # an integer data path must not be opened as a file descriptor
        data = tmp_path / "data.csv"
        make_survey_like(data, n=400, seed=8)
        fd = os.open(data, os.O_RDONLY)
        try:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({
                "data_path": fd,
                "factor_columns": ["t1", "t2", "t3", "t4"],
                "covariate_columns": ["x1", "x2"],
                "outcome_column": "y",
                "out_prefix": str(tmp_path / "cfg"),
            }))
            assert main(["estimate", "--config", str(cfg)]) == EXIT_DATA
            assert "data_path" in capsys.readouterr().err
            assert os.read(fd, 2) == b"t1"  # still open and unread
        finally:
            os.close(fd)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--unobserved", "1,a,1,1,1"],  # non-integer level
            ["--unobserved", "1,1"],  # two levels for five factors
            ["--max-iters", "0"],  # rejected by the solver options
        ],
        ids=["non-integer-unobserved", "short-unobserved", "zero-max-iters"],
    )
    def test_bad_option_is_usage_error(self, tmp_path, capsys, extra):
        rng = np.random.default_rng(3)
        n = 64
        Z = enumerate_combinations(5)[rng.integers(0, 32, n)]
        X = rng.normal(size=(n, 1))
        data = tmp_path / "five.csv"
        write_csv(
            data,
            [f"t{j}" for j in range(1, 6)] + ["x1", "y"],
            np.column_stack([Z, X, rng.normal(size=n)]).tolist(),
        )
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--factors", "t1,t2,t3,t4,t5",
                "--covariates", "x1",
                "--outcome", "y",
                "--out", str(tmp_path / "x"),
                *extra,
            ]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")


def test_weights_file_bytes_match_csv_writer(tmp_path):
    weights = np.array(
        [0.0, 1e-300, 5e-324, 2.2250738585072e-310, 1e22, 0.5, 2 / 3, 1.0, 1234.5678901234567]
    )
    written = cli._write_weights(str(tmp_path / "run"), weights)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["unit_index", "weight"])
        for i, v in enumerate(weights):
            w.writerow([i, f"{v:.12g}"])
    assert open(written, "rb").read() == reference.read_bytes()


class TestDiagnose:
    def test_round_trip_after_estimate(self, tmp_path):
        data = tmp_path / "data.csv"
        make_survey_like(data)
        out = tmp_path / "run"
        assert main(base_args(data, out)) == EXIT_OK
        code = main(
            [
                "diagnose",
                "--data", str(data),
                "--factors", "t1,t2,t3,t4",
                "--covariates", "x1,x2,x3,x4,x5,x6",
                "--outcome", "y",
                "--max-order", "2",
                "--weights", str(tmp_path / "run_weights.csv"),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_OK
        rows = (tmp_path / "run_smd.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 10 * 6
        after = [float(r.split(",")[3]) for r in rows]
        assert max(after) <= 1e-6

    def test_unit_weights_reproduce_before(self, tmp_path):
        data = tmp_path / "data.csv"
        make_survey_like(data, n=400, seed=3)
        wfile = tmp_path / "w.csv"
        write_csv(wfile, ["unit_index", "weight"], [[i, 1.0] for i in range(400)])
        code = main(
            [
                "diagnose",
                "--data", str(data),
                "--factors", "t1,t2,t3,t4",
                "--covariates", "x1,x2,x3,x4,x5,x6",
                "--outcome", "y",
                "--weights", str(wfile),
                "--out", str(tmp_path / "unit"),
            ]
        )
        assert code == EXIT_OK
        rows = (tmp_path / "unit_smd.csv").read_text().strip().splitlines()[1:]
        for r in rows:
            _, _, before, after = r.split(",")
            assert float(before) == pytest.approx(float(after))

    def test_misaligned_weights(self, tmp_path):
        data = tmp_path / "data.csv"
        make_survey_like(data, n=300, seed=5)
        wfile = tmp_path / "w.csv"
        write_csv(wfile, ["unit_index", "weight"], [[i, 1.0] for i in range(299)])
        code = main(
            [
                "diagnose",
                "--data", str(data),
                "--factors", "t1,t2,t3,t4",
                "--covariates", "x1,x2,x3,x4,x5,x6",
                "--outcome", "y",
                "--weights", str(wfile),
                "--out", str(tmp_path / "m"),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("column, cell", [("weight", "nan"), ("unit_index", "inf")])
    def test_nonfinite_weights_file_value(self, tmp_path, capsys, column, cell):
        data = tmp_path / "data.csv"
        make_survey_like(data, n=300, seed=5)
        rows = [[i, 1.0] for i in range(300)]
        rows[6][["unit_index", "weight"].index(column)] = cell
        wfile = tmp_path / "w.csv"
        write_csv(wfile, ["unit_index", "weight"], rows)
        code = main(
            [
                "diagnose",
                "--data", str(data),
                "--factors", "t1,t2,t3,t4",
                "--covariates", "x1,x2,x3,x4,x5,x6",
                "--outcome", "y",
                "--weights", str(wfile),
                "--out", str(tmp_path / "nf"),
            ]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {wfile} line 8: non-finite value {cell!r} in column {column!r}\n"
        )
        assert not (tmp_path / "nf_smd.csv").exists()

    def test_weights_file_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        make_survey_like(data, n=300, seed=5)
        wfile = tmp_path / "w.csv"
        write_csv(wfile, ["unit_index", "weight"], [[i, 1.0] for i in range(300)])
        raw = wfile.read_bytes().replace(b"\n7,1.0", b"\n7,\xff\xfe", 1)
        wfile.write_bytes(raw)
        code = main(
            [
                "diagnose",
                "--data", str(data),
                "--factors", "t1,t2,t3,t4",
                "--covariates", "x1,x2,x3,x4,x5,x6",
                "--outcome", "y",
                "--weights", str(wfile),
                "--out", str(tmp_path / "nu"),
            ]
        )
        assert code == EXIT_DATA
        offset = raw.index(b"\xff")
        assert capsys.readouterr().err == (
            f"error: {wfile} is not UTF-8 text: invalid start byte at byte {offset}\n"
        )
        assert not (tmp_path / "nu_smd.csv").exists()


class TestSimulate:
    def test_three_factor_row_count(self, tmp_path):
        out = tmp_path / "study"
        code = main(
            [
                "simulate",
                "--scenario", "three-factor",
                "--n", "300",
                "--reps", "2",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "study.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 3  # four estimators, three effects
        assert (tmp_path / "study.json").exists()

    def test_reps_zero_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--scenario", "three-factor",
                    "--reps", "0",
                    "--out", str(tmp_path / "s"),
                ]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("threads", [0, -1, (os.cpu_count() or 1) + 1])
    def test_threads_out_of_range_usage_error(self, tmp_path, monkeypatch, threads):
        def no_study(*args, **kwargs):
            raise AssertionError("run_study called")

        monkeypatch.setattr(cli, "run_study", no_study)
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--scenario", "three-factor",
                    "--threads", str(threads),
                    "--out", str(tmp_path / "s"),
                ]
            )
        assert exc.value.code == 2

    def test_estimator_subset(self, tmp_path):
        out = tmp_path / "sub"
        code = main(
            [
                "simulate",
                "--scenario", "three-factor",
                "--n", "300",
                "--reps", "1",
                "--estimators", "regression",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sub.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3
