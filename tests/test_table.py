"""The CLI's CSV loader against the csv/float scanner it falls back to.

``scan_columns`` is the scanner alone: ``csv.reader`` over the file, then
``float`` per cell. ``Table`` must give bitwise the same columns, or raise
the same ``DataError`` text, on every body, whether its one-pass parse
took the body or not.
"""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbal.cli import RunConfig, Table, load_dataset
from factorbal.errors import DataError


def scan_columns(path, names):
    """Each named column read by ``csv.reader`` and ``float``, or the
    ``DataError`` that stops it: the file's structure is checked first,
    and each column's cells parsed before any is checked for finiteness."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path} is empty")
    header, body = rows[0], rows[1:]
    if not body:
        raise DataError(f"{path} has a header but no data rows")
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataError(f"{path} line {i}: expected {len(header)} fields, got {len(row)}")
    out = []
    for name in names:
        if name not in header:
            raise DataError(f"{path}: column {name!r} not found in header")
        cells = [row[header.index(name)] for row in body]
        values = []
        for i, cell in enumerate(cells, start=2):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"{path} line {i}: cannot parse {cell!r} in column {name!r}")
        # a column that parses is then checked for non-finite values
        for i, (cell, v) in enumerate(zip(cells, values), start=2):
            if not np.isfinite(v):
                raise DataError(f"{path} line {i}: non-finite value {cell!r} in column {name!r}")
        out.append(np.array(values))
    return out


def outcome(read, path, names):
    """The columns' bytes, or the error text."""
    try:
        return [c.tobytes() for c in read(path, names)]
    except DataError as exc:
        return str(exc)


def table_columns(path, names):
    table = Table(path)
    return [table.column(name) for name in names]


def check_body(path, text, names):
    """Write ``text`` to ``path``; the loader must match the scanner."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    expected = outcome(scan_columns, path, names)
    assert outcome(table_columns, path, names) == expected
    return expected


HEADER = "a,b,c\n"

# (body after HEADER, whether the one-pass parse takes it)
BODIES = {
    "clean-lf": ("1,2.5,-3e-2\n4,5,6\n", True),
    "clean-crlf": ("1,2.5,-3e-2\r\n4,5,6\r\n", True),
    "clean-cr": ("1,2.5,-3e-2\r4,5,6\r", True),
    "no-final-newline": ("1,2,3\n4,5,6", True),
    "padded": (" 1 ,\t2,+3.\n-.5 , 1E3,0\n", True),
    "repr-doubles": (
        "0.1,1.7976931348623157e+308,5e-324\n-0.0,2.2250738585072014e-308,1e22\n", True
    ),
    "nan-in-used-column": ("1,2,3\nnan,5,6\n", True),
    "inf-in-unused-column": ("1,2,3\n4,5,inf\n", True),
    "overflow-to-inf": ("1,2,3\n4,1e400,6\n", True),
    "blank-line": ("1,2,3\n\n4,5,6\n", False),
    "blank-line-crlf": ("1,2,3\r\n\r\n4,5,6\r\n", False),
    "blank-first-line": ("\n1,2,3\n", False),
    "blank-lines-only": ("\n\r\n\r", False),
    "trailing-blank-line": ("1,2,3\n4,5,6\n\n", False),
    "quoted-number": ('1,"2",3\n4,5,6\n', False),
    "underscore-digits": ("1,1_0,3\n4,5,6\n", False),
    "arabic-indic-digit": ("1,١,3\n4,5,6\n", False),
    "ragged-short": ("1,2,3\n4,5\n", False),
    "ragged-long": ("1,2,3\n4,5,6,7\n", False),
    "every-row-narrow": ("1,2\n4,5\n", False),
    "empty-cell": ("1,,3\n4,5,6\n", False),
    "whitespace-cell": ("1, ,3\n4,5,6\n", False),
    "text-in-used-column": ("1,x,3\n4,5,6\n", False),
    "no-rows": ("", False),
}


@pytest.mark.parametrize("name", list(BODIES))
def test_loader_matches_scanner(tmp_path, name):
    body, fast = BODIES[name]
    path = str(tmp_path / "t.csv")
    check_body(path, HEADER + body, ["a", "b"])
    check_body(path, HEADER + body, ["b", "zz"])
    assert (Table._parse(body, 3) is not None) == fast


def test_structure_errors_keep_their_wording(tmp_path):
    # a blank line is reported, not skipped as loadtxt would
    path = str(tmp_path / "t.csv")
    assert check_body(path, "", ["a"]) == f"{path} is empty"
    assert check_body(path, HEADER, ["a"]) == f"{path} has a header but no data rows"
    assert check_body(path, HEADER + "1,2,3\n\n4,5,6\n", ["a"]) == (
        f"{path} line 3: expected 3 fields, got 0"
    )


def test_unused_text_column_and_zero_one_coding(tmp_path):
    # an ID column of text sends the file to the scanner; the dataset is
    # that of the same data without it, read in one pass, and 0/1 codes
    # give the -1/+1 dataset
    rng = np.random.default_rng(0)
    Z = rng.choice([-1, 1], (40, 2))
    X, Y = rng.normal(size=(40, 2)), rng.normal(size=40)
    rows = np.column_stack([Z, X, Y]).tolist()
    plain, with_id, zero_one = (tmp_path / f"{s}.csv" for s in ("plain", "id", "01"))
    header = ["t1", "t2", "x1", "x2", "y"]
    for path, hdr, body in (
        (plain, header, rows),
        (with_id, ["id", *header], [[f"unit-{i}", *r] for i, r in enumerate(rows)]),
        (zero_one, header, [[(r[0] + 1) // 2, (r[1] + 1) // 2, *r[2:]] for r in rows]),
    ):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([hdr, *body])
    assert Table(str(plain))._values is not None and Table(str(with_id))._values is None

    def load(path, coding="pm1"):
        return load_dataset(RunConfig(str(path), ["t1", "t2"], ["x1", "x2"], "y", coding))

    ref = load(plain)
    for ds in (load(with_id), load(zero_one, "zero_one")):
        for a, b in ((ds.Z, ref.Z), (ds.X, ref.X), (ds.Y, ref.Y)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def number():
    """Cells ``float`` and the one-pass parse both read, most of them."""
    digits = st.text("0123456789", min_size=1, max_size=6)
    sign = st.sampled_from(["", "+", "-"])
    exponent = st.one_of(
        st.just(""), st.tuples(st.sampled_from("eE"), sign, digits).map("".join)
    )
    fraction = st.text("0123456789", max_size=4)
    decimal = st.tuples(sign, digits, st.sampled_from(["", "."]), fraction, exponent).map("".join)
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(10**20), 10**20).map(str),
        decimal,
        st.tuples(st.sampled_from(["", " ", "\t"]), decimal, st.sampled_from(["", " ", "\t"]))
        .map("".join),
    )


TRIGGERS = ["", " ", '"1"', "1_0", "١", "nan", "-inf", "1e999", "x", "1.5.2"]


@st.composite
def csv_file(draw):
    width = draw(st.integers(1, 4))
    cell = st.one_of(number(), number(), number(), st.sampled_from(TRIGGERS))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        ragged = draw(st.sampled_from([0] * 8 + [-1, 1]))
        lines.append(",".join(draw(st.lists(cell, min_size=max(1, width + ragged),
                                            max_size=max(1, width + ragged)))))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")  # a blank line
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):  # one line ending for the whole file
        ends = [ends[0]] * len(ends)
    final = draw(st.booleans())
    body = "".join(line + end for line, end in zip(lines, ends))
    if not final:
        body = body[: -len(ends[-1])]
    header = [f"h{j}" for j in range(width)]
    names = draw(st.lists(st.sampled_from(header), min_size=1, max_size=width, unique=True))
    return ",".join(header) + ends[0] + body, names


@settings(max_examples=300, deadline=None)
@given(case=csv_file())
def test_loader_matches_scanner_on_random_bodies(case):
    text, names = case
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        check_body(path, text, names)
    finally:
        os.unlink(path)
