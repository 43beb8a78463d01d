"""The factored balance operator against the dense P x N system.

The dense references are built from each row's definition (its per-cell
coefficient at each unit's cell times its basis column), or from the
system's dense views in ``oracles.DenseOperator`` and
``oracles.numeric_keep``; the rows themselves are checked against the
span of the paper's candidate rows, ``oracles.candidate_system``.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from factorbal import balance, solver
from factorbal.balance import (
    _KEEP_TOL,
    _SCREEN_BLOCK,
    BasisSpec,
    _greedy_keep,
    _numeric_keep,
    build_balance_system,
)
from factorbal.data import Dataset
from factorbal.design import (
    build_incomplete_design,
    effect_index_set,
    enumerate_combinations,
    full_design,
    interaction_value,
)
from factorbal.errors import IdentificationError
from factorbal.estimation import weighted_estimates
from factorbal.simulation import Scenario, generate
from factorbal.solver import solve_dual
from oracles import (
    DenseOperator,
    column_spans,
    keep_residuals,
    numeric_keep,
    span_rank,
    span_residual,
)

RTOL = 1e-12
FIVE_REMOVED = [(1, 1, 1, 1, 1), (1, 1, 1, -1, -1)]


def without_cells(ds, cells, d=None):
    keep = np.ones(ds.n, dtype=bool)
    for cell in cells:
        keep &= ~np.all(ds.Z == np.array(cell), axis=1)
    return Dataset(ds.Z[keep], ds.X[keep, :d], ds.Y[keep])


def three_factor(seed, n=300):
    return generate(Scenario("three_factor", n, "Y2", seed=seed), 0)[0]


def five_factor(seed=0, n=2000):
    return generate(Scenario("five_factor", n, "Y2", seed=seed), 0)[0]


def seven_factor(seed, n=1500):
    """A complete seven-factor draw whose assignment leans on the covariates."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    Z = np.where(rng.normal(size=(n, 7)) + 0.3 * X[:, np.arange(7) % 3] > 0, 1, -1)
    return Dataset(Z, X, X.sum(axis=1) + rng.normal(size=n))


def case(name):
    """(dataset, system) for one named design."""
    if name == "complete":
        ds = three_factor(0, 600)
        return ds, build_balance_system(ds, BasisSpec(), full_design(3, 2), drop_redundant=True)
    if name == "seven-factor":
        ds = seven_factor(0)
        assert len(np.unique(ds.Z, axis=0)) == 2**7
        return ds, build_balance_system(ds, BasisSpec(), full_design(7, 2), drop_redundant=True)
    if name == "collinear":
        # X3 = X1 - X2, so no row on basis column 2 is kept
        ds = with_covariates(
            three_factor(15), lambda X: np.column_stack([X[:, 0], X[:, 1], X[:, 0] - X[:, 1]])
        )
        system = build_balance_system(ds, BasisSpec(), full_design(3, 2), drop_redundant=True)
        assert 2 not in system.basis_ids
        return ds, system
    if name == "additive":
        ds = three_factor(1)
        spec = BasisSpec(model_flavor="additive")
        return ds, build_balance_system(ds, spec, full_design(3, 1), drop_redundant=True)
    if name == "redundant":
        ds = three_factor(2)
        return ds, build_balance_system(ds, BasisSpec(), full_design(3, 2))
    design = build_incomplete_design(3, 2, [(1, 1, 1)])
    if name == "incomplete":
        ds = without_cells(three_factor(3, 400), [(1, 1, 1)])
    else:  # cell (-1, 1, -1) stays in the design but has no units
        ds = without_cells(three_factor(4, 400), [(1, 1, 1), (-1, 1, -1)])
    return ds, build_balance_system(ds, BasisSpec(), design, drop_redundant=True)


CASES = ["complete", "additive", "redundant", "incomplete", "empty-cell", "seven-factor", "collinear"]


def assert_close(got, want, rtol=RTOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * max(1.0, np.max(np.abs(want), initial=0.0))


def defined_rows(ds, system):
    """B and the per-unit targets from each row's definition."""
    in_cell = system.unit_cells[:, None] == np.arange(system.design.n_observed_cells)
    h = system.basis_values[:, system.basis_ids].T
    coef = system.G.sum(axis=1) / 2 ** (system.design.k - 1)
    return (system.G @ in_cell.T) * h, coef[:, None] * h


def assert_same_span(system):
    """Each basis column's rows are independent and span exactly its
    candidate rows."""
    for rows, spanning in column_spans(system):
        assert len(rows) == span_rank(rows) == span_rank(spanning)
        assert span_residual(rows, spanning) <= 1e-10
        assert span_residual(spanning, rows) <= 1e-10


@pytest.mark.parametrize("name", CASES)
def test_dense_views_match_row_definitions(name):
    ds, system = case(name)
    # each row lies in the span of its column's candidate rows
    for rows, spanning in column_spans(system):
        assert span_residual(rows, spanning) <= 1e-10
    B, T = defined_rows(ds, system)
    assert_close(system.B, B)
    assert_close(system.unit_targets, T)
    assert_close(system.b, T.sum(axis=1))
    H = system.basis_values
    q = [H[:, s] * interaction_value(ds.Z, J) for s, J in system.elements]
    assert_close(system.element_values, np.array(q))


@pytest.mark.parametrize("name", CASES)
def test_products_match_dense(name):
    ds, system = case(name)
    dense = DenseOperator(system)
    rng = np.random.default_rng(0)
    w = rng.uniform(0, 3, system.n)
    assert_close(system.matvec(w), dense.matvec(w))
    assert_close(system.cell_parts(w).sum(axis=1), dense.matvec(w))
    assert_close(system.b, dense.b)
    lam = rng.normal(size=system.p)
    assert_close(system.rmatvec(lam), dense.rmatvec(lam))
    lams = rng.normal(size=(system.p, 3))
    assert_close(system.rmatvec(lams), dense.B.T @ lams)
    units = slice(system.n // 3, system.n // 2)
    assert_close(system.rmatvec(lams, units), (dense.B.T @ lams)[units])
    masks = [
        dense.rmatvec(lam) < 0,
        np.zeros(system.n, dtype=bool),
        np.ones(system.n, dtype=bool),
        # a handful of active units: most cells hold fewer than S of them
        rng.random(system.n) < 20 / system.n,
    ]
    for mask in masks:
        assert_close(system.active_gram(mask), dense.active_gram(mask))


def with_covariates(ds, make):
    """``ds`` with its covariates replaced by ``make(X)``."""
    return Dataset(ds.Z, make(ds.X), ds.Y)


def with_few_units(ds, cell, count):
    """``ds`` keeping only ``count`` of ``cell``'s units."""
    inside = np.flatnonzero(np.all(ds.Z == np.array(cell), axis=1))
    keep = np.ones(ds.n, dtype=bool)
    keep[inside[count:]] = False
    return Dataset(ds.Z[keep], ds.X[keep], ds.Y[keep])


def k_prime_one_without(cells):
    """Three-factor main-effects design without ``cells``, on data with
    no units there."""
    ds = without_cells(three_factor(10 + len(cells), 400), cells)
    return ds, build_incomplete_design(3, 1, cells)


FIVE_SPARSE = FIVE_REMOVED + [(-1, 1, -1, 1, -1)]


def six_factor(seed, n=900):
    """A complete six-factor draw with two covariates, every cell occupied."""
    rng = np.random.default_rng(seed)
    Z = np.tile(enumerate_combinations(6), (n // 64 + 1, 1))[:n]
    X = rng.normal(size=(n, 2)) + 0.3 * Z[:, :2]
    return Dataset(Z, X, rng.normal(size=n))


# (dataset, design) pairs for the numeric filter; the span rows of those
# in DATA_REDUNDANT are redundant on the data
FILTER_DRAWS = {
    "incomplete": lambda: (without_cells(three_factor(3, 400), [(1, 1, 1)]),
                           build_incomplete_design(3, 2, [(1, 1, 1)])),
    "empty-cell": lambda: (without_cells(three_factor(4, 400), [(1, 1, 1), (-1, 1, -1)]),
                           build_incomplete_design(3, 2, [(1, 1, 1)])),
    "five-factor-incomplete": lambda: (without_cells(five_factor(5, 800), FIVE_REMOVED, d=2),
                                       build_incomplete_design(5, 2, FIVE_REMOVED)),
    "complete": lambda: (three_factor(6), full_design(3, 2)),
    "duplicated-covariate": lambda: (
        with_covariates(three_factor(7), lambda X: np.column_stack([X[:, :3], X[:, 1]])),
        full_design(3, 2)),
    "combined-covariate": lambda: (
        with_covariates(three_factor(8), lambda X: np.column_stack([X[:, :3], X[:, 0] - 2 * X[:, 2]])),
        full_design(3, 2)),
    "constant-covariate": lambda: (
        with_covariates(three_factor(9), lambda X: np.column_stack([X[:, :2], np.full(len(X), 3.0)])),
        full_design(3, 2)),
    "three-factor-two-empty": lambda: k_prime_one_without([(1, 1, 1), (-1, 1, -1)]),
    "three-factor-three-empty": lambda: k_prime_one_without([(1, 1, 1), (-1, 1, -1), (1, -1, -1)]),
    "five-factor-one-empty": lambda: (without_cells(five_factor(11, 800), FIVE_SPARSE[:1], d=2),
                                      build_incomplete_design(5, 2, FIVE_SPARSE[:1])),
    "five-factor-three-empty": lambda: (without_cells(five_factor(12, 800), FIVE_SPARSE, d=2),
                                        build_incomplete_design(5, 2, FIVE_SPARSE)),
    # an observed cell with two units, fewer than the basis columns
    "few-units-cell": lambda: (with_few_units(three_factor(13), (1, -1, 1), 2), full_design(3, 2)),
    # an observed cell of an explicit design with no units at all
    "unitless-cell": lambda: (without_cells(three_factor(14, 400), [(1, 1, 1), (1, -1, 1)]),
                              build_incomplete_design(3, 2, [(1, 1, 1)])),
    # the additive flavor: covariate columns carry only uninteracted rows
    # (31 candidates spanning 23 dimensions), the constant column every
    # interaction (465 spanning 30), so each takes its own SVD
    "additive-incomplete": lambda: (without_cells(five_factor(16, 800), FIVE_REMOVED, d=2),
                                    build_incomplete_design(5, 2, FIVE_REMOVED)),
    # X3 = X1 - X2 on an incomplete design: the data stage drops the rows
    # on column 2
    "collinear-incomplete": lambda: (
        with_covariates(without_cells(three_factor(17, 400), [(1, 1, 1)]),
                        lambda X: np.column_stack([X[:, 0], X[:, 1], X[:, 0] - X[:, 1]])),
        build_incomplete_design(3, 2, [(1, 1, 1)])),
    "six-factor-complete": lambda: (six_factor(18), full_design(6, 2)),
}
FILTER_SPECS = {"additive-incomplete": BasisSpec(model_flavor="additive")}
DATA_REDUNDANT = {"duplicated-covariate", "combined-covariate", "constant-covariate",
                  "collinear-incomplete"}


@pytest.mark.parametrize("draw", list(FILTER_DRAWS))
def test_compressed_filter_keeps_dense_rows(draw):
    ds, design = FILTER_DRAWS[draw]()
    spec = FILTER_SPECS.get(draw, BasisSpec())
    full = build_balance_system(ds, spec, design)
    keep = numeric_keep(full.B, full.unit_targets)
    assert _numeric_keep(full) == keep
    assert 0 < len(keep) <= full.p
    assert (len(keep) < full.p) == (draw in DATA_REDUNDANT)
    slim = build_balance_system(ds, spec, design, drop_redundant=True)
    assert np.array_equal(slim.G, full.G[keep]) and np.array_equal(slim.coef, full.coef[keep])
    assert np.array_equal(slim.basis_ids, full.basis_ids[keep])


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(3, 5),
    complete=st.booleans(),
    s_count=st.integers(1, 4),
    extra=st.sampled_from([None, "duplicated", "constant"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_data_stage_keeps_oracle_rows(k, complete, s_count, extra, seed):
    # small designs whose cells hold 0 to S + 2 units (at least a drawn
    # number of them), optionally with a duplicated or constant covariate.
    # Every row lies within 100 times the tolerance of the span True keeps
    # (the largest seen in 5000 draws was 1.1 times); True keeps the
    # oracle's rows wherever no row's residual lies between 1e-13 and 1e-6
    # (there rounding decides, and the compressed and dense rows disagree
    # on about 1 draw in 250); the Gram certificate skips the filter only
    # where the oracle keeps all
    rng = np.random.default_rng(seed)
    if complete:
        design = full_design(k, 2)
    else:
        cells = enumerate_combinations(k)
        unobserved = cells[rng.choice(len(cells), 1 if k == 3 else 2, replace=False)]
        try:
            design = build_incomplete_design(k, 2, unobserved)
        except IdentificationError:
            assume(False)
    fewest = rng.integers(0, s_count + 3)
    Z = np.repeat(design.observed, rng.integers(fewest, s_count + 3, len(design.observed)), axis=0)
    assume(len(Z) > 0)
    X = rng.normal(size=(len(Z), s_count))
    if extra == "duplicated":
        X = np.column_stack([X, X[:, 0]])
    elif extra == "constant":
        X = np.column_stack([X, np.full(len(Z), 1.5)])
    ds = Dataset(Z, X, rng.normal(size=len(Z)))
    full = build_balance_system(ds, BasisSpec(), design)
    resid = keep_residuals(full.B, full.unit_targets)
    keep = numeric_keep(full.B, full.unit_targets)
    with mock.patch.object(balance, "_numeric_keep", wraps=balance._numeric_keep) as spy:
        kept = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
    rows = np.hstack([full.B, full.unit_targets])
    q, _ = np.linalg.qr(np.hstack([kept.B, kept.unit_targets]).T)
    off = rows - (rows @ q) @ q.T
    off -= (off @ q) @ q.T
    assert np.all(np.linalg.norm(off, axis=1) <= 100 * _KEEP_TOL * np.linalg.norm(rows, axis=1))
    if not np.any((resid > 1e-13) & (resid < 1e-6)):
        assert np.array_equal(kept.G, full.G[keep])
        assert np.array_equal(kept.basis_ids, full.basis_ids[keep])
    if not spy.called:
        assert keep == list(range(full.p))


MASK_STEPS = ["random", "all", "none", "flip", "complement", "few"]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(3, 5),
    complete=st.booleans(),
    steps=st.lists(st.sampled_from(MASK_STEPS), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_active_gram_memo_matches_dense(k, complete, steps, seed):
    # active_gram updates its remembered Gram by the units that changed
    # side, or sums the masked units afresh, whichever touches fewer units
    # (these samples are too small for the update otherwise): along any walk
    # of masks each result is the dense B_act B_act', and a solve that
    # starts from a walked memo ends as one from a fresh system does (its
    # first step masks every unit, which takes cell_gram)
    rng = np.random.default_rng(seed)
    if complete:
        design = full_design(k, 2)
    else:
        cells = enumerate_combinations(k)
        unobserved = cells[rng.choice(len(cells), 1 if k == 3 else 2, replace=False)]
        try:
            design = build_incomplete_design(k, 2, unobserved)
        except IdentificationError:
            assume(False)
    Z = np.repeat(design.observed, rng.integers(12, 30, len(design.observed)), axis=0)
    X = rng.normal(size=(len(Z), 2))
    ds = Dataset(Z, X, rng.normal(size=len(Z)))
    system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
    dense = DenseOperator(system)
    mask = np.ones(system.n, dtype=bool)
    with mock.patch.object(balance, "_GRAM_UPDATE_MIN", 0):
        for step in steps:
            if step == "random":
                mask = rng.random(system.n) < rng.random()
            elif step in ("all", "none"):
                mask = np.full(system.n, step == "all")
            elif step == "complement":
                mask = ~mask
            else:
                mask = mask.copy()
                if step == "flip":
                    mask[rng.integers(system.n)] ^= True
                else:
                    mask[rng.random(system.n) < 0.05] ^= True
            want = dense.active_gram(mask)
            got = system.active_gram(mask)
            assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))
        walked = solve_dual(system)
        fresh = solve_dual(build_balance_system(ds, BasisSpec(), design, drop_redundant=True))
    assert (walked.status, walked.iterations) == (fresh.status, fresh.iterations)
    if fresh.converged:  # an infeasible fit's last iterate has no meaning
        assert np.max(np.abs(walked.weights - fresh.weights)) <= 1e-10


def test_small_sample_gram_does_not_depend_on_earlier_calls():
    # below _GRAM_UPDATE_MIN units saved active_gram sums the masked units
    # afresh, which is bitwise the plain masked sum
    _, system = case("incomplete")
    assert system.n < balance._GRAM_UPDATE_MIN
    rng = np.random.default_rng(0)
    masks = [rng.random(system.n) < q for q in (0.9, 0.5, 0.1, 0.6)]
    for mask in masks:
        walked = system.active_gram(mask)
        fresh = dataclasses.replace(system).active_gram(mask)
        assert np.array_equal(walked, fresh)


def test_greedy_keep_finds_rows_after_long_dependent_runs():
    # each new row follows a run of combinations of the kept ones, some
    # runs longer than a screening block, so the kept span is carried
    # across block boundaries; every other new row lies only
    # 5 * tol (relative) off the kept span, so a screen that dropped more
    # than Gram-Schmidt does would lose it; rows are then scaled from 1e-6
    # to 1e6
    rng = np.random.default_rng(0)
    dim = 9
    rows, expected = [], []
    for k, run in enumerate((0, 2 * _SCREEN_BLOCK + 5, 3, _SCREEN_BLOCK - 1, 1, 3 * _SCREEN_BLOCK, 40)):
        if k:
            rows += list(rng.normal(size=(run, k)) @ np.array(rows)[expected])
            rows.append(np.zeros(dim))
        fresh = np.zeros(dim)
        fresh[:k] = rng.normal(size=k)
        fresh[k] = 5e-10 * np.linalg.norm(fresh) if k % 2 else 1.0
        expected.append(len(rows))
        rows.append(fresh)
    rows = np.array(rows)
    for scaled in (rows, rows * 10.0 ** rng.uniform(-6, 6, (len(rows), 1))):
        assert _greedy_keep(scaled) == expected
        assert numeric_keep(scaled, scaled[:, :0]) == expected


def near_span_rows(rng, dim, offsets):
    """Rows for one screening block and the indices the row-by-row test
    keeps: three independent rows, then for each relative offset a
    combination of the kept rows plus that offset times its norm along a
    fresh direction (none for offset 0), then a fresh unit row."""
    rows = list(np.column_stack([rng.normal(size=(3, 3)), np.zeros((3, dim - 3))]))
    kept, fresh = [0, 1, 2], 3
    for offset in offsets:
        v = rng.normal(size=len(kept)) @ np.array(rows)[kept]
        if offset:
            v[fresh] = offset * np.linalg.norm(v)
            fresh += 1
        if offset > _KEEP_TOL:
            kept.append(len(rows))
        rows.append(v)
    kept.append(len(rows))
    rows.append(np.eye(dim)[fresh])
    return np.array(rows), kept


@pytest.mark.parametrize(
    "shape",
    ["square-full-rank", "fewer-rows-than-dim", "single-row", "near-span", "near-span-wide"],
)
def test_greedy_keep_in_one_block_matches_oracle(shape):
    # rows the QR diagonal keeps at once, and rows 5 * tol (kept) and
    # 0.2 * tol (dropped) off the span of the rows before them, inside
    # one screening block, so that the row-by-row test decides them
    rng = np.random.default_rng(len(shape))
    if shape == "square-full-rank":
        rows, expected = rng.normal(size=(12, 12)), list(range(12))
    elif shape == "fewer-rows-than-dim":
        rows, expected = rng.normal(size=(7, 40)), list(range(7))
    elif shape == "single-row":
        rows, expected = rng.normal(size=(1, 5)), [0]
    else:
        dim = 12 if shape == "near-span" else 200
        offsets = [5 * _KEEP_TOL, 0, 0.2 * _KEEP_TOL, 5 * _KEEP_TOL, 0.2 * _KEEP_TOL, 0]
        rows, expected = near_span_rows(rng, dim, offsets)
        assert expected == [0, 1, 2, 3, 6, 9]
    for scaled in (rows, rows * 10.0 ** rng.uniform(-6, 6, (len(rows), 1))):
        assert _greedy_keep(scaled) == expected
        assert numeric_keep(scaled, scaled[:, :0]) == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3 * _SCREEN_BLOCK),
    dim=st.integers(1, 12),
    rank=st.integers(0, 12),
)
def test_greedy_keep_matches_oracle_on_low_rank_rows(seed, n, dim, rank):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, min(rank, dim))) @ rng.normal(size=(min(rank, dim), dim))
    rows *= 10.0 ** rng.uniform(-6, 6, (n, 1))
    assert _greedy_keep(rows) == numeric_keep(rows, rows[:, :0])


def test_greedy_keep_stops_at_a_full_rank_span():
    # nine factors with four cells unobserved, two units in each observed
    # cell: the data stage screens 1398 span rows whose compressed rows
    # span only 2 * 508 + 3 dimensions (each cell's basis values have
    # rank 2), and keeps exactly that many
    cells = [
        (-1, -1, 1, 1, -1, -1, 1, 1, 1),
        (-1, -1, -1, -1, -1, 1, 1, 1, 1),
        (1, -1, -1, -1, -1, 1, 1, 1, -1),
        (1, 1, -1, 1, -1, -1, 1, -1, 1),
    ]
    design = build_incomplete_design(9, 2, cells)
    Z = np.repeat(design.observed, 2, axis=0)
    rng = np.random.default_rng(0)
    ds = Dataset(Z, rng.normal(size=(len(Z), 2)), rng.normal(size=len(Z)))
    system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
    assert system.p == 2 * len(design.observed) + 3
    assert np.bincount(system.basis_ids).max() <= len(design.observed)


# (k', covariate bases) per K: every order with one and three bases, plus
# mc5's shape at K=5 (k'=2, five bases) and K=6 at k' <= 2
STRUCTURAL_SHAPES = {
    **{k: [(k_prime, s) for s in (1, 3) for k_prime in range(1, k + 1)] for k in (2, 3, 4)},
    5: [(k_prime, s) for s in (1, 3) for k_prime in range(1, 6)] + [(2, 5)],
    6: [(k_prime, s) for k_prime in (1, 2) for s in (3, 5)],
}


@pytest.mark.parametrize("flavor", ["heterogeneous", "additive"])
@pytest.mark.parametrize("k", list(STRUCTURAL_SHAPES))
def test_structural_filter_keeps_oracle_rows(k, flavor):
    # on a complete design every column's rows are characters spanning its
    # candidate rows; with one unit per cell no cell's Gram matrix is
    # invertible, so True runs the data stage and keeps the oracle's rows
    combos = enumerate_combinations(k)
    rng = np.random.default_rng(k)
    for k_prime, s_count in STRUCTURAL_SHAPES[k]:
        ds = Dataset(combos, rng.normal(size=(2**k, s_count)), np.zeros(2**k))
        spec, design = BasisSpec(model_flavor=flavor), full_design(k, k_prime)
        full = build_balance_system(ds, spec, design)
        kept = build_balance_system(ds, spec, design, drop_redundant=True)
        keep = numeric_keep(full.B, full.unit_targets)
        assert np.array_equal(kept.G, full.G[keep])
        assert np.array_equal(kept.basis_ids, full.basis_ids[keep])
        assert_same_span(full)


@pytest.mark.parametrize("name", ["complete", "additive", "incomplete", "five-factor"])
def test_solver_matches_dense_operator(name):
    if name == "five-factor":
        system = build_balance_system(
            five_factor(), BasisSpec(), full_design(5, 2), drop_redundant=True
        )
    else:
        system = case(name)[1]
    factored, dense = solve_dual(system), solve_dual(DenseOperator(system))
    assert factored.converged and dense.converged
    assert np.max(np.abs(factored.weights - dense.weights)) <= 1e-10


def test_fit_allocates_less_than_one_dense_array():
    ds = five_factor(7, 50_000)
    design = full_design(5, 2)
    tracemalloc.start()
    try:
        system = build_balance_system(ds, BasisSpec(), design, drop_redundant=True)
        sol = solve_dual(system)
        assert sol.converged
        weighted_estimates(ds, system, sol.weights, sol.lam, effect_index_set(5, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < system.p * system.n * 8


def p_space_direction(system, mask, grad):
    """The Newton direction from the assembled P x P matrix and its
    Cholesky factor, as ``solver._newton_direction`` takes it where the
    cell-space solve does not apply."""
    A = 0.5 * system.active_gram(mask)
    A[np.diag_indices_from(A)] += solver._ridge(np.trace(A), A.shape[0])
    try:
        d = sla.cho_solve(sla.cho_factor(A, check_finite=False), grad, check_finite=False)
    except (np.linalg.LinAlgError, ValueError):
        return None
    return d if np.all(np.isfinite(d)) and grad @ d > 0 else None


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(3, 6),
    complete=st.booleans(),
    flavor=st.sampled_from(["heterogeneous", "additive"]),
    collinear=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_newton_step_in_cell_space_matches_dense(k, complete, flavor, collinear, seed):
    # cells hold 0 to 39 units (at least a drawn number of them), and every
    # other mask leaves one cell 0 to S active units, so that some cells
    # have fewer active units than basis columns, or none; a collinear
    # covariate makes the data stage drop rows, which join the complement.
    # Where the cell-space solve applies (about one mask in five; the
    # largest error seen over 2400 masks was 1.7e-11) its direction is the
    # dense (A + ridge I)^{-1} g; elsewhere the step is bitwise the P x P one
    rng = np.random.default_rng(seed)
    if complete:
        design = full_design(k, 2)
    else:
        cells = enumerate_combinations(k)
        unobserved = cells[rng.choice(len(cells), 1 if k == 3 else 2, replace=False)]
        try:
            design = build_incomplete_design(k, 2, unobserved)
        except IdentificationError:
            assume(False)
    fewest = rng.integers(0, 20)
    Z = np.repeat(design.observed, rng.integers(fewest, 40, len(design.observed)), axis=0)
    assume(len(Z) > 0)
    X = rng.normal(size=(len(Z), 2))
    if collinear:
        X = np.column_stack([X, X[:, 0] - X[:, 1]])
    ds = Dataset(Z, X, rng.normal(size=len(Z)))
    system = build_balance_system(ds, BasisSpec(model_flavor=flavor), design, drop_redundant=True)
    dense = DenseOperator(system)
    s_count = system.basis_values.shape[1]
    for starve in (False, True, False, True):
        mask = rng.random(system.n) < rng.uniform(0.3, 1.0)
        if starve:  # one cell keeps 0 to S active units
            inside = np.flatnonzero(system.unit_cells == rng.integers(system.G.shape[1]))
            mask[inside[rng.integers(0, s_count + 1):]] = False
        grad = rng.normal(size=system.p)
        gram = 0.5 * system.active_cell_gram(mask)
        cell = system.cell_solve(gram, solver._ridge(system.gram_trace(gram), system.p), grad)
        step = solver._newton_direction(system, mask, grad)
        if cell is None:
            want = p_space_direction(dataclasses.replace(system), mask, grad)
            assert (step is None and want is None) or np.array_equal(step, want)
            continue
        A = 0.5 * dense.active_gram(mask)
        A[np.diag_indices_from(A)] += solver._ridge(np.trace(A), system.p)
        want = np.linalg.solve(A, grad)
        assert np.max(np.abs(cell - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.array_equal(step, cell)


def test_newton_step_takes_the_cell_path_only_on_orthogonal_rows():
    # the five-factor study's first Newton step (every unit active) is
    # taken in cell space; with G's rows rescaled by hand the same step
    # is the P x P one, bitwise
    system = build_balance_system(
        five_factor(), BasisSpec(), full_design(5, 2), drop_redundant=True
    )
    assert len(system._complement[0]) == 6  # chi_12345 on each basis column
    rng = np.random.default_rng(0)
    mask = np.ones(system.n, dtype=bool)
    grad = rng.normal(size=system.p)
    gram = 0.5 * system.active_cell_gram(mask)
    cell = system.cell_solve(gram, solver._ridge(system.gram_trace(gram), system.p), grad)
    assert cell is not None
    A = 0.5 * DenseOperator(system).active_gram(mask)
    A[np.diag_indices_from(A)] += solver._ridge(np.trace(A), system.p)
    want = np.linalg.solve(A, grad)
    assert np.max(np.abs(cell - want)) <= 1e-10 * np.max(np.abs(want))
    scale = rng.uniform(0.2, 5.0, system.p)
    scaled = dataclasses.replace(system, G=system.G * scale[:, None], coef=system.coef * scale)
    assert scaled.cell_solve(0.5 * scaled.active_cell_gram(mask), 1.0, grad) is None
    step = solver._newton_direction(scaled, mask, grad)
    assert np.array_equal(step, p_space_direction(dataclasses.replace(scaled), mask, grad))
