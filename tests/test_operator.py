"""The factored balance operator against the dense P x N system.

The dense references are built from each row's definition (contrast side
times basis column times interaction, at every unit), or from the
system's dense views in ``oracles.DenseOperator`` and
``oracles.numeric_keep``.
"""

import tracemalloc

import numpy as np
import pytest

from factorbal.balance import (
    BasisSpec,
    _numeric_keep,
    _structural_keep,
    build_balance_system,
    split_contrast,
)
from factorbal.data import Dataset
from factorbal.design import (
    build_incomplete_design,
    effect_index_set,
    enumerate_combinations,
    full_design,
    interaction_value,
)
from factorbal.estimation import weighted_estimates
from factorbal.simulation import Scenario, generate
from factorbal.solver import solve_dual
from oracles import DenseOperator, numeric_keep, structural_keep

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


def case(name):
    """(dataset, system) for one named design."""
    if name == "complete":
        ds = three_factor(0, 600)
        return ds, build_balance_system(ds, BasisSpec(), full_design(3, 2), drop_redundant=True)
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


CASES = ["complete", "additive", "redundant", "incomplete", "empty-cell"]


def assert_close(got, want, rtol=RTOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * max(1.0, np.max(np.abs(want), initial=0.0))


def defined_rows(ds, system):
    """B and the per-unit targets from each row's definition."""
    design = system.design
    pos = {e: i for i, e in enumerate(design.effects)}
    unit_parts = split_contrast(design.contrasts(ds.Z, design.effects))
    cell_parts = split_contrast(design.contrasts(design.observed, design.effects))
    H = system.basis_values
    B, T = [], []
    for r in system.rows:
        side, e = (0 if r.sign > 0 else 1), pos[r.effect]
        h = H[:, r.basis_id]
        B.append(unit_parts[side][e] * h * interaction_value(ds.Z, r.interaction))
        coef = cell_parts[side][e] @ interaction_value(design.observed, r.interaction)
        T.append(coef / 2 ** (design.k - 1) * h)
    return np.array(B), np.array(T)


@pytest.mark.parametrize("name", CASES)
def test_dense_views_match_row_definitions(name):
    ds, system = case(name)
    B, T = defined_rows(ds, system)
    assert_close(system.B, B)
    assert_close(system.unit_targets, T)
    assert_close(system.b, T.sum(axis=1))
    assert_close([r.target for r in system.rows], T.sum(axis=1))
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
    masks = [
        dense.rmatvec(lam) < 0,
        np.zeros(system.n, dtype=bool),
        np.ones(system.n, dtype=bool),
        # a handful of active units: most cells hold fewer than S of them
        rng.random(system.n) < 20 / system.n,
    ]
    for mask in masks:
        assert_close(system.active_gram(mask), dense.active_gram(mask))


@pytest.mark.parametrize(
    "draw",
    [
        lambda: (without_cells(three_factor(3, 400), [(1, 1, 1)]),
                 build_incomplete_design(3, 2, [(1, 1, 1)])),
        lambda: (without_cells(three_factor(4, 400), [(1, 1, 1), (-1, 1, -1)]),
                 build_incomplete_design(3, 2, [(1, 1, 1)])),
        lambda: (without_cells(five_factor(5, 800), FIVE_REMOVED, d=2),
                 build_incomplete_design(5, 2, FIVE_REMOVED)),
        lambda: (three_factor(6), full_design(3, 2)),
    ],
    ids=["incomplete", "empty-cell", "five-factor-incomplete", "complete"],
)
def test_compressed_filter_keeps_dense_rows(draw):
    ds, design = draw()
    full = build_balance_system(ds, BasisSpec(), design)
    keep = numeric_keep(full.B, full.unit_targets)
    assert _numeric_keep(full) == keep
    assert 0 < len(keep) < full.p
    slim = build_balance_system(ds, BasisSpec(), design, drop_redundant="numeric")
    assert slim.rows == tuple(full.rows[i] for i in keep)


@pytest.mark.parametrize("flavor", ["heterogeneous", "additive"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_structural_filter_keeps_oracle_rows(k, flavor):
    combos = enumerate_combinations(k)
    rng = np.random.default_rng(k)
    for s_count in (1, 3):
        ds = Dataset(combos, rng.normal(size=(2**k, s_count)), np.zeros(2**k))
        for k_prime in range(1, k + 1):
            full = build_balance_system(ds, BasisSpec(model_flavor=flavor), full_design(k, k_prime))
            keys = [r.key() for r in full.rows]
            assert _structural_keep(keys) == structural_keep(keys)


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
