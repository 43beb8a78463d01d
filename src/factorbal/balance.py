"""Assembly of the balance constraint system Bw = b.

Each constraint requires a weighted sample moment of one basis function,
weighted per treatment cell, to match the moment a uniformly randomized
design would produce. The paper's candidate rows weigh basis column s by
a summary or split-contrast coefficient times an interaction, per cell;
the weights only have to meet the span of those per-cell coefficients,
so each column keeps one basis of that span: the +-1 characters of low
order on a complete design, the right singular vectors of the candidate
rows on an incomplete one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .data import Dataset
from .design import (
    SUMMARY,
    FactorialDesign,
    character_rows,
    enumerate_combinations,
    interaction_value,
)
from .errors import ConfigurationError, DataError

BasisFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BasisSpec:
    """Covariate basis functions and the outcome-model flavor they balance.

    ``model_flavor`` is ``"additive"`` (separate covariate and treatment
    terms) or ``"heterogeneous"`` (covariate-by-treatment products). The
    interaction order comes from the design.
    """

    covariate_bases: Sequence[BasisFunction] | None = None
    model_flavor: str = "heterogeneous"

    def __post_init__(self):
        if self.model_flavor not in ("additive", "heterogeneous"):
            raise ConfigurationError(
                f"unknown model flavor {self.model_flavor!r}"
            )

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the bases on all rows (N x S); by default X's columns."""
        if self.covariate_bases is None:
            values = np.array(X, dtype=float, order="C")
        else:
            cols = [np.asarray(h(X), dtype=float).ravel() for h in self.covariate_bases]
            for s, v in enumerate(cols):
                if v.shape[0] != X.shape[0]:
                    raise ConfigurationError(f"basis {s} returned wrong length")
            values = np.column_stack(cols) if cols else np.empty((X.shape[0], 0))
        if values.shape[1] == 0:
            raise ConfigurationError("at least one basis function is required")
        bad = ~np.isfinite(values)
        if bad.any():
            s, row = np.argwhere(bad.T)[0]
            raise DataError(f"basis {s} is non-finite at row {row}")
        return values


def split_contrast(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative decomposition g = g_plus - g_minus."""
    g = np.asarray(g, dtype=float)
    return np.maximum(g, 0.0), np.maximum(-g, 0.0)


@dataclass(frozen=True)
class BalanceSystem:
    """The stacked constraints Bw = b, kept in factored form.

    Row r balances basis column ``basis_ids[r]`` (s_r) on one side of one
    contrast, so its coefficient at unit i factors into a per-cell and a
    per-unit part, ``B[r, i] = G[r, unit_cells[i]] * H[i, s_r]``, and so
    does its target contribution, ``coef[r] * H[i, s_r]``; here
    ``H = basis_values`` (N x S), ``G`` is P x observed cells and
    ``unit_cells`` holds each unit's observed-cell index. Products with B
    and the active curvature come from per-cell sums of H, rows grouped
    by basis column, so no P x N or P x (cells * S) array is formed;
    ``B``, ``unit_targets`` and ``element_values`` build the dense arrays
    on demand, for inspection and tests. The ``G`` rows on one basis
    column are orthogonal, each of squared norm the number of observed
    cells; ``_complement`` holds the rows (and their columns) that complete
    each column's rows to such a basis of the cells, or None.
    """

    G: np.ndarray
    basis_ids: np.ndarray
    coef: np.ndarray
    unit_cells: np.ndarray
    elements: tuple[tuple[int, tuple[int, ...]], ...]
    basis_values: np.ndarray
    design: FactorialDesign
    _complement: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def b(self) -> np.ndarray:
        return self.coef * self.basis_values.sum(axis=0)[self.basis_ids]

    @property
    def n(self) -> int:
        return self.basis_values.shape[0]

    @property
    def p(self) -> int:
        return self.G.shape[0]

    @cached_property
    def _lift(self) -> sparse.csr_matrix:
        """N x (cells * S) sparse matrix holding ``H[i, s]`` at column
        ``(unit_cells[i], s)``."""
        n, s_count = self.basis_values.shape
        cols = self.unit_cells[:, None] * s_count + np.arange(s_count)
        return sparse.csr_matrix(
            (self.basis_values.ravel(), cols.ravel(), np.arange(0, n * s_count + 1, s_count)),
            shape=(n, self.G.shape[1] * s_count),
        )

    @cached_property
    def _lift_t(self) -> sparse.csc_matrix:
        """``_lift.T``, kept as one CSC view: it sums per cell."""
        return self._lift.T

    @cached_property
    def _by_basis(self) -> list[np.ndarray]:
        """For each basis column s, the indices of the rows on it."""
        return [np.flatnonzero(self.basis_ids == s) for s in range(self.basis_values.shape[1])]

    def _cell_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-cell sums of ``v[i] * H[i, s]``: cells x S for a length-N
        ``v``, cells x S x m for an N x m one."""
        sums = self._lift_t @ v
        return sums.reshape(self.G.shape[1], self.basis_values.shape[1], *v.shape[1:])

    def cell_outer(self, x: np.ndarray, ys: list[np.ndarray],
                   units: slice | np.ndarray = slice(None)) -> list[np.ndarray]:
        """For each ``y`` in ``ys``, the per-cell sums of ``x[j] * y[j]'``
        over the units ``units`` (a slice of consecutive units or an index
        array), ``x`` holding S values and each ``y`` one row per unit:
        cells x S for a vector ``y``, cells x S x m for an m-column one.
        ``x = H[units]`` gives the per-cell sums of ``y[j] * H[units[j], s]``.
        The terms are added unit by unit in the order of ``units``, through
        one sparse matrix of ``x``'s values, and no array larger than ``x``
        and ``y`` is formed."""
        lift = self._lift
        if isinstance(units, slice):
            # every lift row holds S entries, so a block of rows is a view
            start, stop, _ = units.indices(self.n)
            indices = lift.indices[start * x.shape[1] : stop * x.shape[1]]
        else:
            indices = lift.indices.reshape(self.n, -1).take(units, axis=0).ravel()
        part_t = sparse.csc_matrix((x.ravel(), indices, lift.indptr[: len(x) + 1]),
                                   shape=(lift.shape[1], len(x)))
        return [(part_t @ y).reshape(self.G.shape[1], x.shape[1], *y.shape[1:]) for y in ys]

    def cell_parts(self, v: np.ndarray) -> np.ndarray:
        """``B @ v`` split by observed cell: entry (r, c) sums row r's terms
        over cell c's units, so the row sums are ``B @ v``."""
        return self.G * self._cell_sums(v)[:, self.basis_ids].T

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``B @ w``."""
        return self.cell_parts(w).sum(axis=1)

    def cell_multipliers(self, lam: np.ndarray) -> np.ndarray:
        """Per-cell sums of ``G`` times the multipliers, by basis column:
        entry (c, s) sums ``G[r, c] * lam[r]`` over the rows r on column s,
        so that ``(B.T @ lam)[i]`` is ``H[i] @ entry[unit_cells[i]]``;
        cells x S, or cells x S x E for a P x E ``lam``."""
        return _to_cells(self.G, self._by_basis, lam)

    def rmatvec(self, lam: np.ndarray, units: slice = slice(None)) -> np.ndarray:
        """``B.T @ lam``, or its rows ``units`` (a slice of consecutive
        units); a P x E ``lam`` gives the N x E products."""
        sums = self.cell_multipliers(lam)
        lift = self._lift
        if units != slice(None):
            # every lift row holds S entries, so a block of rows is a view
            start, stop, _ = units.indices(self.n)
            lo, hi = start * self.basis_values.shape[1], stop * self.basis_values.shape[1]
            lift = sparse.csr_matrix(
                (lift.data[lo:hi], lift.indices[lo:hi], lift.indptr[: stop - start + 1]),
                shape=(stop - start, lift.shape[1]),
            )
        return lift @ sums.reshape(self._lift.shape[1], *lam.shape[1:])

    @cached_property
    def cell_gram(self) -> np.ndarray:
        """H's Gram matrix over each observed cell's units (cells x S x S)."""
        return self._cell_sums(self.basis_values)

    @cached_property
    def _last_gram(self) -> list:
        """The last mask ``active_cell_gram`` took and its per-cell Gram of
        H; at first every unit and ``cell_gram``."""
        return [np.ones(self.n, dtype=bool), self.cell_gram]

    def active_cell_gram(self, mask: np.ndarray) -> np.ndarray:
        """H's Gram matrix over each observed cell's masked units (cells x
        S x S), for the Newton step and the variance. A mask of every unit
        gives ``cell_gram``, the last mask taken its remembered result, and
        any other either that result plus the signed ``H[i] H[i]'`` of the
        units that changed side, where that touches at least
        ``_GRAM_UPDATE_MIN`` fewer units than are masked, or the plain
        masked sum; so the result depends on earlier calls through rounding
        only."""
        mask = np.asarray(mask, dtype=bool)
        last, gram = self._last_gram
        active = np.count_nonzero(mask)
        if active == self.n:
            gram = self.cell_gram
        elif not np.array_equal(mask, last):
            # an update saves enough units only if as many are masked
            changed = np.flatnonzero(mask != last) if active >= _GRAM_UPDATE_MIN else []
            if active - len(changed) < _GRAM_UPDATE_MIN:
                gram = self._cell_sums(self.basis_values * mask.astype(float)[:, None])
            else:
                h = self.basis_values.take(changed, axis=0)
                moves = np.where(mask[changed], 1.0, -1.0)[:, None]
                gram = gram + self.cell_outer(h * moves, [h], changed)[0]
        self._last_gram[:] = mask.copy(), gram
        return gram

    def active_gram(self, mask: np.ndarray) -> np.ndarray:
        """``B[:, mask] @ B[:, mask].T`` (P x P): entry (r, t) sums
        ``G[r, c] G[t, c] gram_c[s_r, s_t]`` over cells c, with ``gram_c``
        the ``active_cell_gram`` of the mask; one matmul per basis column."""
        return _assemble(self.G, self.basis_ids, self._by_basis, self.active_cell_gram(mask))

    def gram_trace(self, gram: np.ndarray) -> float:
        """The trace of ``active_gram``'s assembly of the per-cell ``gram``."""
        return float(np.sum(self._column_squares * np.diagonal(gram, axis1=1, axis2=2)))

    @cached_property
    def _column_squares(self) -> np.ndarray:
        """Per-cell sums of ``G[r, c]^2`` over each column's rows (cells x S)."""
        return _to_cells(self.G**2, self._by_basis, np.ones(self.p))

    @cached_property
    def _cell_frame(self) -> tuple | None:
        """The complement rows, their columns and their indices by column;
        None if there are P or more, or if a column's ``G`` and complement
        rows are not orthogonal of squared norm ``cells`` (``G`` rescaled)."""
        if self._complement is None or len(self._complement[0]) >= self.p:
            return None
        rows, ids = self._complement
        cells = self.G.shape[1]
        by_basis = [np.flatnonzero(ids == s) for s in range(self.basis_values.shape[1])]
        for mine, theirs in zip(self._by_basis, by_basis):
            q = np.concatenate([self.G[mine], rows[theirs]])
            off = q @ q.T - cells * np.eye(cells) if len(q) == cells else np.inf
            if np.max(np.abs(off)) > _FRAME_TOL * cells:
                return None
        return rows, ids, by_basis

    def cell_solve(self, gram: np.ndarray, ridge: float, v: np.ndarray) -> np.ndarray | None:
        """``(M + ridge I)^{-1} v`` for ``active_gram``'s assembly M of the
        per-cell ``gram``, ``v`` a vector or P x E (the variance's, ridge 0):
        from the inverses of D'_c = gram_c + (ridge / cells) I and an m x m
        coupling on the complement rows (algebra in ``solver``). None without
        ``_cell_frame`` or unless max_c |D'_c^{-1}|_F max_c |D'_c|_F <
        1 / ``_GRAM_TOL``, which suffices for the data stage's eigenvalue rule."""
        if self._cell_frame is None:
            return None
        rows, ids, by_basis = self._cell_frame
        cells, s_count = gram.shape[:2]
        blocks = gram + ridge / cells * np.eye(s_count)
        try:
            inv = np.linalg.inv(blocks)
            norms = [np.linalg.norm(a, axis=(1, 2)).max() for a in (inv, blocks)]
            if not norms[0] * norms[1] < 1 / _GRAM_TOL:
                return None
            y = inv @ self.cell_multipliers(v).reshape(cells, s_count, -1)  # E = 1 for a vector
            if len(rows):
                coupling = _assemble(rows, ids, by_basis, inv)
                rhs = (rows[:, :, None] * y[:, ids].swapaxes(0, 1)).sum(axis=1)
                y -= inv @ _to_cells(rows, by_basis, np.linalg.solve(coupling, rhs))
        except np.linalg.LinAlgError:
            return None
        if v.ndim == 1:  # numpy's row sums, not BLAS: the solver's iterates hang on this rounding
            return (self.G * y[:, self.basis_ids, 0].T).sum(axis=1) / cells**2
        d = np.empty(v.shape)
        for s, r in enumerate(self._by_basis):
            d[r] = self.G[r] @ y[:, s]
        return d / cells**2

    def element_columns(self) -> np.ndarray:
        """The balanced functions at each unit's own assignment (N x elements)."""
        observed = self.design.observed
        r_cells = np.array([interaction_value(observed, J) for _, J in self.elements])
        ids = [s for s, _ in self.elements]
        return self.basis_values[:, ids] * r_cells.T[self.unit_cells]

    @property
    def B(self) -> np.ndarray:
        """Dense P x N coefficient matrix, built on each access."""
        return self.G[:, self.unit_cells] * self.basis_values[:, self.basis_ids].T

    @property
    def unit_targets(self) -> np.ndarray:
        """Dense P x N per-unit target contributions (row sums are ``b``)."""
        return self.coef[:, None] * self.basis_values[:, self.basis_ids].T

    @property
    def element_values(self) -> np.ndarray:
        """Dense elements x N values of the balanced functions."""
        return self.element_columns().T


def _to_cells(G: np.ndarray, by_basis: list[np.ndarray], lam: np.ndarray) -> np.ndarray:
    """Per-cell sums of ``G[r, c] * lam[r]`` over each column's rows
    (cells x S, or cells x S x E for a P x E ``lam``)."""
    return np.stack([G[rows].T @ lam[rows] for rows in by_basis], axis=1)


def _assemble(G: np.ndarray, ids: np.ndarray, by_basis: list[np.ndarray],
              blocks: np.ndarray) -> np.ndarray:
    """Entry (r, t) sums ``G[r, c] G[t, c] blocks[c, ids[r], ids[t]]`` over cells."""
    out = np.empty((len(G), len(G)))
    for s, rows in enumerate(by_basis):
        out[rows] = G[rows] @ (blocks[:, s, ids] * G.T)
    return out


# ``BalanceSystem.active_cell_gram`` updates its remembered Gram only when the
# units that changed side are at least this many fewer than the masked
# ones. Below that the plain masked sum costs about as much, and it keeps
# a small fit's arithmetic as it was: the update rounds differently, which
# can shift a diverging solve's iteration count by one
_GRAM_UPDATE_MIN = 2**13
# bytes the row build in ``build_balance_system`` and its data stage
# may allocate; a K=14 complete design of order 2 with two covariates
# needs 1.6 GiB
_GATHER_BUDGET = 4 * 2**30
# singular values below this fraction of the largest one do not count
# toward an incomplete design's candidate row span
_SPAN_TOL = 1e-10
# the data stage filters only if a cell's Gram matrix of H has an eigenvalue
# below this fraction of the largest of any cell's: G's rows on a column are
# orthogonal of squared norm cells, so lambda_min(B B') >= cells * min_c
# lambda_min(gram_c), and a row of [B | targets] has squared norm at most
# 5 * cells * max_c lambda_max(gram_c) (|coef| <= 2); above 5e-20 no row is
# within _KEEP_TOL of the others' span
_GRAM_TOL = 1e-8
# ``_cell_frame`` admits G and complement rows whose Gram is cells * I within this * cells
_FRAME_TOL = 1e-12


def build_balance_system(
    dataset: Dataset,
    basis: BasisSpec,
    design: FactorialDesign,
    drop_redundant: bool = False,
) -> BalanceSystem:
    """Assemble the balance system for the dataset and design.

    The paper's candidate rows on basis column s are the summary rows
    chi_J and the split-contrast rows g_K^+ chi_J and g_K^- chi_J at the
    observed cells, for every retained effect K and every interaction J
    that s carries. The weights only have to meet their span V_s, so each
    column's ``G`` rows are a basis of V_s, each with a character's norm:
    on a complete design the +-1 characters chi_A with |A| <= min(2 k', K),
    or |A| <= k' on a covariate column of the additive flavor; on an
    incomplete one the right singular vectors of the candidate rows with
    a singular value above ``_SPAN_TOL`` times the largest, times the
    square root of the number of observed cells. Columns that carry the
    same interactions share one basis, so one SVD is taken under
    ``heterogeneous`` and two under ``additive``.

    No ``G`` row is thus redundant whatever the data. ``drop_redundant``
    runs a data stage that removes the rows redundant only on this dataset
    (jointly in coefficients and targets), e.g. under collinear covariates,
    so that the variance's curvature matrix is invertible; it filters only
    when a cell's Gram matrix of H is nearly singular (``_GRAM_TOL``).
    """
    if drop_redundant not in (False, True):
        raise ConfigurationError(f"drop_redundant must be True or False, got {drop_redundant!r}")
    if dataset.k != design.k:
        raise ConfigurationError(
            f"dataset has {dataset.k} factors but the design expects {design.k}"
        )
    H = basis.evaluate(dataset.X)
    unit_cells = design.observed_positions(dataset.Z)
    n, s_count = H.shape
    k, k_prime = design.k, design.k_prime
    interactions = [e.members for e in design.effects if e != SUMMARY]

    # elements: (basis column, interaction) pairs defining the balanced
    # functions; the constant function always participates so that pure
    # treatment terms are covered and the side masses are pinned. Groups
    # of consecutive columns share their rows: (number of columns, the
    # orders of the interactions J they carry, the order of their
    # characters on a complete design)
    H = np.column_stack([H, np.ones(n)])
    if basis.model_flavor == "heterogeneous":
        elements = [(s, J) for s in range(s_count + 1) for J in interactions]
        groups = [(s_count + 1, range(1, k_prime + 1), min(2 * k_prime, k))]
    else:
        elements = [(s, ()) for s in range(s_count)] + [(s_count, J) for J in interactions]
        groups = [(s_count, range(1), k_prime), (1, range(1, k_prime + 1), min(2 * k_prime, k))]

    # priced first: G and its source arrays, and with the data stage about three
    # arrays of its compressed rows; on an incomplete design every candidate row counts
    cells = design.n_observed_cells
    counts = [
        sum(math.comb(k, a) for a in range(order + 1)) if design.complete
        else sum(math.comb(k, a) for a in orders) * (1 + 2 * len(interactions))
        for _, orders, order in groups
    ]
    rows = sum(m * count for (m, _, _), count in zip(groups, counts))
    need = 3 * 8 * rows * cells
    if drop_redundant:
        screened = sum(m * min(count, cells) for (m, _, _), count in zip(groups, counts))
        need += 3 * 8 * screened * (cells + 1) * H.shape[1]
    if need > _GATHER_BUDGET:
        raise ConfigurationError(
            f"{rows} balance rows over {cells} cells need about "
            f"{need / 2**30:.1f} GiB{' with the data stage' if drop_redundant else ''}, "
            f"above the {_GATHER_BUDGET / 2**30:.0f} GiB budget; lower the interaction "
            "order or the number of basis functions"
        )
    spans = [
        (_characters(k, order), None) if design.complete
        else _candidate_span(design, orders)
        for _, orders, order in groups
    ]
    G = np.concatenate([np.tile(span, (m, 1)) for (m, _, _), (span, _) in zip(groups, spans)])
    per_column = [len(span) for (m, _, _), (span, _) in zip(groups, spans) for _ in range(m)]
    basis_ids = np.repeat(np.arange(s_count + 1), per_column)
    coef = G.sum(axis=1) / 2 ** (k - 1)
    complement = None
    if 2 * len(G) > cells * H.shape[1]:  # fewer rows complete the columns than G has
        complement = (np.concatenate([
            np.tile(_characters(k, k)[len(span):] if rest is None else rest, (m, 1))
            for (m, _, _), (span, rest) in zip(groups, spans)
        ]), np.repeat(np.arange(s_count + 1), cells - np.array(per_column)))
    system = BalanceSystem(G=G, basis_ids=basis_ids, coef=coef, unit_cells=unit_cells,
                           elements=tuple(elements), basis_values=H, design=design,
                           _complement=complement)
    if drop_redundant:
        eig = np.linalg.eigvalsh(system.cell_gram)
        if eig[:, 0].min() <= _GRAM_TOL * eig[:, -1].max():
            keep = _numeric_keep(system)
            if complement is not None:  # the dropped rows join the complement
                drop = np.setdiff1d(np.arange(len(G)), keep)
                complement = (np.concatenate([complement[0], G[drop]]),
                              np.concatenate([complement[1], basis_ids[drop]]))
            system = replace(system, G=G[keep], basis_ids=basis_ids[keep], coef=coef[keep],
                             _complement=complement)
    return system


@lru_cache(maxsize=64)
def _characters(k: int, order: int) -> np.ndarray:
    """Read-only (characters, 2^k cells) values of the characters chi_A
    with |A| <= ``order``, by order: the basis of every column's span on a
    complete design, and with ``order`` = k its completion."""
    chars = character_rows(enumerate_combinations(k), range(order + 1))
    chars.setflags(write=False)
    return chars


def _candidate_span(design: FactorialDesign, orders: range) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal rows, each of squared norm the number of observed cells,
    spanning the candidate rows of a column that carries the interactions
    of ``orders``: chi_J, g_K^+ chi_J and g_K^- chi_J over the retained
    effects K, with g_K the effective contrasts (observed cells only); and
    such rows completing them to every observed cell, the right singular
    vectors left out."""
    cells = design.observed
    r_cells = character_rows(cells, orders)
    parts = np.stack(split_contrast(design.effective[1:]))  # sides x effects x cells
    candidates = np.concatenate(
        [r_cells, (parts[:, :, None] * r_cells).reshape(-1, len(cells))]
    )
    _, sigma, vt = np.linalg.svd(candidates, full_matrices=len(candidates) < len(cells))
    vt *= np.sqrt(len(cells))
    rank = np.count_nonzero(sigma > _SPAN_TOL * sigma[0])
    return vt[:rank], vt[rank:]


def _numeric_keep(system: BalanceSystem) -> list[int]:
    """Greedy independent subset of ``system``'s [coefficients | targets] rows.

    Works on compressed rows with the same Gram matrix as ``[B | T]``:
    with ``R_c`` the R factor of H over cell c's units and ``R_H`` that of
    all of H, row r becomes ``[G[r, c] R_c[:, s_r]]_c ++ [coef_r R_H[:, s_r]]``,
    (cells + 1) * S long whatever N is, then kept by ``_greedy_keep``.
    Each factor is taken with S zero rows appended, which leave the Gram
    matrix as it is, so it is S x S even for a cell with fewer units.
    """
    G, basis_ids, unit_cells, H = system.G, system.basis_ids, system.unit_cells, system.basis_values
    order = np.argsort(unit_cells, kind="stable")
    bounds = np.cumsum(np.bincount(unit_cells, minlength=G.shape[1]))
    units = np.split(order, bounds[:-1]) + [slice(None)]  # each cell's, then all
    pad = np.zeros((H.shape[1], H.shape[1]))
    R = np.stack([np.linalg.qr(np.vstack([H[u], pad]), mode="r") for u in units])
    rows = np.column_stack([G, system.coef])[:, :, None] * R[:, :, basis_ids].transpose(2, 0, 1)
    return _greedy_keep(rows.reshape(len(G), -1))


# relative residual below which a row counts as dependent, rows screened
# per block in ``_greedy_keep``, and the factor by which a residual must
# clear the tolerance (or fall below it) to be decided without the
# row-by-row test
_KEEP_TOL = 1e-10
_SCREEN_BLOCK = 128
_SCREEN_MARGIN = 0.01


def _greedy_keep(rows: np.ndarray) -> list[int]:
    """Indices of the rows, taken in order, whose component orthogonal to
    the kept ones (two classical Gram-Schmidt passes against an
    orthonormal basis of the kept rows, as a matrix) exceeds ``_KEEP_TOL``
    times their norm; zero rows are skipped.

    The rows go ``_SCREEN_BLOCK`` at a time, and a block's pending rows
    are projected off the kept span as it grows. The span only grows, so
    a row whose residual is below ``_SCREEN_MARGIN * _KEEP_TOL`` times its
    norm would fail the test anyway (the margin covers the computations'
    rounding) and is dropped. The diagonal of one QR factorization of the
    remaining residuals gives each row's residual against the kept rows
    and the pending rows before it. While every earlier pending row is
    kept that is the row-by-row test, so the leading rows whose residual
    exceeds ``_KEEP_TOL / _SCREEN_MARGIN`` times their norm are kept at
    once and Q's columns extend the basis. If the first pending row does
    not clear that bar, every row before it is decided, so it takes the
    test itself. The kept indices are those of the row-by-row loop.

    The basis buffer holds min(rows, dim) rows: every row that
    ``_numeric_keep`` passes, at most S * cells of length (cells + 1) * S.
    Past a full-rank span a row's residual is rounding, which the screen drops.
    """
    n_rows, dim = rows.shape
    basis = np.empty((min(n_rows, dim), dim))
    keep: list[int] = []
    scale = np.linalg.norm(rows, axis=1)
    for start in range(0, n_rows, _SCREEN_BLOCK):
        pending = np.arange(start, min(start + _SCREEN_BLOCK, n_rows))
        resid = _project_off(rows[pending], basis[: len(keep)])
        while pending.size:
            norm = np.linalg.norm(resid, axis=1)
            live = norm > _SCREEN_MARGIN * _KEEP_TOL * scale[pending]
            pending, resid, norm = pending[live], resid[live], norm[live]
            if not pending.size:
                break
            q, r = np.linalg.qr(resid.T)
            clear = np.abs(np.diagonal(r)) > _KEEP_TOL / _SCREEN_MARGIN * scale[pending[: len(r)]]
            run = len(clear) if clear.all() else int(np.argmin(clear))
            if run:
                new, taken = q[:, :run].T, run
            elif norm[0] > _KEEP_TOL * scale[pending[0]]:
                new, taken = resid[:1] / norm[0], 1
            else:
                new, taken = resid[:0], 1
            basis[len(keep) : len(keep) + len(new)] = new
            keep.extend(pending[: len(new)].tolist())
            if len(keep) == len(basis):
                return keep
            pending, resid = pending[taken:], _project_off(resid[taken:], new)
    return keep


def _project_off(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``v``'s rows minus their projections on ``q``'s orthonormal rows,
    taken twice."""
    for _ in range(2):
        v = v - (v @ q.T) @ q
    return v


@dataclass(frozen=True)
class ResidualReport:
    """Constraint residuals Bw - b of a candidate weight vector."""

    residuals: np.ndarray
    max_abs: float


def balance_residuals(weights: np.ndarray, system: BalanceSystem) -> ResidualReport:
    """Exact residual vector of the balance constraints at ``weights``."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape[0] != system.n:
        raise ConfigurationError(
            f"weights have length {w.shape[0]}, expected {system.n}"
        )
    res = system.matvec(w) - system.b
    return ResidualReport(res, float(np.max(np.abs(res), initial=0.0)))
