"""Assembly of the balance constraint system Bw = b.

Each constraint row requires a weighted sample moment of one basis
function, restricted to the units on one side of a contrast, to match the
moment a uniformly randomized design would produce. The assembled system
follows the refined (non-redundant) form: one summary row per basis
element plus one positive-part row per retained effect and element, with
interactions canonicalized so that algebraically identical rows are
emitted once. Negative-part rows are implied (summary minus positive) on
a complete design and are therefore omitted there; on an incomplete
design the implication fails, so both signed rows are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .data import Dataset
from .design import FactorialDesign, SUMMARY, interaction_value
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
    on demand, for inspection and tests. ``rows`` holds each row's key
    ``(effect members, basis column, interaction, sign)``, with sign -1
    for a negative-part row (incomplete designs only).
    """

    G: np.ndarray
    basis_ids: np.ndarray
    coef: np.ndarray
    unit_cells: np.ndarray
    rows: tuple[tuple, ...]
    elements: tuple[tuple[int, tuple[int, ...]], ...]
    basis_values: np.ndarray
    design: FactorialDesign

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

    def cell_parts(self, v: np.ndarray) -> np.ndarray:
        """``B @ v`` split by observed cell: entry (r, c) sums row r's terms
        over cell c's units, so the row sums are ``B @ v``."""
        return self.G * self._cell_sums(v)[:, self.basis_ids].T

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``B @ w``."""
        return self.cell_parts(w).sum(axis=1)

    def rmatvec(self, lam: np.ndarray, units: slice = slice(None)) -> np.ndarray:
        """``B.T @ lam``, or its rows ``units``; a P x E ``lam`` gives the
        N x E products."""
        # per-cell sums of G times the multipliers, cells x S (x E), by basis column
        sums = np.stack([self.G[rows].T @ lam[rows] for rows in self._by_basis], axis=1)
        lift = self._lift if units == slice(None) else self._lift[units]
        return lift @ sums.reshape(self._lift.shape[1], *lam.shape[1:])

    def active_gram(self, mask: np.ndarray) -> np.ndarray:
        """``B[:, mask] @ B[:, mask].T`` (P x P): entry (r, t) sums
        ``G[r, c] G[t, c] gram_c[s_r, s_t]`` over cells c, with ``gram_c``
        H's Gram matrix over c's masked units; one matmul per basis column.
        """
        gram = self._cell_sums(self.basis_values * mask.astype(float)[:, None])  # cells x S x S
        out = np.empty((self.p, self.p))
        for s, rows in enumerate(self._by_basis):
            out[rows] = self.G[rows] @ (gram[:, s, self.basis_ids] * self.G.T)
        return out

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


# bytes the row gather in ``build_balance_system`` and the numeric filter
# may allocate; a K=14 complete design of order 2, two covariates,
# drop_redundant=True needs 1.6 GiB
_GATHER_BUDGET = 4 * 2**30


def build_balance_system(
    dataset: Dataset,
    basis: BasisSpec,
    design: FactorialDesign,
    drop_redundant: bool | str = False,
) -> BalanceSystem:
    """Assemble the refined balance system for the dataset and design.

    With ``drop_redundant=True`` rows that are exact linear combinations
    of earlier rows (jointly in coefficients and targets) are removed,
    which keeps the solver unchanged but makes the curvature matrix used
    by the variance estimator invertible. On complete designs that is
    decided from the row keys alone; ``"numeric"`` also removes the rows
    that are redundant only on this dataset, e.g. under collinear covariates.

    Redundancy is decided in two stages. The design stage drops rows that
    are dependent whatever the data: on a complete design by the keys, on
    an incomplete one by a greedy pass over each basis column's ``G``
    rows (a row's coefficients and target are linear in its ``G`` row, so
    a ``G`` row in the span of earlier ones on the same column makes the
    row dependent). The data stage (``"numeric"``, and ``True`` on an
    incomplete design) screens only the survivors. A dropped row lies in
    the span of the earlier rows, so the greedy over the survivors keeps
    the rows a greedy over every row would keep.
    """
    if drop_redundant not in (False, True, "numeric"):
        raise ConfigurationError(
            f"drop_redundant must be False, True or 'numeric', got {drop_redundant!r}"
        )
    if dataset.k != design.k:
        raise ConfigurationError(
            f"dataset has {dataset.k} factors but the design expects {design.k}"
        )
    H = basis.evaluate(dataset.X)
    unit_cells = design.observed_positions(dataset.Z)
    n, s_count = H.shape
    effects = [e for e in design.effects if e != SUMMARY]
    interactions = [e.members for e in effects]

    # elements: (basis column, interaction) pairs defining the balanced
    # functions; the constant function always participates so that pure
    # treatment terms are covered and the side masses are pinned
    H = np.column_stack([H, np.ones(n)])
    const = s_count
    if basis.model_flavor == "heterogeneous":
        elements = [(s, J) for s in range(s_count + 1) for J in interactions]
    else:
        elements = [(s, ()) for s in range(s_count)] + [(const, J) for J in interactions]

    # on a complete design redundancy is a fact about the keys alone
    keys, row_interactions, (side, effect_ids, basis_ids, interaction_ids) = _row_keys(
        tuple(interactions),
        tuple(elements),
        design.complete,
        bool(design.complete and drop_redundant),
    )
    numeric = bool(drop_redundant) and (drop_redundant == "numeric" or not design.complete)

    # priced first: G and the two arrays it is the product of, and the
    # numeric filter's compressed rows (about three arrays of them) for
    # the at most one row per observed cell on each basis column that
    # the design stage keeps
    cells = design.observed
    need = 3 * 8 * len(keys) * len(cells)
    if numeric:
        screened = np.minimum(np.bincount(basis_ids), len(cells)).sum()
        need += 3 * 8 * int(screened) * (len(cells) + 1) * H.shape[1]
    if need > _GATHER_BUDGET:
        raise ConfigurationError(
            f"{len(keys)} balance rows over {len(cells)} cells need about "
            f"{need / 2**30:.1f} GiB{' with the numeric filter' if numeric else ''}, "
            f"above the {_GATHER_BUDGET / 2**30:.0f} GiB budget; lower the interaction "
            "order or the number of basis functions"
        )
    # row (K, s, J, sign) weighs basis column s by the K side's part of
    # the contrast times the J interaction, both constant within a cell:
    # one gather from the split contrasts and the interaction values
    parts = np.stack(split_contrast(design.contrasts(cells, [SUMMARY, *effects])))
    r_cells = np.array([interaction_value(cells, J) for J in row_interactions])
    G = parts[side, effect_ids] * r_cells[interaction_ids]
    # a contrast side with no observed cell (incomplete designs only) gives
    # an all-zero row: the interaction values are +-1
    keep = np.flatnonzero(G.any(axis=1))
    if drop_redundant and not design.complete:
        keep = keep[_design_keep(G[keep], basis_ids[keep])]
    G, basis_ids = G[keep], basis_ids[keep]
    coef = G.sum(axis=1) / 2 ** (design.k - 1)
    if numeric:
        chosen = _numeric_keep(G, basis_ids, coef, unit_cells, H)
        keep, G, basis_ids, coef = keep[chosen], G[chosen], basis_ids[chosen], coef[chosen]
    return BalanceSystem(
        G=G,
        basis_ids=basis_ids,
        coef=coef,
        unit_cells=unit_cells,
        rows=tuple(keys[i] for i in keep),
        elements=tuple(elements),
        basis_values=H,
        design=design,
    )


@lru_cache(maxsize=64)
def _row_keys(
    effect_members: tuple[tuple[int, ...], ...],
    elements: tuple[tuple[int, tuple[int, ...]], ...],
    complete: bool,
    independent: bool,
) -> tuple[tuple[tuple, ...], tuple[tuple[int, ...], ...], np.ndarray]:
    """Deduplicated row keys (effect members, basis id, interaction, sign),
    the distinct interactions in order of first use, and a read-only
    4 x keys index array: per key its side (1 for a negative part), its
    effect's position in ``(SUMMARY, *effects)``, its basis column and
    its interaction's position.

    On a complete design: summary rows plus positive-part rows with the
    interaction canonicalized (J replaced by J minus K when K is contained
    in J, an exact identity there). On an incomplete design both signed
    rows are kept and no canonicalization applies.

    With ``independent`` (complete designs only) a key is kept iff it is
    independent of the kept keys before it, in coefficients and targets.
    A summary row ``((), s, J)`` is the (basis, interaction) term
    ``(s, J)``; a row ``(K, s, J)`` is half the term ``(s, J)`` plus half
    ``(s, K sym-diff J)``, one of them an element term. The summary rows
    come first and span every element term, so a row is independent of
    those before it exactly when it brings in a term not seen before.
    """

    def canonical(K: tuple[int, ...], J: tuple[int, ...]) -> tuple[int, ...]:
        if K and set(K).issubset(J):
            return tuple(x for x in J if x not in K)
        return J

    signs = (+1,) if complete else (+1, -1)
    keys = [((), s, J, +1) for s, J in elements] + [
        (K, s, canonical(K, J) if complete else J, sign)
        for K in effect_members
        for s, J in elements
        for sign in signs
    ]
    keys = tuple(dict.fromkeys(keys))  # first occurrences, in order
    if independent:
        seen: set = set()
        kept = []
        for key in keys:
            members, s, J, _sign = key
            terms = {(s, J), (s, tuple(sorted(set(members) ^ set(J))))}
            assert not members or terms & seen, f"row {key} touches no spanned term"
            if not terms <= seen:
                seen |= terms
                kept.append(key)
        keys = tuple(kept)
    effect_pos = {K: i for i, K in enumerate(((), *effect_members))}
    interaction_pos = {J: i for i, J in enumerate(dict.fromkeys(key[2] for key in keys))}
    index = np.array(
        [
            (int(sign < 0), effect_pos[members], s, interaction_pos[J])
            for members, s, J, sign in keys
        ],
        dtype=np.intp,
    ).T
    index.setflags(write=False)
    return keys, tuple(interaction_pos), index


def _design_keep(G: np.ndarray, basis_ids: np.ndarray) -> np.ndarray:
    """Indices of the rows whose ``G`` row is independent of the ``G`` rows
    before it on the same basis column, by ``_greedy_keep``.

    Row r's coefficients ``G[r, c_i] H[i, s_r]`` and target
    ``sum(G[r]) / 2^(K-1) * H[i, s_r]`` are linear in ``G[r]``, so any
    other row is that combination of earlier rows whatever H is. Columns
    that carry the same ``G`` rows (every column, under the heterogeneous
    flavor) share one greedy pass.
    """
    decided: dict[bytes, list[int]] = {}
    kept = []
    for s in np.unique(basis_ids):
        rows = np.flatnonzero(basis_ids == s)
        block = G[rows]
        signature = block.tobytes()
        if signature not in decided:
            decided[signature] = _greedy_keep(block)
        kept.append(rows[decided[signature]])
    return np.sort(np.concatenate(kept))


def _numeric_keep(
    G: np.ndarray,
    basis_ids: np.ndarray,
    coef: np.ndarray,
    unit_cells: np.ndarray,
    H: np.ndarray,
) -> list[int]:
    """Greedy independent subset of the stacked [coefficients | targets]
    rows of the factored system with these ``BalanceSystem`` fields
    (``H = basis_values``).

    Works on compressed rows with the same Gram matrix as ``[B | T]``:
    with ``R_c`` the R factor of H over cell c's units and ``R_H`` that of
    all of H, row r becomes ``[G[r, c] R_c[:, s_r]]_c ++ [coef_r R_H[:, s_r]]``,
    (cells + 1) * S long whatever N is, then kept by ``_greedy_keep``.
    Each factor is taken with S zero rows appended, which leave the Gram
    matrix as it is, so it is S x S even for a cell with fewer units.
    ``build_balance_system`` passes only the rows its design stage kept.
    """
    order = np.argsort(unit_cells, kind="stable")
    bounds = np.cumsum(np.bincount(unit_cells, minlength=G.shape[1]))
    units = np.split(order, bounds[:-1]) + [slice(None)]  # each cell's, then all
    pad = np.zeros((H.shape[1], H.shape[1]))
    R = np.stack([np.linalg.qr(np.vstack([H[u], pad]), mode="r") for u in units])
    rows = np.column_stack([G, coef])[:, :, None] * R[:, :, basis_ids].transpose(2, 0, 1)
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
            # rows past a full-rank span are dependent, however large
            # their rounding residuals
            run = min(run, len(basis) - len(keep))
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
