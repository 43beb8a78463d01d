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
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .design import Effect, FactorialDesign, SUMMARY, interaction_value
from .errors import ConfigurationError, DataError

BasisFunction = Callable[[np.ndarray], np.ndarray]


def identity_bases(d: int) -> list[BasisFunction]:
    """One basis function per covariate coordinate."""

    def coord(j):
        return lambda x: np.asarray(x)[:, j].astype(float)

    return [coord(j) for j in range(d)]


@dataclass(frozen=True)
class BasisSpec:
    """Covariate basis functions and the outcome-model flavor they balance.

    ``model_flavor`` is ``"additive"`` (separate covariate and treatment
    terms) or ``"heterogeneous"`` (covariate-by-treatment products). The
    interaction order comes from the design.
    """

    covariate_bases: Sequence[BasisFunction] | None = None
    model_flavor: str = "heterogeneous"
    labels: Sequence[str] | None = None

    def __post_init__(self):
        if self.model_flavor not in ("additive", "heterogeneous"):
            raise ConfigurationError(
                f"unknown model flavor {self.model_flavor!r}"
            )

    def evaluate(self, X: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """Evaluate the bases on all rows, returning (N x S) values and labels."""
        bases = self.covariate_bases
        if bases is None:
            bases = identity_bases(X.shape[1])
        cols = []
        for s, h in enumerate(bases):
            v = np.asarray(h(X), dtype=float).ravel()
            if v.shape[0] != X.shape[0]:
                raise ConfigurationError(f"basis {s} returned wrong length")
            if not np.all(np.isfinite(v)):
                bad = int(np.argwhere(~np.isfinite(v))[0][0])
                raise DataError(f"basis {s} is non-finite at row {bad}")
            cols.append(v)
        if not cols:
            raise ConfigurationError("at least one basis function is required")
        labels = list(self.labels) if self.labels is not None else [
            f"h{s + 1}" for s in range(len(cols))
        ]
        return np.column_stack(cols), labels


def split_contrast(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative decomposition g = g_plus - g_minus."""
    g = np.asarray(g, dtype=float)
    return np.maximum(g, 0.0), np.maximum(-g, 0.0)


@dataclass(frozen=True)
class ConstraintRow:
    """Provenance of one row of the balance system."""

    effect: Effect
    basis_id: int
    interaction: tuple[int, ...]
    sign: int  # +1 positive part, -1 negative part (incomplete designs only)
    target: float

    def key(self):
        return (self.effect.members, self.basis_id, self.interaction, self.sign)

    def label(self, basis_labels: Sequence[str]) -> str:
        side = {1: "+", -1: "-"}[self.sign]
        r = "*".join(f"z{j}" for j in self.interaction) or "1"
        return f"{self.effect.label()}{side} | {basis_labels[self.basis_id]}*{r}"


@dataclass(frozen=True)
class BalanceSystem:
    """The stacked constraints Bw = b with per-unit decompositions.

    ``B`` has one column per unit; ``unit_targets`` stacks the per-unit
    target contributions, so ``b = unit_targets.sum(axis=1)``. ``rows``
    carries provenance for each of the P rows. ``element_values`` holds
    the raw balanced functions evaluated at each unit's own assignment
    (used by regression adjustment).
    """

    B: np.ndarray
    unit_targets: np.ndarray
    rows: tuple[ConstraintRow, ...]
    elements: tuple[tuple[int, tuple[int, ...]], ...]
    element_values: np.ndarray
    basis_values: np.ndarray
    basis_labels: tuple[str, ...]
    design: FactorialDesign
    flavor: str

    @property
    def b(self) -> np.ndarray:
        return self.unit_targets.sum(axis=1)

    @property
    def n(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.B.shape[0]

    def row_labels(self) -> list[str]:
        return [r.label(self.basis_labels) for r in self.rows]


def _contrast_moment(part: np.ndarray, r_cells: np.ndarray, k: int) -> float:
    """(1/2^(k-1)) * sum over observed cells of part * interaction value."""
    return float(part @ r_cells) / 2 ** (k - 1)


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
    by the variance estimator invertible. On complete designs the removal
    is decided structurally (data independent); pass ``"numeric"`` to also
    prune rows that only coincide on this particular dataset, e.g. under
    collinear covariates.
    """
    if dataset.k != design.k:
        raise ConfigurationError(
            f"dataset has {dataset.k} factors but the design expects {design.k}"
        )
    H, labels = basis.evaluate(dataset.X)
    n, s_count = H.shape
    k = design.k
    effects = [e for e in design.effects if e != SUMMARY]
    interactions = [e.members for e in effects]

    # elements: (basis column, interaction) pairs defining the balanced
    # functions; the constant function always participates so that pure
    # treatment terms are covered and the side masses are pinned
    H = np.column_stack([H, np.ones(n)])
    labels = labels + ["1"]
    const = s_count
    if basis.model_flavor == "heterogeneous":
        elements = [
            (s, J) for s in range(s_count + 1) for J in interactions
        ]
    else:
        elements = [(s, ()) for s in range(s_count)] + [
            (const, J) for J in interactions
        ]

    cells = design.observed
    r_cells = {(): np.ones(cells.shape[0])}
    r_units = {(): np.ones(n)}

    def rj_cells(J):
        if J not in r_cells:
            r_cells[J] = interaction_value(cells, J)
        return r_cells[J]

    def rj_units(J):
        if J not in r_units:
            r_units[J] = interaction_value(dataset.Z, J)
        return r_units[J]

    # positive and negative contrast parts of each retained effect, at
    # every unit (side memberships) and at every observed cell (targets)
    effect_pos = {e.members: i for i, e in enumerate(design.effects)}
    unit_parts = split_contrast(design.contrasts(dataset.Z, design.effects))
    cell_parts = split_contrast(design.contrasts(cells, design.effects))

    keys = _row_keys(
        tuple(e.members for e in effects), tuple(elements), design.complete
    )
    if drop_redundant and design.complete and drop_redundant != "numeric":
        keep = _structural_keep(keys)
        keys = [keys[i] for i in keep]

    lhs_rows: list[np.ndarray] = []
    target_rows: list[np.ndarray] = []
    meta: list[ConstraintRow] = []
    for members, s, J, sign in keys:
        side = 0 if sign > 0 else 1
        a = unit_parts[side][effect_pos[members]]
        g_part = cell_parts[side][effect_pos[members]]
        if not design.complete and not np.any(g_part):
            continue
        lhs = a * H[:, s] * rj_units(J)
        coef = _contrast_moment(g_part, rj_cells(J), k)
        tgt = coef * H[:, s]
        lhs_rows.append(lhs)
        target_rows.append(tgt)
        meta.append(ConstraintRow(Effect(members), s, J, sign, float(tgt.sum())))

    B = np.vstack(lhs_rows)
    T = np.vstack(target_rows)

    if drop_redundant and (not design.complete or drop_redundant == "numeric"):
        keep = _numeric_keep(B, T)
        B, T = B[keep], T[keep]
        meta = [meta[i] for i in keep]

    q_vals = np.vstack([H[:, s] * rj_units(J) for s, J in elements])
    return BalanceSystem(
        B=B,
        unit_targets=T,
        rows=tuple(meta),
        elements=tuple(elements),
        element_values=q_vals,
        basis_values=H,
        basis_labels=tuple(labels),
        design=design,
        flavor=basis.model_flavor,
    )


@lru_cache(maxsize=64)
def _row_keys(
    effect_members: tuple[tuple[int, ...], ...],
    elements: tuple[tuple[int, tuple[int, ...]], ...],
    complete: bool,
) -> tuple[tuple, ...]:
    """Deduplicated row keys (effect members, basis id, interaction, sign).

    On a complete design: summary rows plus positive-part rows with the
    interaction canonicalized (J replaced by J minus K when K is contained
    in J, an exact identity there). On an incomplete design both signed
    rows are kept and no canonicalization applies.
    """

    def canonical(K: tuple[int, ...], J: tuple[int, ...]) -> tuple[int, ...]:
        if K and set(K).issubset(J):
            return tuple(x for x in J if x not in K)
        return J

    seen = set()
    keys = []

    def emit(members, s, J, sign):
        key = (members, s, J, sign)
        if key not in seen:
            seen.add(key)
            keys.append(key)

    for s, J in elements:
        emit((), s, J, +1)
    for K in effect_members:
        for s, J in elements:
            if complete:
                emit(K, s, canonical(K, J), +1)
            else:
                emit(K, s, J, +1)
                emit(K, s, J, -1)
    return tuple(keys)


@lru_cache(maxsize=64)
def _structural_keep_cached(keys: tuple[tuple, ...]) -> tuple[int, ...]:
    term_index: dict[tuple, int] = {}

    def tid(s, M):
        key = (s, tuple(sorted(M)))
        if key not in term_index:
            term_index[key] = len(term_index)
        return term_index[key]

    expansions = []
    for members, s, J, _sign in keys:
        if not members:
            expansions.append({tid(s, J): 1.0})
        else:
            M = tuple(sorted(set(members).symmetric_difference(J)))
            e1, e2 = tid(s, J), tid(s, M)
            exp = {e1: 0.5}
            exp[e2] = exp.get(e2, 0.0) + 0.5
            expansions.append(exp)

    dim = len(term_index)
    basis_vecs: list[np.ndarray] = []
    keep: list[int] = []
    for i, exp in enumerate(expansions):
        v = np.zeros(dim)
        for t, c in exp.items():
            v[t] = c
        for q in basis_vecs:
            v -= (q @ v) * q
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            basis_vecs.append(v / nrm)
            keep.append(i)
    return tuple(keep)


def _structural_keep(keys) -> list[int]:
    """Indices of a maximal independent row subset, determined from the
    rows' exact expansion into (basis, interaction) product terms.

    On a complete design a positive-part row for effect K and interaction
    J expands into half the J term plus half the symmetric-difference
    term, identically in coefficients and targets, so independence can be
    decided without touching the data (and cached per system signature).
    """
    return list(_structural_keep_cached(tuple(keys)))


def _numeric_keep(B: np.ndarray, T: np.ndarray, tol: float = 1e-10) -> list[int]:
    """Greedy independent subset of the stacked [coefficients | targets] rows."""
    rows = np.hstack([B, T])
    basis_vecs: list[np.ndarray] = []
    keep: list[int] = []
    for i in range(rows.shape[0]):
        v = rows[i].copy()
        scale = np.linalg.norm(v)
        if scale == 0:
            continue
        for q in basis_vecs:
            v -= (q @ v) * q
        if np.linalg.norm(v) > tol * scale:
            basis_vecs.append(v / np.linalg.norm(v))
            keep.append(i)
    return keep


@dataclass(frozen=True)
class ResidualReport:
    """Constraint residuals Bw - b of a candidate weight vector."""

    residuals: np.ndarray
    max_abs: float
    by_effect: dict[tuple[int, ...], float]

    def __str__(self):
        lines = [f"max |Bw - b| = {self.max_abs:.3e}"]
        for members, v in sorted(self.by_effect.items()):
            lines.append(f"  {Effect(members).label()}: {v:.3e}")
        return "\n".join(lines)


def balance_residuals(weights: np.ndarray, system: BalanceSystem) -> ResidualReport:
    """Exact residual vector of the balance constraints at ``weights``."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape[0] != system.n:
        raise ConfigurationError(
            f"weights have length {w.shape[0]}, expected {system.n}"
        )
    res = system.B @ w - system.b
    by_effect: dict[tuple[int, ...], float] = {}
    for row, r in zip(system.rows, res):
        m = row.effect.members
        by_effect[m] = max(by_effect.get(m, 0.0), abs(float(r)))
    return ResidualReport(res, float(np.max(np.abs(res), initial=0.0)), by_effect)
