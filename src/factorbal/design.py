"""Factorial design algebra: treatment combinations, contrasts, and
effective contrasts when some combinations are never observed.

Conventions used by every module in this package:

- A treatment combination is a length-K vector over {-1, +1}.
- Combinations are enumerated in lexicographic order with -1 before +1
  and the last factor varying fastest, so for K=2 the order is
  (-1,-1), (-1,+1), (+1,-1), (+1,+1).
- Effects are subsets of {1, ..., K} (1-based factor indices). The empty
  subset denotes the all-ones summary contrast. Effect columns are
  ordered by interaction order, then lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, IdentificationError

MAX_FACTORS = 20
# relative singular-value cutoff of the identification rank check
RANK_TOL = 1e-8


def _check_k(k: int) -> None:
    if not 2 <= k <= MAX_FACTORS:
        raise ConfigurationError(
            f"factor count must be between 2 and {MAX_FACTORS}, got {k}"
        )


def enumerate_combinations(k: int) -> np.ndarray:
    """All 2^k treatment combinations as a (2^k, k) array over {-1, +1}.

    Rows are sorted lexicographically with -1 first; the last factor
    varies fastest. Deterministic.
    """
    _check_k(k)
    # row i holds the bits of i, most significant first, mapped 0 -> -1
    bits = (np.arange(2**k, dtype=np.int32)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return (2 * bits - 1).astype(np.int8)


def combination_bits(z: np.ndarray) -> np.ndarray:
    """Map combinations (rows over {-1,+1}) to their enumeration index."""
    z = np.atleast_2d(np.asarray(z))
    k = z.shape[1]
    powers = 1 << np.arange(k - 1, -1, -1)
    return ((z > 0).astype(np.int64) @ powers).astype(np.int64)


@dataclass(frozen=True, order=True)
class Effect:
    """A factorial effect: the subset of factors whose levels multiply.

    ``members`` is a sorted tuple of 1-based factor indices; the empty
    tuple is the summary (all-ones) contrast.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        m = tuple(sorted(self.members))
        if len(set(m)) != len(m) or any(i < 1 for i in m):
            raise ConfigurationError(f"invalid effect members {self.members}")
        object.__setattr__(self, "members", m)

    @property
    def order(self) -> int:
        return len(self.members)

    def label(self) -> str:
        if not self.members:
            return "summary"
        return "z" + "*z".join(str(i) for i in self.members)

    def __repr__(self):  # compact in test output
        return f"Effect({self.label()})"


SUMMARY = Effect(())


def interaction_value(z: np.ndarray, members: tuple[int, ...]) -> np.ndarray:
    """Product of the selected factor levels, rowwise; 1 for the empty set."""
    z = np.atleast_2d(np.asarray(z))
    if not members:
        return np.ones(z.shape[0])
    return np.prod(z[:, [m - 1 for m in members]], axis=1).astype(float)


def _contrast_rows(effects: Sequence[Effect], cells: np.ndarray) -> np.ndarray:
    """(E, cells) contrast coefficients of ``effects`` at the combinations ``cells``."""
    out = np.empty((len(effects), cells.shape[0]))
    for row, e in zip(out, effects):
        row[:] = interaction_value(cells, e.members)
    return out


def contrast_vector(effect: Effect, k: int) -> np.ndarray:
    """Signed contrast coefficients of ``effect`` over the 2^k combinations.

    The entry for combination z is the product of z's levels over the
    effect's members; the summary effect gives all +1.
    """
    _check_k(k)
    if effect.members and effect.members[-1] > k:
        raise ConfigurationError(
            f"effect {effect.label()} references a factor beyond K={k}"
        )
    return _contrast_rows([effect], enumerate_combinations(k))[0].astype(np.int8)


def effect_index_set(k: int, k_prime: int) -> list[Effect]:
    """All nonempty effects of order <= k_prime, sorted by order then lex."""
    _check_k(k)
    if not 1 <= k_prime <= k:
        raise ConfigurationError(
            f"max interaction order must be in [1, {k}], got {k_prime}"
        )
    out: list[Effect] = []
    for order in range(1, k_prime + 1):
        for members in itertools.combinations(range(1, k + 1), order):
            out.append(Effect(members))
    return out


def design_matrix(k: int) -> np.ndarray:
    """The full 2^k x 2^k matrix of contrast columns.

    Column order: summary first, then all effects by order then lex.
    Columns are mutually orthogonal with squared norm 2^k.
    """
    effects = [SUMMARY] + effect_index_set(k, k)
    return _contrast_rows(effects, enumerate_combinations(k)).T.astype(np.int8, order="C")


@dataclass(frozen=True)
class FactorialDesign:
    """Observed/unobserved partition of a 2^k factorial with its
    effective contrasts for the retained low-order effects.

    ``effects`` lists the summary contrast followed by every effect of
    order <= k_prime. ``effective`` stacks, per effect, the contrast row
    over the *observed* combinations; for a complete design these are the
    raw +-1 contrasts, otherwise the rows of the identification matrix
    (unscaled: the 1/2^(k-1) factor is applied at estimation time).
    """

    k: int
    k_prime: int
    observed: np.ndarray
    unobserved: np.ndarray
    effects: tuple[Effect, ...]
    effective: np.ndarray
    uu_min_singular_value: float | None
    _cell_index: np.ndarray | None = field(repr=False, hash=False, compare=False, default=None)

    def __post_init__(self):
        # position of each of the 2^k combinations among the observed
        # cells, -1 for unobserved ones
        index = np.full(2**self.k, -1, dtype=np.int64)
        index[combination_bits(self.observed)] = np.arange(self.observed.shape[0])
        object.__setattr__(self, "_cell_index", index)

    @property
    def complete(self) -> bool:
        return self.unobserved.shape[0] == 0

    @property
    def n_observed_cells(self) -> int:
        return self.observed.shape[0]

    def observed_positions(self, z: np.ndarray) -> np.ndarray:
        """Indices of each row of ``z`` within the observed-cell ordering.

        Raises ``IdentificationError`` if any row is an unobserved cell.
        """
        z = np.atleast_2d(np.asarray(z))
        if z.shape[1] != self.k:
            raise ConfigurationError(
                f"combinations have {z.shape[1]} factors, the design has {self.k}"
            )
        pos = self._cell_index[combination_bits(z)]
        if np.any(pos < 0):
            bad = [tuple(r) for r in z[pos < 0]]
            raise IdentificationError(
                f"units assigned to unobserved treatment combinations: {bad[:5]}"
            )
        return pos

    def contrasts(self, Z: np.ndarray, effects: Sequence[Effect]) -> np.ndarray:
        """Effective contrast coefficient of each effect at each row of ``Z``.

        Returns an (E, N) array: row e holds ``effect_row(effects[e])``
        gathered at the rows' observed-cell positions, and the summary
        effect's row is all ones. Splitting a row into its positive and
        negative parts gives the units' membership on the two sides of
        the contrast (0/1 indicators on a complete design).
        """
        rows = np.array(
            [
                np.ones(self.n_observed_cells) if e == SUMMARY else self.effect_row(e)
                for e in effects
            ],
            dtype=float,
        ).reshape(len(effects), self.n_observed_cells)
        # take() keeps the result C-ordered, so each effect's row is contiguous
        return np.take(rows, self.observed_positions(Z), axis=1)

    def effect_row(self, effect: Effect) -> np.ndarray:
        """Effective contrast coefficients of ``effect`` over observed cells."""
        try:
            pos = self.effects.index(effect)
        except ValueError:
            raise ConfigurationError(
                f"effect {effect.label()} (order {effect.order}) is outside "
                f"this design's retained set (max order {self.k_prime})"
            ) from None
        return self.effective[pos]


def character_rows(cells: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """(characters, cells) values at the combinations ``cells`` of every
    character chi_A (the product of the levels of the factors in A) with
    |A| in ``orders``, A by size, then lexicographically, as effects are
    ordered: -1 raised to the parity of the AND of A's and the cell's -1
    factor bitmasks (bit m - 1 for factor m), folded by integer shifts."""
    k = cells.shape[1]
    masks = np.concatenate([
        (1 << np.array(list(itertools.combinations(range(k), order)), dtype=np.int64)).sum(axis=1)
        for order in orders
    ])
    x = masks[:, None] & ((cells < 0) @ (1 << np.arange(k)))
    for shift in (16, 8, 4, 2, 1):
        x ^= x >> shift
    return 1.0 - 2.0 * (x & 1)


def full_design(k: int, k_prime: int | None = None) -> FactorialDesign:
    """A complete 2^k design retaining effects up to order ``k_prime``
    (default ``k``): ``build_incomplete_design`` with no unobserved cell."""
    return build_incomplete_design(k, k if k_prime is None else k_prime, [])


def build_incomplete_design(
    k: int, k_prime: int, unobserved: np.ndarray | list
) -> FactorialDesign:
    """Design restricted to observed cells, with effective contrasts that
    recover the retained effects from observed cell means only.

    The unobserved cell means are eliminated through the negligible
    (order above ``k_prime``) contrasts. Because the full contrast matrix
    G satisfies G G' = 2^k I, that elimination reduces to a solve of
    size q_u, the number of unobserved cells: with G_or and G_ur the
    retained contrasts at the observed and unobserved cells,

        effective = G_or + G_ur (2^k I - G_ur' G_ur)^{-1} G_ur' G_or.

    It requires the unobserved-by-negligible contrast block to have full
    row rank, checked by its singular values against ``RANK_TOL`` times
    the largest one. With no unobserved cell, ``effective`` is G_or.
    """
    retained = [SUMMARY] + effect_index_set(k, k_prime)
    try:
        levels = np.asarray(unobserved, dtype=float).reshape(len(unobserved), k)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"unobserved combinations must be rows of {k} levels, got {unobserved!r}"
        ) from None
    if not np.all(np.isin(levels, (-1.0, 1.0))):
        raise ConfigurationError(
            f"unobserved combinations must be coded -1/+1, got {unobserved!r}"
        )
    observed_mask = np.ones(2**k, dtype=bool)
    observed_mask[combination_bits(levels)] = False
    q_u = 2**k - int(np.count_nonzero(observed_mask))
    if q_u != levels.shape[0]:
        raise ConfigurationError("duplicate unobserved combinations")

    q_minus = 2**k - len(retained)
    if q_u > q_minus:
        raise IdentificationError(
            f"{q_u} unobserved combinations exceed the {q_minus} negligible "
            f"contrasts of order above {k_prime}; the retained effects are "
            "not identified"
        )

    combos = enumerate_combinations(k)
    observed, unobs_sorted = combos[observed_mask], combos[~observed_mask]
    effective = _contrast_rows(retained, observed)
    min_sv = None
    if q_u:
        negligible = character_rows(unobs_sorted, range(k_prime + 1, k + 1)).T
        sv = np.linalg.svd(negligible, compute_uv=False)
        min_sv = float(sv[-1])
        if min_sv < RANK_TOL * sv[0]:
            raise IdentificationError(
                "unobserved cells cannot be eliminated: the "
                "unobserved-by-negligible contrast block is rank deficient "
                f"(min singular value {min_sv:.2e}) for unobserved set "
                f"{[tuple(r) for r in unobs_sorted]}"
            )
        g_ur = _contrast_rows(retained, unobs_sorted)
        gram = 2.0**k * np.eye(q_u) - g_ur.T @ g_ur
        effective += g_ur @ np.linalg.solve(gram, g_ur.T @ effective)
    return FactorialDesign(
        k=k,
        k_prime=k_prime,
        observed=observed,
        unobserved=unobs_sorted,
        effects=tuple(retained),
        effective=effective,
        uu_min_singular_value=min_sv,
    )
