"""Factorial-effect estimators, their variance, and balance diagnostics.

The weighting point estimate for an effect contrasts the weighted outcome
mass on the positive and negative sides of the effect's (possibly
effective) contrast. Its asymptotic variance is estimated from the
stacked estimating equation of the dual multipliers and the effect,
plugging the fitted multipliers into the sandwich form; only the last
coordinate of the sandwich is needed, the mean square of the per-unit
residuals. Each residual is a unit's features, [w h, h, w Y], times a
vector that depends only on the unit's cell and the effect, so the mean
square is a quadratic form in each cell's second moments of those
features. All requested effects are estimated together, from one
contrast matrix and one solve with the curvature, in cell space if it can.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .balance import BalanceSystem, balance_residuals
from .data import Dataset
from .design import Effect, FactorialDesign, interaction_value
from .errors import BaselineError, ConfigurationError, VarianceError

Z_CRIT_95 = 1.96
# the curvature counts as singular below this smallest eigenvalue, and
# as ill-conditioned (a warning) above this condition number
MIN_CURVATURE_EIGENVALUE = 1e-10
MAX_CURVATURE_CONDITION = 1e10
# power iterations for the largest curvature eigenvalue, and inverse
# iterations for the smallest, in the condition-number estimate
CONDITION_ITERS = 8
# bytes of each block of per-unit terms in ``weighted_estimates``: effects
# x units for the point estimates, units x S for the variance's moments;
# one block when they all fit
_ESTIMATE_BLOCK = 2**20


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimate with variance of sqrt(N)(tau_hat - tau) and 95% CI."""

    effect: Effect
    tau_hat: float
    sigma2_hat: float | None
    ci_low: float | None
    ci_high: float | None
    n: int


def weighted_estimates(
    dataset: Dataset,
    system: BalanceSystem,
    weights: np.ndarray,
    lam: np.ndarray,
    effects: list[Effect],
) -> list[EffectEstimate]:
    """Point estimates, sandwich variances and normal 95% CIs of several
    effects, all from the same weights in one pass.

    The point estimate of effect e is the mean of ``c_e * w * Y`` over
    units, where ``c_e`` is the effect's (effective) contrast coefficient.
    Its variance is the mean square of the per-unit estimating-equation
    residuals (dual gradient contributions contracted with the last row of
    the inverted curvature matrix, minus the centered effect contribution);
    the curvature is solved once for every effect together: in cell space
    where the cells' active Gram matrices bound its spectrum clear of the
    verdicts below, elsewhere by ``_factor_curvature``.
    A unit's residual is its features ``f_i = [w_i h_i, h_i, w_i Y_i]``,
    with ``h_i`` its basis values, times a vector ``a_ce`` of its cell c,
    so the variance is ``(1/N) sum_c a_ce' F_c a_ce`` with ``F_c`` the sum
    of ``f_i f_i'`` over c's units; no units x effects array is formed.
    ``Y`` is centered per cell in that form, so that an outcome far from
    zero does not cancel in those sums. Raises ``VarianceError`` when the
    curvature is numerically singular (eigenvalue below 1e-10), naming the
    cells whose active units cause it where no row is redundant.
    """
    if not effects:
        return []
    n = system.n
    w = np.asarray(weights, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    wy = w * dataset.Y
    design = system.design
    cell_contrasts = design.contrasts(design.observed, effects)  # E x cells
    # tau over blocks of effects, each effect's row summed whole, so tau
    # is np.mean(w * c * Y) whatever the block size
    tau = np.empty(len(effects))
    for rows in _blocks(len(effects), n):
        S = np.take(cell_contrasts[rows], system.unit_cells, axis=1) * wy
        tau[rows] = S.sum(axis=1) / n

    # l_e = A^{-1} r_e with r_e = (1/2N) sum over active units of B_i c_e Y_i;
    # c_e is constant within a cell, so r_e contracts B's per-cell parts
    active = system.rmatvec(lam) < 0
    R = 0.5 / n * (system.cell_parts(dataset.Y * active) @ cell_contrasts.T)  # P x E
    # A = G~ D G~' with G~G~' = cells I (see ``solver``): its spectrum is in [lo, hi].
    # Past these bounds A - 1e-10 I stays above lo / 2, far over its Cholesky rounding
    # (P (P + 1) eps hi), and the condition estimate (at most hi / lo) cannot warn
    D = system.active_cell_gram(active) * (0.5 / n)
    eig = np.linalg.eigvalsh(D)
    lo, hi = len(D) * eig[:, 0].min(), len(D) * eig[:, -1].max()
    certified = (lo >= 2 * MIN_CURVATURE_EIGENVALUE and hi <= MAX_CURVATURE_CONDITION / 2 * lo
                 and system.p * (system.p + 1) * np.finfo(float).eps * hi < lo / 4)
    L = system.cell_solve(D, 0.0, R) if certified else None
    if L is None:
        A = system.active_gram(active) * 0.5 / n  # symmetric positive semidefinite curvature
        try:
            factor = _factor_curvature(A)
        except VarianceError:
            full = system.active_gram(np.ones(n, dtype=bool)) * 0.5 / n
            if np.linalg.eigvalsh(full)[0] < MIN_CURVATURE_EIGENVALUE:
                raise  # rows redundant on this data: the data stage's advice holds
            # the cells whose active Gram is singular next to the largest one
            cells = np.flatnonzero(eig[:, 0] * MAX_CURVATURE_CONDITION <= eig[:, -1].max())
            counts = np.bincount(system.unit_cells[active], minlength=len(D))
            named = [f"{tuple(design.observed[c].tolist())}: {counts[c]}" for c in cells[:5]]
            raise VarianceError(
                "curvature matrix is singular although no balance row is redundant on this data: "
                f"the units with positive weight leave the S = {D.shape[1]} basis functions' Gram "
                f"matrix singular in {len(cells)} observed cell(s) (levels: such units, first "
                f"five): {'; '.join(named)}"
            ) from None
        L = sla.cho_solve(factor, R, check_finite=False)

    # per unit i in cell c, the estimating-equation residual
    # l_e'(B_i w_i - b_i) - (c_ec w_i Y_i - tau_e) is f_i'a_ce with
    # f_i = [w_i h_i, h_i, w_i (Y_i - Ybar_c)], h_i = H[i] (its last entry the
    # constant 1, so Ybar_c w_i moves into a_ce) and a_ce = [M[c, :, e] with
    # -c_ec Ybar_c on the constant, tau_e on the constant minus K[:, e], -c_ec]:
    # l_e'B_i = h_i'M[c, :, e] with M = cell_multipliers(L), and l_e'b_i =
    # h_i'K[:, e] with K[s, e] the sum of coef_r L[r, e] over the rows on
    # column s, and sigma2_e is (1/N) sum_c a_ce'F_c a_ce
    H = system.basis_values
    cells, s_count = cell_contrasts.shape[1], H.shape[1]
    counts = np.bincount(system.unit_cells, minlength=cells)
    ybar = np.bincount(system.unit_cells, dataset.Y, minlength=cells) / np.maximum(counts, 1)
    K = np.zeros((s_count, len(effects)))
    np.add.at(K, system.basis_ids, system.coef[:, None] * L)
    K[-1] -= tau
    a = np.concatenate([
        system.cell_multipliers(L),
        np.broadcast_to(-K, (cells, *K.shape)),
        -cell_contrasts.T[:, None],
    ], axis=1)
    a[:, s_count - 1] -= cell_contrasts.T * ybar[:, None]
    centered = dataset.Y - ybar[system.unit_cells]
    wyc = w * centered
    h, y = slice(s_count, 2 * s_count), 2 * s_count
    F = np.zeros((cells, y + 1, y + 1))
    for units in _blocks(n, s_count):
        # the w h rows, and the h rows' last entry as sums of w h (Y - Ybar)
        wh = H[units] * w[units, None]
        sums = system.cell_outer(wh, [wh, H[units], wyc[units], centered[units]], units)
        F[:, :s_count, :s_count] += sums[0]
        F[:, :s_count, h] += sums[1]
        F[:, :s_count, y] += sums[2]
        F[:, h, y] += sums[3]
    F[:, h, :s_count] = F[:, :s_count, h].transpose(0, 2, 1)
    F[:, h, h] = system.cell_gram
    F[:, y, :y] = F[:, :y, y]
    F[:, y, y] = np.bincount(system.unit_cells, wyc * wyc, minlength=cells)
    # a sum of squares, so only rounding can make it negative
    sigma2 = np.maximum(np.sum(a * (F @ a), axis=(0, 1)) / n, 0.0)

    out = []
    for e, t, s2 in zip(effects, tau, sigma2):
        t, s2 = float(t), float(s2)
        half = Z_CRIT_95 * math.sqrt(s2 / dataset.n)
        out.append(EffectEstimate(e, t, s2, t - half, t + half, dataset.n))
    return out


def _blocks(count: int, width: int) -> list[slice]:
    """Consecutive slices of ``range(count)`` whose ``width``-wide float
    blocks fit in ``_ESTIMATE_BLOCK`` bytes, each slice holding at least
    one item; ``[slice(None)]`` when all of them fit."""
    step = max(1, _ESTIMATE_BLOCK // (8 * width))
    if step >= count:
        return [slice(None)]
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _factor_curvature(A: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cholesky factor of the curvature ``A`` (as ``cho_factor`` returns it)
    where ``weighted_estimates`` cannot solve it in cell space.

    Raises ``VarianceError`` iff ``A - MIN_CURVATURE_EIGENVALUE * I`` is
    not positive definite. Warns when an estimate of A's condition number,
    from ``CONDITION_ITERS`` power and inverse iterations from one fixed
    pseudorandom start, exceeds ``MAX_CURVATURE_CONDITION``; it never
    exceeds the condition number (on 583 five-factor draws it read 0.58
    to 1.0 times it, median 0.94).
    """
    shifted = A.copy()
    shifted[np.diag_indices_from(shifted)] -= MIN_CURVATURE_EIGENVALUE
    try:
        sla.cho_factor(shifted, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise VarianceError(
            "curvature matrix is singular (smallest eigenvalue below "
            f"{MIN_CURVATURE_EIGENVALUE:.0e}); rebuild the balance system with "
            "drop_redundant=True, which also removes rows that are "
            "redundant only on this data"
        ) from None
    factor = sla.cho_factor(A, check_finite=False)
    x = np.random.default_rng(0).standard_normal(A.shape[0])
    x /= np.linalg.norm(x)
    y = x
    for _ in range(CONDITION_ITERS):
        x = A @ x
        lam_max = np.linalg.norm(x)
        x /= lam_max
        y = sla.cho_solve(factor, y, check_finite=False)
        inv_lam_min = np.linalg.norm(y)
        y /= inv_lam_min
    cond = lam_max * inv_lam_min
    if cond > MAX_CURVATURE_CONDITION:
        warnings.warn(
            f"curvature matrix is ill-conditioned (estimated cond {cond:.2e}); "
            "variance estimate may be unstable",
            stacklevel=3,
        )
    return factor


def fit_outcome_coeffs(dataset: Dataset, system: BalanceSystem) -> np.ndarray:
    """Least-squares coefficients of the outcome on the balanced functions."""
    Q = system.element_columns()  # N x elements
    coef, *_ = np.linalg.lstsq(Q, dataset.Y, rcond=None)
    return coef


def augmented_estimate(
    dataset: Dataset,
    weights: np.ndarray,
    system: BalanceSystem,
    effect: Effect,
    ols_coeffs_on_q: np.ndarray,
) -> float:
    """Regression-augmented weighting estimate of one effect.

    Weights the outcome residuals from a linear fit on the balanced
    functions and adds back the model's randomized-design contrast. When
    the weights balance those functions exactly this equals the plain
    weighting estimate for any coefficient vector; if the residual is too
    large for that guarantee a warning is issued.
    """
    design = system.design
    g_row = design.contrasts(design.observed, [effect])[0]  # per observed cell
    w = np.asarray(weights, dtype=float).ravel()
    alpha = np.asarray(ols_coeffs_on_q, dtype=float).ravel()
    if alpha.shape[0] != len(system.elements):
        raise ConfigurationError(
            f"expected {len(system.elements)} coefficients, got {alpha.shape[0]}"
        )
    report = balance_residuals(w, system)
    if report.max_abs > 1e-8 * (1.0 + float(np.max(np.abs(system.b)))):
        warnings.warn(
            "weights do not balance the basis exactly "
            f"(max residual {report.max_abs:.2e}); augmented and plain "
            "estimates may differ",
            stacklevel=2,
        )

    k = design.k
    fitted = system.element_columns() @ alpha  # q(X_i, Z_i)' alpha
    resid = dataset.Y - fitted

    n = dataset.n

    # randomized-design contrast of the fitted model:
    # (1/2^(k-1) N) sum_z g_z sum_i alpha' q(X_i, z), summed over observed z
    basis_sums = system.basis_values.sum(axis=0)
    model_term = 0.0
    for (s, J), a in zip(system.elements, alpha):
        r_vals = interaction_value(design.observed, J)
        model_term += a * basis_sums[s] * float(g_row @ r_vals)
    model_term /= 2 ** (k - 1) * n

    tau_w_resid = float(np.mean(w * g_row[system.unit_cells] * resid))
    return tau_w_resid + model_term


def unadjusted_baseline(dataset: Dataset, effect: Effect) -> float:
    """Mean outcome difference between the two levels of a single factor."""
    if effect.order != 1:
        raise BaselineError("the unadjusted baseline is defined for single factors")
    k = effect.members[0]
    if k > dataset.k:
        raise BaselineError(f"factor {k} outside the dataset's {dataset.k} factors")
    zk = dataset.Z[:, k - 1]
    pos = zk == 1
    if not pos.any() or pos.all():
        raise BaselineError(f"factor {k} has an empty level group")
    return float(dataset.Y[pos].mean() - dataset.Y[~pos].mean())


def ols_regression_baseline(
    dataset: Dataset, effect_set: list[Effect]
) -> dict[Effect, float]:
    """Twice the least-squares coefficient of each effect's product term.

    Regresses the outcome on an intercept, the raw covariates and the
    factor products named in ``effect_set``.
    """
    cols = [np.ones(dataset.n), *dataset.X.T]
    for e in effect_set:
        if e.order == 0:
            raise BaselineError("effect set must contain nonempty effects")
        cols.append(interaction_value(dataset.Z, e.members))
    M = np.column_stack(cols)
    coef, _, rank, _ = np.linalg.lstsq(M, dataset.Y, rcond=None)
    if rank < M.shape[1]:
        raise BaselineError(
            f"regression design matrix is rank deficient ({rank} < {M.shape[1]})"
        )
    offset = 1 + dataset.d
    return {e: 2.0 * float(coef[offset + j]) for j, e in enumerate(effect_set)}


@dataclass(frozen=True)
class SmdRow:
    """Standardized mean difference of one covariate on one effect's contrast."""

    effect: Effect
    covariate: int
    before: float | None
    after: float | None
    skipped: bool = False


def smd_report(
    dataset: Dataset,
    weights: np.ndarray,
    effect_set: list[Effect],
    design: FactorialDesign,
) -> list[SmdRow]:
    """Absolute standardized mean differences before and after weighting.

    For each effect the two contrast sides are compared through their
    membership-weighted covariate sums scaled by the design side mass N/2,
    against the overall unweighted standard deviation; the before column
    uses unit weights, so unweighted data reproduces it exactly.
    Covariates with zero standard deviation are flagged and skipped.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape[0] != dataset.n:
        raise ConfigurationError(
            f"weights have length {w.shape[0]}, expected {dataset.n}"
        )
    half_n = dataset.n / 2.0
    sds = dataset.X.std(axis=0, ddof=1)
    out: list[SmdRow] = []
    for e, contrast in zip(effect_set, design.contrasts(dataset.Z, effect_set)):
        for j in range(dataset.d):
            if sds[j] <= 0:
                out.append(SmdRow(e, j, None, None, skipped=True))
                continue
            x = dataset.X[:, j]
            before = abs(float(contrast @ x)) / (half_n * sds[j])
            after = abs(float((w * contrast) @ x)) / (half_n * sds[j])
            out.append(SmdRow(e, j, before, after))
    return out
