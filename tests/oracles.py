"""Test references for the balance system and the dual solver.

``check_feasibility`` decides by linear programming whether any
nonnegative weights satisfy Bw = b; ``primal_oracle`` solves the primal
minimum-dispersion problem directly by an active-set search.
``DenseOperator`` and ``numeric_keep`` are the balance operator and the
redundancy filter computed from the system's dense P x N views.
``candidate_system`` is a system's balance system with the paper's
candidate rows in place of its span basis, ``column_spans`` pairs each
basis column's rows with its candidate rows, and ``span_residual`` and
``span_rank`` measure how far rows lie from the span of others and the
dimension of their own.
``eigh_sandwich`` is the sandwich variance from the dense views and a
full eigendecomposition of the curvature; ``sandwich_sigma2`` is the
same variance as the mean square of the per-unit residuals, formed over
blocks of units.
``incomplete_design_oracle`` builds an incomplete design's effective
contrasts from the full 2^K x 2^K contrast matrix and a pseudoinverse.
"""

from dataclasses import replace

import numpy as np
from scipy import linalg as sla
from scipy import sparse
from scipy.optimize import linprog

from factorbal.balance import BalanceSystem, split_contrast
from factorbal.design import (
    combination_bits,
    design_matrix,
    effect_index_set,
    enumerate_combinations,
    interaction_value,
)
from factorbal.errors import IdentificationError, InfeasibleProblemError


def check_feasibility(system: BalanceSystem) -> bool:
    """Whether any nonnegative weight vector satisfies Bw = b exactly.

    Runs a linear-programming phase-1 on the constraint system, in its
    sparse cell-sum form: free variables ``m[c, s]``, the sums of
    ``w_i H[i, s]`` over cell c's units, and rows ``G[r] @ m[:, s_r] = b_r``.
    It is Bw = b with N S + P cells nonzeros instead of P N, which the
    dense form's solver could not decide in 100 s at P=375, N=4825. This
    is the infeasibility certificate backing the primal oracle.
    """
    H, G, b = system.basis_values, system.G, system.b
    (n, s_count), (p, cells) = H.shape, G.shape
    scale = max(1.0, float(np.max(np.abs(b))))
    sums = sparse.csr_matrix(
        (H.ravel(), (system.unit_cells[:, None] * s_count + np.arange(s_count)).ravel(),
         np.arange(0, n * s_count + 1, s_count)),
        shape=(n, cells * s_count),
    ).T
    rows = sparse.csr_matrix(
        (G.ravel(), (np.arange(cells) * s_count + system.basis_ids[:, None]).ravel(),
         np.arange(0, p * cells + 1, cells)),
        shape=(p, cells * s_count),
    )
    res = linprog(
        c=np.zeros(n + cells * s_count),
        A_eq=sparse.bmat([[sums, -sparse.identity(cells * s_count)], [None, rows]]),
        b_eq=np.concatenate([np.zeros(cells * s_count), b]),
        bounds=[(0, None)] * n + [(None, None)] * (cells * s_count),
        method="highs",
    )
    if not res.success:
        return False
    return bool(np.max(np.abs(system.B @ res.x[:n] - b)) <= 1e-7 * scale)


def primal_oracle(system: BalanceSystem, tol: float = 1e-9, max_pivots: int | None = None) -> np.ndarray:
    """Direct active-set solution of min sum w_i^2, Bw = b, w >= 0.

    Test-support oracle for small systems (hundreds of units): searches
    over zero sets, solving each candidate's equality-constrained problem
    through its normal equations, starting from a feasible vertex and the
    unconstrained minimum-norm solution's sign pattern. Raises
    ``InfeasibleProblemError`` when no feasible point exists.
    """
    B = system.B
    b = system.b
    p, n = B.shape
    scale = max(1.0, float(np.max(np.abs(b))))
    feas_tol = 1e-8 * scale

    # unconstrained minimum-norm solution; feasible iff system is consistent
    w_free = np.linalg.lstsq(B, b, rcond=None)[0]
    if np.max(np.abs(B @ w_free - b)) > feas_tol:
        raise InfeasibleProblemError(
            "balance constraints are mutually inconsistent (no solution even "
            "without the nonnegativity requirement)"
        )
    if np.all(w_free >= -tol * scale):
        return np.maximum(w_free, 0.0)

    res = linprog(
        c=np.zeros(n), A_eq=B, b_eq=b, bounds=(0, None), method="highs"
    )
    if res.status == 2 or not res.success:
        raise InfeasibleProblemError(
            "no nonnegative weights satisfy the balance constraints"
        )
    w = np.maximum(res.x, 0.0)

    def subproblem(free_mask):
        """Minimum-norm solution constrained to the free support."""
        cols = np.flatnonzero(free_mask)
        u = np.zeros(n)
        if cols.size:
            sol, *_ = np.linalg.lstsq(B[:, cols], b, rcond=None)
            u[cols] = sol
        return u, cols

    max_pivots = max_pivots or 20 * n
    active = w <= tol * scale
    for _ in range(max_pivots):
        u, cols = subproblem(~active)
        attained = np.max(np.abs(B @ u - b)) <= feas_tol
        if attained and np.all(u[cols] >= -tol * scale):
            # candidate optimum on this face: check multiplier signs
            if cols.size:
                lam, *_ = np.linalg.lstsq(B[:, cols].T, -2.0 * u[cols], rcond=None)
            else:
                lam = np.zeros(p)
            reduced = lam @ B[:, active] if np.any(active) else np.array([])
            if reduced.size == 0 or np.min(reduced) >= -1e-7 * scale:
                return np.maximum(u, 0.0)
            release = np.flatnonzero(active)[int(np.argmin(reduced))]
            active[release] = False
            w = u
            continue
        # move toward the face solution until a variable hits zero
        direction = u - w
        moving = direction < -tol * scale
        if not np.any(moving):
            active[~active & (np.abs(u) <= tol * scale)] = True
            w = u
            continue
        steps = -w[moving] / direction[moving]
        alpha = min(1.0, float(np.min(steps)))
        w = w + alpha * direction
        blocked = np.flatnonzero(moving)[steps <= alpha + 1e-12]
        active[blocked] = True
        w[blocked] = 0.0
    raise RuntimeError("active-set oracle failed to converge; system too large?")


class DenseOperator:
    """The balance operator of ``system`` from its dense views ``B`` and
    ``unit_targets``; ``solve_dual`` accepts it in place of the system."""

    def __init__(self, system: BalanceSystem):
        self.B = system.B
        self.b = system.unit_targets.sum(axis=1)
        self.p, self.n = self.B.shape

    def matvec(self, w):
        return self.B @ w

    def rmatvec(self, lam):
        return self.B.T @ lam

    def active_gram(self, mask):
        B_act = self.B[:, mask]
        return B_act @ B_act.T


def eigh_sandwich(dataset, system: BalanceSystem, weights, lam, effects):
    """Sandwich variances of ``effects`` (length E), with the curvature's
    smallest eigenvalue and its condition number, from the dense views.

    The curvature ``A = B_act B_act' / 2N`` is inverted through
    ``np.linalg.eigh``; ``l_e = A^{-1} r_e`` with
    ``r_e = B_act (c_e Y)_act / 2N``, and ``sigma2_e`` is the mean square
    of ``l_e'(B_i w_i - T_i) - (w_i c_ei Y_i - tau_e)`` over units.
    """
    B, T = system.B, system.unit_targets
    n = system.n
    active = B.T @ lam < 0
    A = B[:, active] @ B[:, active].T * 0.5 / n
    evals, evecs = np.linalg.eigh(A)
    C = system.design.contrasts(dataset.Z, effects)  # E x N
    R = B[:, active] @ (C * dataset.Y)[:, active].T * 0.5 / n  # P x E
    L = evecs @ ((evecs.T @ R) / evals[:, None])
    S = C * weights * dataset.Y
    contrib = (B * weights - T).T @ L - (S - S.mean(axis=1, keepdims=True)).T
    return np.mean(contrib**2, axis=0), evals[0], evals[-1] / evals[0]


def sandwich_sigma2(dataset, system: BalanceSystem, weights, lam, effects, block=2**20):
    """Sandwich variances of ``effects`` (length E) as the mean square over
    units of the stacked estimating-equation residuals
    ``l_e'(B_i w_i - b_i) - (c_ei w_i Y_i - tau_e)``, each unit's terms
    formed on its own, over blocks of units whose effects x units arrays
    take at most ``block`` bytes; ``l_e = A^{-1} r_e`` with the curvature
    ``A = B_act B_act' / 2N`` and ``r_e = B_act (c_e Y)_act / 2N`` from
    the dense active columns. ``l_e'b_i`` is ``sum_r l_er coef_r H[i, s_r]``,
    grouped by basis column."""
    n = system.n
    w = np.asarray(weights, dtype=float)
    wy = w * dataset.Y
    design = system.design
    cell_contrasts = design.contrasts(design.observed, effects)  # E x cells
    C = cell_contrasts[:, system.unit_cells]  # E x N
    tau = np.mean(C * wy, axis=1)
    B = system.B
    active = B.T @ lam < 0
    A = B[:, active] @ B[:, active].T * 0.5 / n
    R = B[:, active] @ (C * dataset.Y)[:, active].T * 0.5 / n
    L = sla.cho_solve(sla.cho_factor(A), R)
    K = np.zeros((system.basis_values.shape[1], len(effects)))
    np.add.at(K, system.basis_ids, system.coef[:, None] * L)
    step = max(1, block // (8 * len(effects)))
    sigma2 = np.zeros(len(effects))
    for start in range(0, n, step):
        units = slice(start, min(start + step, n))
        contrib = system.rmatvec(L, units)
        contrib *= w[units, None]
        contrib -= system.basis_values[units] @ K
        contrib -= (C[:, units] * wy[units]).T
        contrib += tau
        sigma2 += np.einsum("ie,ie->e", contrib, contrib)
    return sigma2 / n


def numeric_keep(B: np.ndarray, T: np.ndarray, tol: float = 1e-10) -> list[int]:
    """Greedy independent subset of the stacked [coefficients | targets]
    rows: those whose ``keep_residuals`` exceed ``tol``."""
    return np.flatnonzero(keep_residuals(B, T, tol) > tol).tolist()


def keep_residuals(B: np.ndarray, T: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Each stacked [coefficients | targets] row's distance from the span
    of the rows before it whose own residual exceeded ``tol``, relative to
    its norm (0 for a zero row), row by row, projected twice off the kept
    ones (one pass leaves a dependent row up to about 1e-10 of its norm on
    ill-conditioned kept rows)."""
    rows = np.hstack([B, T])
    basis_vecs: list[np.ndarray] = []
    resid = np.zeros(len(rows))
    for i in range(rows.shape[0]):
        v = rows[i].copy()
        scale = np.linalg.norm(v)
        if scale == 0:
            continue
        for q in basis_vecs * 2:
            v -= (q @ v) * q
        resid[i] = np.linalg.norm(v) / scale
        if resid[i] > tol:
            basis_vecs.append(v / np.linalg.norm(v))
    return resid


def candidate_system(system: BalanceSystem) -> BalanceSystem:
    """``system`` with the paper's candidate rows: for each element
    (s, J) the summary row chi_J, then for each retained effect K, element
    (s, J) and contrast side the split-contrast row g_K^+- chi_J, on basis
    column s at the observed cells; all-zero rows (a side with no observed
    cell) are left out. Targets follow ``coef = G.sum(1) / 2^(K-1)``."""
    design = system.design
    cells = design.observed
    r_cells = {J: interaction_value(cells, J) for _, J in system.elements}
    rows = [(s, r_cells[J]) for s, J in system.elements]
    for g in design.effective[1:]:
        for s, J in system.elements:
            rows += [(s, side * r_cells[J]) for side in split_contrast(g)]
    rows = [(s, row) for s, row in rows if row.any()]
    G = np.array([row for _, row in rows])
    return replace(
        system,
        G=G,
        basis_ids=np.array([s for s, _ in rows]),
        coef=G.sum(axis=1) / 2 ** (design.k - 1),
    )


def column_spans(system: BalanceSystem) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each basis column, its ``G`` rows in ``system`` and its
    candidate rows."""
    cand = candidate_system(system)
    return [
        (system.G[system.basis_ids == s], cand.G[cand.basis_ids == s])
        for s in range(system.basis_values.shape[1])
    ]


def span_residual(rows: np.ndarray, spanning: np.ndarray, tol: float = 1e-10) -> float:
    """Largest distance of a row of ``rows`` from the span of the rows of
    ``spanning``, relative to the row's norm; the span is that of the right
    singular vectors with singular values above ``tol`` times the largest."""
    _, sigma, vt = np.linalg.svd(spanning, full_matrices=False)
    q = vt[sigma > tol * sigma[0]]
    resid = rows - (rows @ q.T) @ q
    return float(np.max(np.linalg.norm(resid, axis=1) / np.linalg.norm(rows, axis=1), initial=0.0))


def span_rounding(rows: np.ndarray, tol: float = 1e-10) -> float:
    """About how far rounding can move the span ``span_residual`` takes
    from ``rows``: eps times the ratio of their largest singular value to
    the smallest one above ``tol`` times it."""
    sigma = np.linalg.svd(rows, compute_uv=False)
    return float(np.finfo(float).eps * sigma[0] / sigma[sigma > tol * sigma[0]][-1])


def span_rank(rows: np.ndarray, tol: float = 1e-10) -> int:
    """Number of singular values of ``rows`` above ``tol`` times the largest."""
    sigma = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sigma > tol * sigma[0]))


def incomplete_design_oracle(k: int, k_prime: int, unobserved, tol: float = 1e-8):
    """Effective contrasts of the retained effects over the observed cells
    and the smallest singular value of the unobserved-by-negligible block.

    Partitions the full contrast matrix by observed/unobserved rows and
    retained/negligible columns and eliminates the unobserved cell means
    through the pseudoinverse of that block. Raises ``IdentificationError``
    where the block is too wide or rank deficient (singular values below
    ``tol`` times the largest).
    """
    unobs_bits = combination_bits(np.asarray(unobserved).reshape(len(unobserved), k))
    obs_mask = ~np.isin(combination_bits(enumerate_combinations(k)), unobs_bits)
    n_retained = 1 + len(effect_index_set(k, k_prime))
    if len(unobs_bits) > 2**k - n_retained:
        raise IdentificationError("more unobserved cells than negligible contrasts")
    g = design_matrix(k).astype(float)
    obs, uns = obs_mask.nonzero()[0], (~obs_mask).nonzero()[0]
    ret, neg = np.arange(n_retained), np.arange(n_retained, 2**k)
    g_oo = g[np.ix_(obs, ret)]
    if uns.size == 0:
        return g_oo.T.copy(), None
    g_ou = g[np.ix_(uns, ret)]
    g_uo = g[np.ix_(obs, neg)]
    g_uu = g[np.ix_(uns, neg)]
    sv = np.linalg.svd(g_uu, compute_uv=False)
    if sv[-1] < tol * sv[0]:
        raise IdentificationError("unobserved-by-negligible block is rank deficient")
    effective = g_oo.T - g_ou.T @ np.linalg.pinv(g_uu.T, rcond=tol) @ g_uo.T
    return effective, float(sv[-1])
