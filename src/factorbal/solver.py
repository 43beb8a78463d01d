"""Weight selection by maximizing the unconstrained concave dual.

The primal problem picks nonnegative per-unit weights with minimal sum of
squares subject to the balance constraints Bw = b. Eliminating the
nonnegativity multipliers through the KKT conditions leaves a concave,
piecewise-quadratic, continuously differentiable dual in the balance
multipliers only:

    maximize  sum_i [ -(1/4) (lam' B_i)^2 [lam' B_i < 0] - lam' b_i ]

whose gradient equals B w(lam) - b with w_i(lam) = max(0, -lam' B_i)/2.
A semismooth Newton iteration with backtracking line search (gradient
ascent as fallback) drives the gradient to zero; unbounded growth of the
multipliers certifies primal infeasibility.

Units at the kink (lam' B_i = 0) count as active in the generalized
Hessian -(1/2) B_act B_act', which is a valid element of the generalized
Jacobian there. So the first step from lam = 0 is the all-active Newton
step, whose weights are the minimum-norm solution B'(BB')^{-1} b; when
those are nonnegative the solve ends after one iteration. Every solution
records which rule stopped the iteration (``stop_reason``).

A Newton step solves (A + ridge I) d = g, A = (1/2) B_act B_act' and ridge
``HESSIAN_RIDGE`` times A's mean diagonal, in one of two forms. With G~ the
P x (cells * S) lift of ``G`` (G[r, c] at (c, s_r)) and D block diagonal in
the cells' halved active Gram matrices of H, A = G~ D G~'; each column's
rows are orthogonal of squared norm ``cells``, so A + ridge I = G~ D' G~'
with D' = D + (ridge / cells) I, the same ridge exactly. With N~ the m rows
completing the columns' rows to orthogonal bases of the cells, lifted
alike, and W = N~ D'^{-1} N~', the cell-space form takes y = D'^{-1} G~' g,
y -= D'^{-1} N~' W^{-1} N~ y and d = G~ y / cells^2 (m = 6 on the five-factor
study, 0 on a saturated design). The P x P form assembles A and factors it
where m >= P, where ``G`` was rescaled by hand, or where the cell blocks are
too ill-conditioned (``BalanceSystem.cell_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .balance import BalanceSystem

CONVERGED = "converged"
INFEASIBLE = "infeasible"
MAX_ITERS = "max_iters"
# stop reasons: gradient below tolerance, no ascent step at floating
# precision, multipliers past the divergence bound, iteration budget spent
GRADIENT = "gradient"
STALLED = "stalled"
DIVERGED = "diverged"
# objective changes this small relative to the objective are roundoff
ROUNDOFF = 8 * np.finfo(float).eps
# gradient max-norm per unit at which the solve has converged (GRAD_TOL * N)
GRAD_TOL = 1e-9
# ridge added to the Newton Hessian, relative to its mean diagonal
HESSIAN_RIDGE = 1e-10
# backtracking line search: step shrink factor and Armijo slope fraction
LINE_SEARCH_SHRINK = 0.5
LINE_SEARCH_SLOPE = 1e-4
# multiplier max-norm beyond which the dual is declared unbounded
# (primal infeasible)
DIVERGENCE_NORM = 1e8


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for the dual ascent."""

    max_iters: int = 500

    def __post_init__(self):
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, int) or iters <= 0:
            raise ValueError(f"max_iters must be a positive integer, got {iters!r}")


@dataclass(frozen=True)
class DualSolution:
    """Multipliers, recovered weights and convergence diagnostics.

    ``objective_trace`` records the dual objective at the start and after
    every accepted line-search step (non-decreasing up to roundoff: a step
    whose objective change is within roundoff is accepted when it lowers
    the gradient max-norm). ``stop_reason`` names the rule that ended the
    iteration: ``gradient`` (max-norm below ``GRAD_TOL * N``), ``stalled`` (no
    ascent step at floating precision; the status is ``converged`` if the
    gradient meets ``stall_tolerance(b)``, 1e-8 * (1 + max|b|), and
    ``max_iters`` otherwise), ``diverged`` (multipliers past
    ``DIVERGENCE_NORM``) or ``max_iters``.
    """

    lam: np.ndarray
    gamma: np.ndarray
    weights: np.ndarray
    objective: float
    iterations: int
    status: str
    grad_norm: float
    stop_reason: str
    objective_trace: tuple[float, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def stall_tolerance(b: np.ndarray) -> float:
    """Gradient max-norm at which a stalled line search counts as converged:
    the balance bound ``max|Bw - b| <= 1e-8 * (1 + max|b|)`` that
    ``augmented_estimate`` warns past."""
    return 1e-8 * (1 + float(np.max(np.abs(b), initial=0.0)))


def _eval(lam, system, b):
    """Scores u = B'lam, the active mask u <= 0, weights, objective and
    gradient at lam. The weights max(-u/2, 0) carry no sign: where u is
    +0.0 (every unit at lam = 0) they are +0.0, not -0.0."""
    u = system.rmatvec(lam)
    neg = u <= 0  # units at the kink are active: w_i = 0 there either way
    w = np.maximum(-0.5 * u, 0.0)
    obj = -float(w @ w) - float(lam @ b)
    grad = system.matvec(w) - b
    return u, neg, w, obj, grad


def _ridge(trace: float, p: int) -> float:
    return HESSIAN_RIDGE * trace / p if trace > 0 else HESSIAN_RIDGE


def _newton_direction(system, neg, grad):
    """Ascent direction ``(A + ridge I)^{-1} grad``, A = (1/2) B_act B_act',
    in cell space where a ``BalanceSystem`` can; or None (``solve_dual``
    then takes a gradient step) when no unit is active, the Cholesky
    factorization fails or the direction is not a finite ascent direction."""
    if not np.any(neg):
        return None
    d = None
    if isinstance(system, BalanceSystem):
        gram = 0.5 * system.active_cell_gram(neg)
        d = system.cell_solve(gram, _ridge(system.gram_trace(gram), system.p), grad)
    if d is None:
        A = 0.5 * system.active_gram(neg)
        A[np.diag_indices_from(A)] += _ridge(np.trace(A), A.shape[0])
        try:
            d = sla.cho_solve(sla.cho_factor(A, check_finite=False), grad, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            return None
    if not np.all(np.isfinite(d)) or grad @ d <= 0:
        return None
    return d


def solve_dual(system: BalanceSystem, options: SolverOptions | None = None) -> DualSolution:
    """Maximize the dual and recover the optimal nonnegative weights.

    Deterministic: starts from zero multipliers. Returns a solution with
    status ``converged`` (gradient max-norm below tolerance, so the
    weights satisfy the balance constraints), ``infeasible`` (multipliers
    diverged, certifying there is no nonnegative feasible point) or
    ``max_iters`` (best iterate with diagnostics).
    """
    opts = options or SolverOptions()
    b = system.b
    p, n = system.p, system.n
    tol = GRAD_TOL * n

    lam = np.zeros(p)
    u, neg, w, obj, grad = _eval(lam, system, b)
    trace = [obj]
    iters = 0
    status, reason = MAX_ITERS, MAX_ITERS
    while iters < opts.max_iters:
        gnorm = float(np.max(np.abs(grad), initial=0.0))
        if gnorm <= tol:
            status, reason = CONVERGED, GRADIENT
            break
        if np.max(np.abs(lam), initial=0.0) > DIVERGENCE_NORM:
            status, reason = INFEASIBLE, DIVERGED
            break
        d = _newton_direction(system, neg, grad)
        if d is None:
            d = grad / max(1.0, gnorm)
        step = 1.0
        slope = float(grad @ d)
        accepted = False
        for _ in range(80):
            cand = lam + step * d
            cu, cneg, cw, cobj, cgrad = _eval(cand, system, b)
            if abs(cobj - obj) <= ROUNDOFF * max(1.0, abs(obj)):
                # the objective cannot tell the points apart: ask for
                # progress in the gradient instead
                ascent = np.max(np.abs(cgrad), initial=0.0) < gnorm
            else:
                ascent = cobj >= obj + LINE_SEARCH_SLOPE * step * slope
            if ascent:
                lam, u, neg, w, obj, grad = cand, cu, cneg, cw, cobj, cgrad
                trace.append(obj)
                accepted = True
                break
            step *= LINE_SEARCH_SHRINK
        iters += 1
        if not accepted:
            # no ascent possible at floating precision; converged if the
            # residual meets the stall tolerance, otherwise max_iters
            reason = STALLED
            status = CONVERGED if gnorm <= max(tol, stall_tolerance(b)) else MAX_ITERS
            break

    gnorm = float(np.max(np.abs(grad), initial=0.0))
    if status == MAX_ITERS and np.max(np.abs(lam), initial=0.0) > DIVERGENCE_NORM:
        status = INFEASIBLE
    gamma = np.where(u >= 0, u, 0.0)
    return DualSolution(
        lam=lam,
        gamma=gamma,
        weights=w,
        objective=obj,
        iterations=iters,
        status=status,
        grad_norm=gnorm,
        stop_reason=reason,
        objective_trace=tuple(trace),
    )
