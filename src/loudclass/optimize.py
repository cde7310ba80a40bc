"""Deterministic optimizers of the gradient-trained classifiers.

Limited-memory BFGS (plain two-loop recursion) for the network, Newton's
method for the strictly convex logistic regression; both backtrack to the
Armijo condition. No randomness, no tolerance drift between runs: identical
inputs give identical iterates, which the reproducibility contract of the
classifiers depends on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError

# Curvature pairs kept by the two-loop recursion.
MEMORY = 10
# Armijo backtracking: sufficient-decrease constant, step shrink factor and
# the number of shrinks before the line search gives up.
C1 = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 60


@dataclass
class OptimizeResult:
    x: np.ndarray
    fun: float
    grad_inf_norm: float
    iterations: int
    converged: bool


def minimize_lbfgs(
    fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    *,
    gtol: float = 1e-6,
    max_iter: int = 1000,
    ftol: float | None = None,
) -> OptimizeResult:
    """Minimize a smooth function given its value-and-gradient callable.

    Stops when the gradient infinity norm drops below ``gtol``, when the
    relative objective decrease falls below ``ftol`` (if given), or at
    ``max_iter``. A failed line search ends the run with the best point so
    far rather than raising; a non-finite objective raises ``NumericError``.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun_grad(x)
    if not np.isfinite(f):
        raise NumericError("objective is not finite at the starting point")
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)
    gamma = 1.0
    iterations = 0
    converged = bool(np.max(np.abs(g)) < gtol)

    while not converged and iterations < max_iter:
        d = _two_loop_direction(g, pairs, gamma)
        slope = float(g @ d)
        if slope >= 0.0:
            # Curvature information went stale; restart from steepest descent.
            pairs.clear()
            d = -g
            slope = float(g @ d)
            if slope >= 0.0:
                break
        step = 1.0
        f_new = g_new = None
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * d
            f_cand, g_cand = fun_grad(x_new)
            if np.isfinite(f_cand) and f_cand <= f + C1 * step * slope:
                f_new, g_new = f_cand, g_cand
                break
            step *= SHRINK
        if f_new is None:
            break
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / float(y @ y)
        f_prev = f
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if np.max(np.abs(g)) < gtol:
            converged = True
        elif ftol is not None and abs(f_prev - f) <= ftol * max(1.0, abs(f)):
            converged = True

    return OptimizeResult(
        x=x,
        fun=float(f),
        grad_inf_norm=float(np.max(np.abs(g))),
        iterations=iterations,
        converged=converged,
    )


def minimize_newton(
    fun_grad_hess: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    x0: np.ndarray,
    *,
    gtol: float = 1e-6,
    max_iter: int = 100,
) -> OptimizeResult:
    """Minimize a strictly convex function given its value, gradient and
    Hessian.

    Each iteration solves H d = -g and backtracks along d to the Armijo
    condition. ``converged`` means the gradient infinity norm reached
    ``gtol``; a failed line search (no step decreases f, as at the limit of
    floating-point precision) or ``max_iter`` iterations end the run
    unconverged at the last accepted point. A non-finite objective at the
    start raises ``NumericError``.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g, H = fun_grad_hess(x)
    if not np.isfinite(f):
        raise NumericError("objective is not finite at the starting point")
    iterations = 0
    while np.max(np.abs(g)) > gtol and iterations < max_iter:
        d = -np.linalg.solve(H, g)
        slope = float(g @ d)
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * d
            f_new, g_new, H_new = fun_grad_hess(x_new)
            # Strict: once f + C1 * step * slope rounds to f, a step that
            # leaves f unchanged is no progress, so the search fails rather
            # than stalling on such steps until max_iter.
            if np.isfinite(f_new) and f_new < f + C1 * step * slope:
                break
            step *= SHRINK
        else:
            break
        x, f, g, H = x_new, f_new, g_new, H_new
        iterations += 1

    grad_inf_norm = float(np.max(np.abs(g)))
    return OptimizeResult(
        x=x,
        fun=float(f),
        grad_inf_norm=grad_inf_norm,
        iterations=iterations,
        converged=grad_inf_norm <= gtol,
    )


def _two_loop_direction(
    g: np.ndarray,
    pairs: deque,
    gamma: float,
) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q
