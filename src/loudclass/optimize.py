"""Deterministic optimizers of the gradient-trained classifiers.

Limited-memory BFGS (plain two-loop recursion) for the network, Newton's
method for the strictly convex logistic regression; both backtrack to the
Armijo condition. No randomness, no tolerance drift between runs: identical
inputs give identical iterates, which the reproducibility contract of the
classifiers depends on.

L-BFGS takes the objective's value and its gradient as two callables. A
backtracking line search needs only values at its trial points, so the
gradient is asked for once per accepted point, right after the value at
that same point; an objective can keep what its value computed and derive
the gradient from it. Newton's method takes one callable for the value,
gradient and Hessian, which lr computes from one shared pass.

Every run reports why it stopped (``OptimizeResult.stop``); only a run
that reached ``gtol`` counts as converged.
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
    """The last accepted point and why the run stopped there.

    ``stop`` is ``gtol`` (the gradient infinity norm reached the tolerance),
    ``ftol`` (the relative decrease of the objective fell below it),
    ``max_iter`` (the iteration budget ran out), ``line_search`` (no trial
    step satisfied the Armijo condition) or ``no_descent`` (not even the
    steepest-descent direction descends, as at a zero or non-finite
    gradient).
    """

    x: np.ndarray
    fun: float
    grad_inf_norm: float
    iterations: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop == "gtol"


def minimize_lbfgs(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    gtol: float = 1e-6,
    max_iter: int = 1000,
    ftol: float | None = None,
) -> OptimizeResult:
    """Minimize a smooth function given its value and its gradient.

    ``fun(x)`` is evaluated at ``x0`` and at every line-search trial point.
    ``grad(x)`` is called once per accepted point (``x0`` included), always
    right after ``fun`` was called at that same ``x``, and its result is
    kept, so it must return a new array each call.

    Stops with ``gtol`` when the gradient infinity norm drops below
    ``gtol``, with ``ftol`` when the relative objective decrease falls
    below ``ftol`` (if given), or with ``max_iter``. A failed line search
    (``line_search``) or a direction that does not descend
    (``no_descent``) ends the run at the last accepted point rather than
    raising; a non-finite objective at ``x0`` raises ``NumericError``.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f = fun(x)
    if not np.isfinite(f):
        raise NumericError("objective is not finite at the starting point")
    g = grad(x)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)
    scratch = np.empty_like(x)
    gamma = 1.0
    iterations = 0
    stop = "gtol" if np.max(np.abs(g)) < gtol else None

    while stop is None:
        if iterations >= max_iter:
            stop = "max_iter"
            break
        d = _two_loop_direction(g, pairs, gamma, scratch)
        slope = float(g @ d)
        if slope >= 0.0:
            # Curvature information went stale; restart from steepest descent.
            pairs.clear()
            d = -g
            slope = float(g @ d)
            if slope >= 0.0:
                stop = "no_descent"
                break
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * d
            f_new = fun(x_new)
            if np.isfinite(f_new) and f_new <= f + C1 * step * slope:
                break
            step *= SHRINK
        else:
            stop = "line_search"
            break
        g_new = grad(x_new)
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
            stop = "gtol"
        elif ftol is not None and abs(f_prev - f) <= ftol * max(1.0, abs(f)):
            stop = "ftol"

    return OptimizeResult(
        x=x,
        fun=float(f),
        grad_inf_norm=float(np.max(np.abs(g))),
        iterations=iterations,
        stop=stop,
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
    condition. The run stops with ``gtol`` once the gradient infinity norm
    reaches ``gtol``; a failed line search (``line_search``: no step
    decreases f, as at the limit of floating-point precision) or
    ``max_iter`` iterations end it unconverged at the last accepted point.
    A non-finite objective at the start raises ``NumericError``.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g, H = fun_grad_hess(x)
    if not np.isfinite(f):
        raise NumericError("objective is not finite at the starting point")
    iterations = 0
    while True:
        if np.max(np.abs(g)) <= gtol:
            stop = "gtol"
            break
        if iterations >= max_iter:
            stop = "max_iter"
            break
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
            stop = "line_search"
            break
        x, f, g, H = x_new, f_new, g_new, H_new
        iterations += 1

    return OptimizeResult(
        x=x,
        fun=float(f),
        grad_inf_norm=float(np.max(np.abs(g))),
        iterations=iterations,
        stop=stop,
    )


def _two_loop_direction(
    g: np.ndarray,
    pairs: deque,
    gamma: float,
    scratch: np.ndarray,
) -> np.ndarray:
    """-H g for the inverse-Hessian estimate of ``pairs`` and ``gamma``.

    The axpy steps go through ``scratch``, the same size as ``g``, so the
    recursion allocates only its result.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= np.multiply(y, a, out=scratch)
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += np.multiply(s, a - b, out=scratch)
    return np.negative(q, out=q)
