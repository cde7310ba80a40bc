"""RBF-kernel support vector machine trained by sequential minimal
optimization with second-order working-set selection.

The solver minimizes the dual 1/2 a'Qa - e'a, Q = yy' * K, subject to
0 <= a <= C and y'a = 0, two variables at a time, as LIBSVM does (Fan,
Chen & Lin 2005, "Working set selection using second order information
for training SVM", JMLR 6). With v = -y * grad, each step takes i as the
argmax of v over the indices that may move up, I_up, and j among the
violating indices of I_low as the one whose analytic step decreases the
objective most, b^2 / a with b = v_i - v_j and a = K_ii + K_jj - 2 K_ij
floored at tau = 1e-12. Training stops when the maximal violating pair's
gap max_{I_up} v - min_{I_low} v is at most ``tol``, a KKT certificate,
and raises NumericError if that takes more than max(10^7, 100 n) steps.
The bias is LIBSVM's -rho: the mean of v over free support vectors, or
the midpoint of max_{I_up} v and min_{I_low} v when there is none.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import ConfigurationError, NumericError
from .neighbors import squared_distances

# LIBSVM's floor on the curvature of a step along a pair.
_TAU = 1e-12


def _iteration_cap(n: int) -> int:
    return max(10_000_000, 100 * n)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq = squared_distances(A, B)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


class SvmBinary:
    """Soft-margin SVM with labels mapped to {-1, +1} internally.

    gamma defaults to 1 / (n_features * var(X)) computed on the training
    matrix. Scores for ranking are a fixed sigmoid of the decision value,
    which preserves the decision ordering without a separate calibration
    fit.
    """

    def __init__(
        self,
        *,
        C: float = 1000.0,
        tol: float = 1e-3,
        gamma: float | None = None,
    ):
        if C <= 0:
            raise ConfigurationError("C must be positive")
        if tol <= 0:
            raise ConfigurationError("tol must be positive")
        self.C = C
        self.tol = tol
        self.gamma = gamma
        self.gamma_: float | None = None
        self.sv_X_: np.ndarray | None = None
        self.sv_alpha_y_: np.ndarray | None = None
        self.b_: float = 0.0
        self.iterations_: int | None = None
        self.kkt_gap_: float | None = None

    def fit(self, X, y01) -> "SvmBinary":
        X = np.asarray(X, dtype=np.float64)
        y = np.where(np.asarray(y01) > 0.5, 1.0, -1.0)
        n, d = X.shape
        if self.gamma is not None:
            self.gamma_ = float(self.gamma)
        else:
            var = float(X.var())
            self.gamma_ = 1.0 / (d * var) if var > 0 else 1.0

        C = self.C
        K = rbf_kernel(X, X, self.gamma_)
        K_diag = K.diagonal()
        alpha = np.zeros(n)
        # v = -y * grad is y - (decision without bias); it starts at y and
        # every step updates it with two kernel rows.
        v = y.copy()
        up = y > 0
        low = ~up
        max_iter = _iteration_cap(n)
        iterations = 0
        while True:
            v_up = np.where(up, v, -np.inf)
            v_low = np.where(low, v, np.inf)
            i = int(v_up.argmax())
            m, M = float(v_up[i]), float(v_low.min())
            # An empty side (single-class labels) leaves nothing to move;
            # b then sits on the one bound, so y * decision = 1.
            if m == -np.inf:
                m = M
            elif M == np.inf:
                M = m
            if m - M <= self.tol:
                break
            if iterations == max_iter:
                raise NumericError(
                    f"svm did not converge in {max_iter} steps (gap {m - M:.3g})"
                )
            # Non-violating indices get b = 0 and cannot win: the gap
            # guarantees a violating one.
            b = np.maximum(m - v_low, 0.0)
            a = np.maximum(K_diag[i] + K_diag - 2.0 * K[i], _TAU)
            gain = b * b / a
            j = int(gain.argmax())

            # Move alpha_i by +y_i lam and alpha_j by -y_j lam, clipped to
            # the box; a step that reaches a bound lands on it exactly.
            cap_i = C - alpha[i] if y[i] > 0 else alpha[i]
            cap_j = alpha[j] if y[j] > 0 else C - alpha[j]
            lam = min(b[j] / a[j], cap_i, cap_j)
            alpha[i] += y[i] * lam
            alpha[j] -= y[j] * lam
            if lam == cap_i:
                alpha[i] = C if y[i] > 0 else 0.0
            if lam == cap_j:
                alpha[j] = 0.0 if y[j] > 0 else C
            for t in (i, j):
                up[t] = alpha[t] < C if y[t] > 0 else alpha[t] > 0
                low[t] = alpha[t] > 0 if y[t] > 0 else alpha[t] < C
            v -= lam * (K[i] - K[j])
            iterations += 1

        free = (alpha > 0) & (alpha < C)
        self.b_ = float(v[free].mean()) if free.any() else 0.5 * (m + M)
        self.iterations_ = iterations
        self.kkt_gap_ = m - M
        keep = alpha > 0
        self.sv_X_ = X[keep]
        self.sv_alpha_y_ = alpha[keep] * y[keep]
        return self

    def decision(self, X) -> np.ndarray:
        if self.sv_X_ is None:
            raise ConfigurationError("svm is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if len(self.sv_X_) == 0:
            return np.full(len(X), self.b_)
        K = rbf_kernel(X, self.sv_X_, self.gamma_)
        return K @ self.sv_alpha_y_ + self.b_

    def predict_score(self, X) -> np.ndarray:
        return expit(self.decision(X))

    def fitted_state(self) -> dict:
        return {
            "gamma_fitted": self.gamma_,
            "b": self.b_,
            "sv_x": self.sv_X_.tolist(),
            "sv_alpha_y": self.sv_alpha_y_.tolist(),
        }

    def load_fitted_state(self, state: dict) -> "SvmBinary":
        self.gamma_ = state["gamma_fitted"]
        self.b_ = state["b"]
        self.sv_X_ = np.asarray(state["sv_x"], dtype=np.float64)
        self.sv_alpha_y_ = np.asarray(state["sv_alpha_y"], dtype=np.float64)
        return self
