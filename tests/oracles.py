"""Independent brute-force reference implementations for the test suite.

Everything here is written in the most literal form available (pair
counting, explicit subset enumeration, textbook Jacobi rotations) so a
bug in the production code cannot hide in a shared shortcut.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
from scipy.optimize import minimize

# The package's own expit: the fused references are checked against split
# arithmetic, bit for bit, which needs one expit on both sides.
from loudclass.classifiers.linear import expit
from loudclass.loudness import CU_MAX, CU_MEDIUM, CU_MIN, FEATURE_NAMES
from loudclass.optimize import C1, MAX_BACKTRACKS, MEMORY, SHRINK
from loudclass.pipeline import _participant_normal


# --- plain counting metrics -------------------------------------------------

def class_counts(y_true, y_pred, cls) -> tuple[int, int, int]:
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p == cls)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t != cls and p == cls)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p != cls)
    return tp, fp, fn


def precision_of(tp: int, fp: int) -> float:
    return tp / (tp + fp) if tp + fp else 0.0


def recall_of(tp: int, fn: int) -> float:
    return tp / (tp + fn) if tp + fn else 0.0


def f1_of(tp: int, fp: int, fn: int) -> float:
    p = precision_of(tp, fp)
    r = recall_of(tp, fn)
    return 2 * p * r / (p + r) if p + r else 0.0


def balanced_accuracy_of(y_true, y_pred) -> float:
    classes = sorted(set(y_true))
    recalls = []
    for cls in classes:
        tp, _, fn = class_counts(y_true, y_pred, cls)
        recalls.append(recall_of(tp, fn))
    return sum(recalls) / len(recalls)


def weighted_f1_of(y_true, y_pred) -> float:
    classes = sorted(set(y_true))
    total = 0.0
    for cls in classes:
        tp, fp, fn = class_counts(y_true, y_pred, cls)
        support = sum(1 for t in y_true if t == cls)
        total += support * f1_of(tp, fp, fn)
    return total / len(y_true)


def confusion_of(y_true, y_pred, classes) -> np.ndarray:
    m = np.zeros((len(classes), len(classes)), dtype=float)
    index = {c: i for i, c in enumerate(classes)}
    for t, p in zip(y_true, y_pred):
        m[index[t], index[p]] += 1
    return m


# --- ranking metrics --------------------------------------------------------

def mann_whitney_auc(y_true, scores) -> float:
    """Tie-adjusted pair-counting AUC: U / (P * N)."""
    pos = [s for s, t in zip(scores, y_true) if t == 1]
    neg = [s for s, t in zip(scores, y_true) if t == 0]
    if not pos or not neg:
        raise ValueError("need both classes")
    u = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                u += 1.0
            elif p == n:
                u += 0.5
    return u / (len(pos) * len(neg))


def average_precision_of(y_true, scores) -> float:
    """Step-sum AP over thresholds placed at each distinct score."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise ValueError("need a positive example")
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(s.tolist()), reverse=True):
        predicted = s >= t
        tp = int(np.sum(predicted & (y == 1)))
        fp = int(np.sum(predicted & (y == 0)))
        ap += (tp / n_pos - prev_recall) * (tp / (tp + fp))
        prev_recall = tp / n_pos
    return ap


# --- penalized logistic regression ---------------------------------------------

def penalized_logistic_oracle(X, y, alpha: float) -> np.ndarray:
    """L-BFGS-B on mean logistic loss + alpha * ||w||^2 / (2n), bias
    unpenalized, with tight tolerances. Returns theta = (weights, bias).

    The loss is written from the sum of log(1 + exp(-s * z)) over the
    +1/-1 labels s, not from the production formula.
    """
    X = np.asarray(X, dtype=float)
    s = 2.0 * np.asarray(y, dtype=float) - 1.0
    n, d = X.shape

    def fun_grad(theta):
        w, b = theta[:-1], theta[-1]
        margin = s * (X @ w + b)
        loss = np.logaddexp(0.0, -margin).sum() / n + alpha * (w @ w) / (2 * n)
        coef = -s * np.exp(-np.logaddexp(0.0, margin)) / n  # -s * sigmoid(-margin)
        grad = np.append(X.T @ coef + alpha * w / n, coef.sum())
        return loss, grad

    # ftol=0: stop on the gradient, or where f stops changing in floating
    # point; then check that the gradient is small.
    result = minimize(fun_grad, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                      options={"ftol": 0.0, "gtol": 1e-12, "maxiter": 100000,
                               "maxfun": 100000})
    if np.max(np.abs(fun_grad(result.x)[1])) > 1e-8:
        raise RuntimeError(f"oracle did not converge: {result.message}")
    return result.x


# --- network training, value and gradient fused --------------------------------
#
# The network's loss and L-BFGS as they were before training split the
# objective into a value and a gradient: every line-search trial runs the
# full forward and backward pass. Same arithmetic in the same order, so the
# split training must reproduce these iterates bit for bit.

def nn_loss_and_grad(theta, X, y, hidden, alpha: float):
    """Penalized mean logistic loss of the rectifier network and its
    gradient, from one forward and one backward pass."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    sizes = [X.shape[1], *hidden, 1]
    weights, biases, pos = [], [], 0
    for fi, fo in zip(sizes[:-1], sizes[1:]):
        weights.append(theta[pos : pos + fi * fo].reshape(fi, fo))
        pos += fi * fo
        biases.append(theta[pos : pos + fo])
        pos += fo
    last = len(weights) - 1
    activations, pre_activations = [X], []
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ W + b
        pre_activations.append(z)
        activations.append(np.maximum(z, 0.0) if i < last else z)
    raw = activations[-1][:, 0]

    softplus = np.log1p(np.exp(-np.abs(raw))) + np.maximum(raw, 0.0)
    data_loss = float(np.mean(softplus - y * raw))
    penalty = alpha * sum(float((W * W).sum()) for W in weights) / (2.0 * n)

    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    delta = ((expit(raw) - y) / n)[:, None]
    for i in range(last, -1, -1):
        grad_w[i] = activations[i].T @ delta + alpha * weights[i] / n
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (pre_activations[i - 1] > 0.0)
    grad = np.concatenate(
        [np.concatenate([gw.ravel(), gb]) for gw, gb in zip(grad_w, grad_b)]
    )
    return data_loss + penalty, grad


def lbfgs_fused(fun_grad, x0, *, gtol: float, max_iter: int, ftol):
    """L-BFGS with Armijo backtracking that evaluates value and gradient at
    every trial point. Returns (x, iterations, evaluations), where
    evaluations counts the calls of ``fun_grad``."""
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun_grad(x)
    evaluations = 1
    pairs = deque(maxlen=MEMORY)
    gamma = 1.0
    iterations = 0
    converged = bool(np.max(np.abs(g)) < gtol)
    while not converged and iterations < max_iter:
        q = g.copy()
        alphas = []
        for s, yv, rho in reversed(pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * yv
        q *= gamma
        for (s, yv, rho), a in zip(pairs, reversed(alphas)):
            b = rho * float(yv @ q)
            q += (a - b) * s
        d = -q
        slope = float(g @ d)
        if slope >= 0.0:
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
            evaluations += 1
            if np.isfinite(f_cand) and f_cand <= f + C1 * step * slope:
                f_new, g_new = f_cand, g_cand
                break
            step *= SHRINK
        if f_new is None:
            break
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            pairs.append((s, yv, 1.0 / sy))
            gamma = sy / float(yv @ yv)
        f_prev = f
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if np.max(np.abs(g)) < gtol:
            converged = True
        elif ftol is not None and abs(f_prev - f) <= ftol * max(1.0, abs(f)):
            converged = True
    return x, iterations, evaluations


# --- SVM dual ---------------------------------------------------------------

def svm_dual_oracle(K, y, C: float) -> tuple[np.ndarray, float]:
    """SLSQP on the soft-margin dual: min 1/2 a'(yy' * K)a - sum(a) subject
    to 0 <= a <= C and y'a = 0, for at most 30 points.

    Returns alpha and the bias averaged over the free support vectors,
    where y * decision = 1 (raises if there are none).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n > 30:
        raise ValueError("the oracle is meant for at most 30 points")
    Q = np.outer(y, y) * K
    result = minimize(
        lambda a: 0.5 * a @ Q @ a - a.sum(),
        np.zeros(n),
        jac=lambda a: Q @ a - 1.0,
        bounds=[(0.0, C)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        method="SLSQP",
        options={"ftol": 1e-10, "maxiter": 2000},
    )
    if not result.success:
        raise RuntimeError(result.message)
    alpha = np.clip(result.x, 0.0, C)
    free = (alpha > 1e-6 * C) & (alpha < (1.0 - 1e-6) * C)
    if not free.any():
        raise ValueError("no free support vectors to place the bias")
    b = float(np.mean(y[free] - K[free] @ (alpha * y)))
    return alpha, b


# --- symmetric eigenproblem -------------------------------------------------

def jacobi_eigh(matrix, *, tol: float = 1e-14, max_sweeps: int = 100):
    """Cyclic Jacobi rotations on a symmetric matrix.

    Returns eigenvalues in descending order and the matching eigenvector
    columns. Slow and simple on purpose.
    """
    A = np.array(matrix, dtype=float, copy=True)
    n = A.shape[0]
    V = np.eye(n)
    scale = np.sqrt(np.sum(A * A)) or 1.0
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.tril(A, -1) ** 2)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if A[p, q] == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    values = np.diag(A).copy()
    order = np.argsort(values)[::-1]
    return values[order], V[:, order]


# --- Shapley values ---------------------------------------------------------

def coalition_value(f, record, background, coalition) -> float:
    composite = np.array(background, dtype=float, copy=True)
    for j in coalition:
        composite[:, j] = record[j]
    return float(np.mean(np.asarray(f(composite), dtype=float)))


def naive_shapley(f, record, background) -> tuple[np.ndarray, float]:
    """Textbook subset enumeration, one coalition pair at a time."""
    record = np.asarray(record, dtype=float)
    d = record.shape[0]
    phi = np.zeros(d)
    for i in range(d):
        rest = [j for j in range(d) if j != i]
        for size in range(d):
            weight = (
                math.factorial(size) * math.factorial(d - size - 1)
            ) / math.factorial(d)
            for subset in itertools.combinations(rest, size):
                with_i = coalition_value(f, record, background, subset + (i,))
                without = coalition_value(f, record, background, subset)
                phi[i] += weight * (with_i - without)
    return phi, coalition_value(f, record, background, ())


# --- CART root split ----------------------------------------------------------

def _entropy_bits(values) -> float:
    h = 0.0
    for v in set(values):
        p = values.count(v) / len(values)
        h -= p * math.log2(p)
    return h


def _squared_error(values) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def split_gains(X, y, criterion: str) -> list[tuple[float, int, float]]:
    """(gain, feature, threshold) of every root split, by feature and then
    threshold.

    Tries every feature and every midpoint between two consecutive distinct
    values; rows with x <= threshold go left. Entropy gain is
    H(parent) - (n_l H(left) + n_r H(right)) / n in bits; squared-error gain
    is SSE(parent) - SSE(left) - SSE(right).
    """
    rows = [[float(v) for v in row] for row in X]
    targets = [float(v) for v in y]
    impurity = {
        "entropy": lambda ys: len(ys) * _entropy_bits(ys) / len(targets),
        "mse": _squared_error,
    }[criterion]
    parent = impurity(targets)
    splits = []
    for f in range(len(rows[0])):
        values = sorted(set(row[f] for row in rows))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = [t for row, t in zip(rows, targets) if row[f] <= threshold]
            right = [t for row, t in zip(rows, targets) if row[f] > threshold]
            splits.append((parent - impurity(left) - impurity(right), f, threshold))
    return splits


def best_split_oracle(X, y, criterion: str):
    """Best root split as (gain, feature, threshold), or None if no split
    gains more than 1e-12.

    A gain must beat the best so far by more than 1e-12 to replace it, so
    ties resolve to the lowest feature, then the lowest threshold.
    """
    eps = 1e-12
    best = None
    for gain, f, threshold in split_gains(X, y, criterion):
        if gain > eps and (best is None or gain > best[0] + eps):
            best = (gain, f, threshold)
    return best


# --- loudness function and roving, one record at a time ----------------------

def cu_at_level(fn, level: float) -> float:
    """Loudness rating in CU at ``level`` dB, clamped to [0, 50]: the forward
    map that ``level_at_cu`` inverts."""
    slope = fn.m_low if level <= fn.l_cut else fn.m_high
    cu = CU_MEDIUM + slope * (level - fn.l_cut)
    return min(max(cu, CU_MIN), CU_MAX)


def participant_offset(cfg, participant_id: str) -> float:
    """The calibration offset a participant receives under ``cfg``:
    ``mean + sd * z`` with the participant's standard normal draw ``z``."""
    return cfg.mean + cfg.sd * _participant_normal(cfg.seed, participant_id)


def feature_violations(features: dict) -> list[str]:
    """The names of the invariants that twelve features, keyed by name,
    break: each level (a name not starting with ``M``) must be finite, each
    slope positive and finite, and at each frequency L2.5 <= L25 <= L50."""
    broken = []
    for name, value in features.items():
        if name.startswith("M") and not (math.isfinite(value) and value > 0):
            broken.append(name)
        elif not name.startswith("M") and not math.isfinite(value):
            broken.append(name)
    for freq in (1500, 4000):
        if not features[f"L2.5_{freq}"] <= features[f"L25_{freq}"] <= features[f"L50_{freq}"]:
            broken.append(f"level order at {freq} Hz")
    return broken


def shifted(features, offset: float) -> tuple[float, ...]:
    """``features`` with every dB level moved by ``offset``. The levels are
    the features whose names do not start with ``M``; the slopes are
    carried over untouched, so they keep their bits."""
    return tuple(value if name.startswith("M") else value + offset
                 for name, value in zip(FEATURE_NAMES, features))


# --- k nearest neighbors -----------------------------------------------------

def tree_descent(node, row):
    """The leaf one row reaches, walked down one node at a time, and the
    features its path tests."""
    tested = set()
    while not node.is_leaf:
        tested.add(node.feature)
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node, tested


def leaves_left_first(node) -> list:
    if node.is_leaf:
        return [node]
    return leaves_left_first(node.left) + leaves_left_first(node.right)


def knn_vote_oracle(neighbor_labels, n_classes: int) -> tuple[list[int], np.ndarray]:
    """Per-row knn vote over class indices sorted nearest first.

    Returns the winning class index per row and the vote fractions. A tie
    for the most votes goes to the tied class of the nearest neighbor.
    """
    neighbor_labels = np.asarray(neighbor_labels)
    proba = np.zeros((len(neighbor_labels), n_classes))
    for ci in range(n_classes):
        proba[:, ci] = (neighbor_labels == ci).mean(axis=1)
    winners = []
    for labels in neighbor_labels:
        counts = np.bincount(labels, minlength=n_classes)
        tied = set(np.flatnonzero(counts == counts.max()).tolist())
        winners.append(next(int(l) for l in labels if int(l) in tied))
    return winners, proba


def squared_distances_reference(A, B) -> np.ndarray:
    """|a|^2 + |b|^2 - 2 a.b as one expression over full-size temporaries,
    the form ``neighbors.squared_distances`` finishes in place."""
    a_sq, b_sq = (A * A).sum(axis=1), (B * B).sum(axis=1)
    return a_sq[:, None] + b_sq[None, :] - 2.0 * (A @ B.T)


def rbf_kernel_reference(A, B, gamma: float) -> np.ndarray:
    """exp(-gamma max(d, 0)) of ``squared_distances_reference``, out of place."""
    sq = squared_distances_reference(A, B)
    return np.exp(-gamma * np.maximum(sq, 0.0))
