"""Shared oracles for the test suite: finite-difference comparison and the
tie-margin filter that keeps DTW gradient checks away from path ties."""

import numpy as np

from lecnce.numerics import finite_diff_grad, l2_normalize, make_rng


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(analytic - numeric) / denom)


def fd_check_single(fn, x: np.ndarray, analytic: np.ndarray, h: float = 1e-5) -> float:
    """Relative error between an analytic gradient and central differences."""
    numeric = finite_diff_grad(lambda v: fn(v), x.copy(), h=h)
    return rel_error(analytic, numeric)


def unit_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return np.stack([l2_normalize(rng.normal(size=cols)) for _ in range(rows)])


def greedy_decision_margin(values: np.ndarray) -> float:
    """Smallest gap among the comparisons the greedy trace actually makes.

    A small margin means a tiny perturbation could flip the path, making
    fixed-path gradients disagree with finite differences.
    """
    t, n = values.shape
    i, j = t, n
    margin = np.inf
    while i > 0 and j > 0:
        if i > 1 and j > 1:
            d, u, l = values[i - 2, j - 2], values[i - 2, j - 1], values[i - 1, j - 2]
            margin = min(margin, abs(d - u), abs(d - l), abs(u - l))
            if d <= u and d <= l:
                i, j = i - 1, j - 1
            elif u <= l:
                i -= 1
            else:
                j -= 1
        elif i > 1:
            i -= 1
        else:
            j -= 1
    return float(margin)


def dp_decision_margin(values: np.ndarray) -> float:
    """Smallest gap between the chosen and the other predecessors on the DP path.

    Every accumulated cost moves by at most (path length) x (entry change)
    under a perturbation, so a margin well above that keeps the optimal
    path, and with it the fixed-path gradient, unchanged.
    """
    t, n = values.shape
    acc = np.full((t + 1, n + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, t + 1):
        for j in range(1, n + 1):
            acc[i, j] = values[i - 1, j - 1] + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
    i, j = t, n
    margin = np.inf
    while (i, j) != (1, 1):
        cands = {(i - 1, j - 1): acc[i - 1, j - 1], (i - 1, j): acc[i - 1, j], (i, j - 1): acc[i, j - 1]}
        best = min(cands, key=cands.get)
        others = [v for cell, v in cands.items() if cell != best and np.isfinite(v)]
        margin = min([margin] + [v - cands[best] for v in others])
        i, j = best
    return float(margin)


def stable_hinge_instance(frames, children, beta, phi, margin=1e-3, algorithm="greedy") -> bool:
    """True when both alignments and the hinge kink sit away from ties."""
    from lecnce.alignment import align, reverse_columns
    from lecnce.losses import build_cost_matrix

    c_fwd = build_cost_matrix(frames, children, beta, validate=False)
    c_rev = reverse_columns(c_fwd)
    decision_margin = {"greedy": greedy_decision_margin, "dp": dp_decision_margin}[algorithm]
    if min(decision_margin(c_fwd.values), decision_margin(c_rev.values)) < margin:
        return False
    delta = align(c_fwd, algorithm).cost - align(c_rev, algorithm).cost
    return abs(delta + phi) > margin and abs(delta - phi) > margin


def seeded_rng(seed: int) -> np.random.Generator:
    return make_rng(seed)
