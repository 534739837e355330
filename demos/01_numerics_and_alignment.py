"""Walk through the numeric primitives and the two alignment routines.

The greedy backward trace and the classic dynamic program agree on easy
matrices and disagree on adversarial ones; the dynamic program gives the
optimal cost, the greedy trace is the default used in training.
"""

import numpy as np

from lecnce.alignment import CostMatrix, dtw_dp, dtw_greedy, dtw_subgradient, reverse_columns
from lecnce.losses import build_cost_matrix
from lecnce.numerics import cosine_similarity_matrix, l2_normalize, make_rng

print("== normalization and similarity ==")
v = np.array([3.0, 4.0])
print(f"l2_normalize([3, 4]) = {l2_normalize(v)}")

rng = make_rng(0)
a = np.stack([l2_normalize(rng.normal(size=4)) for _ in range(3)])
b = np.stack([l2_normalize(rng.normal(size=4)) for _ in range(2)])
print("cosine similarity (3x2):")
print(np.round(cosine_similarity_matrix(a, b), 3))

print("\n== tempered softmax ==")
# each cost is -log of a frame's softmax over the texts at temperature beta;
# these probabilities are what the alignment weighs, one row per frame
for beta in (1.0, 0.1):
    print(f"exp(-cost) at temperature {beta}:")
    print(np.round(np.exp(-build_cost_matrix(a, b, beta).values), 4))

print("\n== greedy trace vs dynamic program ==")
easy = CostMatrix(np.array([[1.0, 5.0, 5.0], [2.0, 1.0, 5.0], [5.0, 2.0, 1.0]]))
g, d = dtw_greedy(easy), dtw_dp(easy)
print(f"easy matrix: greedy cost {g.cost} path {g.path}")
print(f"             dp     cost {d.cost} path {d.path}")

# the greedy trace looks one step ahead only, so a cheap-looking neighbour
# can bait it away from the globally best path
trap = CostMatrix(np.array([[9.0, 1.0, 9.0], [1.0, 8.0, 1.0], [9.0, 1.0, 0.5]]))
g, d = dtw_greedy(trap), dtw_dp(trap)
print(f"trap matrix: greedy cost {g.cost} vs dp cost {d.cost} (dp never worse)")

print("\n== reversal and the fixed-path subgradient ==")
c = CostMatrix(np.array([[1.0, 2.0, 3.0]]))
print(f"reverse_columns([[1,2,3]]) = {reverse_columns(c).values}")
result = dtw_greedy(easy)
print("subgradient marks the visited cells:")
print(dtw_subgradient(easy, result))
