"""The nested proportional-odds probability model on toy embeddings.

Builds nested embeddings by hand, shows that the prefix cosine is the
running mean of per-level similarities, and walks the cumulative /
category probabilities and the losses they induce.
"""

import numpy as np

from gnolr import (
    GnolrHyper,
    NestedEmbedding,
    ThresholdSet,
    category_distribution,
    cumulative_prob,
    gnolr_total_loss,
    nested_kernel,
    task_score,
)
from gnolr.losses import gnolr_batch
from gnolr.tensor import l2_normalize

rng = np.random.default_rng(7)
hyper = GnolrHyper(ThresholdSet((0.5, 2.0)), gamma=3.0)

# Two levels, unit sub-embeddings per entity.  The level-2 prefix is the
# concatenation [e^1, e^2]; its cosine equals the mean of the sub-cosines.
user = NestedEmbedding(tuple(l2_normalize(rng.normal(size=8)) for _ in range(2)))
item = NestedEmbedding(tuple(l2_normalize(rng.normal(size=8)) for _ in range(2)))
kernels = [nested_kernel(user, item, c) for c in (1, 2)]
print("prefix kernels:", [round(k, 4) for k in kernels])

# Cumulative probabilities P(k <= c); the virtual null level pins 0.
for c in range(0, 4):
    k_c = kernels[c - 1] if 1 <= c <= 2 else 0.0
    print(f"P(k <= {c}) = {cumulative_prob(c, k_c, hyper):.4f}")

dist = category_distribution(kernels, hyper)
print("category probabilities:", [round(p, 4) for p in dist.probs], "sum:", sum(dist.probs))

# The unified preference score ranks items across all feedback levels.
print("unified score P(k > 2):", round(task_score(2, kernels, hyper), 4))

# Losses: the nested subtask sum vs the plain single-term ordinal NLL,
# which scores every level with one shared kernel (batched: one row per label).
labels = np.array([1, 2, 3])
shared, _ = gnolr_batch(labels, np.full((3, 1), kernels[0]), hyper, prefix=False, nested=False)
for k, shared_k in zip(labels, shared):
    nested = gnolr_total_loss(int(k), kernels, hyper)
    print(f"label k={k}: nested loss {nested:.4f} | shared-encoder loss {shared_k:.4f}")

# Raising the similarity at every level always helps a fully engaged pair.
better = [min(k + 0.3, 1.0) for k in kernels]
print(
    "loss at k=3, kernels nudged up:",
    round(gnolr_total_loss(3, kernels, hyper), 4),
    "->",
    round(gnolr_total_loss(3, better, hyper), 4),
)
