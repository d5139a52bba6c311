"""The nested proportional-odds probability model on toy embeddings.

Builds nested embeddings by hand, shows that the prefix cosine is the
running mean of per-level similarities, and walks the cumulative /
category probabilities and the losses they induce, on the batch paths
that training and scoring run (one row per user-item pair).
"""

import numpy as np

from gnolr import ModelConfig
from gnolr.losses import cumulative_from_dots, gnolr_batch
from gnolr.tensor import l2_normalize

rng = np.random.default_rng(7)
cfg = ModelConfig(2, (0.5, 2.0), gamma=3.0)

# Two levels, unit sub-embeddings per entity.  The level-2 prefix is the
# concatenation [e^1, e^2]; its cosine equals the mean of the sub-cosines.
user = l2_normalize(rng.normal(size=(2, 8)))
item = l2_normalize(rng.normal(size=(2, 8)))
dots = np.einsum("td,td->t", user, item)[None, :]
kernels = np.cumsum(dots[0]) / np.arange(1, 3)
print("prefix kernels:", [round(k, 4) for k in kernels.tolist()])

# Cumulative probabilities P(k <= c); the virtual null level pins 0.
cumulative = np.concatenate(([0.0], cumulative_from_dots(dots, cfg)[0], [1.0]))
for c, p in enumerate(cumulative):
    print(f"P(k <= {c}) = {p:.4f}")

probs = np.diff(cumulative).tolist()
print("category probabilities:", [round(p, 4) for p in probs], "sum:", sum(probs))

# The unified preference score ranks items across all feedback levels.
print("unified score P(k > 2):", round(1.0 - cumulative[2], 4))

# Losses: the nested subtask sum vs the plain single-term ordinal NLL,
# which scores every level with one shared kernel (one row per label).
labels = np.array([1, 2, 3])
nested, _ = gnolr_batch(labels, np.repeat(dots, 3, axis=0), cfg)
shared, _ = gnolr_batch(labels, np.full((3, 1), kernels[0]), cfg, prefix=False, nested=False)
for k, nested_k, shared_k in zip(labels, nested, shared):
    print(f"label k={k}: nested loss {nested_k:.4f} | shared-encoder loss {shared_k:.4f}")

# Raising the similarity at every level always helps a fully engaged pair.
better, _ = gnolr_batch(labels[2:], np.minimum(dots + 0.3, 1.0), cfg)
print("loss at k=3, kernels nudged up:", round(nested[2], 4), "->", round(better[0], 4))
