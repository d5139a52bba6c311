"""From raw multi-feedback flags to ordinal categories and thresholds.

Walks the label machinery end to end: order feedback types by how often
they fire, collapse each sample's bit pattern to a single engagement
level, and derive the ordinal cut points {a_c} directly from label
proportions instead of tuning them.
"""

import numpy as np

from gnolr import (
    FeedbackSchema,
    estimate_thresholds,
    thresholds_from_fractions,
)
from gnolr.feedback import map_to_ordinal_array
from gnolr.tensor import stable_sigmoid

# --- Step 1: sparsity ordering -------------------------------------------
# Clicks are plentiful, purchases are rare; rarity signals depth of intent.
schema = FeedbackSchema.from_counts(["pay", "click", "cart"], [13_100, 2_620_000, 180_000])
print("feedback ordered densest to sparsest:", schema.ordered_names())

# --- Step 2: one ordinal label per sample --------------------------------
# Bits arrive in sparsity order (click, cart, pay).  The deepest positive
# wins; a purchase without an add-to-cart still counts as the top level.
patterns = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 0, 1]]
for bits, k in zip(patterns, map_to_ordinal_array(np.array(patterns))):
    print(f"bits {bits} -> category k={k}")

# Each training subtask t only distinguishes levels up to t+1, min(k, t+1):
print("subtask views of k=4:", np.minimum(4, np.arange(1, 4) + 1).tolist())

# --- Step 3: thresholds from the data ------------------------------------
# a_c is the logit of the share of samples that do NOT pass level c.  With
# e-commerce-scale imbalance the cut points spread out automatically.
fractions = [2_620_000 / 69_100_000, 13_100 / 69_100_000]
thresholds = thresholds_from_fractions(fractions)
for c, a in enumerate(thresholds.values, start=1):
    print(f"a_{c} = {a:.4f}  (recovers exceedance fraction {stable_sigmoid(-a):.6f})")

# The same estimate from observed labels:
rng = np.random.default_rng(0)
labels = rng.choice([1, 2, 3], p=[0.90, 0.08, 0.02], size=50_000)
print("estimated from labels:", [round(v, 4) for v in estimate_thresholds(labels, 2).values])
