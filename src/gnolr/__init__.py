"""Multi-feedback collaborative filtering in one unified ordinal embedding space.

Implicit feedback signals are mapped to ordered engagement categories,
nested twin-tower encoders are trained under a proportional-odds loss with
per-level subtasks, and the resulting single embedding space serves exact
top-K retrieval for every feedback target at once.
"""

from .data import (
    DataConfig,
    DatasetBundle,
    apply_bins,
    binarize_ratings,
    build_bundle,
    build_lists,
    fit_bins,
    load_bundle,
    save_bundle,
)
from .encoders import (
    EmbeddingTableSet,
    Tower,
    TowerSide,
    read_embeddings,
    write_embeddings,
)
from .errors import GnolrError
from .feedback import (
    FeedbackSchema,
    ThresholdSet,
    estimate_thresholds,
    order_feedback,
    thresholds_from_fractions,
)
from .metrics import (
    RetrievalIndex,
    angle_histogram,
    auc,
    gauc,
    topk_retrieve,
    topk_retrieve_batch,
)
from .models import Batch, ModelConfig, make_model
from .tensor import (
    AdamConfig,
    Parameter,
    adam_step,
    l2_normalize,
    leaky_relu,
    stable_sigmoid,
)
from .training import (
    Checkpoint,
    TrainConfig,
    evaluate,
    load_checkpoint,
    make_batches,
    multi_run,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
