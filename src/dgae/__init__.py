"""Discrete graph auto-encoder with a transformer prior over
quantized node sets: featurization, training, sampling, evaluation.
"""

from .graphs import (Graph, DatasetSpec, build_dataset, gen_community_small,
                     load_dataset, new_graph, permute, save_dataset)
from .features import (augment, cycle_counts, path_features, random_features,
                       spectral_features)
from .prior import PriorParams
from .training import (AutoEncoderModel, ModelConfig, load_checkpoint,
                       save_checkpoint, train_autoencoder, train_prior)

__version__ = "0.1.0"

__all__ = [
    "Graph", "DatasetSpec", "build_dataset", "gen_community_small",
    "load_dataset", "new_graph", "permute", "save_dataset", "augment",
    "cycle_counts", "path_features", "random_features", "spectral_features",
    "AutoEncoderModel", "ModelConfig", "PriorParams", "load_checkpoint",
    "save_checkpoint", "train_autoencoder", "train_prior", "__version__",
]
