"""Discrete graph auto-encoder with a transformer prior over
quantized node sets: featurization, training, sampling, evaluation.
"""

from .graphs import (Graph, DatasetSpec, build_dataset, gen_community_small,
                     load_dataset, new_graph, permute, save_dataset)
from .features import (FeatureConfig, augment, cycle_counts, path_features,
                       random_features, spectral_features)
from .training import (AutoEncoderModel, ModelConfig, PriorModel,
                       load_checkpoint, save_checkpoint, train_autoencoder,
                       train_prior)

__version__ = "0.1.0"

__all__ = [
    "Graph", "DatasetSpec", "build_dataset", "gen_community_small",
    "load_dataset", "new_graph", "permute", "save_dataset", "FeatureConfig",
    "augment", "cycle_counts", "path_features", "random_features",
    "spectral_features",
    "AutoEncoderModel", "ModelConfig", "PriorModel", "load_checkpoint",
    "save_checkpoint", "train_autoencoder", "train_prior", "__version__",
]
