"""Difficulty scoring and label-reliability simulation for hierarchically
labeled tweets."""

from annodiff.config import RunConfig
from annodiff.dataset import Annotation, Dataset, Worker, load_dataset, parse_dataset
from annodiff.difficulty import (
    DifficultyScore,
    agreement_score,
    difficulty_scores,
    knn_label_certainty,
    majority_labels,
)
from annodiff.knn import hierarchical_f1
from annodiff.labels import label_path, label_set
from annodiff.simulation import (
    aggregate,
    encode_outcome,
    phase_windows,
)
from annodiff.stats import fisher_exact_two_tailed, kmeans_1d
from annodiff.textsim import nsim, tokenize

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "Dataset",
    "DifficultyScore",
    "RunConfig",
    "Worker",
    "agreement_score",
    "aggregate",
    "difficulty_scores",
    "encode_outcome",
    "fisher_exact_two_tailed",
    "hierarchical_f1",
    "kmeans_1d",
    "knn_label_certainty",
    "label_path",
    "label_set",
    "load_dataset",
    "majority_labels",
    "nsim",
    "parse_dataset",
    "phase_windows",
    "tokenize",
]
