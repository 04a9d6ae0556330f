"""Difficulty scoring and label-reliability simulation for hierarchically
labeled tweets."""

from annodiff.config import RunConfig
from annodiff.dataset import Annotation, Dataset, Worker, load_dataset, majority_labels, parse_dataset
from annodiff.difficulty import (
    DifficultyScore,
    agreement_score,
    difficulty_scores,
    knn_label_certainty,
)
from annodiff.knn import hierarchical_f1
from annodiff.labels import LabelPath, label_set
from annodiff.simulation import (
    aggregate,
    build_strata,
    encode_outcome,
    run_config,
)
from annodiff.stats import fisher_exact_two_tailed, kmeans_1d
from annodiff.textsim import SimilarityMetric, nsim, tokenize

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "Dataset",
    "DifficultyScore",
    "LabelPath",
    "RunConfig",
    "SimilarityMetric",
    "Worker",
    "agreement_score",
    "aggregate",
    "build_strata",
    "difficulty_scores",
    "encode_outcome",
    "fisher_exact_two_tailed",
    "hierarchical_f1",
    "kmeans_1d",
    "knn_label_certainty",
    "label_set",
    "load_dataset",
    "majority_labels",
    "nsim",
    "parse_dataset",
    "run_config",
    "tokenize",
]
