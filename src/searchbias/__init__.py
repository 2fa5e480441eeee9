"""Toolkit for measuring and mitigating gender bias in embedding-based image search."""

__version__ = "0.1.0"

from .core import (
    DataError,
    Dataset,
    EmbeddingTable,
    GenderLabel,
    gender_codes,
    load_captions,
    load_embeddings,
    load_labels,
    load_truth,
    save_captions,
    save_embeddings,
    save_labels,
    save_truth,
    synth_dataset,
)
from .retrieval import RankedTable, retrieve_all
from .metrics import (
    BiasReport,
    MetricCurve,
    OccupationBiasReport,
    RecallReport,
    UndefinedBiasError,
    bias_at_k,
    metric_curve,
    occupation_bias_report,
    recall_at_k,
)
from .clipper import ClipPlan, apply_clip, estimate_mi, fit_clip_plan
from .gender_text import GenderLexicon, caption_hits, image_gender, neutralize
from .trainer import (
    LinearEncoders,
    TrainerConfig,
    TripletBatch,
    objective,
    train,
    train_alphas,
)

__all__ = [
    "BiasReport",
    "ClipPlan",
    "DataError",
    "Dataset",
    "EmbeddingTable",
    "GenderLabel",
    "GenderLexicon",
    "LinearEncoders",
    "MetricCurve",
    "OccupationBiasReport",
    "RankedTable",
    "RecallReport",
    "TrainerConfig",
    "TripletBatch",
    "UndefinedBiasError",
    "apply_clip",
    "bias_at_k",
    "caption_hits",
    "estimate_mi",
    "fit_clip_plan",
    "gender_codes",
    "image_gender",
    "load_captions",
    "load_embeddings",
    "load_labels",
    "load_truth",
    "metric_curve",
    "neutralize",
    "objective",
    "occupation_bias_report",
    "recall_at_k",
    "retrieve_all",
    "save_captions",
    "save_embeddings",
    "save_labels",
    "save_truth",
    "synth_dataset",
    "train",
    "train_alphas",
]
