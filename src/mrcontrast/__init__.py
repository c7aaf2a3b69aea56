"""Contrastive alignment of MRI acquisition metadata with image features.

The pipeline: parse DICOM metadata (or JSON manifests) into canonical
records, group them into contrast-aware labels by quantizing TE/TR/TI,
render text prompts, train a small dual encoder with a bidirectional
supervised contrastive loss, and evaluate retrieval at slice and scan level.
"""

from .errors import MrContrastError
from .labels import GridSpec, KMeansLabelConfig, LabelConfig, LabelSpace, build_label_space
from .loss import ContrastiveBatch, ShardPlan, sharded_loss, supcon_bidirectional
from .model import DualEncoder, ModelConfig
from .prompts import PromptConfig, render_prompt, tokenize
from .records import MetadataRecord, parse_manifest_line
from .synth import SynthConfig, default_protocols, generate_dataset
from .train import RunConfig, train_model

__version__ = "0.1.0"

__all__ = [
    "MrContrastError",
    "GridSpec",
    "LabelConfig",
    "KMeansLabelConfig",
    "LabelSpace",
    "build_label_space",
    "ContrastiveBatch",
    "ShardPlan",
    "sharded_loss",
    "supcon_bidirectional",
    "DualEncoder",
    "ModelConfig",
    "PromptConfig",
    "render_prompt",
    "tokenize",
    "MetadataRecord",
    "parse_manifest_line",
    "SynthConfig",
    "default_protocols",
    "generate_dataset",
    "RunConfig",
    "train_model",
    "__version__",
]
