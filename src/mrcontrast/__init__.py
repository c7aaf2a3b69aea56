"""Contrastive alignment of MRI acquisition metadata with image features.

The pipeline: parse DICOM metadata (or JSON manifests) into canonical
records, group them into contrast-aware labels by quantizing TE/TR/TI,
render text prompts, train a small dual encoder with a bidirectional
supervised contrastive loss, and evaluate retrieval at slice and scan level.
"""

__version__ = "0.1.0"
