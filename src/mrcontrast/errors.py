"""Typed errors raised across the pipeline.

Every failure mode that callers are expected to branch on gets its own class;
the CLI maps these onto exit codes (data errors -> 2, numerical errors -> 3).
"""


class MrContrastError(Exception):
    """Base class for all pipeline errors."""


class DataError(MrContrastError):
    """Malformed or unusable input data."""


class NumericalError(MrContrastError):
    """A numerical contract was violated (divergence, non-finite values)."""


# --- ingest -----------------------------------------------------------------

class MissingMagic(DataError):
    """File lacks the 128-byte preamble + 'DICM' magic."""


class TruncatedElement(DataError):
    """File ended inside an element header or value field."""


class UnsupportedTransferSyntax(DataError):
    """Declared transfer syntax is not explicit-VR little endian."""


class MissingRequiredTag(DataError):
    def __init__(self, tag: str):
        super().__init__(f"required tag missing: {tag}")
        self.tag = tag


class MalformedNumeric(DataError):
    """A decimal-string value failed to parse or is out of domain."""


class MalformedJson(DataError):
    """A manifest line is not valid JSON or lacks required fields."""


class NonPositiveSpacing(DataError):
    """Voxel spacing must be strictly positive on all axes."""


# --- label space ------------------------------------------------------------

class EmptyDataset(DataError):
    """A dataset without lines, or no records to build a label space from."""


class TooFewDistinctPoints(DataError):
    """Fewer distinct feature points than requested clusters."""


class IncompatibleRanges(DataError):
    """Grid specs cover different value ranges; bins cannot be mapped."""


class NonFiniteInput(NumericalError):
    """Input array contains NaN or infinity."""


# --- prompts ----------------------------------------------------------------

class TokenIdOutOfRange(DataError):
    """Token id outside [0, VOCAB_SIZE)."""


# --- encoder / loss ---------------------------------------------------------

class ShapeMismatch(DataError):
    """Array shapes disagree with the declared model dimensions."""


class EmptyBatch(DataError):
    """Batch has no pairs."""


class NonUnitEmbedding(NumericalError):
    """An embedding's L2 norm deviates from 1 by more than the tolerance."""


class NonPositiveTemperature(NumericalError):
    """Temperature must be strictly positive."""


class InvalidPlan(DataError):
    """Shard plan ranges overlap or leave anchors uncovered."""


class NonFiniteGradient(NumericalError):
    """Backward produced NaN or infinite gradients (divergence)."""


# --- synthesis --------------------------------------------------------------

class EmptyProtocolList(DataError):
    """Protocol list must contain at least one entry."""


class MalformedFeatures(DataError):
    """A dataset line's features are missing, not a list of numbers, or
    differ in length from the first line's."""


# --- evaluation -------------------------------------------------------------

class EmptyGallery(DataError):
    """Gallery has no labels."""


class EmptyImageSet(DataError):
    """No image embeddings to rank."""


class SingleClassTrainingSet(DataError):
    """Linear probe needs at least two classes."""


class LabelDecodeFailure(DataError):
    """A label id is absent from the label space."""


# --- checkpoints ------------------------------------------------------------

class BadCheckpoint(DataError):
    """Checkpoint blob is corrupt or from an unknown version."""
