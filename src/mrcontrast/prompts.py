"""Prompt rendering and tokenization for metadata records.

A prompt is a single sentence assembled from clauses, one clause per metadata
field group. Training dropout (`PromptBank`) removes whole clauses (never
the TE, TR or flip-angle ones) so the encoder learns to handle partially
described acquisitions; `render_prompt` never drops clauses.
Tokens are hashed into a fixed vocabulary; there is no trained tokenizer
state to ship.
"""
from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .records import MetadataRecord, plane_for_record

VOCAB_SIZE = 8192

# clause identifiers, in sentence order
CLAUSE_ORDER = (
    "scanner",
    "field",
    "plane",
    "sequence",
    "flip_angle",
    "te",
    "tr",
    "ti",
    "series_description",
)
NUMERICAL_CLAUSES = frozenset({"flip_angle", "te", "tr", "ti"})
NEVER_DROPPED = frozenset({"te", "tr", "flip_angle"})
_HEAD_CLAUSES = frozenset({"scanner", "field"})


@dataclass(frozen=True)
class PromptConfig:
    dropout: float = 0.0
    include_series_description: bool = False
    numerical_only: bool = False
    restrict_clauses: Optional[frozenset[str]] = None


@dataclass(frozen=True)
class Prompt:
    text: str


def format_number(value: float) -> str:
    """Shortest faithful rendering; integral floats lose the trailing .0"""
    value = float(value)
    if value == int(value):
        return str(int(value))
    return repr(value)


@dataclass(frozen=True)
class Piece:
    clause: str
    text: str


def prompt_pieces(record: MetadataRecord, config: PromptConfig) -> list[Piece]:
    """Clause fragments for a record, before dropout."""
    wanted = set(CLAUSE_ORDER)
    if config.numerical_only:
        wanted &= NUMERICAL_CLAUSES
    if config.restrict_clauses is not None:
        wanted &= set(config.restrict_clauses)
    if not config.include_series_description or record.series_description is None:
        wanted.discard("series_description")

    pieces: list[Piece] = []
    for clause in CLAUSE_ORDER:
        if clause not in wanted:
            continue
        if clause == "scanner":
            text = (
                f"acquired on a {record.manufacturer} {record.scanner_model}"
            )
        elif clause == "field":
            text = f"at {format_number(record.field_strength_tesla)} tesla"
        elif clause == "plane":
            text = f"{plane_for_record(record).word} plane"
        elif clause == "sequence":
            text = (
                f"sequence {record.sequence_type} "
                f"variant {record.sequence_variant}"
            )
        elif clause == "flip_angle":
            text = f"flip angle {format_number(record.flip_angle_deg)} degrees"
        elif clause == "te":
            text = f"echo time {format_number(record.te_ms)} ms"
        elif clause == "tr":
            text = f"repetition time {format_number(record.tr_ms)} ms"
        elif clause == "ti":
            if record.ti_ms is None:
                text = "no inversion pulse"
            else:
                text = f"inversion time {format_number(record.ti_ms)} ms"
        else:  # series_description
            text = f"series description: {record.series_description}"
        pieces.append(Piece(clause, text))
    return pieces


def assemble(pieces: Sequence[Piece]) -> str:
    """Join kept clause fragments into the prompt sentence."""
    head = "MRI scan"
    segments: list[str] = []
    for p in pieces:
        if p.clause in _HEAD_CLAUSES:
            head += " " + p.text
        else:
            segments.append(p.text)
    if segments:
        return head + ", " + ", ".join(segments) + "."
    return head + "."


def render_prompt(record: MetadataRecord, config: PromptConfig) -> Prompt:
    """Render every clause the config selects; ``config.dropout`` is not
    applied here (training draws dropout through `PromptBank`)."""
    return Prompt(text=assemble(prompt_pieces(record, config)))


_TOKEN_RE = re.compile(r"[a-z]+|[0-9]+(?:\.[0-9]+)?")


def _hash_token(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % VOCAB_SIZE


def tokenize(text: str) -> list[int]:
    """Lowercase, split on whitespace/punctuation (numbers detach from
    units, decimals stay whole), then hash each token into [0, VOCAB_SIZE).

    The hash is a fixed 64-bit digest, so ids are stable across platforms
    and interpreter runs.
    """
    return [_hash_token(token) for token in _TOKEN_RE.findall(text.lower())]


class PromptBank:
    """Pre-tokenized clause cache for fast per-epoch dropout sampling.

    Tokenizing clause by clause and concatenating gives the same ids as
    tokenizing the assembled sentence, because clause boundaries are always
    non-token separators; tests assert that equivalence. A dataset has few
    distinct clause texts, so each is tokenized once.
    """

    def __init__(self, records: Sequence[MetadataRecord], config: PromptConfig):
        self.config = config
        self._entries: list[tuple[list[tuple[int, ...]], list[bool]]] = []
        clause_ids = functools.cache(lambda text: tuple(tokenize(text)))
        head_ids = clause_ids("MRI scan")
        for record in records:
            pieces = prompt_pieces(record, config)
            ids = [head_ids] + [clause_ids(p.text) for p in pieces]
            droppable = [False] + [
                p.clause not in NEVER_DROPPED for p in pieces
            ]
            self._entries.append((ids, droppable))

    def tokens_full(self, index: int) -> tuple[int, ...]:
        ids, _ = self._entries[index]
        return tuple(t for chunk in ids for t in chunk)

    def tokens_with_dropout(self, index: int, uniforms) -> tuple[int, ...]:
        """Apply clause dropout using pre-drawn uniforms (one per droppable
        clause, in clause order). Caller controls the RNG stream."""
        ids, droppable = self._entries[index]
        out: list[int] = []
        u_idx = 0
        for chunk, can_drop in zip(ids, droppable):
            if can_drop:
                drop = uniforms[u_idx] < self.config.dropout
                u_idx += 1
                if drop:
                    continue
            out.extend(chunk)
        return tuple(out)

    def n_droppable(self, index: int) -> int:
        return sum(self._entries[index][1])
