"""Prompt rendering and tokenization for metadata records.

A prompt is a single sentence assembled from clauses, one clause per metadata
field group. Training dropout (`PromptBank`) removes whole clauses (never
the TE, TR or flip-angle ones) so the encoder learns to handle partially
described acquisitions; `render_prompt` never drops clauses.
Tokens are hashed into a fixed vocabulary; there is no trained tokenizer
state to ship.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .records import MetadataRecord, plane_for_record, runs

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
NEVER_DROPPED = frozenset({"te", "tr", "flip_angle"})
_HEAD_CLAUSES = frozenset({"scanner", "field"})


@dataclass(frozen=True)
class PromptConfig:
    dropout: float = 0.0
    include_series_description: bool = False


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


def one_decimal(value: float) -> float:
    """Field strength or flip angle as a label key holds it and a prompt quotes it."""
    return round(value, 1)


def flip_angle_decimal(deg: float) -> float:
    """`one_decimal` of a flip angle, but 359.9 from 359.95 up: 360 breaks the rule [0, 360)."""
    return min(one_decimal(deg), 359.9)


def prompt_pieces(record: MetadataRecord, config: PromptConfig) -> list[Piece]:
    """Clause fragments for a record, before dropout: every clause, the series
    description only when the config asks for it and the record has one."""
    pieces: list[Piece] = []
    for clause in CLAUSE_ORDER:
        if clause == "series_description" and (
                not config.include_series_description or record.series_description is None):
            continue
        if clause == "scanner":
            text = (
                f"acquired on a {record.manufacturer} {record.scanner_model}"
            )
        elif clause == "field":
            text = f"at {format_number(one_decimal(record.field_strength_tesla))} tesla"
        elif clause == "plane":
            text = f"{plane_for_record(record).word} plane"
        elif clause == "sequence":
            text = (
                f"sequence {record.sequence_type} "
                f"variant {record.sequence_variant}"
            )
        elif clause == "flip_angle":
            text = f"flip angle {format_number(flip_angle_decimal(record.flip_angle_deg))} degrees"
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


class TokenBatch(NamedTuple):
    """Token id sequences end to end: row i is the lengths[i] ids after sum(lengths[:i])."""

    flat: np.ndarray
    lengths: np.ndarray


class PromptBank:
    """Pre-tokenized clauses for whole-batch dropout sampling: each distinct
    clause text's ids, padded with -1, and a (records x clauses) id matrix
    whose column 0 is the head and column j clause CLAUSE_ORDER[j - 1]; a
    clause a record lacks is clause 0, which has no tokens. Tokenizing clause
    by clause and concatenating gives the same ids as tokenizing the sentence,
    because clause boundaries are never inside a token; tests assert that."""

    def __init__(self, records: Sequence[MetadataRecord], config: PromptConfig):
        self.config = config
        column = {clause: j for j, clause in enumerate(CLAUSE_ORDER, start=1)}
        clause_id, rows, lengths = {"MRI scan": 1}, [], []
        for record, length in runs(records):  # one row per run of a shared record
            lengths.append(length)
            rows.append([1] + [0] * len(CLAUSE_ORDER))
            for p in prompt_pieces(record, config):
                rows[-1][column[p.clause]] = clause_id.setdefault(p.text, len(clause_id) + 1)
        chunks = [[]] + [tokenize(text) for text in clause_id]
        longest = max(map(len, chunks))
        self._tokens = np.array([c + [-1] * (longest - len(c)) for c in chunks], dtype=np.int64)
        rows = np.array(rows, dtype=np.intp).reshape(len(lengths), len(column) + 1)
        self._clauses = np.repeat(rows, lengths, axis=0)
        can_drop = [False] + [clause not in NEVER_DROPPED for clause in CLAUSE_ORDER]
        self._droppable = (self._clauses != 0) & can_drop

    def tokens(self, rows, uniforms=None) -> TokenBatch:
        """The prompts of `rows` end to end. A clause is dropped when its value
        in `uniforms` (one per droppable clause, row by row in clause order) is
        below `config.dropout`; None keeps all. The caller controls the RNG."""
        clauses = self._clauses[rows]  # a copy: rows is a sequence
        if uniforms is not None:
            can = self._droppable[rows]
            clauses[can] = np.where(np.asarray(uniforms) < self.config.dropout, 0, clauses[can])
        ids = self._tokens[clauses]
        real = ids >= 0
        return TokenBatch(ids[real], real.sum(axis=(1, 2)))

    def tokens_with_dropout(self, index: int, uniforms) -> tuple[int, ...]:
        """One row of `tokens` with dropout drawn from `uniforms`."""
        return tuple(self.tokens([index], uniforms).flat.tolist())

    def n_droppable(self, rows) -> int:
        """Droppable clauses in a row or an array of rows: the uniforms they take."""
        return int(self._droppable[rows].sum())
