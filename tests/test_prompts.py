"""Prompt rendering and tokenization tests."""

import copy
import hashlib

import numpy as np

from mrcontrast import prompts
from mrcontrast.prompts import (
    NEVER_DROPPED,
    VOCAB_SIZE,
    Piece,
    PromptBank,
    PromptConfig,
    assemble,
    format_number,
    prompt_pieces,
    render_prompt,
    tokenize,
)
from mrcontrast.records import MetadataRecord


def full_record(**kw):
    base = dict(
        manufacturer="GE", scanner_model="SIGNA",
        series_description="T1 FLAIR", sequence_type="IR",
        sequence_variant="SK", field_strength_tesla=1.5,
        te_ms=20.0, tr_ms=3000.0, ti_ms=150.0, flip_angle_deg=90.0,
        voxel_spacing_mm=(1.0, 1.0, 5.0),
    )
    base.update(kw)
    return MetadataRecord("r", **base)


def reference_token(word: str) -> int:
    digest = hashlib.blake2b(word.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % VOCAB_SIZE


class TestFormatNumber:
    def test_integers_drop_trailing_zero(self):
        assert format_number(90.0) == "90"
        assert format_number(3000.0) == "3000"

    def test_fractions_keep_digits(self):
        assert format_number(1.5) == "1.5"
        assert format_number(93.7) == "93.7"


class TestRenderPrompt:
    def test_full_sentence_layout(self):
        text = render_prompt(full_record(), PromptConfig(dropout=0.0)).text
        assert text == (
            "MRI scan acquired on a GE SIGNA at 1.5 tesla, axial plane, "
            "sequence IR variant SK, flip angle 90 degrees, echo time 20 ms, "
            "repetition time 3000 ms, inversion time 150 ms."
        )

    def test_no_inversion_clause(self):
        record = full_record(ti_ms=None, sequence_type="SE")
        text = render_prompt(record, PromptConfig(dropout=0.0)).text
        assert "no inversion pulse" in text
        assert "inversion time" not in text

    def test_series_description_opt_in(self):
        config = PromptConfig(dropout=0.0, include_series_description=True)
        text = render_prompt(full_record(), config).text
        assert text.endswith("series description: T1 FLAIR.")
        assert "series description" not in render_prompt(
            full_record(), PromptConfig(dropout=0.0)
        ).text

    def test_plane_words(self):
        sag = full_record(voxel_spacing_mm=(6.0, 1.0, 1.0))
        assert "sagittal plane" in render_prompt(sag, PromptConfig(dropout=0.0)).text

    def test_dropout_zero_is_deterministic(self):
        config = PromptConfig(dropout=0.0)
        texts = {render_prompt(full_record(), config).text for _ in range(5)}
        assert len(texts) == 1

    def test_render_prompt_never_drops_clauses(self):
        full = render_prompt(full_record(), PromptConfig(dropout=0.0)).text
        for dropout in (0.5, 0.9, 1.0):
            config = PromptConfig(dropout=dropout)
            assert render_prompt(full_record(), config).text == full


class TestAssemble:
    def test_head_clauses_join_with_spaces(self):
        pieces = prompt_pieces(full_record(), PromptConfig(dropout=0.0))
        text = assemble(pieces)
        assert text.startswith("MRI scan acquired on a GE SIGNA at 1.5 tesla,")

    def test_assemble_without_head_clauses(self):
        pieces = [Piece("te", "echo time 5 ms")]
        assert assemble(pieces) == "MRI scan, echo time 5 ms."


class TestTokenize:
    def test_matches_reference_hash(self):
        for word in ("mri", "scan", "90", "1.5", "tesla", "sagittal"):
            assert tokenize(word) == [reference_token(word)]

    def test_splits_words_and_numbers(self):
        ids = tokenize("echo time 20 ms")
        assert ids == [reference_token(w) for w in ("echo", "time", "20", "ms")]

    def test_case_insensitive(self):
        assert tokenize("SIEMENS Avanto") == tokenize("siemens avanto")

    def test_decimal_is_one_token(self):
        assert len(tokenize("1.5")) == 1
        assert tokenize("1.5") != tokenize("15")

    def test_punctuation_is_invisible(self):
        assert tokenize("plane, sequence.") == tokenize("plane sequence")

    def test_ids_in_range(self):
        text = render_prompt(full_record(), PromptConfig(dropout=0.0)).text
        ids = tokenize(text)
        assert all(0 <= t < VOCAB_SIZE for t in ids)

    def test_distinct_numerals_get_distinct_token_streams(self):
        seen = {}
        for te in range(0, 200, 5):
            ids = tuple(tokenize(f"echo time {te} ms"))
            assert ids not in seen, f"collision {te} vs {seen.get(ids)}"
            seen[ids] = te


class TestPromptBank:
    def records(self):
        return [
            full_record(),
            full_record(te_ms=90.0, ti_ms=None, sequence_type="SE"),
            full_record(manufacturer="SIEMENS", scanner_model="AVANTO"),
        ]

    def test_shared_records_give_the_bank_of_copies(self):
        """Rows built once per run of a shared record equal rows built per copy,
        including a record whose runs are apart."""
        a, b, c = self.records()
        shared = [a] * 3 + [b] + [c] * 2 + [a] * 2 + [b]
        copies = [copy.copy(r) for r in shared]
        rng = np.random.default_rng(3)
        configs = PromptConfig(dropout=0.5), PromptConfig(dropout=0.5, include_series_description=True)
        for config in configs:
            banks = PromptBank(shared, config), PromptBank(copies, config)
            for name in ("_tokens", "_clauses", "_droppable"):
                want = getattr(banks[1], name)
                assert getattr(banks[0], name).dtype == want.dtype
                np.testing.assert_array_equal(getattr(banks[0], name), want)
            rows = rng.integers(len(shared), size=32)
            uniforms = rng.random(banks[1].n_droppable(rows))
            got, want = (bank.tokens(rows, uniforms) for bank in banks)
            np.testing.assert_array_equal(got.flat, want.flat)
            np.testing.assert_array_equal(got.lengths, want.lengths)

    def test_tokens_full_matches_rendered_sentence(self):
        config = PromptConfig(dropout=0.5)
        bank = PromptBank(self.records(), config)
        rendered = PromptConfig(
            dropout=0.0,
            include_series_description=config.include_series_description,
        )
        for i, record in enumerate(self.records()):
            want = tuple(tokenize(render_prompt(record, rendered).text))
            assert tuple(bank.tokens([i]).flat.tolist()) == want

    def test_each_distinct_clause_text_is_tokenized_once(self, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        records = self.records() * 3
        config = PromptConfig(dropout=0.5)
        monkeypatch.setattr(prompts, "tokenize", counting_tokenize)
        bank = PromptBank(records, config)
        monkeypatch.undo()
        distinct = {"MRI scan"} | {p.text for r in records for p in prompt_pieces(r, config)}
        assert sorted(calls) == sorted(distinct)
        for i, record in enumerate(records):
            want = tuple(tokenize(render_prompt(record, PromptConfig()).text))
            assert tuple(bank.tokens([i]).flat.tolist()) == want

    def test_dropout_uniforms_control_clauses(self):
        config = PromptConfig(dropout=0.5)
        bank = PromptBank(self.records(), config)
        n = bank.n_droppable(0)
        assert n > 0
        keep_all = bank.tokens_with_dropout(0, np.ones(n))
        assert keep_all == tuple(bank.tokens([0]).flat.tolist())
        drop_all = bank.tokens_with_dropout(0, np.zeros(n))
        assert len(drop_all) < len(keep_all)

    def test_dropped_tokens_are_a_subsequence(self):
        config = PromptConfig(dropout=0.5)
        bank = PromptBank(self.records(), config)
        rng = np.random.default_rng(0)
        full = tuple(bank.tokens([0]).flat.tolist())
        for _ in range(20):
            sub = bank.tokens_with_dropout(0, rng.uniform(size=bank.n_droppable(0)))
            it = iter(full)
            assert all(tok in it for tok in sub)

    def test_protected_clause_tokens_survive_full_dropout(self):
        config = PromptConfig(dropout=0.5)
        bank = PromptBank(self.records(), config)
        drop_all = bank.tokens_with_dropout(1, np.zeros(bank.n_droppable(1)))
        for word in ("echo", "repetition", "flip"):
            assert reference_token(word) in drop_all

    def test_dropout_never_removes_protected_clauses(self):
        assert NEVER_DROPPED == {"te", "tr", "flip_angle"}
        bank = PromptBank([full_record()], PromptConfig(dropout=0.9))
        protected = [
            tokenize(text)
            for text in ("flip angle 90 degrees", "echo time 20 ms", "repetition time 3000 ms")
        ]
        rng = np.random.default_rng(0)
        for _ in range(50):
            tokens = bank.tokens_with_dropout(0, rng.uniform(size=bank.n_droppable(0)))
            for clause in protected:
                assert all(t in tokens for t in clause)

    def test_dropout_eventually_removes_droppable_clauses(self):
        bank = PromptBank([full_record()], PromptConfig(dropout=0.9))
        rng = np.random.default_rng(0)
        draws = [
            bank.tokens_with_dropout(0, rng.uniform(size=bank.n_droppable(0)))
            for _ in range(30)
        ]
        for word in ("acquired", "tesla", "plane", "sequence", "inversion"):
            assert any(reference_token(word) not in tokens for tokens in draws)

    def test_batch_sampling_equals_the_per_row_loop(self):
        """One batch call equals, row by row, a loop that walks each record's
        clauses, takes one uniform per droppable clause and tokenizes what it
        keeps; rows repeat, and the prompts differ in clause count."""
        records = self.records() + [full_record(series_description=None, ti_ms=None)]
        rows = np.array([3, 0, 2, 0, 1, 3])
        configs = [PromptConfig(dropout=d) for d in (0.0, 0.5, 1.0)] + [
            PromptConfig(dropout=0.5, include_series_description=True),
        ]
        rng = np.random.default_rng(5)
        for config in configs:
            bank = PromptBank(records, config)
            uniforms = rng.random(bank.n_droppable(rows))
            want, lengths, u = [], [], iter(uniforms.tolist())
            for r in rows:
                kept = [tokenize("MRI scan")] + [
                    tokenize(p.text) for p in prompt_pieces(records[r], config)
                    if p.clause in NEVER_DROPPED or next(u) >= config.dropout
                ]
                want += [t for ids in kept for t in ids]
                lengths.append(sum(map(len, kept)))
            assert next(u, None) is None
            batch = bank.tokens(rows, uniforms)
            assert batch.flat.tolist() == want and batch.lengths.tolist() == lengths, config
            sizes = np.cumsum([0] + [bank.n_droppable(int(r)) for r in rows])
            per_row = [bank.tokens_with_dropout(int(r), uniforms[a:b])
                       for r, a, b in zip(rows, sizes, sizes[1:])]
            assert batch.flat.tolist() == [t for ids in per_row for t in ids], config
            full = bank.tokens(rows)
            assert full.flat.tolist() == [t for r in rows for t in bank.tokens([int(r)]).flat.tolist()]
            assert full.lengths.tolist() == [bank.tokens([int(r)]).flat.size for r in rows]
