import numpy as np
import pytest

from rnnlab import data
from rnnlab.data import (
    EOS,
    UNK,
    Vocab,
    batchify,
    build_vocab,
    count_windows,
    decode,
    encode,
    load_splits,
    windows,
)


class TestVocab:
    def test_byte_mode_sorted_unique(self):
        vocab = build_vocab("abba", "byte")
        assert vocab.size == 2
        assert vocab.symbols == ["a", "b"]
        assert vocab.index == {"a": 0, "b": 1}

    def test_byte_mode_ascii_ceiling(self):
        text = "".join(chr(k) for k in range(32, 127))
        vocab = build_vocab(text, "byte")
        assert vocab.size == 95
        assert vocab.size <= 128

    def test_char_mode(self):
        vocab = build_vocab("hello\n", "char")
        assert vocab.symbols == sorted(set("hello\n"))

    def test_word_mode_reserves_special_tokens(self):
        vocab = build_vocab("the cat\nthe dog\n", "word")
        assert vocab.symbols[0] == UNK
        assert vocab.symbols[1] == EOS
        assert set(vocab.symbols[2:]) == {"the", "cat", "dog"}
        assert vocab.size == 5

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            build_vocab("", "byte")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown vocab mode"):
            build_vocab("abc", "subword")


class TestEncodeDecode:
    def test_byte_round_trip(self):
        text = "the quick brown fox\njumps over 12 lazy dogs."
        vocab = build_vocab(text, "byte")
        ids = encode(vocab, text)
        assert decode(vocab, ids) == text

    def test_char_round_trip(self):
        text = "abc abc cba\n"
        vocab = build_vocab(text, "char")
        assert decode(vocab, encode(vocab, text)) == text

    def test_byte_unknown_symbol_rejected(self):
        vocab = build_vocab("abc", "byte")
        with pytest.raises(ValueError, match="not in vocabulary"):
            encode(vocab, "abcz")

    def test_char_unknown_symbol_rejected(self):
        vocab = build_vocab("abc", "char")
        with pytest.raises(ValueError, match="not in vocabulary"):
            encode(vocab, "d")

    def test_word_mode_eos_per_line(self):
        vocab = build_vocab("a b\nc\n", "word")
        ids = encode(vocab, "a b\nc\n")
        symbols = [vocab.symbols[i] for i in ids]
        assert symbols == ["a", "b", EOS, "c", EOS]

    def test_word_mode_oov_maps_to_unk(self):
        vocab = build_vocab("a b\n", "word")
        ids = encode(vocab, "a zebra\n")
        symbols = [vocab.symbols[i] for i in ids]
        assert symbols == ["a", UNK, EOS]

    def test_word_mode_without_trailing_newline(self):
        vocab = build_vocab("a b\n", "word")
        ids = encode(vocab, "a b")
        symbols = [vocab.symbols[i] for i in ids]
        assert symbols == ["a", "b", EOS]

    def test_word_decode_restores_line_structure(self):
        text = "the cat sat\nthe dog ran\n"
        vocab = build_vocab(text, "word")
        assert decode(vocab, encode(vocab, text)) == text

    def test_ids_are_int64(self):
        vocab = build_vocab("ab", "byte")
        assert encode(vocab, "ab").dtype == np.int64


NOT_ONE_SYMBOL = "is not one escaped ASCII symbol"


class TestVocabFile:
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"a\nb\xe9\nc\n", f"line 2 {NOT_ONE_SYMBOL} (ordinal not in range(128))"),
            (b"a\nb\\\n", f"line 2 {NOT_ONE_SYMBOL} (\\ at end of string)"),
            (b"a\nb\na\n", "line 3 repeats line 1"),
            (b"a\n\\x61\n", "line 2 repeats line 1"),
        ],
    )
    def test_corrupt_file_is_a_data_error(self, tmp_path, content, message):
        path = tmp_path / "vocab.txt"
        path.write_bytes(content)
        with pytest.raises(data.DataError) as raised:
            Vocab.load(path, "byte")
        assert str(raised.value) == f"vocabulary file {path} {message}"

    def test_round_trip_with_escapes(self, tmp_path):
        text = "tab\there\nnew line\n"
        vocab = build_vocab(text, "char")
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path, "char")
        assert loaded.symbols == vocab.symbols
        assert loaded.index == vocab.index
        # Newline and tab are stored escaped, one symbol per line.
        raw = path.read_text().split("\n")
        assert "\\n" in raw and "\\t" in raw

    def test_reuse_keeps_ids_stable(self, tmp_path):
        vocab = build_vocab("the cat\n", "word")
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path, "word")
        ids_original = encode(vocab, "the cat\n")
        ids_loaded = encode(loaded, "the cat\n")
        assert np.array_equal(ids_original, ids_loaded)


class TestBatchify:
    def test_contiguous_rows(self):
        rows = batchify(np.arange(10), 2)
        assert rows.shape == (2, 5)
        assert np.array_equal(rows[0], [0, 1, 2, 3, 4])
        assert np.array_equal(rows[1], [5, 6, 7, 8, 9])

    def test_remainder_dropped(self):
        rows = batchify(np.arange(11), 4)
        assert rows.shape == (4, 2)
        assert np.array_equal(rows.ravel(), np.arange(8))

    def test_batch_one_is_whole_stream(self):
        stream = np.arange(7)
        rows = batchify(stream, 1)
        assert np.array_equal(rows[0], stream)

    def test_errors(self):
        with pytest.raises(ValueError):
            batchify(np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            batchify(np.arange(4), 0)
        with pytest.raises(ValueError):
            batchify(np.arange(3), 4)


class TestWindows:
    def test_targets_are_inputs_shifted_by_one(self):
        rows = np.arange(20).reshape(2, 10)
        for batch in windows(rows, 4):
            assert np.array_equal(batch.targets, batch.inputs + 1)
            assert batch.states is None

    def test_row_length_seven_window_three(self):
        # Six usable input positions (the last token is target-only): two
        # full windows, nothing left over.
        rows = np.arange(7)[None, :]
        sizes = [b.inputs.shape[1] for b in windows(rows, 3)]
        assert sizes == [3, 3]
        assert count_windows(7, 3) == 2

    def test_row_length_eight_window_three(self):
        # Seven usable positions: two full windows plus a short tail.
        rows = np.arange(8)[None, :]
        sizes = [b.inputs.shape[1] for b in windows(rows, 3)]
        assert sizes == [3, 3, 1]
        assert count_windows(8, 3) == 3

    def test_window_larger_than_row(self):
        rows = np.arange(5)[None, :]
        batches = list(windows(rows, 100))
        assert len(batches) == 1
        assert np.array_equal(batches[0].inputs[0], [0, 1, 2, 3])
        assert np.array_equal(batches[0].targets[0], [1, 2, 3, 4])

    def test_every_position_covered_exactly_once(self):
        rows = np.arange(2 * 23).reshape(2, 23)
        seen_inputs = np.concatenate([b.inputs for b in windows(rows, 5)], axis=1)
        seen_targets = np.concatenate([b.targets for b in windows(rows, 5)], axis=1)
        assert np.array_equal(seen_inputs, rows[:, :-1])
        assert np.array_equal(seen_targets, rows[:, 1:])

    def test_count_matches_iteration(self):
        for length in range(2, 30):
            for window in (1, 3, 7, 64):
                rows = np.zeros((1, length))
                assert count_windows(length, window) == len(list(windows(rows, window)))

    def test_count_of_degenerate_rows(self):
        assert count_windows(0, 4) == 0
        assert count_windows(1, 4) == 0
        assert count_windows(2, 4) == 1

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            count_windows(10, 0)
        with pytest.raises(ValueError):
            list(windows(np.zeros((1, 10)), 0))


class TestLoadSplits:
    def test_vocab_from_train_applied_everywhere(self, tmp_path):
        (tmp_path / "train.txt").write_text("aabbcc abc\n")
        (tmp_path / "valid.txt").write_text("cab\n")
        (tmp_path / "test.txt").write_text("bac\n")
        vocab, streams = load_splits(
            tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt", "byte"
        )
        assert set(streams) == {"train", "valid", "test"}
        assert decode(vocab, streams["valid"]) == "cab\n"
        assert streams["train"].dtype == np.int64

    def test_valid_symbol_missing_from_train_fails_closed(self, tmp_path):
        (tmp_path / "train.txt").write_text("aaa\n")
        (tmp_path / "valid.txt").write_text("b\n")
        (tmp_path / "test.txt").write_text("a\n")
        with pytest.raises(ValueError, match="not in vocabulary"):
            load_splits(
                tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt", "byte"
            )

    def test_explicit_vocab_reused(self, tmp_path):
        (tmp_path / "train.txt").write_text("ab\n")
        (tmp_path / "valid.txt").write_text("ba\n")
        (tmp_path / "test.txt").write_text("ab\n")
        big = build_vocab("abcdef\n", "byte")
        vocab, streams = load_splits(
            tmp_path / "train.txt",
            tmp_path / "valid.txt",
            tmp_path / "test.txt",
            "byte",
            vocab=big,
        )
        assert vocab is big
        assert vocab.size == 7
