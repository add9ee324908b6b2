import math
import os

import pytest

from rnnlab import corpus
from rnnlab.data import build_vocab, encode
from rnnlab.numerics import Rng

LEDGER_MARKERS = (
    "Entry ", "Receipt ", "Bin ", "Invoice ", "Stocktake ", "Transfer ",
    "Adjustment ", "Quote ",
)


class TestDeterminism:
    def test_same_seed_same_text(self):
        assert corpus.chronicle_text(Rng(5), 4000) == corpus.chronicle_text(Rng(5), 4000)
        assert corpus.ledger_text(Rng(5), 4000) == corpus.ledger_text(Rng(5), 4000)

    def test_different_seed_different_text(self):
        assert corpus.chronicle_text(Rng(5), 2000) != corpus.chronicle_text(Rng(6), 2000)


class TestByteInventory:
    def test_uniform_baseline_exceeds_six_bits(self):
        text = corpus.chronicle_text(Rng(1), 200_000)
        vocab = build_vocab(text, "byte")
        assert vocab.size >= 64
        assert math.log2(vocab.size) >= 6.0

    def test_ledger_bytes_subset_of_chronicle(self):
        # Evaluation streams mix in ledger text; a vocabulary built from
        # chronicle training text must cover every ledger byte.
        chron = set(corpus.chronicle_text(Rng(2), 300_000))
        ledge = set(corpus.ledger_text(Rng(3), 100_000))
        assert ledge <= chron

    def test_ascii_only(self):
        text = corpus.chronicle_text(Rng(4), 50_000) + corpus.ledger_text(Rng(4), 50_000)
        assert all(ord(ch) < 128 for ch in set(text))

    def test_chronicle_vocab_encodes_two_domain_stream(self):
        vocab = build_vocab(corpus.chronicle_text(Rng(5), 300_000), "byte")
        stream = corpus.two_domain_text(Rng(6), 5_000, 5_000)
        ids = encode(vocab, stream)
        assert ids.size == len(stream)


class TestSizing:
    def test_requested_bytes_roughly_met(self):
        for target in (1_000, 10_000):
            text = corpus.chronicle_text(Rng(7), target)
            assert target <= len(text) <= target + 300


class TestTwoDomain:
    def test_concatenation_structure(self):
        combined = corpus.two_domain_text(Rng(8), 3_000, 2_000)
        rng = Rng(8)
        first = corpus.chronicle_text(rng, 3_000)
        second = corpus.ledger_text(rng, 2_000)
        assert combined == first + second

    def test_abrupt_shift_visible(self):
        combined = corpus.two_domain_text(Rng(9), 5_000, 5_000)
        head = combined[:4_000]
        tail = combined[-4_000:]
        assert not any(m in head for m in LEDGER_MARKERS)
        assert any(m in tail for m in LEDGER_MARKERS)


class TestWriteSplits:
    def test_three_files_with_fractions(self, tmp_path):
        paths = corpus.write_splits(tmp_path, total_bytes=40_000, seed=10)
        assert set(paths) == {"train", "valid", "test"}
        sizes = {k: os.path.getsize(v) for k, v in paths.items()}
        assert 2_000 <= sizes["valid"] <= 2_300
        assert 2_000 <= sizes["test"] <= 2_300
        assert sizes["train"] >= 36_000

    def test_single_domain_by_default(self, tmp_path):
        paths = corpus.write_splits(tmp_path, total_bytes=30_000, seed=11)
        for path in paths.values():
            text = open(path).read()
            assert not any(m in text for m in LEDGER_MARKERS)

    def test_two_domain_eval_splits(self, tmp_path):
        paths = corpus.write_splits(tmp_path, total_bytes=30_000, seed=12, eval_two_domain=True)
        train_text = open(paths["train"]).read()
        assert not any(m in train_text for m in LEDGER_MARKERS)
        for split in ("valid", "test"):
            text = open(paths[split]).read()
            assert any(m in text for m in LEDGER_MARKERS)

    def test_deterministic_files(self, tmp_path):
        a = corpus.write_splits(tmp_path / "a", total_bytes=20_000, seed=13)
        b = corpus.write_splits(tmp_path / "b", total_bytes=20_000, seed=13)
        for split in ("train", "valid", "test"):
            assert open(a[split]).read() == open(b[split]).read()


class TestMain:
    def test_script_entry(self, tmp_path, capsys):
        code = corpus.main(["--out", str(tmp_path / "c"), "--bytes", "5000", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "train:" in out and "valid:" in out and "test:" in out
        assert os.path.exists(tmp_path / "c" / "train.txt")

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--bytes", "-5"], ["--bytes", "15"]],
        ids=["negative-seed", "negative-size", "empty-splits"],
    )
    def test_bad_size_or_seed_is_a_usage_error(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "c"
        assert corpus.main(["--out", str(out_dir), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        assert not out_dir.exists()

    def test_file_where_the_directory_belongs_is_a_file_error(self, tmp_path, capsys):
        out = tmp_path / "c"
        out.write_text("not a directory")
        assert corpus.main(["--out", str(out), "--bytes", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("file error: ")
        assert out.read_text() == "not a directory"
