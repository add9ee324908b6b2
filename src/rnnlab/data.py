"""Corpus ingestion: vocabulary construction at byte, character, or word
granularity, contiguous batching, and BPTT window iteration.

The token stream is never shuffled; batchify lays B consecutive substreams
side by side and windows walks them left to right, so carried states see
contiguous text."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import WindowBatch

UNK = "<unk>"
EOS = "<eos>"


@dataclass
class Vocab:
    mode: str  # byte | char | word
    symbols: list  # id -> symbol; 1-char strings for byte/char, tokens for word
    index: dict  # symbol -> id

    @property
    def size(self) -> int:
        return len(self.symbols)

    def save(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for symbol in self.symbols:
                fh.write(symbol.encode("unicode_escape").decode("ascii") + "\n")

    @classmethod
    def load(cls, path, mode: str) -> "Vocab":
        """The vocabulary that `save` wrote to `path`; a DataError, naming the
        file (and line), for a line that is not one escaped ASCII symbol or
        repeats one, and in word mode for a file without <unk> and <eos>."""
        # Bytes that are not ASCII come through as lone surrogates, which the
        # encode below refuses with the line they are on.
        with open(path, encoding="ascii", errors="surrogateescape") as fh:
            lines = fh.read().split("\n")[:-1]
        symbols, index = [], {}
        for number, line in enumerate(lines, 1):
            try:
                symbol = line.encode("ascii").decode("unicode_escape")
            except UnicodeError as err:
                raise DataError(
                    f"vocabulary file {path} line {number} is not one escaped ASCII symbol "
                    f"({err.reason})"
                ) from None
            if symbol in index:
                raise DataError(
                    f"vocabulary file {path} line {number} repeats line {index[symbol] + 1}"
                )
            index[symbol] = len(symbols)
            symbols.append(symbol)
        if mode == "word" and not {UNK, EOS} <= index.keys():
            raise DataError(f"vocabulary file {path} lacks {UNK} or {EOS}: not a word vocabulary")
        return cls(mode=mode, symbols=symbols, index=index)


class DataError(ValueError):
    """A split the run cannot use as it is."""


class UnknownSymbolError(DataError):
    """Text holds a byte or character that the vocabulary lacks."""


def build_vocab(text: str, mode: str) -> Vocab:
    if not text:
        raise DataError("cannot build a vocabulary from empty text")
    if mode == "byte":
        symbols = [chr(b) for b in sorted(set(text.encode("utf-8")))]
    elif mode == "char":
        symbols = sorted(set(text))
    elif mode == "word":
        seen = set()
        for line in text.split("\n"):
            seen.update(line.split())
        symbols = [UNK, EOS] + sorted(seen)
    else:
        raise ValueError(f"unknown vocab mode '{mode}' (expected byte, char, or word)")
    return Vocab(mode=mode, symbols=symbols, index={s: i for i, s in enumerate(symbols)})


def encode(vocab: Vocab, text: str) -> np.ndarray:
    """Token ids for a split. Word mode appends an end-of-sentence token per
    line and maps out-of-vocabulary tokens to the unknown symbol; byte and
    char modes reject symbols absent from the vocabulary."""
    index = vocab.index
    if vocab.mode == "byte":
        try:
            ids = [index[chr(b)] for b in text.encode("utf-8")]
        except KeyError as err:
            raise UnknownSymbolError(f"byte {err} not in vocabulary") from None
    elif vocab.mode == "char":
        try:
            ids = [index[ch] for ch in text]
        except KeyError as err:
            raise UnknownSymbolError(f"character {err} not in vocabulary") from None
    elif vocab.mode == "word":
        unk = index[UNK]
        eos = index[EOS]
        ids = []
        for line in text.split("\n"):
            ids.extend(index.get(token, unk) for token in line.split())
            ids.append(eos)
        ids = ids[:-1] if text.endswith("\n") else ids  # no extra sentence after final newline
    else:
        raise ValueError(f"unknown vocab mode '{vocab.mode}'")
    return np.asarray(ids, dtype=np.int64)


def decode(vocab: Vocab, ids) -> str:
    if vocab.mode == "word":
        parts = []
        for i in ids:
            symbol = vocab.symbols[int(i)]
            parts.append("\n" if symbol == EOS else symbol)
        out = []
        for k, part in enumerate(parts):
            if k > 0 and part != "\n" and parts[k - 1] != "\n":
                out.append(" ")
            out.append(part)
        return "".join(out)
    return "".join(vocab.symbols[int(i)] for i in ids)


def batchify(stream: np.ndarray, batch_size: int) -> np.ndarray:
    """Split one contiguous stream into batch_size parallel rows of
    consecutive tokens, dropping the remainder."""
    stream = np.asarray(stream)
    if stream.ndim != 1:
        raise ValueError(f"stream must be 1-D, got shape {stream.shape}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if stream.size < batch_size:
        raise ValueError(f"stream of {stream.size} tokens is shorter than batch {batch_size}")
    usable = (stream.size // batch_size) * batch_size
    return stream[:usable].reshape(batch_size, -1)


def count_windows(row_length: int, window: int) -> int:
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if row_length < 2:
        return 0
    return (row_length - 2) // window + 1


def windows(rows: np.ndarray, window: int):
    """Yield successive input/target windows; targets are inputs shifted by
    one, so the last usable input position is row_length - 2 and the final
    window may be shorter."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    length = rows.shape[1]
    for start in range(0, length - 1, window):
        end = min(start + window, length - 1)
        yield WindowBatch(
            inputs=rows[:, start:end], targets=rows[:, start + 1 : end + 1], states=None
        )


def load_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_splits(train_path, valid_path, test_path, mode: str, vocab=None):
    """Read the three split files, build (or reuse) the vocabulary from the
    training split, and encode every split. Returns (vocab, streams dict)."""
    texts = {
        "train": load_text(train_path),
        "valid": load_text(valid_path),
        "test": load_text(test_path),
    }
    if vocab is None:
        vocab = build_vocab(texts["train"], mode)
    paths = {"train": train_path, "valid": valid_path, "test": test_path}
    streams = {split: encode_split(vocab, texts[split], split, paths[split]) for split in texts}
    return vocab, streams


def encode_split(vocab: Vocab, text: str, split: str, path) -> np.ndarray:
    """encode(), with an unknown symbol reported against the split and its file."""
    try:
        return encode(vocab, text)
    except UnknownSymbolError as err:
        raise UnknownSymbolError(f"{split} split {path}: {err} of the training split") from None
