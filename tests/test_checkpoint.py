import json
import pathlib
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnlab import checkpoint as ckpt_mod
from rnnlab import model
from rnnlab.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from rnnlab.model import ModelConfig
from rnnlab.numerics import Rng
from rnnlab.ptree import flatten, named_arrays
from rnnlab.training import RAdamState, Tail, TtaState, copy_checkpoint


def make_checkpoint(seed=600, **config_overrides):
    base = dict(layers=2, state_size=6, vocab_size=7, mogrifier_rounds=3)
    base.update(config_overrides)
    config = ModelConfig(**base)
    rng = Rng(seed)
    params = model.init_model_params(rng, config)
    size = flatten(params).size
    radam = RAdamState(
        m=rng.uniform(-1, 1, size),
        v=rng.uniform(0, 1, size),
        step=137,
        lr=2.5e-3,
        beta1=0.9,
        beta2=0.999,
        eps=1e-8,
    )
    tta = TtaState(
        long=Tail(rng.uniform(-1, 1, size), 3, 100),
        short=Tail(rng.uniform(-1, 1, size), 80, 23),
        step=103,
    )
    return Checkpoint(
        config=config,
        params=params,
        radam=radam,
        tta=tta,
        rng_state=rng.state(),
        best_val_nats=1.2345678901234567,
    )


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = make_checkpoint()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, ckpt)
        loaded = load_checkpoint(first)
        save_checkpoint(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_fields_round_trip(self, tmp_path):
        ckpt = make_checkpoint(tie_embeddings=False, cell="lstm", keep_cell=0.7)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)

        assert np.array_equal(flatten(loaded.params), flatten(ckpt.params))
        assert np.array_equal(loaded.radam.m, ckpt.radam.m)
        assert np.array_equal(loaded.radam.v, ckpt.radam.v)
        assert loaded.radam.step == 137
        assert loaded.radam.lr == ckpt.radam.lr
        assert loaded.radam.eps == ckpt.radam.eps
        assert np.array_equal(loaded.tta.long.mean, ckpt.tta.long.mean)
        assert np.array_equal(loaded.tta.short.mean, ckpt.tta.short.mean)
        assert (loaded.tta.long.start, loaded.tta.long.count) == (3, 100)
        assert (loaded.tta.short.start, loaded.tta.short.count) == (80, 23)
        assert loaded.tta.step == 103
        assert loaded.best_val_nats == ckpt.best_val_nats
        assert loaded.config == ckpt.config
        assert loaded.rng_state == ckpt.rng_state

    def test_restored_rng_continues_identically(self, tmp_path):
        ckpt = make_checkpoint()
        reference = Rng.from_state(ckpt.rng_state)
        path = tmp_path / "d.ckpt"
        save_checkpoint(path, ckpt)
        restored = Rng.from_state(load_checkpoint(path).rng_state)
        assert np.array_equal(reference.uniform(0, 1, 100), restored.uniform(0, 1, 100))

    def test_infinite_best_val_round_trips(self, tmp_path):
        # A checkpoint written before any validation carries +inf.
        ckpt = make_checkpoint()
        ckpt.best_val_nats = float("inf")
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, ckpt)
        assert load_checkpoint(path).best_val_nats == float("inf")

    def test_untied_config_restores_untied_params(self, tmp_path):
        ckpt = make_checkpoint(tie_embeddings=False)
        path = tmp_path / "f.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.params.tied is False
        assert loaded.params.e_out_untied is not None
        assert np.array_equal(loaded.params.e_out_untied, ckpt.params.e_out_untied)


class TestErrors:
    def test_version_mismatch_names_both_versions(self, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(path, make_checkpoint())
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + np.uint32(ckpt_mod.VERSION + 41).tobytes() + blob[8:])
        with pytest.raises(CheckpointVersionError) as err:
            load_checkpoint(path)
        message = str(err.value)
        assert str(ckpt_mod.VERSION + 41) in message
        assert f"version {ckpt_mod.VERSION}" in message

    def test_real_version_1_file_is_refused(self):
        # Written by the last version-1 build: one rlstm layer of width 2.
        path = pathlib.Path(__file__).parent / "data" / "version1.ckpt"
        with pytest.raises(CheckpointVersionError) as err:
            load_checkpoint(path)
        assert "format version 1;" in str(err.value)
        assert f"reads version {ckpt_mod.VERSION}" in str(err.value)

    def test_header_holds_the_payload_checksum(self, tmp_path):
        path = tmp_path / "crc.ckpt"
        save_checkpoint(path, make_checkpoint())
        blob = path.read_bytes()
        header_len = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
        header = json.loads(blob[16 : 16 + header_len])
        assert header["payload_crc32"] == zlib.crc32(blob[16 + header_len :])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    def test_moment_size_mismatch_rejected_at_save(self, tmp_path):
        ckpt = make_checkpoint()
        ckpt.radam.m = np.zeros(3)
        with pytest.raises(CheckpointError, match="first moment"):
            save_checkpoint(tmp_path / "m.ckpt", ckpt)

    def test_no_partial_file_left_on_failed_save(self, tmp_path):
        ckpt = make_checkpoint()
        ckpt.radam.v = np.zeros(1)
        target = tmp_path / "p.ckpt"
        with pytest.raises(CheckpointError):
            save_checkpoint(target, ckpt)
        assert not target.exists()
        assert not (tmp_path / "p.ckpt.tmp").exists()

    def test_failed_rename_removes_the_temporary_file(self, tmp_path):
        target = tmp_path / "a_directory"
        target.mkdir()
        with pytest.raises(OSError):
            save_checkpoint(target, make_checkpoint())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]


class TestLoadMemory:
    def test_peak_is_the_file_and_one_copy_of_each_vector(self, tmp_path):
        # A 2 x 128 rlstm with 4 mogrifier rounds: a 15 MB file.
        path = tmp_path / "big.ckpt"
        save_checkpoint(
            path, make_checkpoint(state_size=128, vocab_size=74, mogrifier_rounds=4)
        )
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * path.stat().st_size

    def test_peak_is_the_payload_read_once(self, tmp_path):
        path = tmp_path / "big.ckpt"
        save_checkpoint(
            path, make_checkpoint(state_size=128, vocab_size=74, mogrifier_rounds=4)
        )
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * path.stat().st_size

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_vectors_are_disjoint_writable_views_of_the_payload(self, tmp_path, dtype):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, make_checkpoint(dtype=dtype))
        loaded = load_checkpoint(path)
        vectors = [loaded.params.vector, loaded.radam.m, loaded.radam.v,
                   loaded.tta.long.mean, loaded.tta.short.mean]
        assert all(vec.flags.writeable for vec in vectors)
        for i, first in enumerate(vectors):
            for second in vectors[i + 1 :]:
                assert not np.shares_memory(first, second)
        assert loaded.params.vector.dtype == np.dtype(dtype)
        # float64 parameters view the payload too; float32 ones are their cast.
        assert np.shares_memory(loaded.radam.m, loaded.tta.short.mean.base)
        assert np.shares_memory(loaded.params.vector, loaded.radam.m.base) == (dtype == "float64")
        again = tmp_path / "b.ckpt"
        save_checkpoint(again, loaded)
        assert again.read_bytes() == path.read_bytes()


class TestCorruptFiles:
    """Any damaged file either still loads or raises CheckpointError; no other
    exception escapes load_checkpoint."""

    FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=150)

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        save_checkpoint(root / "good.ckpt", make_checkpoint())
        blob = (root / "good.ckpt").read_bytes()
        header_len = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
        regions = {
            "magic": (0, 4),
            "version": (4, 8),
            "header length": (8, 16),
            "header": (16, 16 + header_len),
            "payload": (16 + header_len, len(blob)),
        }
        return root, blob, regions

    @staticmethod
    def load_or_reject(root, blob):
        path = root / "damaged.ckpt"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

    @pytest.mark.parametrize("region", ["magic", "version", "header length", "header", "payload"])
    @FUZZ
    @given(data=st.data())
    def test_truncation(self, saved, region, data):
        root, blob, regions = saved
        cut = data.draw(st.integers(*regions[region]).filter(lambda n: n < len(blob)))
        self.load_or_reject(root, blob[:cut])

    @FUZZ
    @given(data=st.data())
    def test_byte_flip_in_preamble_or_header(self, saved, data):
        root, blob, regions = saved
        position = data.draw(st.integers(0, regions["header"][1] - 1))
        flip = data.draw(st.integers(1, 255))
        damaged = bytearray(blob)
        damaged[position] ^= flip
        self.load_or_reject(root, bytes(damaged))

    @FUZZ
    @given(data=st.data())
    def test_byte_flip_in_payload_is_caught(self, saved, data):
        root, blob, regions = saved
        position = data.draw(st.integers(*regions["payload"]).filter(lambda n: n < len(blob)))
        damaged = bytearray(blob)
        damaged[position] ^= data.draw(st.integers(1, 255))
        (root / "flipped.ckpt").write_bytes(bytes(damaged))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(root / "flipped.ckpt")

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"RNLB" + bytes(6), "truncated"),
            (b"RNLB" + np.uint32(1).tobytes() + np.uint64(3).tobytes() + b"{x}", "corrupt"),
            (b"RNLB" + np.uint32(1).tobytes() + np.uint64(2).tobytes() + b"[]", "lacks"),
        ],
    )
    def test_named_failures(self, tmp_path, blob, message):
        if len(blob) >= 16:  # a whole preamble: give it the version this build reads
            blob = blob[:4] + np.uint32(ckpt_mod.VERSION).tobytes() + blob[8:]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "k.ckpt"
        save_checkpoint(path, make_checkpoint())
        blob = path.read_bytes().replace(b'"layers"', b'"lay_rs"', 1)
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="lay_rs"):
            load_checkpoint(path)


class TestRecord:
    def test_copy_shares_nothing_and_saves_the_same_bytes(self, tmp_path):
        ckpt = make_checkpoint()
        copied = copy_checkpoint(ckpt)
        save_checkpoint(tmp_path / "a.ckpt", ckpt)
        save_checkpoint(tmp_path / "b.ckpt", copied)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert all(np.shares_memory(a, copied.params.vector) for _, a in named_arrays(copied.params))
        pairs = [
            (ckpt.params.vector, copied.params.vector),
            (ckpt.radam.m, copied.radam.m),
            (ckpt.radam.v, copied.radam.v),
            (ckpt.tta.long.mean, copied.tta.long.mean),
            (ckpt.tta.short.mean, copied.tta.short.mean),
        ]
        assert not any(np.shares_memory(a, b) for a, b in pairs)
        copied.rng_state["counter"][0] += 1
        copied.tta.long.count += 1
        copied.radam.step += 1
        save_checkpoint(tmp_path / "c.ckpt", ckpt)
        assert (tmp_path / "c.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()

    def test_file_holds_this_version_and_lr_from_the_optimizer(self, tmp_path):
        ckpt = make_checkpoint()
        ckpt.radam.lr = 7.5e-4
        path = tmp_path / "r.ckpt"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        assert int(np.frombuffer(blob[4:8], dtype="<u4")[0]) == ckpt_mod.VERSION
        header_len = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
        header = json.loads(blob[16 : 16 + header_len])
        assert header["lr"] == header["radam"]["lr"] == 7.5e-4
        assert load_checkpoint(path).radam.lr == 7.5e-4
