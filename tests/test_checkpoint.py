"""Checkpoint serialization format and error handling."""

import json
import math
import re
import struct
import tracemalloc
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visarch import (
    BadMagicError,
    CheckpointError,
    ChecksumError,
    ModelConfig,
    VersionError,
    build,
    checkpoint_load,
    checkpoint_save,
    model_from_checkpoint,
    preset,
)
from visarch import checkpoint, models
from visarch.blocks import EmbedSpec
from visarch.checkpoint import MAGIC, load_bytes, optim_tensors, save_bytes
from visarch.models import StageSpec
from visarch.train import AdamW


@pytest.fixture(scope="module")
def model():
    return build(preset("visformer_ti-micro"), seed=4)


@pytest.fixture(scope="module")
def blob(model):
    return save_bytes(model, extra={"seed": 4, "note": "x"},
                      extra_tensors={"optim.head.w.v": np.ones((3, 2), np.float32)})


class TestRoundTrip:
    def test_params_and_buffers_bit_exact(self, model, blob):
        loaded = load_bytes(blob)
        for path, t in model.params.items():
            got = loaded["tensors"][f"param.{path}"]
            assert got.tobytes() == t.data.tobytes()
        for path, arr in model.buffers.items():
            assert loaded["tensors"][f"buffer.{path}"].tobytes() == arr.tobytes()

    def test_config_and_extra_lossless(self, model, blob):
        loaded = load_bytes(blob)
        assert loaded["config"] == model.config
        assert loaded["extra"] == {"seed": 4, "note": "x"}

    def test_save_load_save_identical(self, model, blob):
        rebuilt = model_from_checkpoint(load_bytes(blob))
        again = save_bytes(rebuilt, extra={"seed": 4, "note": "x"},
                           extra_tensors={"optim.head.w.v": np.ones((3, 2), np.float32)})
        assert again == blob

    def test_model_from_checkpoint_restores_bits(self, model, blob):
        rebuilt = model_from_checkpoint(load_bytes(blob))
        for path, t in model.params.items():
            assert rebuilt.params[path].data.tobytes() == t.data.tobytes()
        for path, arr in model.buffers.items():
            assert rebuilt.buffers[path].tobytes() == arr.tobytes()

    def test_file_round_trip(self, model, tmp_path):
        p = tmp_path / "m.vsfm"
        checkpoint_save(model, p, extra={"seed": 4})
        loaded = checkpoint_load(p)
        assert loaded["config"] == model.config

    def test_optim_tensor_filtering(self, blob):
        loaded = load_bytes(blob)
        opt = optim_tensors(loaded)
        assert set(opt) == {"optim.head.w.v"}
        assert opt["optim.head.w.v"].shape == (3, 2)

    def test_extra_tensors_must_be_namespaced(self, model):
        with pytest.raises(ValueError, match="optim"):
            save_bytes(model, extra_tensors={"velocity": np.ones(2, np.float32)})


class TestAtomicSave:
    def test_rejected_save_keeps_old_file(self, model, tmp_path):
        p = tmp_path / "m.vsfm"
        checkpoint_save(model, p, extra={"seed": 4})
        before = p.read_bytes()
        with pytest.raises(ValueError, match="optim"):
            checkpoint_save(model, p, extra_tensors={"bad.path": np.ones(2, np.float32)})
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_failed_replace_keeps_old_file(self, model, tmp_path, monkeypatch):
        p = tmp_path / "m.vsfm"
        checkpoint_save(model, p, extra={"seed": 4})
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(checkpoint.os, "replace", fail)
        with pytest.raises(OSError, match="disk"):
            checkpoint_save(model, p, extra={"seed": 5})
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("value,cause", [
        (np.int64(1), "Object of type int64 is not JSON serializable"),
        (float("nan"), "Out of range float values are not JSON compliant"),
        (float("inf"), "Out of range float values are not JSON compliant"),
    ], ids=["numpy-int", "nan", "inf"])
    def test_extra_that_is_not_plain_json_writes_nothing(self, model, tmp_path, value, cause):
        # before, a numpy integer raised a bare TypeError, and a NaN wrote the
        # non-standard token NaN into the header
        p = tmp_path / "m.vsfm"
        checkpoint_save(model, p, extra={"seed": 4})
        before = p.read_bytes()
        with pytest.raises(ValueError, match="^checkpoint extra must be plain JSON with finite "
                                             f"numbers: {cause}") as caught:
            checkpoint_save(model, p, extra={"seed": 4, "x": value})
        assert caught.type is ValueError
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("extra", [[1], "ab", 5, 0, "", [], False, [("seed", 1)]],
                             ids=["list", "str", "int", "zero", "empty-str", "empty-list",
                                  "false", "pairs"])
    def test_extra_that_is_not_a_dict_writes_nothing(self, model, tmp_path, extra):
        # before, the first three raised a bare TypeError or ValueError, the
        # falsy ones were saved as {} and the pairs as {"seed": 1}
        p = tmp_path / "m.vsfm"
        checkpoint_save(model, p, extra={"seed": 4})
        before = p.read_bytes()
        with pytest.raises(ValueError, match="^checkpoint extra must be a dict or None, got "
                                             f"{type(extra).__name__}$") as caught:
            checkpoint_save(model, p, extra=extra)
        assert caught.type is ValueError
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]


class TestBadContents:
    """Stored param./buffer. tensors must be exactly the config's, shape for shape."""

    @pytest.mark.parametrize("key,edit", [
        ("param.head.fc.b", lambda t, k: t.pop(k)),
        ("buffer.stem.norm.var", lambda t, k: t.pop(k)),
        ("param.s9.extra.w", lambda t, k: t.__setitem__(k, np.zeros(2, np.float32))),
        ("buffer.s9.extra.mean", lambda t, k: t.__setitem__(k, np.zeros(2, np.float32))),
        ("param.head.fc.w", lambda t, k: t.__setitem__(k, t[k][:, :-1].copy())),
        ("buffer.stem.norm.mean", lambda t, k: t.__setitem__(k, np.zeros(3, np.float32))),
        # a version-4 file held the attention projections as 2-d matrices
        ("param.s1.b0.attn.qkv.w", lambda t, k: t.__setitem__(k, t[k].reshape(t[k].shape[:2]))),
    ], ids=["missing-param", "missing-buffer", "extra-param", "extra-buffer",
            "misshaped-param", "misshaped-buffer", "2d-attention-weight"])
    def test_raises_checkpoint_error_naming_the_path(self, blob, key, edit):
        loaded = load_bytes(blob)
        edit(loaded["tensors"], key)
        with pytest.raises(CheckpointError, match=re.escape(key)):
            model_from_checkpoint(loaded)

    @pytest.mark.parametrize("key,value", [
        ("buffer.stem.norm.var", -1e-3), ("buffer.stem.norm.var", np.nan),
        ("buffer.stem.norm.mean", np.inf), ("buffer.s1.b0.norm1.mean", -np.inf),
    ], ids=["negative-var", "nan-var", "inf-mean", "minus-inf-mean"])
    def test_bad_buffer_value_names_the_path(self, blob, key, value):
        # before, a negative running variance failed only at the first eval forward
        loaded = load_bytes(blob)
        loaded["tensors"][key][0] = value
        with pytest.raises(CheckpointError, match=re.escape(f"'{key}' holds a")):
            model_from_checkpoint(loaded)

    def test_negative_running_mean_loads(self, blob):
        loaded = load_bytes(blob)
        loaded["tensors"]["buffer.stem.norm.mean"][0] = -3.0
        assert model_from_checkpoint(loaded).buffers["stem.norm.mean"][0] == -3.0

    def test_load_draws_nothing(self, blob, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("model_from_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        model_from_checkpoint(load_bytes(blob))

    @pytest.mark.parametrize("edit", [
        lambda d, k: d.insert(k, d[k]),
        lambda d, k: d.insert(k, d.pop(k + 1)),
    ], ids=["repeated-param", "swapped-pair"])
    def test_directory_must_be_sorted_by_path(self, blob, edit):
        # before, a repeated path loaded its second payload alone and a swapped
        # pair loaded as it stood
        head, payloads = directory(blob)
        entries = list(zip(head["tensors"], payloads))
        k = next(i for i, (e, _) in enumerate(entries) if e["path"].startswith("param."))
        edit(entries, k)
        head["tensors"] = [e for e, _ in entries]
        path = entries[k + 1][0]["path"]
        with pytest.raises(CheckpointError, match=re.escape(f"'tensors[{k + 1}]' path '{path}'")):
            load_bytes(sealed(head, b"".join(p for _, p in entries)))

    @pytest.mark.parametrize("path", ["a.junk", "params.head.fc.w", "zzz.junk"])
    def test_every_path_is_under_a_namespace(self, blob, path):
        # before, a resealed file with such an entry loaded, and model_from_checkpoint
        # and load_run ignored it
        head, payloads = directory(blob)
        entry = {"path": path, "dims": [2]}
        entries = sorted([*zip(head["tensors"], payloads), (entry, bytes(8))],
                         key=lambda e: e[0]["path"])
        head["tensors"] = [e for e, _ in entries]
        k = head["tensors"].index(entry)
        with pytest.raises(CheckpointError, match=re.escape(
                f"header 'tensors[{k}]' path '{path}' is under none of the namespaces "
                f"param., buffer., optim.")):
            load_bytes(sealed(head, b"".join(p for _, p in entries)))

    @pytest.mark.parametrize("seed", [[1], None, 1.7, "1", True])
    def test_seed_must_be_an_integer(self, blob, seed):
        loaded = load_bytes(blob)
        loaded["extra"]["seed"] = seed
        with pytest.raises(CheckpointError, match="'seed'"):
            model_from_checkpoint(loaded)

    def test_seed_must_not_be_negative(self, blob):
        # before, it loaded into Model.seed = -5, a seed build rejects
        loaded = load_bytes(blob)
        loaded["extra"]["seed"] = -5
        with pytest.raises(CheckpointError, match="^checkpoint extra 'seed' must be >= 0, got -5$"):
            model_from_checkpoint(loaded)


def with_crc(body):
    """body followed by its CRC32, so a load gets past the CRC check."""
    return body + struct.pack("<I", zlib.crc32(body))


def sealed(header, payload=b""):
    """A checkpoint around an arbitrary header, with a valid CRC."""
    raw = header if isinstance(header, bytes) else json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode()
    return with_crc(MAGIC + struct.pack("<HI", checkpoint.VERSION, len(raw)) + raw + payload)


def directory(blob):
    """blob's decoded header and its payloads, one bytes object per entry."""
    n = struct.unpack_from("<I", blob, 6)[0]
    head, offset, payloads = json.loads(blob[10:10 + n]), 10 + n, []
    for e in head["tensors"]:
        size = 4 * math.prod(e["dims"])
        payloads.append(blob[offset:offset + size])
        offset += size
    return head, payloads


def resealed_as(blob, version):
    """blob with its format version replaced and its CRC recomputed."""
    return with_crc(blob[:4] + struct.pack("<H", version) + blob[6:-4])


class TestMalformedHeader:
    """A header past a valid CRC is still checked field by field."""

    @pytest.fixture
    def header(self, blob):
        n = struct.unpack_from("<I", blob, 6)[0]
        return json.loads(blob[10:10 + n]), blob[10 + n:-4]

    def test_resealed_header_loads(self, blob, header):
        assert sealed(*header) == blob

    def test_tensor_entries_hold_path_and_dims(self, header):
        # dims gives the rank, so entries store no "rank" (since version 4)
        assert all(set(e) == {"path", "dims"} for e in header[0]["tensors"])

    @pytest.mark.parametrize("raw,match", [
        (b"\xff\xfe", "not UTF-8 JSON"),
        (b"{not json", "not UTF-8 JSON"),
        (b"[1, 2]", "header field 'config'"),
    ], ids=["not-utf8", "not-json", "not-object"])
    def test_undecodable(self, raw, match):
        with pytest.raises(CheckpointError, match=match):
            load_bytes(sealed(raw))

    @pytest.mark.parametrize("field", ["config", "extra", "tensors"])
    def test_missing_field(self, header, field):
        head, payload = header
        del head[field]
        with pytest.raises(CheckpointError, match=f"'{field}'"):
            load_bytes(sealed(head, payload))

    @pytest.mark.parametrize("field,value", [
        ("config", []), ("extra", 3), ("tensors", {}),
    ])
    def test_mistyped_field(self, header, field, value):
        head, payload = header
        head[field] = value
        with pytest.raises(CheckpointError, match=f"'{field}'"):
            load_bytes(sealed(head, payload))

    @pytest.mark.parametrize("entry", [
        {"path": "param.x"},
        {"path": "param.x", "dims": [-2]},
        {"path": "param.x", "dims": ["2"]},
        {"dims": [2]},
        "param.x",
    ], ids=["no-dims", "negative-dims", "string-dims", "no-path", "not-object"])
    def test_bad_tensor_entry(self, header, entry):
        head, payload = header
        head["tensors"].insert(0, entry)
        with pytest.raises(CheckpointError, match=re.escape("'tensors[0]'")):
            load_bytes(sealed(head, payload))

    @pytest.mark.parametrize("edit,named", [
        (lambda c: c.pop("stages"), "'stages'"),
        (lambda c: c["stages"][0]["blocks"][0].update(bogus=1), "'bogus'"),
        (lambda c: c.update(stages=7), "not iterable"),
        (lambda c: c.update(input_resolution="32"), "input_resolution must be an integer"),
        (lambda c: c.update(stem=None), "stem must be an integer"),
        (lambda c: c["stages"][0]["blocks"][0].update(channels="24"),
         "channels must be an integer"),
        (lambda c: c.update(norm="group"), "norm must be one of"),
        (lambda c: c.update(bogus=1), "'bogus'"),
        (lambda c: c["stages"][0]["blocks"][0].update(groups=0), "groups must be >= 1, got 0"),
        (lambda c: c.update(stem=-4), "stem must be >= 0, got -4"),
        (lambda c: c["stages"][1]["embed"].update(stride=0), "stride must be >= 1, got 0"),
        (lambda c: c.update(conv_block_style="bogus"), "conv_block_style must be one of"),
        (lambda c: c.update(num_classes=0), "num_classes must be >= 1, got 0"),
        (lambda c: c["stages"][0]["blocks"][0].update(channels=10 ** 400),
         "channels must be <= 2**63 - 1"),
        (lambda c: c["stages"][0]["blocks"][0].update(stride=2), "only a post_norm bottleneck"),
        # s0.b0 is a bottleneck and s1.b0 an attention block
        (lambda c: c["stages"][0]["blocks"][0].update(use_3x3=True), "'use_3x3'"),
        (lambda c: c["stages"][1]["blocks"][0].update(attn_inner=48), "'attn_inner'"),
        (lambda c: c["stages"][1]["blocks"][0].update(kind="mlp"), "'mlp'"),
        (lambda c: c["stages"][1]["blocks"][0].pop("kind"), "'kind'"),
        # fields a version-2 header carried
        (lambda c: c["stages"][1]["blocks"][0].update(groups=1), "'groups'"),
        (lambda c: c.update(final_norm=True), "'final_norm'"),
        # fields a version-3 header carried: the stem as an embedding spec, the
        # stem pool flag, and a patch embedding's kernel
        (lambda c: c.update(stem={"kernel": 7, "stride": 2, "out_channels": 4,
                                  "norm_after": True}), "stem must be an integer, got {"),
        (lambda c: c.update(stem_pool=False), "'stem_pool'"),
        (lambda c: c["stages"][1]["embed"].update(kernel=2), "'kernel'"),
    ], ids=["missing-stages", "unknown-block-field", "mistyped-stages", "string-resolution",
            "null-stem", "string-channels", "unknown-norm", "unknown-config-field",
            "zero-groups", "negative-stem", "zero-embed-stride", "unknown-block-style",
            "zero-classes", "huge-channels", "strided-pre-norm", "bottleneck-use_3x3",
            "attention-attn_inner",
            "unknown-kind", "no-kind", "attention-groups", "final-norm", "stem-object",
            "stem-pool", "embed-kernel"])
    def test_bad_config(self, header, edit, named):
        # a loaded config must also be one layer_plan accepts
        head, payload = header
        edit(head["config"])
        with pytest.raises(CheckpointError, match="'config' is malformed: .*" + re.escape(named)):
            load_bytes(sealed(head, payload))

    @pytest.mark.parametrize("name,field,value", [
        ("net5-micro", "conv_block_style", "post_norm"),
        ("net7-micro", "pos_mode", "relative"),
        ("resnet50_shape-micro", "pos_mode", "absolute"),
    ])
    def test_model_wide_field_no_layer_reads(self, header, name, field, value):
        head, payload = header
        head["config"] = {**asdict(preset(name)), field: value}
        with pytest.raises(CheckpointError, match="'config' is malformed: .*" + field):
            load_bytes(sealed(head, payload))

    def test_config_without_defaulted_field_takes_default(self, model, header):
        head, payload = header
        del head["config"]["conv_block_style"]
        assert load_bytes(sealed(head, payload))["config"] == model.config


class TestCorruption:
    def test_bad_magic(self, blob):
        with pytest.raises(BadMagicError):
            load_bytes(b"XXXX" + blob[4:])

    def test_unknown_version(self, blob):
        tweaked = blob[:4] + struct.pack("<H", checkpoint.VERSION + 1) + blob[6:]
        with pytest.raises(VersionError):
            load_bytes(tweaked)

    def test_version_1_is_rejected(self, blob):
        # version 1 headers carried every block field on every block kind
        assert checkpoint.VERSION == 5
        with pytest.raises(VersionError, match="format version 1, expected 5"):
            load_bytes(resealed_as(blob, 1))

    def test_version_2_is_rejected(self, blob):
        # version 2 headers carried stem padding, attention groups and final_norm
        with pytest.raises(VersionError, match="format version 2, expected 5"):
            load_bytes(resealed_as(blob, 2))

    def test_version_3_is_rejected(self, blob):
        # version 3 headers carried the stem as an embedding spec, stem_pool, a
        # kernel on every patch embedding and a rank on every tensor entry
        with pytest.raises(VersionError, match="format version 3, expected 5"):
            load_bytes(resealed_as(blob, 3))

    def test_version_4_is_rejected(self, blob):
        # version 4 files held the attention projections as 2-d (out, in) matrices
        with pytest.raises(VersionError, match="format version 4, expected 5"):
            load_bytes(resealed_as(blob, 4))

    def test_truncated_tail(self, blob):
        with pytest.raises(ChecksumError):
            load_bytes(blob[:-9])

    def test_truncated_to_prologue(self, blob):
        with pytest.raises(ChecksumError):
            load_bytes(blob[:7])

    def test_empty_file(self):
        with pytest.raises(ChecksumError):
            load_bytes(b"")

    def test_resealed_header_length_past_the_end(self, blob):
        # a plain truncation fails the CRC first; a valid one reaches the length check
        corrupt = with_crc(blob[:6] + struct.pack("<I", len(blob)) + blob[10:-4])
        with pytest.raises(ChecksumError, match="^file truncated inside the header$"):
            load_bytes(corrupt)

    @pytest.mark.parametrize("resize", [lambda p: p[:-4], lambda p: p + p[-4:]],
                             ids=["one-float-short", "one-float-long"])
    def test_resealed_payload_length_mismatch(self, blob, resize):
        n = struct.unpack_from("<I", blob, 6)[0]
        corrupt = with_crc(blob[:10 + n] + resize(blob[10 + n:-4]))
        with pytest.raises(ChecksumError,
                           match=f"^payload length mismatch: file has {len(corrupt)} bytes$"):
            load_bytes(corrupt)

    def test_flipped_payload_byte(self, blob):
        # flip one payload byte and refresh the length so only the CRC trips
        mid = len(blob) // 2
        corrupt = bytearray(blob)
        corrupt[mid] ^= 0xFF
        with pytest.raises(ChecksumError, match="CRC"):
            load_bytes(bytes(corrupt))

    @pytest.mark.parametrize("offset", [12, 20, 40])
    def test_flipped_header_byte(self, blob, offset):
        corrupt = bytearray(blob)
        corrupt[offset] ^= 0xFF
        with pytest.raises(ChecksumError, match="CRC"):
            load_bytes(bytes(corrupt))

    def test_every_prologue_and_header_byte_flip(self):
        # a model with a tiny payload keeps the exhaustive sweep fast
        stage = StageSpec(EmbedSpec(4, 2), ())
        config = ModelConfig("tiny", 8, 2, stem=0, stages=(stage,))
        tiny = save_bytes(build(config, seed=0), extra={"seed": 0})
        header_end = 10 + struct.unpack_from("<I", tiny, 6)[0]
        for i in range(header_end):
            for mask in (0x01, 0x80, 0xFF):
                corrupt = bytearray(tiny)
                corrupt[i] ^= mask
                with pytest.raises(CheckpointError):
                    load_bytes(bytes(corrupt))

    @given(where=st.floats(0, 1, exclude_max=True), mask=st.integers(1, 255))
    @settings(max_examples=30, deadline=None)
    def test_sampled_payload_flips(self, blob, where, mask):
        start = 10 + struct.unpack_from("<I", blob, 6)[0]
        corrupt = bytearray(blob)
        corrupt[start + int(where * (len(blob) - start))] ^= mask
        with pytest.raises(ChecksumError):
            load_bytes(bytes(corrupt))

    @given(where=st.floats(0, 1, exclude_max=True))
    @settings(max_examples=30, deadline=None)
    def test_sampled_truncations(self, blob, where):
        with pytest.raises(CheckpointError):
            load_bytes(blob[:int(where * len(blob))])

    def test_error_types_are_distinct(self):
        for sub in (BadMagicError, VersionError, ChecksumError):
            assert issubclass(sub, CheckpointError)
        assert not issubclass(BadMagicError, VersionError)
        assert not issubclass(VersionError, ChecksumError)

    def test_magic_constant(self, blob):
        assert blob[:4] == MAGIC == b"VSFM"


@pytest.fixture(scope="module")
def adamw_state(model):
    """AdamW slots for every parameter of model, filled with nonzero values."""
    optim = AdamW(model.params)
    rng = np.random.default_rng(5)
    for slot in (optim.m, optim.v):
        for p, arr in slot.items():
            arr[...] = np.abs(rng.normal(size=arr.shape))
    return optim.state_tensors()


def reference_save(model, extra, extra_tensors):
    """The format written out directly: magic, version, header, the payloads
    joined in path order, then CRC32 over every preceding byte."""
    tensors = {f"param.{p}": t.data for p, t in model.params.items()}
    tensors.update({f"buffer.{p}": arr for p, arr in model.buffers.items()})
    tensors.update(extra_tensors)
    paths = sorted(tensors)
    header = json.dumps({"config": asdict(model.config), "extra": extra,
                         "tensors": [{"path": p, "dims": list(tensors[p].shape)} for p in paths]},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = (b"VSFM" + struct.pack("<H", 5) + struct.pack("<I", len(header)) + header
            + b"".join(tensors[p].astype("<f4").tobytes() for p in paths))
    return body + struct.pack("<I", zlib.crc32(body))


class TestReferenceFormat:
    def test_save_matches_reference_serializer(self, model, adamw_state):
        extra = {"seed": 4, "adam_steps": 3}
        assert save_bytes(model, extra, adamw_state) == reference_save(model, extra, adamw_state)

    def test_loaded_tensors_are_private_and_writable(self, model, adamw_state):
        blob = save_bytes(model, {}, adamw_state)
        view = np.frombuffer(blob, np.uint8)
        loaded = load_bytes(blob)["tensors"]
        assert len(loaded) == len(model.params) + len(model.buffers) + len(adamw_state)
        for arr in loaded.values():
            assert arr.flags.writeable and arr.flags.owndata
            assert not np.shares_memory(arr, view)


def traced_peak(fn, *args):
    """(bytes traced at the peak while fn(*args) runs, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestMemory:
    """A save or a load copies each payload once, and a model built from a load
    adopts its arrays, so each traced peak stays near the payload's size; one
    more full copy would double it."""

    def test_save_peak(self, model, adamw_state):
        peak, blob = traced_peak(save_bytes, model, {}, adamw_state)
        payload = sum(a.nbytes for a in load_bytes(blob)["tensors"].values())
        assert peak <= 1.25 * payload

    def test_load_peak(self, model, adamw_state):
        blob = save_bytes(model, {}, adamw_state)
        peak, loaded = traced_peak(load_bytes, blob)
        payload = sum(a.nbytes for a in loaded["tensors"].values())
        assert peak <= 1.25 * payload

    def test_load_into_a_model_peak(self, model):
        blob = save_bytes(model)
        peak, rebuilt = traced_peak(lambda: model_from_checkpoint(load_bytes(blob)))
        payload = (sum(t.data.nbytes for _, t in rebuilt.params.items())
                   + sum(a.nbytes for a in rebuilt.buffers.values()))
        assert peak <= 1.25 * payload


class TestAdoption:
    def test_model_shares_the_loaded_arrays(self, blob):
        loaded = load_bytes(blob)
        rebuilt = model_from_checkpoint(loaded)
        for path, t in rebuilt.params.items():
            assert t.data is loaded["tensors"][f"param.{path}"]
        for path, arr in rebuilt.buffers.items():
            assert arr is loaded["tensors"][f"buffer.{path}"]

    @pytest.mark.parametrize("edit", ["read-only", "float64"])
    def test_a_read_only_or_float64_array_is_copied(self, blob, edit):
        loaded = load_bytes(blob)
        arr = loaded["tensors"]["param.stem.conv.w"]
        if edit == "read-only":
            arr.flags.writeable = False
        else:
            arr = loaded["tensors"]["param.stem.conv.w"] = arr.astype(np.float64)
        got = model_from_checkpoint(loaded).params["stem.conv.w"].data
        assert got.dtype == np.float32 and got.flags.writeable
        assert not np.shares_memory(got, arr) and np.array_equal(got, arr)
