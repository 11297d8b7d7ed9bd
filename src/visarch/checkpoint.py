"""Binary checkpoint format.

Layout, all integers little-endian:

    bytes 0-3   magic "VSFM"
    bytes 4-5   format version (u16)
    bytes 6-9   header length (u32)
    header      UTF-8 JSON: {"config": ..., "extra": ..., "tensors": [...]}
    payloads    one per directory entry, float32 little-endian, in order
    trailer     CRC32 (u32) over every preceding byte

Directory entries are {"path", "dims"} sorted by path; each path is under one
of the NAMESPACES "param.", "buffer.", "optim.". Tensors are stored as float32, so
round trips are bit-exact for float32 models (the training dtype).

A save copies each payload once, into the returned bytes, and a load copies
each payload once, into its own array, which model_from_checkpoint adopts, so
a loaded model shares its arrays with the loaded dict. The CRC32 is taken
over the parts (on save) and over a view of the file (on load), so it needs
no copy.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict

import numpy as np

from . import blocks as B
from . import models
from .tensor import check_count

MAGIC = b"VSFM"
VERSION = 5
NAMESPACES = ("param.", "buffer.", "optim.")  # every directory path starts with one
PARAM, BUFFER, OPTIM = NAMESPACES


class CheckpointError(Exception):
    """Base for unreadable checkpoint files."""


class BadMagicError(CheckpointError):
    pass


class VersionError(CheckpointError):
    pass


class ChecksumError(CheckpointError):
    pass


def _collect(model: models.Model, extra_tensors: dict | None) -> dict:
    out = {PARAM + path: t.data for path, t in model.params.items()}
    out.update((BUFFER + path, arr) for path, arr in model.buffers.items())
    for path, arr in (extra_tensors or {}).items():
        if not path.startswith(OPTIM):
            raise ValueError(f"extra tensor path must start with '{OPTIM}': '{path}'")
        out[path] = arr
    return out


def save_bytes(model: models.Model, extra: dict | None = None,
               extra_tensors: dict | None = None) -> bytes:
    """The checkpoint of model, with the JSON values of extra and the optim.*
    arrays of extra_tensors; an extra that is neither a dict nor None, an
    extra value that JSON cannot hold, or a non-finite number raises ValueError."""
    if extra is not None and not isinstance(extra, dict):
        raise ValueError(f"checkpoint extra must be a dict or None, got {type(extra).__name__}")
    tensors = _collect(model, extra_tensors)
    paths = sorted(tensors)
    payloads = [np.ascontiguousarray(tensors[path], dtype="<f4") for path in paths]
    head = {"config": asdict(model.config), "extra": extra or {},
            "tensors": [{"path": path, "dims": list(arr.shape)}
                        for path, arr in zip(paths, payloads)]}
    try:  # check_fields keeps a config's numbers finite, so only extra can fail here
        header = json.dumps(head, sort_keys=True, separators=(",", ":"),
                            allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint extra must be plain JSON with finite numbers: {e}") from None
    parts = [MAGIC, struct.pack("<HI", VERSION, len(header)), header, *payloads]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, struct.pack("<I", crc)])


def checkpoint_save(model: models.Model, path, extra: dict | None = None,
                    extra_tensors: dict | None = None) -> None:
    """Write through a sibling temp file and os.replace, so a save that fails
    or is killed part-way leaves any earlier file at `path` intact; the bytes
    are built first, so a save_bytes error writes nothing."""
    blob = save_bytes(model, extra, extra_tensors)
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_bytes(data: bytes) -> dict:
    """Parse and verify; returns {"config", "extra", "tensors"} with float32
    arrays keyed by namespaced path. The CRC is checked before the header is
    decoded, so any corrupted byte past the version raises ChecksumError."""
    if len(data) < 4:
        raise ChecksumError("file truncated before the magic bytes")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 10:
        raise ChecksumError("file truncated inside the fixed prologue")
    version, header_len = struct.unpack_from("<HI", data, 4)
    if version != VERSION:
        raise VersionError(f"format version {version}, expected {VERSION}")
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(memoryview(data)[:-4]) != stored_crc:
        raise ChecksumError("CRC32 mismatch")
    if len(data) < 10 + header_len + 4:
        raise ChecksumError("file truncated inside the header")
    header = _header(data[10:10 + header_len])
    offset = 10 + header_len
    counts = [math.prod(e["dims"]) for e in header["tensors"]]
    if len(data) != offset + 4 * sum(counts) + 4:
        raise ChecksumError(f"payload length mismatch: file has {len(data)} bytes")
    tensors = {}
    for entry, count in zip(header["tensors"], counts):
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        tensors[entry["path"]] = arr.reshape(entry["dims"]).copy()
        offset += 4 * count
    try:
        config = models.config_from_dict(header["config"])
    except ValueError as e:  # config_from_dict's, or the ShapeError of layer_plan as it is made
        raise CheckpointError(f"header 'config' is malformed: {e}") from None
    return {"config": config, "extra": header["extra"], "tensors": tensors}


def _header(raw: bytes) -> dict:
    """The decoded JSON header, with its fields checked for type and its directory
    entries for paths under NAMESPACES, strictly increasing (sorted, no repeats)."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError both
        raise CheckpointError(f"header is not UTF-8 JSON: {e}") from None
    for key, kind in (("config", dict), ("extra", dict), ("tensors", list)):
        if not isinstance(header, dict) or not isinstance(header.get(key), kind):
            raise CheckpointError(f"header field '{key}' is missing or not a JSON {kind.__name__}")
    for i, e in enumerate(header["tensors"]):
        if not (isinstance(e, dict) and isinstance(e.get("path"), str)
                and isinstance(e.get("dims"), list)
                and all(type(d) is int and d >= 0 for d in e["dims"])):
            raise CheckpointError(f"header 'tensors[{i}]' needs a string path and "
                                  f"non-negative integer dims, got {e!r}")
        if not e["path"].startswith(NAMESPACES):
            raise CheckpointError(f"header 'tensors[{i}]' path '{e['path']}' is under none "
                                  f"of the namespaces {', '.join(NAMESPACES)}")
        if i and e["path"] <= header["tensors"][i - 1]["path"]:
            raise CheckpointError(f"header 'tensors[{i}]' path '{e['path']}' does not sort "
                                  f"after the one before it: paths must be strictly increasing")
    return header


def checkpoint_load(path) -> dict:
    with open(path, "rb") as f:
        return load_bytes(f.read())


def model_from_checkpoint(loaded: dict) -> models.Model:
    """Rebuild a float32 Model whose params/buffers are the stored bits.

    The stored param.* and buffer.* tensors must be exactly the config's
    slots, shape for shape; nothing is drawn at random. The model adopts each
    writable float32 array of `loaded` (blocks.allocate), so it and the dict
    share them, and a write to one shows in the other; load_bytes' arrays are
    private to its result, so a load holds one copy of each payload.
    """
    config, tensors = loaded["config"], loaded["tensors"]
    slots = models.model_slots(config)
    check_keys(tensors, (PARAM, BUFFER), {_key(s) for s in slots}, config.name)

    def stored(slot):
        if slot.init in B.BUFFER_INITS:
            return stored_state(tensors, _key(slot), slot.shape, slot.init == "running_var")
        return stored_tensor(tensors, _key(slot), slot.shape)

    params, buffers = B.allocate(slots, stored, np.float32)
    return models.Model(config, params, buffers, np.dtype(np.float32),
                        stored_int(loaded["extra"], "seed", 0, default=0))


def stored_tensor(tensors: dict, key: str, shape: tuple) -> np.ndarray:
    """tensors[key], which a checkpoint must hold with exactly this shape."""
    arr = tensors.get(key)
    if arr is None or arr.shape != shape:
        found = "nothing" if arr is None else arr.shape
        raise CheckpointError(f"'{key}' must be {shape}, checkpoint has {found}")
    return arr


def stored_state(tensors: dict, key: str, shape: tuple, nonnegative: bool = False) -> np.ndarray:
    """stored_tensor for training state (a batch-norm buffer or an optimizer
    slot), which must also be finite, and >= 0 where nonnegative (a running
    variance, AdamW's second moment): a bad value would otherwise surface as a
    NaN update or a non-finite eval forward later. Parameters are not scanned,
    so a load makes no pass over a full-size model's weights."""
    arr = stored_tensor(tensors, key, shape)
    if not np.isfinite(arr).all():
        raise CheckpointError(f"'{key}' holds a non-finite value")
    if nonnegative and (arr < 0).any():
        raise CheckpointError(f"'{key}' holds a negative value, {float(arr.min()):g}")
    return arr


def stored_int(extra: dict, key: str, floor: int, default: int | None = None) -> int:
    """extra[key], which a checkpoint must hold as a JSON integer >= floor (check_count);
    default when the key is absent, which is an error if no default is given."""
    if key not in extra:
        if default is None:
            raise CheckpointError(f"checkpoint extra has no '{key}'")
        return default
    return check_count(f"checkpoint extra '{key}'", extra[key], floor, CheckpointError)


def check_keys(tensors: dict, prefixes: tuple, known: set, owner: str) -> None:
    """Raise CheckpointError at a path under prefixes not in known, which owner does not keep."""
    for key in tensors:
        if key.startswith(prefixes) and key not in known:
            raise CheckpointError(f"checkpoint has '{key}', which {owner} does not keep")


def _key(slot) -> str:
    return (BUFFER if slot.init in B.BUFFER_INITS else PARAM) + slot.path


def optim_key(path: str, slot: str) -> str:
    """The checkpoint path of optimizer slot `slot` of the parameter at path."""
    return f"{OPTIM}{path}.{slot}"


def optim_tensors(loaded: dict) -> dict:
    return {p: a for p, a in loaded["tensors"].items() if p.startswith(OPTIM)}
