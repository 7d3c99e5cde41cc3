"""Bit-exact save/load of agent caches to disk.

One agent persists as a pair of files in the cache directory:

* ``{agent_id}.{digest16}.safetensors`` — all cache tensors in a
  safetensors container: an 8-byte little-endian header length, a
  canonical (key-sorted, compact) UTF-8 JSON header mapping tensor name
  to ``{dtype, shape, data_offsets}``, padded with spaces to an 8-byte
  boundary, then the raw little-endian tensor bytes. Per layer ``l`` and
  block ``b`` the names are ``L{l}_B{b}_{K|V}_{weights|scales|biases}``;
  weights are uint32 ("U32"), scales and biases bfloat16 ("BF16").
  The filename embeds the first 16 hex digits of the file's SHA-256, so
  identical caches produce byte-identical files at identical paths.
* ``{agent_id}.meta.json`` — key-sorted, newline-terminated UTF-8 JSON
  sidecar with the transcript, token ids, char offsets, per-block token
  counts, the producing spec (canonical form) and its fingerprint, and
  the tensor file's name and SHA-256.

The sidecar rename is the commit point: the tensor file is fully written
and fsynced under its final (content-addressed) name before the sidecar
replaces the previous one, so a crash at any instant leaves either the
old pair or the new pair, never a torn mix. The directory is fsynced
after each rename, so the tensor file's name is durable before the
sidecar that names it, and the commit is durable when the save returns.
Stale tensor files are swept after commit.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from .blocks import AgentCache, KVBlock
from .codec import QuantizedTensor, q4_tensor_bytes
from .errors import CorruptFileError, PersistenceError, SpecMismatchError
from .model_spec import ModelCacheSpec, spec_fingerprint

__all__ = [
    "CacheFilePair",
    "FORMAT_VERSION",
    "TensorSummary",
    "FileSummary",
    "discover_pair",
    "inspect_tensor_file",
    "load_agent",
    "remove_agent_files",
    "save_agent",
    "sidecar_path_for",
]

FORMAT_VERSION = 1
_HEADER_LIMIT = 16 * 2**20
_DTYPE_ITEMSIZE = {
    "BF16": 2, "F16": 2, "F32": 4, "F64": 8,
    "U8": 1, "I8": 1, "I16": 2, "U16": 2,
    "I32": 4, "U32": 4, "I64": 8, "U64": 8, "BOOL": 1,
}


@dataclass(frozen=True)
class CacheFilePair:
    tensor_path: Path
    sidecar_path: Path


@dataclass(frozen=True)
class TensorSummary:
    name: str
    dtype: str
    shape: tuple[int, ...]
    nbytes: int


@dataclass(frozen=True)
class FileSummary:
    header_bytes: int
    data_bytes: int
    total_bytes: int
    tensors: tuple[TensorSummary, ...]


def sidecar_path_for(directory: Path | str, agent_id: str) -> Path:
    return Path(directory) / f"{agent_id}.meta.json"


class _TensorSlot(NamedTuple):
    """Where one container tensor sits: its header entry and its source."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    layer: int
    block: int
    side: str  # "k" or "v"
    field: str  # QuantizedTensor attribute: "packed", "scales" or "biases"


# (name suffix, container dtype, QuantizedTensor attribute) per tensor of a side
_FIELDS = (
    ("weights", "U32", "packed"),
    ("scales", "BF16", "scales"),
    ("biases", "BF16", "biases"),
)
# container dtype -> (little-endian file dtype, native in-memory dtype)
_NP_DTYPE = {"U32": ("<u4", np.uint32), "BF16": ("<u2", np.uint16)}
# {agent_id}.{16 hex}.safetensors; the fixed-length suffix leaves group 1 the id
_TENSOR_NAME = re.compile(r"(.+)\.[0-9a-f]{16}\.safetensors")


def _layout(spec: ModelCacheSpec, block_counts: list[int]) -> list[_TensorSlot]:
    """Every tensor of a container, in data order (sorted by name)."""
    slots = []
    for layer in range(spec.num_layers):
        for b, count in enumerate(block_counts):
            for side, dim in (("K", spec.k_head_dim), ("V", spec.v_head_dim)):
                for part, dtype, field in _FIELDS:
                    width = dim // 8 if field == "packed" else dim // spec.group_size
                    slots.append(_TensorSlot(
                        f"L{layer}_B{b}_{side}_{part}", dtype,
                        (spec.num_kv_heads, count, width), layer, b, side.lower(), field,
                    ))
    return sorted(slots, key=lambda slot: slot.name)


def _atomic_write(path: Path, segments: Iterable) -> None:
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            for segment in segments:
                fh.write(segment)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)  # makes the rename itself durable
        finally:
            os.close(dir_fd)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise PersistenceError(f"failed to write {path}: {exc}") from exc


def _agent_tensor_files(directory: Path, agent_id: str) -> list[Path]:
    """Tensor files named exactly ``{agent_id}.{16 hex}.safetensors``."""
    return [
        p for p in directory.glob("*.safetensors")
        if (m := _TENSOR_NAME.fullmatch(p.name)) and m.group(1) == agent_id
    ]


def save_agent(cache: AgentCache, directory: Path | str, spec: ModelCacheSpec) -> CacheFilePair:
    """Persist an agent cache; returns the file pair. Crash-atomic."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PersistenceError(f"cannot create cache dir {directory}: {exc}") from exc

    header: dict[str, dict] = {}
    arrays = []
    offset = 0
    for slot in _layout(spec, cache.block_token_counts()):
        qt = getattr(cache.blocks[slot.layer][slot.block], slot.side)
        array = np.ascontiguousarray(getattr(qt, slot.field), dtype=_NP_DTYPE[slot.dtype][0])
        header[slot.name] = {
            "dtype": slot.dtype,
            "shape": list(slot.shape),
            "data_offsets": [offset, offset + array.nbytes],
        }
        arrays.append(array)
        offset += array.nbytes
    header_json = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header_json += b" " * ((-len(header_json)) % 8)
    segments = [struct.pack("<Q", len(header_json)) + header_json, *arrays]
    sha = hashlib.sha256()
    for segment in segments:
        sha.update(segment)
    digest = sha.hexdigest()
    tensor_path = directory / f"{cache.agent_id}.{digest[:16]}.safetensors"

    sidecar = {
        "agent_id": cache.agent_id,
        "block_token_counts": cache.block_token_counts(),
        "char_offsets": list(cache.char_offsets),
        "fingerprint": cache.spec_fingerprint,
        "format_version": FORMAT_VERSION,
        "spec": spec.to_json_dict(),
        "tensor_file": tensor_path.name,
        "tensor_sha256": digest,
        "token_ids": list(cache.token_ids),
        "transcript_text": cache.transcript_text,
    }
    sidecar_bytes = (
        json.dumps(sidecar, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
    ).encode("utf-8")

    _atomic_write(tensor_path, segments)
    sidecar_path = sidecar_path_for(directory, cache.agent_id)
    _atomic_write(sidecar_path, [sidecar_bytes])  # commit point

    for stale in _agent_tensor_files(directory, cache.agent_id):
        if stale.name != tensor_path.name:
            stale.unlink(missing_ok=True)
    return CacheFilePair(tensor_path=tensor_path, sidecar_path=sidecar_path)


def discover_pair(directory: Path | str, agent_id: str) -> CacheFilePair | None:
    """Locate an agent's file pair via its sidecar, if present."""
    sidecar_path = sidecar_path_for(directory, agent_id)
    if not sidecar_path.exists():
        return None
    meta = _read_sidecar(sidecar_path)
    if "tensor_file" not in meta:
        raise CorruptFileError(f"sidecar {sidecar_path} has no tensor_file")
    return CacheFilePair(
        tensor_path=Path(directory) / meta["tensor_file"], sidecar_path=sidecar_path
    )


def remove_agent_files(directory: Path | str, agent_id: str) -> None:
    directory = Path(directory)
    sidecar_path_for(directory, agent_id).unlink(missing_ok=True)
    for stale in _agent_tensor_files(directory, agent_id):
        stale.unlink(missing_ok=True)


def _parse_header(header_blob: bytes, data_len: int, path: Path) -> dict:
    """Validate a safetensors JSON header against the data region size.

    Returns {name: (dtype, shape, begin, end)}. Never touches tensor data,
    so callers may inspect headers of arbitrarily large files cheaply.
    """
    try:
        header = json.loads(header_blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptFileError(f"{path}: header must be a JSON object")

    entries: dict[str, tuple[str, tuple[int, ...], int, int]] = {}
    extents: list[tuple[int, int]] = []
    for name, info in header.items():
        if name == "__metadata__":
            continue
        if not isinstance(info, dict):
            raise CorruptFileError(f"{path}: tensor {name}: entry must be an object")
        try:
            dtype = info["dtype"]
            shape = info["shape"]
            begin, end = info["data_offsets"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFileError(f"{path}: tensor {name}: malformed entry") from exc
        if dtype not in _DTYPE_ITEMSIZE:
            raise CorruptFileError(f"{path}: tensor {name}: unknown dtype {dtype!r}")
        if not isinstance(shape, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape
        ):
            raise CorruptFileError(f"{path}: tensor {name}: malformed shape {shape!r}")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (begin, end)):
            raise CorruptFileError(f"{path}: tensor {name}: malformed offsets")
        count = 1
        for s in shape:
            count *= s
        if begin < 0 or end < begin or end - begin != count * _DTYPE_ITEMSIZE[dtype]:
            raise CorruptFileError(
                f"{path}: tensor {name}: offsets [{begin}, {end}) inconsistent with shape"
            )
        entries[name] = (dtype, tuple(shape), begin, end)
        extents.append((begin, end))

    extents.sort()
    cursor = 0
    for begin, end in extents:
        if begin != cursor:
            raise CorruptFileError(f"{path}: data region has a gap or overlap at {begin}")
        cursor = end
    if cursor != data_len:
        raise CorruptFileError(
            f"{path}: data region holds {data_len} bytes, header declares {cursor}"
        )
    return entries


def _read_header(fh: BinaryIO, total: int, path: Path) -> tuple[int, dict]:
    """Read a ``total``-byte file's header: (data_start, _parse_header entries)."""
    prefix = fh.read(8)
    if len(prefix) < 8:
        raise CorruptFileError(f"{path}: shorter than the 8-byte header length")
    (header_len,) = struct.unpack("<Q", prefix)
    if header_len < 2 or header_len > _HEADER_LIMIT:
        raise CorruptFileError(f"{path}: implausible header length {header_len}")
    header_blob = fh.read(header_len)
    if len(header_blob) < header_len:
        raise CorruptFileError(f"{path}: header extends past end of file")
    data_start = 8 + header_len
    return data_start, _parse_header(header_blob, total - data_start, path)


def inspect_tensor_file(path: Path | str) -> FileSummary:
    """Summarize a tensor file from its header alone (no tensor data read)."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            total = os.fstat(fh.fileno()).st_size
            data_start, entries = _read_header(fh, total, path)
    except OSError as exc:
        raise CorruptFileError(f"cannot read {path}: {exc}") from exc
    tensors = tuple(
        TensorSummary(name=name, dtype=dtype, shape=shape, nbytes=end - begin)
        for name, (dtype, shape, begin, end) in sorted(entries.items())
    )
    return FileSummary(
        header_bytes=data_start - 8,
        data_bytes=sum(t.nbytes for t in tensors),
        total_bytes=total,
        tensors=tensors,
    )


def _read_sidecar(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorruptFileError(f"cannot read sidecar {path}: {exc}") from exc
    try:
        meta = json.loads(text)
    except ValueError as exc:
        raise CorruptFileError(f"sidecar {path} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise CorruptFileError(f"sidecar {path} must be a JSON object")
    return meta


def _int_list(value) -> bool:
    """A JSON array of integers (``true``/``false`` are not integers here)."""
    return isinstance(value, list) and all(type(v) is int for v in value)


def load_agent(pair: CacheFilePair, expected_fingerprint: int | None) -> AgentCache:
    """Reconstruct an agent cache bit-identically, validating as it goes."""
    meta = _read_sidecar(pair.sidecar_path)
    try:
        if meta["format_version"] != FORMAT_VERSION:
            raise CorruptFileError(
                f"{pair.sidecar_path}: unsupported format_version {meta['format_version']!r}"
            )
        agent_id = meta["agent_id"]
        spec_dict = meta["spec"]
        fingerprint = meta["fingerprint"]
        token_ids = meta["token_ids"]
        char_offsets = meta["char_offsets"]
        transcript = meta["transcript_text"]
        block_counts = meta["block_token_counts"]
        tensor_sha = meta["tensor_sha256"]
    except KeyError as exc:
        raise CorruptFileError(f"{pair.sidecar_path}: missing field {exc}") from exc

    spec = ModelCacheSpec.from_json_dict(spec_dict)
    if spec_fingerprint(spec) != fingerprint:
        raise CorruptFileError(
            f"{pair.sidecar_path}: fingerprint does not match the embedded spec"
        )
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise SpecMismatchError(
            f"cache for {agent_id!r} was produced under a different model spec"
        )

    if not _int_list(token_ids) or not _int_list(char_offsets):
        raise CorruptFileError(f"{pair.sidecar_path}: token metadata must be integer lists")
    if len(char_offsets) != len(token_ids):
        raise CorruptFileError(f"{pair.sidecar_path}: char_offsets/token_ids length mismatch")
    total_tokens = len(token_ids)
    if not _int_list(block_counts) or any(not 1 <= c <= spec.block_tokens for c in block_counts):
        raise CorruptFileError(f"{pair.sidecar_path}: invalid block token counts")
    if any(c != spec.block_tokens for c in block_counts[:-1]):
        raise CorruptFileError(f"{pair.sidecar_path}: non-final block not full")
    if sum(block_counts) != total_tokens:
        raise CorruptFileError(
            f"{pair.sidecar_path}: block token counts sum to {sum(block_counts)}, "
            f"expected {total_tokens}"
        )

    try:
        blob = pair.tensor_path.read_bytes()
    except OSError as exc:
        raise CorruptFileError(f"cannot read {pair.tensor_path}: {exc}") from exc
    if hashlib.sha256(blob).hexdigest() != tensor_sha:
        raise CorruptFileError(f"{pair.tensor_path}: SHA-256 mismatch (truncated or torn)")

    data_start, entries = _read_header(io.BytesIO(blob), len(blob), pair.tensor_path)

    layout = _layout(spec, block_counts)
    if set(entries) != {slot.name for slot in layout}:
        raise CorruptFileError(
            f"{pair.tensor_path}: tensor names do not match the declared blocks"
        )

    heads = spec.num_kv_heads
    fields: dict[tuple[int, int, str], dict[str, np.ndarray]] = {}
    for slot in layout:
        actual_dtype, actual_shape, begin, _ = entries[slot.name]
        if actual_dtype != slot.dtype or actual_shape != slot.shape:
            raise CorruptFileError(
                f"{pair.tensor_path}: tensor {slot.name}: expected {slot.dtype} {slot.shape}, "
                f"got {actual_dtype} {actual_shape}"
            )
        file_dtype, native = _NP_DTYPE[slot.dtype]
        # one native-dtype copy, so no array keeps the file bytes alive
        array = np.frombuffer(
            blob, dtype=file_dtype, count=prod(slot.shape), offset=data_start + begin
        ).reshape(slot.shape).astype(native)
        fields.setdefault((slot.layer, slot.block, slot.side), {})[slot.field] = array

    def tensor(layer: int, b: int, side: str, dim: int) -> QuantizedTensor:
        return QuantizedTensor(
            heads=heads, tokens=block_counts[b], dim=dim,
            group_size=spec.group_size, **fields[(layer, b, side)],
        )

    blocks = [
        [
            KVBlock(k=tensor(layer, b, "k", spec.k_head_dim),
                    v=tensor(layer, b, "v", spec.v_head_dim))
            for b in range(len(block_counts))
        ]
        for layer in range(spec.num_layers)
    ]

    cache = AgentCache(
        agent_id=agent_id,
        spec_fingerprint=fingerprint,
        blocks=blocks,
        transcript_text=transcript,
        token_ids=list(token_ids),
        char_offsets=list(char_offsets),
    )
    cache.validate(spec.num_layers, spec.block_tokens)
    expected_bytes = sum(
        q4_tensor_bytes(heads, c, spec.k_head_dim, spec.group_size)
        + q4_tensor_bytes(heads, c, spec.v_head_dim, spec.group_size)
        for c in block_counts
    ) * spec.num_layers
    if cache.nbytes != expected_bytes:
        raise CorruptFileError(f"{pair.tensor_path}: payload size inconsistent")
    return cache
