"""Persistence tests: bitwise round trips, schema, corruption handling."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from agentkv.block_pool import BlockPool
from agentkv.codec import q4_bytes
from agentkv.errors import CorruptFileError, SpecMismatchError
from agentkv.model_spec import preset, spec_fingerprint
from agentkv.persistence import (
    discover_pair,
    inspect_tensor_file,
    load_agent,
    save_agent,
)

from .helpers import append_random, cache_checksum, random_kv_chunk, tiny_spec


def build_cache(tmp_path, spec, tokens, seed=0, agent="a"):
    pool = BlockPool(spec, tmp_path, budget_bytes=1 << 34)
    rng = np.random.default_rng(seed)
    if tokens:
        append_random(pool, agent, tokens, rng)
    else:
        pool.append_tokens(agent, random_kv_chunk(spec, 0, rng), [], "")  # an empty agent
    return pool, pool.get_cache(agent)


def test_save_load_round_trip_bitwise(tmp_path):
    spec = tiny_spec(layers=3, block=8)
    pool, cache = build_cache(tmp_path / "pool", spec, tokens=21)
    pair = save_agent(cache, tmp_path / "store", spec)
    loaded = load_agent(pair, spec_fingerprint(spec))
    assert cache_checksum(loaded) == cache_checksum(cache)
    assert loaded.token_ids == cache.token_ids
    assert loaded.char_offsets == cache.char_offsets
    assert loaded.transcript_text == cache.transcript_text
    for la, lb in zip(cache.blocks, loaded.blocks):
        for a, b in zip(la, lb):
            assert a.k.bitwise_equal(b.k)
            assert a.v.bitwise_equal(b.v)


def test_identical_caches_produce_identical_files(tmp_path):
    spec = tiny_spec(layers=2, block=8)
    _, c1 = build_cache(tmp_path / "p1", spec, tokens=13, seed=5)
    _, c2 = build_cache(tmp_path / "p2", spec, tokens=13, seed=5)
    pair1 = save_agent(c1, tmp_path / "s1", spec)
    pair2 = save_agent(c2, tmp_path / "s2", spec)
    assert pair1.tensor_path.name == pair2.tensor_path.name
    assert pair1.tensor_path.read_bytes() == pair2.tensor_path.read_bytes()
    assert pair1.sidecar_path.read_bytes() == pair2.sidecar_path.read_bytes()


def test_tensor_name_schema(tmp_path):
    # 512 tokens at block 256 over 48 layers: names span L0_B0_* .. L47_B1_*
    spec = preset("gemma3-12b")
    pool = BlockPool(spec, tmp_path / "pool", budget_bytes=1 << 40)
    rng = np.random.default_rng(1)
    append_random(pool, "g", 512, rng)
    pair = save_agent(pool.get_cache("g"), tmp_path / "store", spec)
    summary = inspect_tensor_file(pair.tensor_path)
    names = {t.name for t in summary.tensors}
    assert len(names) == 48 * 2 * 6
    assert "L0_B0_K_weights" in names
    assert "L47_B1_V_biases" in names
    for t in summary.tensors:
        if t.name.endswith("_weights"):
            assert t.dtype == "U32"
        else:
            assert t.dtype == "BF16"
    k_weights = next(t for t in summary.tensors if t.name == "L0_B0_K_weights")
    assert k_weights.shape == (8, 256, 256 // 8)
    k_scales = next(t for t in summary.tensors if t.name == "L0_B0_K_scales")
    assert k_scales.shape == (8, 256, 256 // 64)


def test_deepseek_asymmetric_round_trip(tmp_path):
    spec = preset("deepseek-v2-lite-16b")
    pool = BlockPool(spec, tmp_path / "pool", budget_bytes=1 << 40)
    rng = np.random.default_rng(2)
    append_random(pool, "d", 300, rng)  # partially-filled tail block
    cache = pool.get_cache("d")
    pair = save_agent(cache, tmp_path / "store", spec)
    loaded = load_agent(pair, spec_fingerprint(spec))
    assert cache_checksum(loaded) == cache_checksum(cache)
    assert loaded.block_token_counts() == [256, 44]
    summary = inspect_tensor_file(pair.tensor_path)
    k = next(t for t in summary.tensors if t.name == "L0_B1_K_weights")
    v = next(t for t in summary.tensors if t.name == "L0_B1_V_weights")
    assert k.shape == (16, 44, 192 // 8)
    assert v.shape == (16, 44, 128 // 8)


def test_empty_agent_round_trip(tmp_path):
    spec = tiny_spec()
    _, cache = build_cache(tmp_path / "pool", spec, tokens=0)
    pair = save_agent(cache, tmp_path / "store", spec)
    summary = inspect_tensor_file(pair.tensor_path)
    assert summary.tensors == ()
    loaded = load_agent(pair, spec_fingerprint(spec))
    assert loaded.token_count == 0
    assert loaded.transcript_text == ""
    assert loaded.nbytes == 0


def test_wrong_fingerprint_rejected(tmp_path):
    spec = tiny_spec()
    _, cache = build_cache(tmp_path / "pool", spec, tokens=9)
    pair = save_agent(cache, tmp_path / "store", spec)
    with pytest.raises(SpecMismatchError):
        load_agent(pair, spec_fingerprint(preset("llama31-8b")))


def test_header_is_canonical_and_padded(tmp_path):
    spec = tiny_spec()
    _, cache = build_cache(tmp_path / "pool", spec, tokens=9)
    pair = save_agent(cache, tmp_path / "store", spec)
    blob = pair.tensor_path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[:8])
    assert header_len % 8 == 0
    header = json.loads(blob[8 : 8 + header_len])
    assert list(header) == sorted(header)
    # offsets tile the data region in sorted-name order
    cursor = 0
    for name in header:
        begin, end = header[name]["data_offsets"]
        assert begin == cursor
        cursor = end
    assert cursor == len(blob) - 8 - header_len


def test_sidecar_contents(tmp_path):
    spec = tiny_spec()
    _, cache = build_cache(tmp_path / "pool", spec, tokens=9)
    pair = save_agent(cache, tmp_path / "store", spec)
    text = pair.sidecar_path.read_text()
    assert text.endswith("\n")
    meta = json.loads(text)
    assert meta["agent_id"] == "a"
    assert meta["format_version"] == 1
    assert meta["fingerprint"] == spec_fingerprint(spec)
    assert meta["block_token_counts"] == [8, 1]
    assert list(meta) == sorted(meta)
    assert meta["tensor_file"] == pair.tensor_path.name


def test_inspect_reports_q4_byte_accounting(tmp_path):
    spec = tiny_spec(layers=3, block=8)
    _, cache = build_cache(tmp_path / "pool", spec, tokens=21)
    pair = save_agent(cache, tmp_path / "store", spec)
    summary = inspect_tensor_file(pair.tensor_path)
    assert summary.data_bytes == q4_bytes(spec, 21)
    assert summary.total_bytes == 8 + summary.header_bytes + summary.data_bytes


def test_inspect_rejects_empty_and_garbage(tmp_path):
    empty = tmp_path / "empty.safetensors"
    empty.write_bytes(b"")
    with pytest.raises(CorruptFileError):
        inspect_tensor_file(empty)
    garbage = tmp_path / "garbage.safetensors"
    garbage.write_bytes(b"\xff" * 64)
    with pytest.raises(CorruptFileError):
        inspect_tensor_file(garbage)
    missing = tmp_path / "missing.safetensors"
    with pytest.raises(CorruptFileError):
        inspect_tensor_file(missing)


def test_inspect_detects_data_truncation_without_reading_data(tmp_path):
    spec = tiny_spec(layers=2, block=8)
    _, cache = build_cache(tmp_path / "pool", spec, tokens=20)
    pair = save_agent(cache, tmp_path / "store", spec)
    blob = pair.tensor_path.read_bytes()
    pair.tensor_path.write_bytes(blob[:-5])  # header intact, data short
    with pytest.raises(CorruptFileError):
        inspect_tensor_file(pair.tensor_path)


def test_truncation_fuzzing_never_loads(tmp_path):
    spec = tiny_spec(layers=2, block=8)
    _, cache = build_cache(tmp_path / "pool", spec, tokens=20)
    pair = save_agent(cache, tmp_path / "store", spec)
    blob = pair.tensor_path.read_bytes()
    rng = np.random.default_rng(3)
    cuts = sorted(set(rng.integers(0, len(blob), size=200).tolist()))
    for cut in cuts:
        pair.tensor_path.write_bytes(blob[:cut])
        with pytest.raises(CorruptFileError):
            load_agent(pair, spec_fingerprint(spec))
    # restore and confirm the pristine file still loads
    pair.tensor_path.write_bytes(blob)
    assert load_agent(pair, spec_fingerprint(spec)).token_count == 20


def test_bit_flip_detected(tmp_path):
    spec = tiny_spec(layers=2, block=8)
    _, cache = build_cache(tmp_path / "pool", spec, tokens=20)
    pair = save_agent(cache, tmp_path / "store", spec)
    blob = bytearray(pair.tensor_path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    pair.tensor_path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError):
        load_agent(pair, spec_fingerprint(spec))


def test_sidecar_corruption_detected(tmp_path):
    spec = tiny_spec()
    _, cache = build_cache(tmp_path / "pool", spec, tokens=9)
    pair = save_agent(cache, tmp_path / "store", spec)
    good = json.loads(pair.sidecar_path.read_text())
    assert good["block_token_counts"] == [8, 1]
    # each value keeps the lengths and the block-count sum consistent
    bad_fields = [
        ("token_ids", ["oops"] + good["token_ids"][1:]),
        ("token_ids", [1.5] + good["token_ids"][1:]),
        ("token_ids", [True] + good["token_ids"][1:]),
        ("char_offsets", [False] + good["char_offsets"][1:]),
        ("block_token_counts", [8, True]),
        ("block_token_counts", [8, 1.0]),
    ]
    for field, value in bad_fields:
        pair.sidecar_path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(CorruptFileError):
            load_agent(pair, spec_fingerprint(spec))
    pair.sidecar_path.write_text("{not json")
    with pytest.raises(CorruptFileError):
        load_agent(pair, spec_fingerprint(spec))


def test_missing_tensor_detected(tmp_path):
    spec = tiny_spec(layers=2, block=8)
    _, cache = build_cache(tmp_path / "pool", spec, tokens=20)
    store = tmp_path / "store"
    pair = save_agent(cache, store, spec)
    # rebuild the container without one tensor, fix the sidecar hash to match
    blob = pair.tensor_path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + header_len])
    victim = sorted(header)[0]
    begin, end = header[victim]["data_offsets"]
    size = end - begin
    del header[victim]
    for info in header.values():
        if info["data_offsets"][0] >= end:
            info["data_offsets"][0] -= size
            info["data_offsets"][1] -= size
    data = blob[8 + header_len :]
    new_data = data[:begin] + data[end:]
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    new_header += b" " * ((-len(new_header)) % 8)
    new_blob = struct.pack("<Q", len(new_header)) + new_header + new_data
    pair.tensor_path.write_bytes(new_blob)
    import hashlib

    meta = json.loads(pair.sidecar_path.read_text())
    meta["tensor_sha256"] = hashlib.sha256(new_blob).hexdigest()
    pair.sidecar_path.write_text(json.dumps(meta, sort_keys=True) + "\n")
    with pytest.raises(CorruptFileError):
        load_agent(pair, spec_fingerprint(spec))


def test_atomicity_crash_between_write_and_commit(tmp_path, monkeypatch):
    """A crash before the sidecar rename leaves the old pair fully intact."""
    spec = tiny_spec()
    pool, cache = build_cache(tmp_path / "pool", spec, tokens=9)
    store = tmp_path / "store"
    old_pair = save_agent(cache, store, spec)
    old_tensor = old_pair.tensor_path.read_bytes()
    old_sidecar = old_pair.sidecar_path.read_bytes()

    rng = np.random.default_rng(4)
    append_random(pool, "a", 5, rng)
    grown = pool.get_cache("a")

    import agentkv.persistence as pmod

    real_atomic = pmod._atomic_write
    calls = {"n": 0}

    def crashing(path, data):
        calls["n"] += 1
        if calls["n"] == 2:  # the sidecar commit
            raise KeyboardInterrupt("injected crash")
        real_atomic(path, data)

    monkeypatch.setattr(pmod, "_atomic_write", crashing)
    with pytest.raises(KeyboardInterrupt):
        save_agent(grown, store, spec)
    monkeypatch.setattr(pmod, "_atomic_write", real_atomic)

    # the committed pair is still the old one and still loads
    pair = discover_pair(store, "a")
    assert pair.sidecar_path.read_bytes() == old_sidecar
    assert pair.tensor_path.read_bytes() == old_tensor
    loaded = load_agent(pair, spec_fingerprint(spec))
    assert loaded.token_count == 9
    # a later successful save sweeps the orphan and commits the new state
    save_agent(grown, store, spec)
    pair2 = discover_pair(store, "a")
    assert load_agent(pair2, spec_fingerprint(spec)).token_count == 14
    leftovers = sorted(p.name for p in store.glob("a.*.safetensors"))
    assert leftovers == [pair2.tensor_path.name]


def test_restart_survival_in_subprocess(tmp_path):
    """Save here, load in a fresh interpreter, byte-compare checksums."""
    spec = tiny_spec(layers=2, block=8)
    _, cache = build_cache(tmp_path / "pool", spec, tokens=20, seed=9)
    store = tmp_path / "store"
    pair = save_agent(cache, store, spec)
    expected = cache_checksum(cache)
    code = f"""
import sys
sys.path.insert(0, {str(_project_tests_parent())!r})
from agentkv.model_spec import preset, spec_fingerprint
from agentkv.persistence import discover_pair, load_agent
from tests.helpers import cache_checksum, tiny_spec
spec = tiny_spec(layers=2, block=8)
pair = discover_pair({str(store)!r}, "a")
cache = load_agent(pair, spec_fingerprint(spec))
print(cache_checksum(cache))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == expected


def _project_tests_parent():
    import pathlib

    return str(pathlib.Path(__file__).resolve().parent.parent)


def test_discover_pair_absent(tmp_path):
    assert discover_pair(tmp_path, "nobody") is None


# ---------------------------------------------------------------------------
# on-disk isolation of agents whose ids share a dotted prefix


@pytest.mark.parametrize("action", ["resave", "drop"])
def test_dotted_prefix_agents_stay_isolated_on_disk(tmp_path, action):
    spec = tiny_spec(layers=2, block=8)
    store = tmp_path / "store"
    pool = BlockPool(spec, store, budget_bytes=1 << 34)
    rng = np.random.default_rng(11)
    append_random(pool, "a.b", 13, rng)
    append_random(pool, "a", 9, rng)
    pool.save_agent("a.b")
    expected = cache_checksum(pool.get_cache("a.b"))
    pool.save_agent("a")
    if action == "resave":
        append_random(pool, "a", 3, rng)
        pool.save_agent("a")
    else:
        pool.drop_agent("a", delete_disk=True)
    fresh = BlockPool(spec, store, budget_bytes=1 << 34)
    assert cache_checksum(fresh.get_cache("a.b")) == expected


# ---------------------------------------------------------------------------
# crash points inside save_agent


class _Crash(BaseException):
    """Stands in for the process dying at an injected point."""


class _TornFile:
    """A file whose first write lands half its bytes, then the process dies."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        view = memoryview(data).cast("B")
        self._fh.write(view[: len(view) // 2])
        self._fh.flush()
        raise _Crash("torn write")

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _inject_crash(monkeypatch, step):
    import builtins
    import os
    import pathlib

    import agentkv.persistence as pmod

    kind, suffix = step.split(":")
    if kind == "write":
        real_open = builtins.open

        def torn_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" in mode and f"{suffix}.tmp." in pathlib.Path(path).name:
                return _TornFile(fh)
            return fh

        monkeypatch.setattr(pmod, "open", torn_open, raising=False)
    elif kind == "rename":
        real_replace = os.replace

        def crashing_replace(src, dst, *args, **kwargs):
            if str(dst).endswith(suffix):
                raise _Crash(f"rename onto {dst}")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", crashing_replace)
    else:
        real_unlink = pathlib.Path.unlink

        def crashing_unlink(self, *args, **kwargs):
            if self.name.endswith(suffix) and not self.name.startswith("."):
                raise _Crash(f"unlink {self}")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "unlink", crashing_unlink)


@pytest.mark.parametrize(
    "step",
    [
        "write:.safetensors",
        "rename:.safetensors",
        "write:.meta.json",
        "rename:.meta.json",
        "unlink:.safetensors",
    ],
)
def test_crash_at_each_save_step_keeps_old_or_new_state(tmp_path, monkeypatch, step):
    spec = tiny_spec(layers=2, block=8)
    store = tmp_path / "store"
    pool = BlockPool(spec, store, budget_bytes=1 << 34)
    rng = np.random.default_rng(12)
    append_random(pool, "a", 13, rng)
    pool.save_agent("a")
    old = cache_checksum(pool.get_cache("a"))
    append_random(pool, "a", 6, rng)
    new = cache_checksum(pool.get_cache("a"))

    with monkeypatch.context() as m:
        _inject_crash(m, step)
        with pytest.raises(_Crash):
            pool.save_agent("a")

    fresh = BlockPool(spec, store, budget_bytes=1 << 34)
    assert cache_checksum(fresh.get_cache("a")) in (old, new)


def test_save_fsyncs_the_directory_after_each_rename(tmp_path, monkeypatch):
    import os
    import stat

    pool, cache = build_cache(tmp_path / "build", tiny_spec(), 11)
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def logging_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            log.append("fsync dir")
        return real_fsync(fd)

    def logging_replace(src, dst, *args, **kwargs):
        result = real_replace(src, dst, *args, **kwargs)
        log.append("rename " + ("sidecar" if str(dst).endswith(".meta.json") else "tensor"))
        return result

    monkeypatch.setattr(os, "fsync", logging_fsync)
    monkeypatch.setattr(os, "replace", logging_replace)
    save_agent(cache, tmp_path / "store", pool.spec)
    # the tensor's name is durable before the sidecar names it, and the
    # commit is durable before save_agent returns
    assert log == ["rename tensor", "fsync dir", "rename sidecar", "fsync dir"]


# ---------------------------------------------------------------------------
# the exact bytes of a saved pair


def _pinned_deepseek_cache(directory):
    """A fixed deepseek cache: asymmetric K/V, one full block and a 4-token tail."""
    spec = preset("deepseek-v2-lite-16b")
    pool = BlockPool(spec, directory, budget_bytes=1 << 40)
    tokens = 260
    heads = spec.num_kv_heads

    def lattice(dim, salt):
        # integer arithmetic then one correctly rounded division: no libm
        i = np.arange(heads * tokens * dim, dtype=np.int64)
        values = ((i * 7919 + salt * 104729) % 1001) / 1000.0 - 0.5
        return values.astype(np.float32).reshape(heads, tokens, dim)

    k = np.empty((spec.num_layers, heads, tokens, spec.k_head_dim), np.float32)
    v = np.empty((spec.num_layers, heads, tokens, spec.v_head_dim), np.float32)
    for layer in range(spec.num_layers):
        k[layer] = lattice(spec.k_head_dim, 2 * layer)
        v[layer] = lattice(spec.v_head_dim, 2 * layer + 1)
    ids = [(t * 7919) % 50_000 for t in range(tokens)]
    pool.append_tokens("pin", (k, v), ids, "aé" * tokens, [2 * t for t in range(tokens)])
    return spec, pool.get_cache("pin")


def test_saved_bytes_are_pinned(tmp_path):
    import hashlib

    spec, cache = _pinned_deepseek_cache(tmp_path / "pool")
    pair = save_agent(cache, tmp_path / "store", spec)
    assert cache.block_token_counts() == [256, 4]
    tensor_sha = hashlib.sha256(pair.tensor_path.read_bytes()).hexdigest()
    sidecar_sha = hashlib.sha256(pair.sidecar_path.read_bytes()).hexdigest()
    assert pair.tensor_path.name == f"pin.{tensor_sha[:16]}.safetensors"
    assert tensor_sha == "aad0f595dac03d5fc6d38e3546136db69f3965bce297115cd65dca50d269dda5"
    assert sidecar_sha == "939c7d583f825ecc9de8734d7d7862adc6cbec0d216d06ed6f50765fba83d220"


def test_save_allocates_far_less_than_the_cache(tmp_path):
    import tracemalloc

    spec = preset("llama31-8b")
    pool = BlockPool(spec, tmp_path / "pool", budget_bytes=1 << 40)
    append_random(pool, "m", 300, np.random.default_rng(13))
    cache = pool.get_cache("m")
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        save_agent(cache, tmp_path / "store", spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < cache.nbytes // 4
