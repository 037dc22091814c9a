"""Binary model container.

Layout (all integers little-endian uint32, all floats little-endian
float32):

    magic   4 bytes         b"SPKM"
    version uint32          currently 1
    cfg_len uint32
    cfg     cfg_len bytes   UTF-8 JSON of the model configuration
    count   uint32          number of named tensors
    per tensor:
        name_len uint32
        name     UTF-8 bytes
        rank     uint32         at most MAX_RANK (model tensors are vectors or matrices)
        dims     rank * uint32
        data     prod(dims) float32, row-major

Round-trips are bit-exact: parameters are stored and reloaded as
float32 without re-encoding, and :func:`load` hands the arrays it reads
to :meth:`LanguageModel.from_tensors` without a random initialisation.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np

from .mamba2 import LanguageModel, Mamba2Config
from .neurons import NeuronConfig
from .tensor import ContractError

MAGIC = b"SPKM"
VERSION = 1
MAX_RANK = 2


def config_to_json(cfg: Mamba2Config) -> str:
    return json.dumps(asdict(cfg), sort_keys=True)


# JSON types a config value may take, by the field's annotation; every
# integer field of the configurations is a count or size, so at least 1,
# and every float field is finite
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _checked(d, cls) -> dict:
    """``d`` with exactly the fields of dataclass ``cls``, each of its type."""
    if not isinstance(d, dict):
        raise ContractError(f"{cls.__name__} must be a JSON object")
    names = {f.name: f.type for f in fields(cls)}
    unknown, missing = sorted(set(d) - set(names)), sorted(set(names) - set(d))
    if unknown or missing:
        raise ContractError(f"{cls.__name__} keys: unknown {unknown}, missing {missing}")
    for name, kind in names.items():
        want = _JSON_TYPES.get(kind)
        v = d[name]
        if want is not None and (not isinstance(v, want) or
                                 (kind != "bool" and isinstance(v, bool))):
            raise ContractError(f"config key {name!r} must be {kind}, got {v!r}")
        if kind == "int" and v < 1 or kind == "float" and not math.isfinite(v):
            raise ContractError(f"config key {name!r} out of range: {v}")
    return d


def config_from_json(text: str) -> Mamba2Config:
    """Inverse of :func:`config_to_json`; any malformed text is a ContractError."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractError(f"config is not valid JSON: {exc}") from None
    d = _checked(d, Mamba2Config)
    d["neuron"] = NeuronConfig(**_checked(d["neuron"], NeuronConfig))
    return Mamba2Config(**d)


def save(path, model: LanguageModel) -> None:
    cfg_bytes = config_to_json(model.cfg).encode("utf-8")
    named = model.named_parameters()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(cfg_bytes)))
        f.write(cfg_bytes)
        f.write(struct.pack("<I", len(named)))
        for name, t in named:
            nb = name.encode("utf-8")
            arr = np.ascontiguousarray(t.data, dtype="<f4")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


class _Reader:
    """Bounds-checked cursor over a container's bytes; every failure is a
    ContractError naming the byte offset."""

    def __init__(self, path, blob: bytes):
        self.path, self.blob, self.off = path, memoryview(blob), 0

    def fail(self, what: str, at: int | None = None):
        raise ContractError(f"{self.path}: {what} at byte {self.off if at is None else at}")

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.blob) - self.off:
            self.fail(f"truncated container: {what} needs {n} bytes, "
                      f"{len(self.blob) - self.off} left")
        self.off += n
        return self.blob[self.off - n:self.off]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, n: int, what: str) -> str:
        at = self.off
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError:
            self.fail(f"{what} is not UTF-8", at)


def load_raw(path) -> tuple[Mamba2Config, dict[str, np.ndarray]]:
    """Parse a container; truncation, bad config, bad names or non-finite
    weights raise ContractError naming the byte offset."""
    with open(path, "rb") as f:
        r = _Reader(path, f.read())
    if r.take(4, "magic") != MAGIC:
        r.fail("not a model container (bad magic)", 0)
    version = r.u32("version")
    if version != VERSION:
        r.fail(f"unsupported container version {version}", 4)
    at = r.off + 4
    text = r.text(r.u32("config length"), "config")
    try:
        cfg = config_from_json(text)
    except ContractError as exc:
        r.fail(f"bad config ({exc})", at)
    count = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        at = r.off
        name = r.text(r.u32("name length"), "tensor name")
        if name in tensors:
            r.fail(f"duplicate tensor {name!r}", at)
        at = r.off
        rank = r.u32(f"rank of {name}")
        if rank > MAX_RANK:
            r.fail(f"rank {rank} of {name} exceeds {MAX_RANK}", at)
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"dims of {name}"))
        at = r.off
        arr = np.frombuffer(r.take(4 * math.prod(dims), f"data of {name}"), dtype="<f4")
        if not np.isfinite(arr).all():
            r.fail(f"non-finite weights in {name}", at)
        tensors[name] = arr.reshape(dims).copy()
    if r.off != len(r.blob):
        r.fail("trailing bytes in container")
    return cfg, tensors


def load(path) -> LanguageModel:
    """The model a container holds, built by :meth:`LanguageModel.from_tensors`.
    Its tensor names and shapes are checked against its config before
    the model is built, so a crafted config cannot ask for an allocation
    its tensors do not back."""
    cfg, tensors = load_raw(path)
    try:
        return LanguageModel.from_tensors(cfg, tensors)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None
