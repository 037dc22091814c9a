import json
import math
import struct

import numpy as np
import pytest

from spikessm.checkpoint import config_from_json, config_to_json, load, load_raw, save
from spikessm.mamba2 import SPIKING, LanguageModel, Mamba2Config, param_shapes
from spikessm.neurons import NeuronConfig, TILIF
from spikessm.tensor import ContractError


def make_model(rng):
    cfg = Mamba2Config(
        d_model=8, n_state=4, n_heads=2, d_head=8, n_layers=2, vocab=11,
        mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4, alpha=0.5),
        sgc=True,
    )
    return LanguageModel(cfg, rng)


def test_config_json_round_trip(rng):
    cfg = make_model(rng).cfg
    assert config_from_json(config_to_json(cfg)) == cfg


def test_checkpoint_bit_exact_round_trip(tmp_path, rng):
    model = make_model(rng)
    path = tmp_path / "model.spkm"
    save(path, model)
    loaded = load(path)
    assert loaded.cfg == model.cfg
    for (na, a), (nb, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert na == nb
        assert np.array_equal(a.data.astype(np.float32), b.data)
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.spkm"
    save(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.spkm"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContractError):
        load_raw(p)


def test_checkpoint_preserves_behavior(tmp_path, rng):
    model = make_model(rng)
    path = tmp_path / "model.spkm"
    save(path, model)
    loaded = load(path)
    toks = rng.integers(0, model.cfg.vocab, size=(1, 6))
    a, _ = model.forward_batch(toks)
    b, _ = loaded.forward_batch(toks)
    np.testing.assert_array_equal(a.data.astype(np.float32), b.data)


def _data_regions(blob: bytes) -> tuple[tuple[int, int], list[tuple[str, int, int]]]:
    """Byte ranges of the config JSON and of every tensor's data, found by
    walking the documented layout."""
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    off = 12 + cfg_len
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    data = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, off)
        name = blob[off + 4:off + 4 + name_len].decode()
        off += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, off)
        dims = struct.unpack_from(f"<{rank}I", blob, off + 4)
        off += 4 + 4 * rank
        data.append((name, off, off + 4 * math.prod(dims)))
        off = data[-1][2]
    return (12, 12 + cfg_len), data


def test_checkpoint_truncations_and_byte_flips(tmp_path, rng):
    """Every truncation fails naming a byte offset. A single-byte flip of
    every header, config, name and dims byte, and of a seeded sample of
    weight bytes, either raises ContractError or loads exactly what the
    bytes say: the original model, with the flipped float in place when
    the flip hit weight data."""
    model = make_model(rng)
    path = tmp_path / "model.spkm"
    save(path, model)
    blob = path.read_bytes()
    bad = tmp_path / "bad.spkm"
    for n in range(len(blob)):
        bad.write_bytes(blob[:n])
        with pytest.raises(ContractError, match="at byte"):
            load(bad)

    (cfg_lo, cfg_hi), data = _data_regions(blob)
    assert data[-1][2] == len(blob)
    in_data = np.zeros(len(blob), dtype=bool)
    for _, lo, hi in data:
        in_data[lo:hi] = True
    flips = np.random.default_rng(5)
    positions = np.concatenate([np.flatnonzero(~in_data),
                                flips.choice(np.flatnonzero(in_data), 200, replace=False)])
    original = {name: t.data.astype(np.float32) for name, t in model.named_parameters()}
    rejected = weight_loads = 0
    for p in positions:
        mutated = bytearray(blob)
        mutated[p] ^= int(flips.integers(1, 256))
        bad.write_bytes(bytes(mutated))
        try:
            loaded = load(bad)
        except ContractError:
            rejected += 1
            continue
        want = {name: a.copy() for name, a in original.items()}
        hit = [(name, lo) for name, lo, hi in data if lo <= p < hi]
        if hit:
            name, lo = hit[0]
            at = lo + (p - lo) // 4 * 4
            want[name].reshape(-1)[(p - lo) // 4] = np.frombuffer(
                bytes(mutated[at:at + 4]), dtype="<f4")[0]
            assert loaded.cfg == model.cfg
            weight_loads += 1
        else:
            assert cfg_lo <= p < cfg_hi, f"flip at byte {p} loaded"
        for name, t in loaded.named_parameters():
            assert np.array_equal(t.data, want[name]), (p, name)
    assert rejected > 0 and weight_loads > 0


@pytest.mark.parametrize("text, msg", [
    (b"\xff\xfe", "not UTF-8"),
    (b"{not json", "not valid JSON"),
    (b"[]", "must be a JSON object"),
])
def test_checkpoint_bad_config_names_offset(tmp_path, text, msg):
    p = tmp_path / "bad.spkm"
    p.write_bytes(b"SPKM" + struct.pack("<II", 1, len(text)) + text)
    with pytest.raises(ContractError, match=f"{msg}.* at byte 12"):
        load_raw(p)


def test_config_keys_and_values_checked(rng):
    d = json.loads(config_to_json(make_model(rng).cfg))
    for key, value in [("extra", 1), ("d_model", "8"), ("d_model", 0),
                       ("d_model", True), ("mode", 3), ("sgc", 1), ("sgc", "true"),
                       ("sgc", None), ("sgc_layers", [0, 1]), ("conv_width", 4),
                       ("neuron", {**d["neuron"], "beta": 1.0}),
                       ("neuron", {**d["neuron"], "passthrough": False})]:
        with pytest.raises(ContractError):
            config_from_json(json.dumps({**d, key: value}))
    with pytest.raises(ContractError, match="missing"):
        config_from_json(json.dumps({k: v for k, v in d.items() if k != "vocab"}))
    with pytest.raises(ContractError):
        config_from_json(json.dumps({**d, "neuron": {**d["neuron"], "alpha": float("nan")}}))


def test_checkpoint_rejects_non_finite_weights(tmp_path, rng):
    path = tmp_path / "model.spkm"
    save(path, make_model(rng))
    blob = bytearray(path.read_bytes())
    _, data = _data_regions(bytes(blob))
    name, lo, _ = data[3]
    blob[lo:lo + 4] = np.array([np.inf], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ContractError, match=f"non-finite weights in {name} at byte {lo}"):
        load_raw(path)


def with_config(blob: bytes, **changes) -> bytes:
    """A container's bytes with keys of its config JSON replaced."""
    (n,) = struct.unpack("<I", blob[8:12])
    cfg = json.loads(blob[12:12 + n])
    text = json.dumps({**cfg, **changes}).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + n:]


def test_param_shapes_table_matches_model(rng):
    for model in (make_model(rng), LanguageModel(Mamba2Config(
            d_model=8, n_state=4, n_heads=2, d_head=8, n_layers=3, vocab=11),
            np.random.default_rng(0))):
        built = [(name, t.shape) for name, t in model.named_parameters()]
        assert built == list(param_shapes(model.cfg).items())


def test_load_checks_tensors_against_config_before_building(tmp_path, rng):
    path = tmp_path / "model.spkm"
    save(path, make_model(rng))
    blob = path.read_bytes()
    # building this model would ask numpy for 2**40 * 8 floats
    path.write_bytes(with_config(blob, vocab=2 ** 40))
    with pytest.raises(ContractError, match="embedding has shape"):
        load(path)
    path.write_bytes(with_config(blob, n_layers=3))
    with pytest.raises(ContractError, match="names disagree.*layers.2"):
        load(path)
