from dataclasses import asdict

import numpy as np
import pytest

from spikessm.energy import (
    ANN,
    CSV_FIELDS,
    EnergyReport,
    ILIF_V,
    LIF_V,
    PJ_PER_UJ,
    PRESETS,
    PRICE_PJ,
    REFERENCE_ROWS,
    TILIF_V,
    VARIANTS,
    Geometry,
    compare_to_reference,
    compute_report,
    count_ops,
    reference_report,
    report_cells,
    spike_settings,
    to_table,
)
from spikessm.cli import csv_text
from spikessm.mamba2 import toy_config
from spikessm.tensor import ContractError


def row_count(rows, name, kind=None):
    return sum(r.count for r in rows if r.name == name and (kind is None or r.kind == kind))


def test_preset_geometries_consistent():
    for geom in PRESETS.values():
        assert geom.n_heads * geom.d_head == 2 * geom.d_model
    # a model config is a geometry: the toy model counts as the toy preset
    for variant, spikes in ((ANN, {}), (TILIF_V, dict(fr_in=0.3, fr_out=0.1, k=4))):
        assert (count_ops(toy_config(), variant, **spikes)
                == count_ops(PRESETS["toy"], variant, **spikes))


# row name -> report column: the oracle for the category count_ops
# states for each row
CATEGORY_BY_NAME = {
    "in_proj": "in_proj",
    "out_proj": "out_proj",
    "dtB": "ssm",
    "C*h": "ssm",
    "xD": "ssm",
    "xdB": "ssm",
    "Adt": "ssm",
    "Ah": "ssm",
    "dt+bias": "ssm",
    "Ah+xdB": "ssm",
    "y+Dx": "ssm",
    "conv1d": "others",
    "act": "others",
    "norm": "others",
    "y*act(z)": "others",
    "neuron1": "neuron",
    "neuron2": "neuron",
}


@pytest.mark.parametrize("config", sorted(PRESETS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_row_categories_price_as_the_name_table(config, variant):
    spikes = {} if variant == ANN else spike_settings(
        variant, 0.3, 0.12, None if variant == LIF_V else 4)
    rows = count_ops(PRESETS[config], variant, **spikes)
    assert [r.category for r in rows] == [CATEGORY_BY_NAME[r.name] for r in rows]
    want = dict.fromkeys(("in_proj", "out_proj", "ssm", "others", "neuron"), 0.0)
    for r in rows:
        want[CATEGORY_BY_NAME[r.name]] += r.count * PRICE_PJ[r.kind]
    report = compute_report(PRESETS[config], variant, **spikes)
    for bucket, pj in want.items():
        assert getattr(report, f"{bucket}_uj") == pj / PJ_PER_UJ


def test_ann_in_proj_count_130m():
    rows = count_ops(PRESETS["130m"], ANN)
    assert row_count(rows, "in_proj") == 3352 * 768 * 24 == 61_784_064


def test_lif_in_proj_add_count_130m():
    rows = count_ops(PRESETS["130m"], LIF_V, fr_in=0.3180, fr_out=0.1583, k=1)
    assert row_count(rows, "in_proj") == pytest.approx(0.3180 * 2_574_336 * 24)
    assert row_count(rows, "in_proj") == pytest.approx(19_647_332, rel=1e-4)


def test_zero_fire_rate_zero_projection_ops():
    rows = count_ops(PRESETS["130m"], TILIF_V, fr_in=0.0, fr_out=0.0, k=4)
    assert row_count(rows, "in_proj") == 0
    assert row_count(rows, "out_proj") == 0


def test_input_validation():
    with pytest.raises(ContractError):
        count_ops(PRESETS["130m"], TILIF_V, fr_in=1.2, fr_out=0.0, k=4)
    with pytest.raises(ContractError):
        count_ops(PRESETS["130m"], LIF_V, fr_in=0.5, fr_out=0.5, k=4)
    with pytest.raises(ContractError):
        count_ops(PRESETS["130m"], "gelu")
    with pytest.raises(ContractError):
        Geometry(d_model=8, n_state=4, n_heads=3, d_head=8, n_layers=1)


@pytest.mark.parametrize("field", ["d_model", "n_state", "n_heads", "d_head", "n_layers"])
def test_zero_size_geometry_refused(field):
    """Every size is at least 1, so every report prices a positive total
    and has a ratio."""
    with pytest.raises(ContractError, match=f"{field} must be >= 1, got 0"):
        Geometry(**asdict(PRESETS["toy"]) | {field: 0})


@pytest.mark.parametrize("config,variant", sorted(REFERENCE_ROWS))
def test_reference_cells_within_half_percent(config, variant):
    report = reference_report(config, variant)
    errs = compare_to_reference(report)  # raises above 0.5%
    assert max(errs.values()) <= 0.005


def test_130m_ann_exact_values():
    r = reference_report("130m", ANN)
    assert r.in_proj_uj == pytest.approx(284.2067, rel=5e-5)
    assert r.out_proj_uj == pytest.approx(130.2331, rel=5e-5)
    assert r.total_uj == pytest.approx(498.6607, rel=5e-5)


def test_130m_lif_values():
    r = reference_report("130m", LIF_V)
    assert r.in_proj_uj == pytest.approx(17.6826, rel=5e-4)
    assert r.out_proj_uj == pytest.approx(4.0259, rel=2e-3)
    assert r.total_uj == pytest.approx(105.9294, rel=1e-3)
    assert r.ratio == pytest.approx(4.7075, rel=1e-3)


def test_13b_tilif_values():
    r = reference_report("1.3b", TILIF_V)
    assert r.in_proj_uj == pytest.approx(761.8833, rel=1e-3)
    assert r.out_proj_uj == pytest.approx(88.6691, rel=1e-3)
    assert r.total_uj == pytest.approx(1299.3588, rel=1e-3)
    assert r.ratio == pytest.approx(4.7332, rel=1e-3)


def test_ssm_others_reproduced_from_rows_alone():
    # the category split itself must reproduce the published SSM and
    # Others cells within 1% for both preset geometries
    for config, ssm, others in [("130m", 82.7476, 1.4733), ("1.3b", 441.3204, 7.4809)]:
        r = reference_report(config, ANN)
        assert r.ssm_uj == pytest.approx(ssm, rel=0.01)
        assert r.others_uj == pytest.approx(others, rel=0.01)
        assert r.ssm_uj + r.others_uj == pytest.approx(ssm + others, rel=0.005)


def test_total_monotone_in_rates_and_k(rng):
    geom = PRESETS["130m"]
    prev = 0.0
    for fr in np.linspace(0.0, 1.0, 6):
        tot = compute_report(geom, TILIF_V, fr, fr, 4).total_uj
        assert tot >= prev
        prev = tot
    prev = 0.0
    for k in (1, 2, 4, 8):
        tot = compute_report(geom, TILIF_V, 0.3, 0.1, k).total_uj
        assert tot >= prev
        prev = tot


def test_neuron_overhead_reported_not_totaled():
    r = reference_report("130m", LIF_V)
    assert r.neuron_uj > 0
    assert r.total_uj == pytest.approx(
        r.in_proj_uj + r.out_proj_uj + r.ssm_uj + r.others_uj)
    assert reference_report("130m", ANN).neuron_uj == 0.0


def test_csv_and_table_emission():
    reports = [reference_report("130m", ANN), reference_report("130m", TILIF_V)]
    csv = csv_text(CSV_FIELDS, [report_cells(r) for r in reports])
    lines = csv.strip().split("\n")
    assert lines[0] == ("config,variant,k,fr_in,fr_out,in_proj_uj,out_proj_uj,"
                        "ssm_uj,others_uj,neuron_uj,total_uj,ratio")
    assert len(lines) == 3
    assert lines[1].startswith("130m,ann,1,")
    table = to_table(reports)
    assert "ratio" in table and "tilif" in table


def test_compare_to_reference_catches_bad_cells():
    r = reference_report("130m", ANN)
    broken = type(r)(**{**r.__dict__, "in_proj_uj": r.in_proj_uj * 1.02})
    with pytest.raises(ContractError):
        compare_to_reference(broken)


@pytest.mark.parametrize("variant, missing", [(LIF_V, "fr_in, fr_out:"),
                                              (ILIF_V, "fr_in, fr_out, k"),
                                              (TILIF_V, "fr_in, fr_out, k")])
def test_spiking_variants_without_rates_refused(variant, missing):
    for fn in (count_ops, compute_report):
        with pytest.raises(ContractError, match=f"variant {variant} needs {missing}"):
            fn(PRESETS["130m"], variant)


@pytest.mark.parametrize("settings", [{"fr_in": 0.5}, {"fr_out": 0.0}, {"k": 1},
                                      {"fr_in": 0.5, "k": 3}])
def test_ann_given_any_setting_refused(settings):
    for fn in (count_ops, compute_report):
        with pytest.raises(ContractError, match="variant ann prices no spikes; drop"):
            fn(PRESETS["130m"], ANN, **settings)


def test_spike_settings_rule():
    assert spike_settings(ANN) == {}
    assert spike_settings(LIF_V, 0.3, 0.1) == {"fr_in": 0.3, "fr_out": 0.1, "k": 1}
    assert spike_settings(TILIF_V, 0.3, 0.1, 4) == {"fr_in": 0.3, "fr_out": 0.1, "k": 4}
    for args, message in [((ILIF_V, 0.3, 0.1), "variant ilif needs k"),
                          ((LIF_V, 0.3, 0.1, 4), "k must be 1, got 4"),
                          ((TILIF_V, 1.5, 0.1, 4), "fr_in must lie in [0, 1], got 1.5"),
                          ((TILIF_V, 0.3, float("nan"), 4), "fr_out must lie in [0, 1]"),
                          ((ANN, None, None, 0), "k must be >= 1, got 0")]:
        with pytest.raises(ContractError) as exc:
            spike_settings(*args)
        assert message in str(exc.value)


@pytest.mark.parametrize("config", ["toy", ""])
def test_compare_to_reference_without_a_row_refused(config):
    report = compute_report(PRESETS["toy"], ANN, config=config)
    with pytest.raises(ContractError, match=f"no reference row for \\({config}, ann\\)"):
        compare_to_reference(report)


def test_ann_report_fields():
    # the report an ann geometry has always had, field by field
    assert compute_report(PRESETS["130m"], ANN) == EnergyReport(
        config="", variant=ANN, k=1, fr_in=0.0, fr_out=0.0,
        in_proj_uj=284.2066944, out_proj_uj=130.23313919999998, ssm_uj=82.747584,
        others_uj=1.4733312000000003, neuron_uj=0.0, ratio=1.0)
