"""Analytic per-token energy model.

Every arithmetic operation a block performs in one decoding step is
counted from the architecture geometry, then priced with the fixed
per-op energies of 45nm float32 hardware (``PRICE_PJ``). Spiking
variants replace the two projection matmuls with sparse accumulations
scaled by measured fire rates and the micro-step count k.

The category split (which rows roll up into the SSM column versus the
Others column) was calibrated so the model reproduces the published
reference totals for both preset geometries; ``count_ops`` states each
row's category where it counts the row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .tensor import CONV_WIDTH, ContractError

ANN = "ann"
LIF_V = "lif"
ILIF_V = "ilif"
TILIF_V = "tilif"
VARIANTS = (ANN, LIF_V, ILIF_V, TILIF_V)

PJ_PER_UJ = 1e6

MM = "mm"
EM = "em"
ADD = "add"

# energy per operation in picojoules (45nm, float32)
PRICE_PJ = {MM: 4.6, EM: 3.7, ADD: 0.9}


@dataclass(frozen=True)
class Geometry:
    """The block dimensions the operation counts depend on, and the one
    rule they obey; :class:`mamba2.Mamba2Config` extends it."""

    d_model: int
    n_state: int
    n_heads: int
    d_head: int
    n_layers: int

    def __post_init__(self):
        for f in fields(Geometry):
            if getattr(self, f.name) < 1:
                raise ContractError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.n_heads * self.d_head != 2 * self.d_model:
            raise ContractError(
                f"n_heads*d_head must equal 2*d_model "
                f"({self.n_heads}*{self.d_head} != 2*{self.d_model})"
            )

    @property
    def d_inner(self) -> int:
        return self.n_heads * self.d_head

    @property
    def d_proj(self) -> int:
        # gate + conv input + B + C + dt
        return 2 * self.d_inner + 2 * self.n_state + self.n_heads


PRESETS: dict[str, Geometry] = {
    "130m": Geometry(d_model=768, n_state=128, n_heads=24, d_head=64, n_layers=24),
    "1.3b": Geometry(d_model=2048, n_state=128, n_heads=64, d_head=64, n_layers=48),
    "toy": Geometry(d_model=64, n_state=16, n_heads=2, d_head=64, n_layers=2),
}

IN_PROJ = "in_proj"
OUT_PROJ = "out_proj"
SSM = "ssm"
OTHERS = "others"
NEURON = "neuron"


@dataclass(frozen=True)
class OpRow:
    name: str
    kind: str   # mm / em / add
    count: float  # operations per token, all layers
    category: str  # the report column it is priced into


# the settings a spiking variant is priced at: the fire rates of the two
# projections' inputs and the micro-steps per token
SPIKE_SETTINGS = ("fr_in", "fr_out", "k")


def spike_settings(variant: str, fr_in: float | None = None,
                   fr_out: float | None = None, k: int | None = None) -> dict:
    """The spike settings ``variant`` is priced at, from those given
    (``None`` is not given). ann takes none; lif takes both fire rates,
    and its k is 1, given or not; ilif and tilif take all three. Rates
    lie in [0, 1] and k is at least 1. ContractError otherwise."""
    if variant not in VARIANTS:
        raise ContractError(f"unknown variant {variant!r}")
    given = {name: value for name, value in zip(SPIKE_SETTINGS, (fr_in, fr_out, k))
             if value is not None}
    if k is not None and k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    for name in ("fr_in", "fr_out"):
        if name in given and not 0 <= given[name] <= 1:
            raise ContractError(f"{name} must lie in [0, 1], got {given[name]}")
    if variant == ANN:
        if given:
            raise ContractError(f"variant ann prices no spikes; drop {', '.join(given)}")
        return {}
    if variant == LIF_V:
        if k not in (None, 1):
            raise ContractError(f"variant lif takes one micro-step; k must be 1, got {k}")
        given["k"] = 1
    if missing := [name for name in SPIKE_SETTINGS if name not in given]:
        raise ContractError(f"variant {variant} needs {', '.join(missing)}: "
                            f"a report prices only the values given")
    return given


def count_ops(geom: Geometry, variant: str, fr_in: float | None = None,
              fr_out: float | None = None, k: int | None = None) -> list[OpRow]:
    """Per-token operation counts for every block row, times n_layers."""
    spikes = spike_settings(variant, fr_in, fr_out, k)

    D, N, H, P = geom.d_model, geom.n_state, geom.n_heads, geom.d_head
    L = geom.n_layers
    in_count = geom.d_proj * D
    out_count = geom.d_inner * D

    rows: list[OpRow] = []

    def row(category, name, kind, count):
        rows.append(OpRow(name, kind, count * L, category))

    if variant == ANN:
        row(IN_PROJ, "in_proj", MM, in_count)
        row(OUT_PROJ, "out_proj", MM, out_count)
    else:  # priced at the rule's settings: a lif's k is 1, given or not
        fr_in, fr_out, k = (spikes[name] for name in SPIKE_SETTINGS)
        row(IN_PROJ, "in_proj", ADD, k * fr_in * in_count)
        row(OUT_PROJ, "out_proj", ADD, k * fr_out * out_count)

    row(SSM, "dtB", MM, H * P * N)
    row(SSM, "C*h", MM, H * P * N)
    row(OTHERS, "conv1d", MM, (geom.d_inner + 2 * N) * CONV_WIDTH)

    row(OTHERS, "act", EM, 3 * 2 * D)
    row(SSM, "xD", EM, H * P)
    row(SSM, "xdB", EM, H * P * N)
    row(SSM, "Adt", EM, H)
    row(SSM, "Ah", EM, H * P * N)
    row(OTHERS, "norm", EM, 2 * D)
    row(OTHERS, "y*act(z)", EM, 2 * D)

    row(SSM, "dt+bias", ADD, H)
    row(SSM, "Ah+xdB", ADD, H * P * N)
    row(SSM, "y+Dx", ADD, H * P)

    if variant != ANN:
        # membrane update + compare at both neuron sites, per micro-step;
        # reported separately and excluded from the total
        row(NEURON, "neuron1", EM, k * 2 * D)
        row(NEURON, "neuron1", ADD, k * 2 * D)
        row(NEURON, "neuron2", EM, k * 4 * D)
        row(NEURON, "neuron2", ADD, k * 4 * D)
    return rows


@dataclass(frozen=True)
class EnergyReport:
    config: str
    variant: str
    k: int
    fr_in: float
    fr_out: float
    in_proj_uj: float
    out_proj_uj: float
    ssm_uj: float
    others_uj: float
    neuron_uj: float
    ratio: float  # ANN total / this total; every geometry prices a positive total

    @property
    def total_uj(self) -> float:
        # neuron overhead is tracked but not part of the total
        return self.in_proj_uj + self.out_proj_uj + self.ssm_uj + self.others_uj


def compute_report(geom: Geometry, variant: str, fr_in: float | None = None,
                   fr_out: float | None = None, k: int | None = None,
                   config: str = "") -> EnergyReport:
    """Count and price the operations, roll them up into report
    categories, and attach the efficiency ratio against the ANN baseline."""
    spikes = spike_settings(variant, fr_in, fr_out, k)
    # an ann report's spike columns read: never fires, one pass per token
    record = {"fr_in": 0.0, "fr_out": 0.0, "k": 1} | spikes

    def priced(rows: list[OpRow]) -> EnergyReport:
        buckets = {IN_PROJ: 0.0, OUT_PROJ: 0.0, SSM: 0.0, OTHERS: 0.0, NEURON: 0.0}
        for r in rows:
            buckets[r.category] += r.count * PRICE_PJ[r.kind]
        return EnergyReport(
            config=config, variant=variant, **record,
            in_proj_uj=buckets[IN_PROJ] / PJ_PER_UJ,
            out_proj_uj=buckets[OUT_PROJ] / PJ_PER_UJ,
            ssm_uj=buckets[SSM] / PJ_PER_UJ,
            others_uj=buckets[OTHERS] / PJ_PER_UJ,
            neuron_uj=buckets[NEURON] / PJ_PER_UJ,
            ratio=1.0,  # this total against itself; the report's is set below
        )

    report = priced(count_ops(geom, variant, **spikes))
    base = priced(count_ops(geom, ANN))  # for ANN the same total: a ratio of exactly 1
    return replace(report, ratio=base.total_uj / report.total_uj)


# ---------------------------------------------------------------------------
# published reference measurements for the two preset geometries:
# the spike settings of each spiking variant plus the expected per-category
# energies (uJ/token)

REFERENCE_ROWS: dict[tuple[str, str], dict[str, float]] = {
    ("130m", ANN): dict(in_proj=284.2067, out_proj=130.2331, ssm=82.7476,
                        others=1.4733, total=498.6607, ratio=1.0),
    ("130m", LIF_V): dict(k=1, fr_in=0.3180, fr_out=0.1583, in_proj=17.6826,
                          out_proj=4.0259, ssm=82.7476, others=1.4733,
                          total=105.9294, ratio=4.7075),
    ("130m", ILIF_V): dict(k=4, fr_in=0.3294, fr_out=0.0509, in_proj=73.1770,
                           out_proj=5.1878, ssm=82.7476, others=1.4733,
                           total=162.5858, ratio=3.0671),
    ("130m", TILIF_V): dict(k=4, fr_in=0.3498, fr_out=0.1215, in_proj=77.8034,
                            out_proj=12.3835, ssm=82.7476, others=1.4733,
                            total=174.4078, ratio=2.8592),
    ("1.3b", ANN): dict(in_proj=3849.1128, out_proj=1852.2046, ssm=441.3204,
                        others=7.4809, total=6150.1188, ratio=1.0),
    ("1.3b", LIF_V): dict(k=1, fr_in=0.1605, fr_out=0.1483, in_proj=120.8705,
                          out_proj=53.7421, ssm=441.3204, others=7.4809,
                          total=623.4140, ratio=9.8652),
    ("1.3b", ILIF_V): dict(k=4, fr_in=0.2196, fr_out=0.0156, in_proj=661.5119,
                           out_proj=22.6130, ssm=441.3204, others=7.4809,
                           total=1132.9263, ratio=5.4285),
    ("1.3b", TILIF_V): dict(k=4, fr_in=0.2529, fr_out=0.0612, in_proj=761.8833,
                            out_proj=88.6691, ssm=441.3204, others=7.4809,
                            total=1299.3588, ratio=4.7332),
}

REFERENCE_TOLERANCE = 0.005  # relative, per cell


def reference_row(config: str, variant: str) -> dict[str, float]:
    """The published row of (config, variant); ContractError if there is none."""
    try:
        return REFERENCE_ROWS[(config, variant)]
    except KeyError:
        raise ContractError(f"no reference row for ({config}, {variant})") from None


def reference_report(config: str, variant: str) -> EnergyReport:
    """Report computed from the reference spike settings of a preset geometry."""
    ref = reference_row(config, variant)
    spikes = {name: ref[name] for name in SPIKE_SETTINGS if name in ref}
    return compute_report(PRESETS[config], variant, **spikes, config=config)


def compare_to_reference(report: EnergyReport) -> dict[str, float]:
    """Relative error per published cell; raises if any exceeds tolerance."""
    ref = reference_row(report.config, report.variant)
    got = dict(in_proj=report.in_proj_uj, out_proj=report.out_proj_uj,
               ssm=report.ssm_uj, others=report.others_uj,
               total=report.total_uj, ratio=report.ratio)
    errs = {}
    for cell, expected in ref.items():
        if cell in SPIKE_SETTINGS:
            continue
        errs[cell] = abs(got[cell] - expected) / abs(expected)
    bad = {c: e for c, e in errs.items() if e > REFERENCE_TOLERANCE}
    if bad:
        raise ContractError(f"energy cells outside tolerance: {bad}")
    return errs


# ---------------------------------------------------------------------------
# emission

# the columns of energy.csv, one per cell of report_cells
CSV_FIELDS = ("config", "variant", "k", "fr_in", "fr_out", "in_proj_uj", "out_proj_uj",
              "ssm_uj", "others_uj", "neuron_uj", "total_uj", "ratio")


def report_cells(r: EnergyReport) -> list[str]:
    """The 12 cells of one report row."""
    values = (r.fr_in, r.fr_out, r.in_proj_uj, r.out_proj_uj, r.ssm_uj,
              r.others_uj, r.neuron_uj, r.total_uj, r.ratio)
    return [r.config, r.variant, str(r.k), *(f"{v:.4f}" for v in values)]


def to_table(reports: list[EnergyReport]) -> str:
    cols = [name.removesuffix("_uj") for name in CSV_FIELDS]
    rows = [cols] + [report_cells(r) for r in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(cols))]
    return "".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n"
                   for row in rows)
