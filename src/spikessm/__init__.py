"""Spiking state-space language models at desk scale.

The package builds everything from a small fixed-vocabulary gradient
engine: ternary-integer spiking neurons with exact event-driven
inference, a sparse accumulation kernel, the recurrent sequence block
in dense and spiking variants, single-stage distillation and
preference-optimization training, and an analytic per-token energy
model for the two reference geometries.
"""

from .tensor import (
    ContractError,
    DimensionError,
    Graph,
    NumericError,
    Tensor,
    default_dtype,
    dtype_scope,
    parameter,
    set_default_dtype,
)
from .neurons import (
    ILIF,
    LIF,
    TILIF,
    NeuronConfig,
    SpikeTrain,
    collapse_spike_train,
    expand_spike_train,
    neuron_forward,
)
from .spike_kernel import (
    FireStats,
    spike_linear_event,
    spike_linear_int,
)
from .mamba2 import (
    DENSE,
    SPIKING,
    BlockParams,
    BlockState,
    LanguageModel,
    Mamba2Config,
    block_forward,
    block_step,
    clamp_channel_hook,
    hidden_align_loss,
    sgc_forward,
    toy_config,
)
from .energy import EnergyReport, compute_report, count_ops

__version__ = "0.1.0"

__all__ = [
    "BlockParams",
    "BlockState",
    "ContractError",
    "DENSE",
    "DimensionError",
    "EnergyReport",
    "FireStats",
    "Graph",
    "ILIF",
    "LIF",
    "LanguageModel",
    "Mamba2Config",
    "NeuronConfig",
    "NumericError",
    "SPIKING",
    "SpikeTrain",
    "TILIF",
    "Tensor",
    "block_forward",
    "block_step",
    "clamp_channel_hook",
    "collapse_spike_train",
    "compute_report",
    "count_ops",
    "default_dtype",
    "dtype_scope",
    "expand_spike_train",
    "hidden_align_loss",
    "neuron_forward",
    "parameter",
    "set_default_dtype",
    "sgc_forward",
    "spike_linear_event",
    "spike_linear_int",
    "toy_config",
]
