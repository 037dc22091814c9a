"""The recurrent sequence block in dense and spiking variants.

Per token, the block projects the residual stream into gate / state /
readout pieces, runs a short causal conv and a per-head decaying state
update, then projects back. The spiking variant quantizes the inputs of
both projections with a neuron from :mod:`spikessm.neurons`. A batched
forward can hand each projection's (input, output) pair to its caller
right after the projection's product (``on_projection``), from which
:func:`training.distill_run` builds the smooth compensation branch (a
mirror of the projection, fed by ``d_max*tanh(x)``) that gives a
distillation loss a fully differentiable route, so a projection's
alignment term can run while the rest of the forward does; the block
itself has no training-only branch.

Two forward paths implement identical math: a batched path on the
gradient tape for training and evaluation, and a stepwise plain-numpy
path carrying explicit recurrent state for generation. The step shares
every formula with the tape ops by calling their plain-array forwards;
only the scan has its own form there, the recurrent state update, since
at one token the tape's per-op overhead would outweigh the chunked
scan. Their agreement is a tested invariant. Parameters are immutable
during forward, so concurrent forwards over independent sequences are
safe, also while another thread records a tape: each thread has its own
stack of open tapes (:mod:`spikessm.tensor`). Training updates are
single-threaded, and the default precision is process-wide.

``LanguageModel(cfg, rng)`` draws a fresh initialisation. Every other
model is built from a name -> array table by
``LanguageModel.from_tensors``, which checks the names and shapes
against the config (:func:`param_shapes`) and draws nothing:
``clone`` hands it copies of the source's parameters, and
``checkpoint.load`` the arrays read from a container.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import tensor as tn
from .energy import PRESETS, Geometry
from .neurons import NeuronConfig, expand_spike_train, neuron_forward, quantize
from .spike_kernel import FireStats, fire_stats_from_ints, spike_linear_event, spike_linear_int
from .tensor import (
    ContractError,
    DimensionError,
    NumericError,
    Tensor,
    active_graph,
    causal_conv1d,
    embedding,
    matmul,
    narrow,
    reshape,
    rmsnorm,
    transpose2d,
)
from .tokenizer import VOCAB

DENSE = "dense"
SPIKING = "spiking"

# projection routes of the stepwise block, see block_step
KERNELS = ("matmul", "int", "event")

SITE_U = "u_t"
SITE_Y = "y_t"
SITES = (SITE_U, SITE_Y)
CLAMP_MODES = ("max_to_zero", "max_to_one")

# hook signature: (layer index, site, activations) -> activations
Hook = Callable[[int, str, np.ndarray], np.ndarray]
# projection callback: (layer index, 0 for w_in or 1 for w_out, input, output)
OnProjection = Callable[[int, int, Tensor, Tensor], None]


@dataclass(frozen=True)
class Mamba2Config(Geometry):
    vocab: int
    mode: str = DENSE
    neuron: NeuronConfig = field(default_factory=NeuronConfig)
    # whether distill_run trains a compensation path (no model parameters;
    # it picks the layers, training.compensated_layers)
    sgc: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in (DENSE, SPIKING):
            raise ContractError(f"unknown mode {self.mode!r}")

    @property
    def micro_steps(self) -> int:
        return self.neuron.d_max  # NeuronConfig holds LIF to d_max == 1


def toy_config(mode: str = DENSE, neuron: NeuronConfig | None = None,
               sgc: bool = False) -> Mamba2Config:
    """Desk-scale preset used by the training experiments: the geometry
    of ``energy.PRESETS["toy"]`` over the byte vocabulary of :mod:`tokenizer`."""
    return Mamba2Config(
        **asdict(PRESETS["toy"]),
        vocab=VOCAB,
        mode=mode,
        neuron=neuron or NeuronConfig(),
        sgc=sgc,
    )


@dataclass
class BlockParams:
    w_in: Tensor       # (d_model, d_proj)
    w_out: Tensor      # (d_inner, d_model)
    conv_x: Tensor     # (d_inner, w)
    conv_b: Tensor     # (n_state, w)
    conv_c: Tensor     # (n_state, w)
    a_log: Tensor      # (n_heads,)
    d_skip: Tensor     # (n_heads, d_head)
    dt_bias: Tensor    # (n_heads,)
    norm_w: Tensor     # (d_inner,)

    def named(self) -> list[tuple[str, Tensor]]:
        """The parameters, by field name, in declaration order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


@dataclass
class BlockState:
    h: np.ndarray           # (..., n_heads, n_state, d_head)
    conv_state: np.ndarray  # (..., w-1, d_inner + 2*n_state)


def init_block_state(cfg: Mamba2Config, batch_shape: tuple[int, ...] = ()) -> BlockState:
    dt = tn.default_dtype()
    return BlockState(
        h=np.zeros(batch_shape + (cfg.n_heads, cfg.n_state, cfg.d_head), dtype=dt),
        conv_state=np.zeros(
            batch_shape + (tn.CONV_WIDTH - 1, cfg.d_inner + 2 * cfg.n_state), dtype=dt
        ),
    )


def block_param_shapes(cfg: Mamba2Config) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter of a block, by name, in the order of
    :meth:`BlockParams.named`; every layer has the same table."""
    H, P, N, D = cfg.n_heads, cfg.d_head, cfg.n_state, cfg.d_model
    w = tn.CONV_WIDTH
    return {
        "w_in": (D, cfg.d_proj), "w_out": (cfg.d_inner, D),
        "conv_x": (cfg.d_inner, w), "conv_b": (N, w), "conv_c": (N, w),
        "a_log": (H,), "d_skip": (H, P), "dt_bias": (H,), "norm_w": (cfg.d_inner,),
    }


def param_shapes(cfg: Mamba2Config) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter of ``LanguageModel(cfg)``, by name, in the
    order of :meth:`LanguageModel.named_parameters`; nothing is allocated."""
    shapes = {"embedding": (cfg.vocab, cfg.d_model), "norm_f": (cfg.d_model,)}
    block = block_param_shapes(cfg)
    for i in range(cfg.n_layers):
        shapes[f"layers.{i}.pre_norm"] = (cfg.d_model,)
        shapes.update((f"layers.{i}.{name}", shape) for name, shape in block.items())
    return shapes


def check_param_shapes(cfg: Mamba2Config, tensors: dict[str, np.ndarray]) -> None:
    """ContractError unless ``tensors`` has exactly the names and shapes
    of :func:`param_shapes`. A config with more layers than ``tensors``
    has entries (every layer has at least its pre-norm) is refused before
    the table is built, so a crafted layer count cannot make it huge."""
    if cfg.n_layers > len(tensors):
        raise ContractError(f"the config has {cfg.n_layers} layers, more than "
                            f"the {len(tensors)} tensors given")
    expected = param_shapes(cfg)
    missing = sorted(expected.keys() - tensors.keys())
    unexpected = sorted(tensors.keys() - expected.keys())
    if missing or unexpected:
        raise ContractError(f"tensor names disagree with the config: "
                            f"{len(missing)} missing {missing[:3]}, "
                            f"{len(unexpected)} unexpected {unexpected[:3]}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ContractError(f"{name} has shape {tensors[name].shape}, "
                                f"the config needs {shape}")


def init_block_params(cfg: Mamba2Config, rng: np.random.Generator,
                      layer_idx: int = 0) -> BlockParams:
    """Fresh block parameters.

    Projections are scaled normal with gain 1/sqrt(fan_in); the state
    decay rates are log-spaced so heads cover fast and slow memory; the
    step bias puts the initial softplus step in roughly [0.001, 0.1].
    Every layer draws from one table; ``layer_idx`` changes nothing.
    Every seed's model depends on the draw order, which is not the table's:
    the step bias first, then the two projections and the three convs.
    """
    shape = block_param_shapes(cfg)
    H, w = cfg.n_heads, tn.CONV_WIDTH

    def proj(name):
        fan_in = shape[name][0]
        return tn.parameter(rng.normal(0.0, 1.0 / math.sqrt(fan_in), shape[name]))

    def conv(name):
        return tn.parameter(rng.normal(0.0, 1.0 / math.sqrt(w), shape[name]))

    a_real = np.exp(np.linspace(math.log(1.0), math.log(8.0), H))
    dt_init = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), H))

    return BlockParams(
        w_in=proj("w_in"),
        w_out=proj("w_out"),
        conv_x=conv("conv_x"),
        conv_b=conv("conv_b"),
        conv_c=conv("conv_c"),
        a_log=tn.parameter(np.log(a_real)),
        d_skip=tn.parameter(np.ones(shape["d_skip"])),
        dt_bias=tn.parameter(np.log(np.expm1(dt_init))),
        norm_w=tn.parameter(np.ones(shape["norm_w"])),
    )


# ---------------------------------------------------------------------------
# compensation path and its alignment loss

def sgc_forward(x: Tensor, w_sgc: Tensor, d_max: int) -> Tensor:
    """Smooth range-preserving mimic of a spiking projection: (d_max*tanh(x)) @ W'."""
    return matmul(tn.tanh(x) * float(d_max), w_sgc)


def hidden_align_loss(y_spiking: Tensor, y_sgc: Tensor) -> Tensor:
    """Half the mean squared distance between channel softmaxes of the two paths.

    One tape node. Its floating-point operations are those of the
    composite ``sum((softmax(a) - softmax(b))**2) * (0.5 / rows)`` and of
    that composite's backward, in their order, so value and gradients are
    bit-identical to it.
    """
    if y_spiking.shape != y_sgc.shape:
        raise DimensionError(
            f"alignment shapes disagree: {y_spiking.shape} vs {y_sgc.shape}"
        )
    rows = int(np.prod(y_spiking.shape[:-1]))
    p = tn.softmax_forward(y_spiking.data)
    q = tn.softmax_forward(y_sgc.data)
    d = p - q
    scale = np.asarray(0.5 / rows, dtype=tn.default_dtype())
    data = (d * d).sum() * scale

    def grad_fn(g):
        # the composite's adjoint of diff: the square's two operand
        # gradients d*g', summed by the engine
        t = np.multiply(d, g * scale)
        t += t
        # softmax backwards, two buffers in all: p * (t - sum(t*p)) and
        # q * (-t - sum(-t*q)), the latter with -t itself, since
        # -sum(t*q) can differ from it in the sign of a zero
        dq = np.multiply(t, p)
        inner_p = dq.sum(axis=-1, keepdims=True)
        np.negative(t, out=dq)
        inner_q = np.multiply(dq, q, out=dq).sum(axis=-1, keepdims=True)
        np.negative(t, out=dq)
        dq -= inner_q
        dq *= q
        dp = np.subtract(t, inner_p, out=t)
        dp *= p
        return dp, dq

    return tn.custom_op(data, (y_spiking, y_sgc), grad_fn, "hidden_align")


# ---------------------------------------------------------------------------
# activation ablation hook

def clamp_channel_hook(y: np.ndarray, mode: str) -> np.ndarray:
    """Replace each channel's per-sequence maximum activation with 0 or 1.

    ``y`` is (..., T, d); channels are the trailing axis, the maximum is
    taken over the sequence axis, and ties resolve to the first
    occurrence.
    """
    if mode not in CLAMP_MODES:
        raise ContractError(f"unknown clamp mode {mode!r}")
    value = 0.0 if mode == "max_to_zero" else 1.0
    out = np.array(y, copy=True)
    idx = np.argmax(out, axis=-2)  # first occurrence per channel
    np.put_along_axis(out, idx[..., None, :], value, axis=-2)
    return out


def make_clamp_hook(mode: str, site: str) -> Hook:
    """A hook clamping every layer's activations at ``site``; ``mode`` and
    ``site`` are checked here, before any forward runs."""
    if mode not in CLAMP_MODES:
        raise ContractError(f"unknown clamp mode {mode!r}")
    if site not in SITES:
        raise ContractError(f"unknown site {site!r}")

    def hook(layer: int, at: str, data: np.ndarray) -> np.ndarray:
        return clamp_channel_hook(data, mode) if at == site else data
    return hook


# ---------------------------------------------------------------------------
# batched forward (training / teacher-forced evaluation)

@dataclass
class BlockAux:
    s_in: np.ndarray | None = None   # integer activations at the input projection
    s_out: np.ndarray | None = None  # integer activations at the output projection


def block_forward(params: BlockParams, u: Tensor, cfg: Mamba2Config, *,
                  layer_idx: int = 0, hook: Hook | None = None,
                  on_projection: OnProjection | None = None) -> tuple[Tensor, BlockAux]:
    """Full-sequence block forward; ``u`` is (B, T, d_model).

    ``on_projection``, if given, is called right after each projection's
    product, with that projection's input and output: ``(layer_idx, 0,
    u, u2)`` after ``w_in`` and ``(layer_idx, 1, y, y_out)`` after
    ``w_out``, the spiking inputs taken before the neuron; a training
    loop aligns against them. ``hook`` may transform activations at the
    two neuron sites; it cuts the gradient flow, so it is only legal
    outside a tape.
    """
    if hook is not None and active_graph() is not None:
        raise ContractError("activation hooks are evaluation-only")
    B, T, D = u.shape
    H, P, N = cfg.n_heads, cfg.d_head, cfg.n_state
    d_inner = cfg.d_inner
    spiking = cfg.mode == SPIKING
    aux = BlockAux()

    if hook is not None:
        u = Tensor(hook(layer_idx, SITE_U, u.data))

    if spiking:
        s_in = neuron_forward(cfg.neuron, u)
        aux.s_in = s_in.data
        u2 = matmul(s_in, params.w_in)
    else:
        u2 = matmul(u, params.w_in)
    if on_projection is not None:
        on_projection(layer_idx, 0, u, u2)

    # u2 = [z | x | B | C | dt]; one conv runs over the contiguous x|B|C
    z = narrow(u2, -1, 0, d_inner)
    xbc_raw = narrow(u2, -1, d_inner, d_inner + 2 * N)
    dt_raw = narrow(u2, -1, 2 * d_inner + 2 * N, H)

    kern = tn.concat([params.conv_x, params.conv_b, params.conv_c], axis=0)
    xbc = tn.silu(causal_conv1d(xbc_raw, kern)[0])
    x = reshape(narrow(xbc, -1, 0, d_inner), (B, T, H, P))
    b = narrow(xbc, -1, d_inner, N)
    c = narrow(xbc, -1, d_inner + N, N)

    dt = tn.softplus(dt_raw + params.dt_bias)             # (B,T,H)
    decay = tn.exp(-(dt * tn.exp(params.a_log)))          # (B,T,H)

    o = ssm_scan(decay, dt, b, x, c) + params.d_skip * x  # (B,T,H,P)

    gated = reshape(o, (B, T, d_inner)) * tn.silu(z)
    y = rmsnorm(gated, params.norm_w)

    if hook is not None:
        y = Tensor(hook(layer_idx, SITE_Y, y.data))

    if spiking:
        s_out = neuron_forward(cfg.neuron, y)
        aux.s_out = s_out.data
        y_out = matmul(s_out, params.w_out)
    else:
        y_out = matmul(y, params.w_out)
    if on_projection is not None:
        on_projection(layer_idx, 1, y, y_out)

    if not np.isfinite(y_out.data).all():
        raise NumericError(f"non-finite block output at layer {layer_idx}")
    return y_out, aux


# ---------------------------------------------------------------------------
# stepwise forward (recurrent inference)

def block_step(params: BlockParams, state: BlockState, u_t: np.ndarray,
               cfg: Mamba2Config, *, layer_idx: int = 0, kernel: str = "int",
               ) -> tuple[np.ndarray, BlockState, BlockAux]:
    """One recurrent step; ``u_t`` is (..., d_model), plain arrays throughout.

    ``kernel`` picks the spiking projection route: "int" (sparse signed
    accumulation), "event" (binary micro-step train), or "matmul"
    (dense arithmetic on the quantized activations), one call over the
    batch per projection. The sparse kernels sum in another order than
    the dense product or a single row, so they agree with both to
    rounding only. A dense model projects densely whatever the kernel,
    but an unknown name is refused in both modes.
    """
    if kernel not in KERNELS:
        raise ContractError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    H, P, N = cfg.n_heads, cfg.d_head, cfg.n_state
    d_inner = cfg.d_inner
    lead = u_t.shape[:-1]
    if u_t.shape[-1] != cfg.d_model:
        raise DimensionError(f"expected trailing dim {cfg.d_model}, got {u_t.shape}")
    if state.h.shape != lead + (H, N, P):
        raise DimensionError(f"state shape {state.h.shape} does not match input {u_t.shape}")
    spiking = cfg.mode == SPIKING
    aux = BlockAux()

    if spiking:
        s_in = quantize(cfg.neuron, u_t)
        aux.s_in = s_in
        u2 = _project(s_in, params.w_in.data, kernel, cfg.neuron)
    else:
        u2 = u_t @ params.w_in.data

    # the layout of block_forward, one time step long
    z = u2[..., :d_inner]
    xbc_raw = u2[..., None, d_inner:2 * d_inner + 2 * N]       # (..., 1, d_inner+2N)
    dt_raw = u2[..., 2 * d_inner + 2 * N:]

    kern = np.concatenate(
        [params.conv_x.data, params.conv_b.data, params.conv_c.data], axis=0)
    conv, conv_state = tn.causal_conv1d_forward(xbc_raw, kern, state.conv_state)
    xbc = tn.activation_forward("silu", conv[..., 0, :])
    x = xbc[..., :d_inner].reshape(lead + (H, P))
    b = xbc[..., d_inner:d_inner + N]
    c = xbc[..., d_inner + N:]

    dt = tn.activation_forward("softplus", dt_raw + params.dt_bias.data)   # (..., H)
    decay = tn.activation_forward(
        "exp", -(dt * tn.activation_forward("exp", params.a_log.data)))   # (..., H)

    h = ssm_update(state.h, decay, dt, b, x)                   # (..., H,N,P)
    o = ssm_readout(h, c)                                      # (..., H,P)
    o = o + params.d_skip.data * x

    gated = o.reshape(lead + (d_inner,)) * tn.activation_forward("silu", z)
    y, _ = tn.rmsnorm_forward(gated, params.norm_w.data)

    if spiking:
        s_out = quantize(cfg.neuron, y)
        aux.s_out = s_out
        y_out = _project(s_out, params.w_out.data, kernel, cfg.neuron)
    else:
        y_out = y @ params.w_out.data

    if not np.isfinite(y_out).all():
        raise NumericError(f"non-finite step output at layer {layer_idx}")
    return y_out, BlockState(h=h, conv_state=conv_state), aux


def _project(s_int: np.ndarray, w: np.ndarray, kernel: str,
             neuron: NeuronConfig) -> np.ndarray:
    if kernel == "matmul":
        return s_int @ w
    cols = s_int.reshape(-1, s_int.shape[-1]).T  # one column per token
    if kernel == "int":
        y = spike_linear_int(w.T, cols)
    else:  # "event"; block_step has checked the name
        y = spike_linear_event(w.T, expand_spike_train(neuron, cols))
    return y.T.reshape(s_int.shape[:-1] + (w.shape[1],))


def ssm_update(h: np.ndarray, decay: np.ndarray, dt: np.ndarray,
               b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-head state update: h' = decay * h + (dt * b) outer x.

    Returns a new array and leaves ``h`` as it was. The outer product is
    built in one state-sized temporary and added in place. Repeating
    ``dt * b`` along p first leaves x its only broadcast operand: numpy
    copies broadcast operands through its iteration buffer, so one fewer
    is faster at large batch. The repeat only copies values, so every
    entry is ``decay*h + (dt*b)*x`` with the same roundings. ``einsum``
    is not used for the outer product: it adds each product to a +0,
    which turns a -0 product into +0 and can flip the sign of a zero
    state entry.
    """
    out = decay[..., :, None, None] * h
    dbx = (dt[..., :, None] * b[..., None, :])[..., None].repeat(h.shape[-1], axis=-1)
    dbx *= x[..., :, None, :]
    out += dbx
    return out


def ssm_readout(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-head readout o[p] = sum_n c[n] * h[n, p]; (..., H, N, P) -> (..., H, P).

    ``einsum`` forms no state-sized product array. It adds the products
    from +0 in order of n, the order numpy reduces a broadcast product
    ``(c * h).sum(axis=-2)`` in while d_head > 1, so the two agree bit
    for bit there. At d_head == 1 numpy sums that product pairwise and
    the two agree to rounding.
    """
    return np.einsum("...hnp,...n->...hp", h, c)


# Time steps per chunk of the batched scan. Inside a chunk the scan is a
# few small batched matmuls; across chunks only boundary states are
# carried. 16 gave the fastest distillation step (B8 T64) of 8, 16 and 32.
SCAN_CHUNK = 16
_LOWER = np.tri(SCAN_CHUNK, dtype=bool)
_STRICT_LOWER = np.tri(SCAN_CHUNK, k=-1, dtype=bool)


def _chunks(arr: np.ndarray, n_chunks: int, fill: float) -> np.ndarray:
    """(B, T, ...) -> (B, n_chunks, SCAN_CHUNK, ...), time padded with ``fill``."""
    B, T = arr.shape[:2]
    if T < n_chunks * SCAN_CHUNK:
        padded = np.empty((B, n_chunks * SCAN_CHUNK) + arr.shape[2:], arr.dtype)
        padded[:, :T] = arr
        padded[:, T:] = fill
        arr = padded
    return arr.reshape((B, n_chunks, SCAN_CHUNK) + arr.shape[2:])


def _unchunk(arr: np.ndarray, T: int) -> np.ndarray:
    """Inverse of :func:`_chunks`: (B, nC, Q, ...) -> (B, T, ...)."""
    B, nC, Q = arr.shape[:3]
    return np.ascontiguousarray(arr.reshape((B, nC * Q) + arr.shape[3:])[:, :T])


def ssm_scan(decay: Tensor, dt: Tensor, b: Tensor, x: Tensor, c: Tensor) -> Tensor:
    """Decay-scan with readout as one op on the tape, in chunked form.

    Computes ``h_t = decay_t * h_{t-1} + (dt_t * b_t) outer x_t`` from a
    zero state and emits ``o_t[h,p] = sum_n c_t[n] * h_t[h,n,p]``, with
    ``decay``/``dt`` (B,T,H), ``b``/``c`` (B,T,N) shared by the heads and
    ``x`` (B,T,H,P). This is the state-space-duality form of Mamba-2
    (Dao & Gu 2024): time is cut into chunks of ``SCAN_CHUNK`` steps, the
    tail padded with decay 1 and zeros, laid out head-major as
    (B, nC, H, Q, .). Inside a chunk, per head,

        o = ((C B^T) * L * dt_j) @ X  +  diag(decay since chunk start) C h0

    where ``L[i, j] = decay_{j+1} * ... * decay_i`` for ``i >= j`` (that is
    ``exp(segsum(log decay))``, formed as a running product so a zero
    decay needs no log) and ``h0`` is the state entering the chunk. Only
    those chunk-boundary states are carried, in a loop over chunks. The
    backward runs the same factorisation in reverse and never divides by
    a decay.
    """
    a_, dt_, b_, x_, c_ = decay.data, dt.data, b.data, x.data, c.data
    B, T, H = dt_.shape
    nC = -(-T // SCAN_CHUNK)
    a = np.swapaxes(_chunks(a_, nC, 1.0), 2, 3)         # (B,nC,H,Q)
    d = np.swapaxes(_chunks(dt_, nC, 0.0), 2, 3)        # (B,nC,H,Q)
    bc = _chunks(b_, nC, 0.0)[:, :, None]                # (B,nC,1,Q,N)
    cc = _chunks(c_, nC, 0.0)[:, :, None]                # (B,nC,1,Q,N)
    xc = np.swapaxes(_chunks(x_, nC, 0.0), 2, 3)         # (B,nC,H,Q,P)

    # seg[..., i, j] = decay_{j+1} * ... * decay_i for i >= j, else 0
    seg = np.where(_STRICT_LOWER, a[..., :, None], 1.0).cumprod(axis=-2)
    seg *= _LOWER
    lead = a.cumprod(axis=-1)        # decay from chunk start through step i
    tail = seg[..., -1, :]           # decay after step j through chunk end
    w = tail * d                     # weight of step j in the chunk end state
    cb = cc @ np.swapaxes(bc, -1, -2)                    # (B,nC,1,Q,Q)
    m = cb * seg * d[..., None, :]                       # (B,nC,H,Q,Q)

    # state entering each chunk, carried across chunk boundaries
    ends = np.swapaxes(bc, -1, -2) @ (w[..., None] * xc)  # (B,nC,H,N,P)
    h0 = np.zeros_like(ends)
    for k in range(1, nC):
        h0[:, k] = lead[:, k - 1, :, -1, None, None] * h0[:, k - 1] + ends[:, k - 1]
    ch = cc @ h0                                         # (B,nC,H,Q,P)
    y = m @ xc + lead[..., None] * ch

    def grad_fn(g):
        gy = np.swapaxes(_chunks(g, nC, 0.0), 2, 3)      # (B,nC,H,Q,P)
        gl = lead[..., None] * gy
        # adjoint of the state leaving each chunk, carried backwards
        from_out = np.swapaxes(cc, -1, -2) @ gl          # (B,nC,H,N,P)
        dh = np.zeros_like(h0)
        for k in range(nC - 1, 0, -1):
            dh[:, k - 1] = lead[:, k, :, -1, None, None] * dh[:, k] + from_out[:, k]

        dm = gy @ np.swapaxes(xc, -1, -2)                # (B,nC,H,Q,Q)
        dms = dm * seg
        dcb = (dms * d[..., None, :]).sum(axis=2, keepdims=True)
        bdh = bc @ dh                                    # (B,nC,H,Q,P)
        dw = (bdh * xc).sum(axis=-1)                     # (B,nC,H,Q)

        dx = np.swapaxes(m, -1, -2) @ gy + w[..., None] * bdh
        ddt = (dms * cb).sum(axis=-2) + tail * dw
        db = (np.swapaxes(dcb, -1, -2) @ cc
              + (w[..., None] * (xc @ np.swapaxes(dh, -1, -2))).sum(axis=2, keepdims=True))
        dc = dcb @ bc + (gl @ np.swapaxes(h0, -1, -2)).sum(axis=2, keepdims=True)

        # d/d decay_t of a product spanning t is that product without
        # decay_t: seg[i, t] * seg[t-1, j] inside the chunk, with the
        # chunk start standing in for j on the paths through h0 and the
        # chunk end standing in for i on the paths into the end state.
        seg_up = np.zeros_like(seg)                      # seg_up[t, j] = seg[t-1, j]
        seg_up[..., 1:, :] = seg[..., :-1, :]
        lead_up = np.ones_like(lead)                     # decay from start through t-1
        lead_up[..., 1:] = lead[..., :-1]
        seg_t = np.swapaxes(seg, -1, -2)
        r = dm * cb * d[..., None, :]
        from_y = ((seg_t @ r) * seg_up).sum(axis=-1)
        from_y += lead_up * (seg_t @ (gy * ch).sum(axis=-1)[..., None])[..., 0]
        from_end = (seg_up @ (d * dw)[..., None])[..., 0]
        from_end += lead_up * (dh * h0).sum(axis=(-2, -1))[..., None]
        da = from_y + tail * from_end

        return (_unchunk(np.swapaxes(da, 2, 3), T), _unchunk(np.swapaxes(ddt, 2, 3), T),
                _unchunk(db[:, :, 0], T), _unchunk(np.swapaxes(dx, 2, 3), T),
                _unchunk(dc[:, :, 0], T))

    return tn.custom_op(_unchunk(np.swapaxes(y, 2, 3), T), (decay, dt, b, x, c),
                        grad_fn, "ssm_scan")


# ---------------------------------------------------------------------------
# the full language model

class LanguageModel:
    """Embedding -> n_layers blocks with residual -> norm -> tied head."""

    def __init__(self, cfg: Mamba2Config, rng: np.random.Generator):
        self.cfg = cfg
        shape = param_shapes(cfg)
        self.embedding = tn.parameter(rng.normal(0.0, 0.08, shape["embedding"]))
        self.norm_f = tn.parameter(np.ones(shape["norm_f"]))
        self.layers = [init_block_params(cfg, rng) for _ in range(cfg.n_layers)]
        # the residual stream is normalized before each block, so the
        # quantizers at the projection sites see unit-scale activations
        self.pre_norms = [tn.parameter(np.ones(shape[f"layers.{i}.pre_norm"]))
                          for i in range(cfg.n_layers)]

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding), ("norm_f", self.norm_f)]
        for i, layer in enumerate(self.layers):
            out.append((f"layers.{i}.pre_norm", self.pre_norms[i]))
            out.extend((f"layers.{i}.{n}", t) for n, t in layer.named())
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    @classmethod
    def from_tensors(cls, cfg: Mamba2Config, tensors: dict[str, np.ndarray]) -> "LanguageModel":
        """The model whose parameters are ``tensors``, by the names of
        :func:`param_shapes`, checked against ``cfg`` first. Each array
        becomes a parameter in the run precision (one already in it is
        used without a copy); no random numbers are drawn."""
        check_param_shapes(cfg, tensors)
        p = {name: tn.parameter(arr) for name, arr in tensors.items()}
        model = cls.__new__(cls)
        model.cfg = cfg
        model.embedding, model.norm_f = p["embedding"], p["norm_f"]
        names = block_param_shapes(cfg)
        model.layers = [BlockParams(**{n: p[f"layers.{i}.{n}"] for n in names})
                        for i in range(cfg.n_layers)]
        model.pre_norms = [p[f"layers.{i}.pre_norm"] for i in range(cfg.n_layers)]
        return model

    def clone(self, **changes) -> "LanguageModel":
        """Copy of this model in the run precision under its config with
        ``changes``, such as ``mode``, ``neuron`` or ``sgc``; a change the
        parameters cannot serve (a layer count, vocabulary or width) is a
        ContractError."""
        return LanguageModel.from_tensors(
            replace(self.cfg, **changes),
            {name: t.data.copy() for name, t in self.named_parameters()})

    # -- batched (teacher-forced) forward ------------------------------------

    def forward_batch(self, tokens: np.ndarray, *, hook: Hook | None = None,
                      on_projection: OnProjection | None = None
                      ) -> tuple[Tensor, list[BlockAux]]:
        """(B, T, vocab) logits: :meth:`head` of :meth:`trunk`."""
        x, auxes = self.trunk(tokens, hook=hook, on_projection=on_projection)
        return self.head(x), auxes

    def trunk(self, tokens: np.ndarray, *, hook: Hook | None = None,
              on_projection: OnProjection | None = None
              ) -> tuple[Tensor, list[BlockAux]]:
        """(B, T, d_model) final normalised hidden states of a (B, T) token
        batch, and each block's :class:`BlockAux`; ``hook`` and
        ``on_projection`` go to every :func:`block_forward`."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise DimensionError("a batched forward expects (batch, time) token ids")
        x = embedding(self.embedding, tokens)
        auxes = []
        for i, layer in enumerate(self.layers):
            x_in = rmsnorm(x, self.pre_norms[i])
            y, aux = block_forward(layer, x_in, self.cfg, layer_idx=i, hook=hook,
                                   on_projection=on_projection)
            auxes.append(aux)
            x = x + y
        return rmsnorm(x, self.norm_f), auxes

    def head(self, x) -> Tensor:
        """Logits of final hidden states ``x`` through the tied embedding.
        Each (T, d_model) row is one product, so a row's logits are the
        same bytes in any batch of full rows."""
        return matmul(x, transpose2d(self.embedding))

    def site_stats(self, auxes: list[BlockAux]) -> tuple[FireStats, FireStats]:
        """``(fr_in, fr_out)``: the fire rates at the two projection sites
        of a spiking model, over the layers and tokens of one forward pass."""
        k = self.cfg.micro_steps
        fr_in = fr_out = None
        for aux in auxes:
            a = fire_stats_from_ints(aux.s_in, k)
            b = fire_stats_from_ints(aux.s_out, k)
            fr_in = a if fr_in is None else fr_in.merged(a)
            fr_out = b if fr_out is None else fr_out.merged(b)
        return fr_in, fr_out

    # -- stepwise forward -----------------------------------------------------

    def init_state(self, batch_shape: tuple[int, ...] = ()) -> list[BlockState]:
        return [init_block_state(self.cfg, batch_shape) for _ in self.layers]

    def step(self, token: np.ndarray, state: list[BlockState], *,
             kernel: str = "int") -> tuple[np.ndarray, list[BlockState]]:
        """Next-token logits for one token id per batch entry; ``state``
        holds one :class:`BlockState` per layer."""
        x = tn.embedding_forward(self.embedding.data, np.asarray(token))
        new_blocks = []
        for i, (layer, bst) in enumerate(zip(self.layers, state)):
            x_in, _ = tn.rmsnorm_forward(x, self.pre_norms[i].data)
            y, nst, _ = block_step(layer, bst, x_in, self.cfg, layer_idx=i, kernel=kernel)
            new_blocks.append(nst)
            x = x + y
        x, _ = tn.rmsnorm_forward(x, self.norm_f.data)
        logits = x @ self.embedding.data.T
        return logits, new_blocks

    def generate_greedy(self, prompts: np.ndarray, max_new: int, *,
                        kernel: str = "matmul") -> np.ndarray:
        """Greedy continuation of a (B, T0) prompt batch; returns (B, T0+max_new)."""
        prompts = np.atleast_2d(np.asarray(prompts))
        B, T0 = prompts.shape
        if T0 == 0:
            raise ContractError("generate_greedy needs a prompt of at least one token")
        if max_new < 0:
            raise ContractError(f"generate_greedy max_new must be >= 0, got {max_new}")
        state = self.init_state((B,))
        for t in range(T0):
            logits, state = self.step(prompts[:, t], state, kernel=kernel)
        out = [prompts]
        for i in range(max_new):
            if i:  # no step after the last token: nothing reads its logits
                logits, state = self.step(cur, state, kernel=kernel)
            cur = logits.argmax(axis=-1)
            out.append(cur[:, None])
        return np.concatenate(out, axis=1)

