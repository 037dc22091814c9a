"""Command-line entry points.

Every command resolves its parameters from built-in defaults, then an
optional ``key=value`` parameter file (``--params``), then explicit
flags; the resolved set is written next to the outputs so runs are
reproducible. Exit codes: 0 success, 1 input validation failure or an
output that cannot be written, 2 contract or oracle failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import checkpoint, energy
from .gradcheck import REL_TOL, check_gradients, gradcheck_targets
from .mamba2 import (
    CLAMP_MODES,
    DENSE,
    SITES,
    SPIKING,
    LanguageModel,
    make_clamp_hook,
    toy_config,
)
from .neurons import (
    KINDS,
    LIF,
    TILIF,
    NeuronConfig,
    collapse_spike_train,
    expand_spike_train,
    quantize,
)
from .spike_kernel import spike_linear_event, spike_linear_int
from .tensor import (
    ContractError,
    DimensionError,
    NumericError,
    dtype_scope,
)
from .training import (
    METHODS,
    SEQ_LEN,
    PreferenceExample,
    check_rl_batch,
    distill_run,
    eval_ppl,
    parse_preference_line,
    require_window,
    rl_run,
    synth_preference_lines,
    synthetic_corpus,
    token_stream,
    train_teacher,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONTRACT = 2


class CliError(Exception):
    """Input validation failure (exit code 1)."""


# the default of an option a command cannot run without: refused when
# missing, before anything is written (any option given empty is refused)
REQUIRED = object()


@dataclass
class Opt:
    type: Callable
    default: Any = None
    choices: tuple | None = None
    help: str = ""


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    if str(text).lower() in ("1", "true", "yes", "on"):
        return True
    if str(text).lower() in ("0", "false", "no", "off"):
        return False
    raise CliError(f"not a boolean: {text!r}")


GLOBAL_OPTS = {
    "seed": Opt(int, 0, help="global random seed"),
    "precision": Opt(str, "float32", ("float32", "float64"), "run precision"),
    "out": Opt(str, REQUIRED, help="output directory"),
    "params": Opt(str, None, help="key=value parameter file"),
}

COMMANDS: dict[str, dict[str, Opt]] = {
    "verify-equivalence": {
        "trials": Opt(int, 10000, help="random kernel instances"),
        "max_dim": Opt(int, 256),
    },
    "gradcheck": {
        "probes": Opt(int, 100, help="finite-difference probes per target"),
    },
    "energy-report": {
        "config": Opt(str, "130m", tuple(energy.PRESETS)),
        "variant": Opt(str, "ann", energy.VARIANTS),
        "fr_in": Opt(float, help="input-projection fire rate"),
        "fr_out": Opt(float, help="output-projection fire rate"),
        "k": Opt(int, help="micro-steps per token"),
        "paper": Opt(_bool, False, help="use embedded reference fire rates "
                                        "and compare against golden values"),
    },
    "train-teacher": {
        "steps": Opt(int, 1200),
        "batch": Opt(int, 16),
        "seq_len": Opt(int, SEQ_LEN),
        "lr": Opt(float, 3e-3),
        "corpus": Opt(str, None, help="UTF-8 text file, one document per line"),
        "corpus_lines": Opt(int, 400, help="synthetic corpus size when no file given"),
    },
    "distill": {
        "teacher": Opt(str, REQUIRED, help="teacher checkpoint"),
        "neuron": Opt(str, TILIF, KINDS),
        "d_max": Opt(int, 4),
        "sgc": Opt(_bool, True),
        "steps": Opt(int, 2000),
        "batch": Opt(int, 8),
        "lr": Opt(float, 1e-3),
        "corpus": Opt(str, None),
        "corpus_lines": Opt(int, 400),
    },
    "rl": {
        "method": Opt(str, REQUIRED, METHODS, "preference objective"),
        "ckpt": Opt(str, REQUIRED, help="policy checkpoint"),
        "data": Opt(str, None, help="tab-separated preference records"),
        "steps": Opt(int, 120),
        "batch": Opt(int, 4),
        "lr": Opt(float, 5e-6),
        "beta_pref": Opt(float, 0.1),
        "corpus_lines": Opt(int, 200, help="synthetic preference set size"),
    },
    "eval-ppl": {
        "ckpt": Opt(str, REQUIRED, help="model checkpoint"),
        "corpus": Opt(str, REQUIRED, help="UTF-8 text file"),
        "seq_len": Opt(int, SEQ_LEN),
    },
    "activation-hist": {
        "ckpt": Opt(str, REQUIRED, help="model checkpoint"),
        "layer": Opt(int, 0),
        "site": Opt(str, "u_t", SITES),
        "bins": Opt(int, 32),
        "corpus": Opt(str, None),
        "corpus_lines": Opt(int, 400),
        "seq_len": Opt(int, SEQ_LEN),
    },
    "clamp-ablation": {
        "ckpt": Opt(str, REQUIRED, help="model checkpoint"),
        "mode": Opt(str, "max_to_zero", CLAMP_MODES),
        "site": Opt(str, "y_t", SITES),
        "corpus": Opt(str, None),
        "corpus_lines": Opt(int, 400),
        "seq_len": Opt(int, SEQ_LEN),
    },
}


# counts a run cannot do without: zero steps would leave no metrics row,
# zero trials or probes would pass a check that checked nothing
POSITIVE = ("steps", "batch", "seq_len", "probes", "trials", "max_dim", "bins",
            "corpus_lines", "d_max")
# a seed and a layer index count from 0
NON_NEGATIVE = ("seed", "layer")
# rates and scales: zero, negative or non-finite would run a step that
# trains nothing or turns the weights non-finite
POSITIVE_FINITE = ("lr", "beta_pref")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other refusal; --help has the usage
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> _Parser:
    parser = _Parser(prog="spikessm")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in COMMANDS.items():
        p = sub.add_parser(name)
        for key, opt in {**GLOBAL_OPTS, **opts}.items():
            required = " (required)" if opt.default is REQUIRED else ""
            kwargs: dict = {"default": None, "help": opt.help + required}
            if opt.type is _bool:
                kwargs["nargs"] = "?"
                kwargs["const"] = "true"
            if opt.choices:
                kwargs["choices"] = [str(c) for c in opt.choices]
            p.add_argument("--" + key.replace("_", "-"), dest=key, **kwargs)
    return parser


@contextmanager
def reading(what: str, path: str):
    """Turn a failure to open, read or decode the input file ``path``
    into a one-line :class:`CliError` naming it as ``what``."""
    try:
        yield
    except FileNotFoundError:
        raise CliError(f"{what} not found: {path}") from None
    except UnicodeDecodeError:
        raise CliError(f"{what} is not UTF-8 text: {path}") from None
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc.strerror}") from None


def read_lines(what: str, path: str) -> list[str]:
    """The lines of the UTF-8 text file ``path``, without their line ends;
    the one reader of every text file a command takes."""
    with reading(what, path), open(path, "r", encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


@contextmanager
def writing(path: str):
    """Turn a failure to create ``--out`` or write the output ``path`` into
    a one-line :class:`CliError` naming the path that failed."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {exc.filename or path}: {exc.strerror}") from None


def write_output(outdir: str, name: str, text: str) -> str:
    """Write ``text`` to ``outdir/name`` as UTF-8 with ``\\n`` line ends, making
    ``outdir`` if missing: the one writer of every text output. Returns the path."""
    path = os.path.join(outdir, name)
    with writing(path):
        os.makedirs(outdir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    return path


def load_params_file(path: str, schema: dict[str, Opt]) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for ln, raw in enumerate(read_lines("parameter file", path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{ln}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in schema:
            raise CliError(f"{path}:{ln}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def resolve_options(command: str, args: argparse.Namespace) -> dict[str, Any]:
    schema = {**GLOBAL_OPTS, **COMMANDS[command]}
    given = load_params_file(args.params, schema) if args.params else {}
    flags = {k: getattr(args, k) for k in schema}
    given.update({k: v for k, v in flags.items() if v is not None})  # flags win
    resolved = {k: opt.default for k, opt in schema.items()} | given
    # normalize types and enforce choices
    for key, opt in schema.items():
        # given empty is not "not given": an empty --corpus would train on synthetic text
        if resolved[key] == "":
            raise CliError(f"--{key.replace('_', '-')} is empty; give a value or leave it out")
        if resolved[key] is REQUIRED:
            raise CliError(f"--{key.replace('_', '-')} is required")
        if resolved[key] is None:
            continue
        try:
            resolved[key] = opt.type(resolved[key])
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad value for {key}: {resolved[key]!r} ({exc})")
        if opt.choices and resolved[key] not in opt.choices:
            raise CliError(f"{key} must be one of {opt.choices}")
        if key in POSITIVE and resolved[key] < 1:
            raise CliError(f"{key} must be >= 1, got {resolved[key]}")
        if key in NON_NEGATIVE and resolved[key] < 0:
            raise CliError(f"{key} must be >= 0, got {resolved[key]}")
    for key in POSITIVE_FINITE:
        if resolved.get(key) is not None and not 0 < resolved[key] < math.inf:
            raise CliError(f"{key} must be positive and finite, got {resolved[key]}")
    if command == "energy-report":
        _check_spike_settings(resolved)
    if command == "rl":
        with refused():
            check_rl_batch(resolved["method"], resolved["batch"])
    if resolved.get("neuron") == LIF:
        if resolved["d_max"] != 1 and "d_max" in given:
            raise CliError(f"a lif neuron fires at most once; d_max must be 1, "
                           f"got {resolved['d_max']}")
        resolved["d_max"] = 1
    return resolved


@contextmanager
def refused():
    """A ContractError from a rule the package owns, raised on what the
    user gave, is a CliError: input, not a program fault."""
    try:
        yield
    except ContractError as exc:
        raise CliError(str(exc)) from None


def _check_spike_settings(resolved: dict[str, Any]) -> None:
    """CliError unless energy-report can price what it is given: under
    --paper no spike settings and a (config, variant) with a reference
    row, otherwise the settings ``energy.spike_settings`` takes, which
    are recorded as it returns them."""
    with refused():
        if not resolved["paper"]:
            resolved.update(energy.spike_settings(
                resolved["variant"], *(resolved[k] for k in energy.SPIKE_SETTINGS)))
        elif given := [k for k in energy.SPIKE_SETTINGS if resolved[k] is not None]:
            raise CliError(f"--paper takes k and fire rates from its row; drop {', '.join(given)}")
        else:
            energy.reference_row(resolved["config"], resolved["variant"])


def write_resolved(outdir: str, command: str, resolved: dict[str, Any]) -> None:
    lines = [f"command={command}"]
    lines += [f"{k}={resolved[k]}" for k in sorted(resolved) if resolved[k] is not None]
    write_output(outdir, "resolved_config.txt", "\n".join(lines) + "\n")


def load_corpus(resolved: dict[str, Any], *, sampled: bool = False) -> list[str]:
    """The command's corpus lines, refused before any step if they hold no
    window of its ``seq_len`` (``distill`` scores at :data:`SEQ_LEN`):
    a ``sampled`` one where it trains on them, else a consecutive one."""
    path = resolved.get("corpus")
    if path:
        lines = [ln for ln in read_lines("corpus file", path) if ln.strip()]
        if not lines:
            raise CliError(f"corpus file is empty: {path}")
    else:
        lines = synthetic_corpus(resolved["corpus_lines"], seed=resolved["seed"])
    with refused():
        require_window(token_stream(lines), resolved.get("seq_len", SEQ_LEN) + 1,
                       sampled=sampled)
    return lines


def preference_records(lines: list[str], method: str, path: str) -> list[PreferenceExample]:
    """The ``method`` records of the non-blank ``lines`` of the preference
    file ``path``; a malformed record, or none, is a one-line CliError."""
    examples = []
    for ln, line in enumerate(lines, 1):
        if line.strip():
            try:
                examples.append(parse_preference_line(line, method))
            except ContractError as exc:
                raise CliError(f"{path}:{ln}: {exc}") from None
    if not examples:
        raise CliError(f"{path}: no preference records")
    return examples


def _load_model(path: str) -> LanguageModel:
    with reading("checkpoint", path):
        return checkpoint.load(path)


def _save_model(outdir: str, name: str, model: LanguageModel) -> None:
    path = os.path.join(outdir, name)
    with writing(path):
        checkpoint.save(path, model)


def csv_text(header, rows) -> str:
    """CSV text: ``header``, then one line per row; a float cell is written
    to 6 decimals, any other cell as its text."""
    return "".join(",".join(f"{c:.6f}" if isinstance(c, float) else str(c) for c in row)
                   + "\n" for row in [header, *rows])


def _write_metrics(outdir: str, rows: list[dict]) -> None:
    """``metrics.csv``: one column per key of the rows, which all list them in one order."""
    write_output(outdir, "metrics.csv", csv_text(list(rows[0]), (r.values() for r in rows)))


def _write_eval(outdir: str, **metrics: float) -> None:
    write_output(outdir, "eval.csv", csv_text(("metric", "value"), metrics.items()))


# ---------------------------------------------------------------------------
# commands

def cmd_verify_equivalence(resolved) -> int:
    rng = np.random.default_rng(resolved["seed"])
    trials = resolved["trials"]
    max_dim = resolved["max_dim"]
    worst32 = 0.0
    for i in range(trials):
        kind = KINDS[i % 3]
        d_max = 1 if kind == LIF else int(rng.integers(1, 9))
        cfg = NeuronConfig(kind=kind, d_max=d_max)
        d_in = int(rng.integers(1, max_dim + 1))
        d_out = int(rng.integers(1, max_dim + 1))
        s = quantize(cfg, rng.normal(scale=max(1.0, d_max), size=d_in))
        train = expand_spike_train(cfg, s)
        if not np.array_equal(collapse_spike_train(train), s):
            print(f"FAIL round-trip at trial {i}")
            return EXIT_CONTRACT
        # integer-weighted 64-bit arm: all three routes bit-equal
        w_int = rng.integers(-8, 9, size=(d_out, d_in)).astype(np.float64)
        dense = w_int @ s
        if not (np.array_equal(spike_linear_int(w_int, s), dense)
                and np.array_equal(spike_linear_event(w_int, train), dense)):
            print(f"FAIL integer equivalence at trial {i}")
            return EXIT_CONTRACT
        # float32 arm: within 1e-5 absolute
        w32 = (rng.normal(size=(d_out, d_in)) / d_in).astype(np.float32)
        s32 = s.astype(np.float32)
        dense32 = w32 @ s32
        err = max(
            float(np.max(np.abs(spike_linear_int(w32, s32) - dense32), initial=0.0)),
            float(np.max(np.abs(spike_linear_event(w32, train) - dense32), initial=0.0)),
        )
        worst32 = max(worst32, err)
        if err > 1e-5:
            print(f"FAIL float32 equivalence at trial {i}: {err:.2e}")
            return EXIT_CONTRACT
    # exhaustive neuron round trip
    for d_max in range(1, 9):
        cfg = NeuronConfig(kind=TILIF, d_max=d_max)
        s = np.arange(-d_max, d_max + 1, dtype=np.float64)
        if not np.array_equal(collapse_spike_train(expand_spike_train(cfg, s)), s):
            print(f"FAIL exhaustive round-trip at d_max={d_max}")
            return EXIT_CONTRACT
    write_output(resolved["out"], "verify.csv", csv_text(
        ("check", "trials", "worst_abs_err_float32", "status"),
        [("equivalence_triangle", trials, f"{worst32:.3e}", "pass"),
         ("round_trip_exhaustive", 8, 0, "pass")]))
    print(f"equivalence verified over {trials} instances "
          f"(worst float32 error {worst32:.2e})")
    return EXIT_OK


def cmd_gradcheck(resolved) -> int:
    probes = resolved["probes"]
    rows = []
    status = EXIT_OK
    with dtype_scope("float64"):
        rng = np.random.default_rng(resolved["seed"])
        for name, loss_fn, params in gradcheck_targets(rng):
            err = check_gradients(loss_fn, params, rng, probes=probes)
            ok = err < REL_TOL
            rows.append((name, err, ok))
            print(f"{'pass' if ok else 'FAIL'}  {name:<16} max rel err {err:.3e}")
            if not ok:
                status = EXIT_CONTRACT
    write_output(resolved["out"], "gradcheck.csv", csv_text(
        ("target", "max_rel_err", "tolerance", "status"),
        [(name, f"{err:.6e}", f"{REL_TOL:.0e}", "pass" if ok else "fail")
         for name, err, ok in rows]))
    return status


def cmd_energy_report(resolved) -> int:
    cfg_name = resolved["config"]
    variant = resolved["variant"]
    if resolved["paper"]:
        report = energy.reference_report(cfg_name, variant)
        errs = energy.compare_to_reference(report)  # ContractError -> exit 2
        print(f"reference comparison: worst cell error "
              f"{max(errs.values()):.3%} (tolerance 0.5%)")
    else:  # the settings resolve_options checked; None is not given
        report = energy.compute_report(
            energy.PRESETS[cfg_name], variant,
            *(resolved[k] for k in energy.SPIKE_SETTINGS), config=cfg_name)
    table = energy.to_table([report])
    print(table, end="")
    write_output(resolved["out"], "energy.csv",
                 csv_text(energy.CSV_FIELDS, [energy.report_cells(report)]))
    write_output(resolved["out"], "energy.txt", table)
    return EXIT_OK


def cmd_train_teacher(resolved) -> int:
    lines = load_corpus(resolved, sampled=True)
    outdir = resolved["out"]
    write_output(outdir, "corpus.txt", "\n".join(lines) + "\n")
    rng = np.random.default_rng(resolved["seed"])
    model = LanguageModel(toy_config(mode=DENSE), rng)
    rows = train_teacher(model, lines, steps=resolved["steps"],
                         batch=resolved["batch"], seq_len=resolved["seq_len"],
                         lr=resolved["lr"], seed=resolved["seed"])
    _write_metrics(outdir, rows)
    _save_model(outdir, "teacher.spkm", model)
    ppl = eval_ppl(model, lines, seq_len=resolved["seq_len"])
    _write_eval(outdir, ppl=ppl)
    print(f"teacher trained: final loss {rows[-1]['loss']:.4f}, ppl {ppl:.4f}")
    return EXIT_OK


def cmd_distill(resolved) -> int:
    teacher = _load_model(resolved["teacher"])
    if teacher.cfg.mode != DENSE:
        raise CliError("the teacher checkpoint must be a dense-mode model")
    lines = load_corpus(resolved)
    outdir = resolved["out"]
    write_output(outdir, "corpus.txt", "\n".join(lines) + "\n")
    neuron = NeuronConfig(kind=resolved["neuron"], d_max=resolved["d_max"])
    student = teacher.clone(mode=SPIKING, neuron=neuron, sgc=resolved["sgc"])
    result = distill_run(teacher, student, lines, steps=resolved["steps"],
                         batch=resolved["batch"], lr=resolved["lr"],
                         seed=resolved["seed"])
    _write_metrics(outdir, result.metrics)
    _save_model(outdir, "student.spkm", student)
    ppl = eval_ppl(student, lines)
    _write_eval(outdir, ppl=ppl, initial_kl=result.initial_kl, final_kl=result.final_kl)
    print(f"distilled: kl {result.initial_kl:.4f} -> {result.final_kl:.4f}, "
          f"student ppl {ppl:.4f}")
    return EXIT_OK


def cmd_rl(resolved) -> int:
    policy = _load_model(resolved["ckpt"])
    outdir = resolved["out"]
    path = resolved["data"]
    if path:
        pref_lines = read_lines("preference file", path)
    else:
        lines = synthetic_corpus(200, seed=resolved["seed"])
        pref_lines = synth_preference_lines(lines, resolved["corpus_lines"],
                                            resolved["seed"], resolved["method"])
        path = write_output(outdir, "preferences.tsv", "\n".join(pref_lines) + "\n")
    examples = preference_records(pref_lines, resolved["method"], path)
    rows = rl_run(policy, examples, method=resolved["method"],
                  steps=resolved["steps"], batch=resolved["batch"],
                  lr=resolved["lr"], beta_pref=resolved["beta_pref"],
                  seed=resolved["seed"])
    _write_metrics(outdir, rows)
    _save_model(outdir, "aligned.spkm", policy)
    print(f"{resolved['method']} finished: loss {rows[0]['loss']:.4f} -> "
          f"{rows[-1]['loss']:.4f}")
    return EXIT_OK


def cmd_eval_ppl(resolved) -> int:
    model = _load_model(resolved["ckpt"])
    lines = load_corpus(resolved)
    ppl = eval_ppl(model, lines, seq_len=resolved["seq_len"])
    _write_eval(resolved["out"], ppl=ppl)
    print(f"ppl {ppl:.6f}")
    return EXIT_OK


def _collect_site(model, lines, layer, site, seq_len):
    grabbed = []

    def hook(li, at, data):
        if li == layer and at == site:
            grabbed.append(data.reshape(-1).copy())
        return data

    eval_ppl(model, lines, seq_len=seq_len, hook=hook)
    return np.concatenate(grabbed)


def cmd_activation_hist(resolved) -> int:
    model = _load_model(resolved["ckpt"])
    if resolved["layer"] >= model.cfg.n_layers:  # >= 0 checked before any write
        raise CliError(f"layer must be in [0, {model.cfg.n_layers})")
    lines = load_corpus(resolved)
    values = _collect_site(model, lines, resolved["layer"], resolved["site"],
                           resolved["seq_len"])
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    counts, edges = np.histogram(values, bins=resolved["bins"], range=(lo, hi))
    path = write_output(resolved["out"], "activation_hist.csv", csv_text(
        ("value_lo", "value_hi", "count"),
        zip(edges.tolist(), edges[1:].tolist(), counts.tolist())))
    print(f"histogram over {values.size} activations written to {path}")
    return EXIT_OK


def cmd_clamp_ablation(resolved) -> int:
    model = _load_model(resolved["ckpt"])
    lines = load_corpus(resolved)
    base = eval_ppl(model, lines, seq_len=resolved["seq_len"])
    clamped = eval_ppl(model, lines, seq_len=resolved["seq_len"],
                       hook=make_clamp_hook(resolved["mode"], resolved["site"]))
    write_output(resolved["out"], "clamp_ablation.csv", csv_text(
        ("mode", "site", "ppl_off", "ppl_clamped", "delta"),
        [(resolved["mode"], resolved["site"], base, clamped, clamped - base)]))
    print(f"clamp {resolved['mode']} at {resolved['site']}: "
          f"ppl {base:.4f} -> {clamped:.4f}")
    return EXIT_OK


HANDLERS = {
    "verify-equivalence": cmd_verify_equivalence,
    "gradcheck": cmd_gradcheck,
    "energy-report": cmd_energy_report,
    "train-teacher": cmd_train_teacher,
    "distill": cmd_distill,
    "rl": cmd_rl,
    "eval-ppl": cmd_eval_ppl,
    "activation-hist": cmd_activation_hist,
    "clamp-ablation": cmd_clamp_ablation,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolved = resolve_options(args.command, args)
        write_resolved(resolved["out"], args.command, resolved)
        with dtype_scope(resolved["precision"]):
            return HANDLERS[args.command](resolved)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # sizes too large for this host, as a bad input
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ContractError, DimensionError, NumericError) as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
