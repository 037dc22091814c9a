import contextlib
import io
import json
import os
import shlex
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikessm import checkpoint
from spikessm.cli import (
    COMMANDS,
    GLOBAL_OPTS,
    REQUIRED,
    CliError,
    _bool,
    build_parser,
    main,
    preference_records,
    read_lines,
    resolve_options,
)
from spikessm.mamba2 import CLAMP_MODES, SITES, LanguageModel, toy_config
from spikessm.neurons import KINDS
from spikessm.tensor import default_dtype, dtype_scope
from spikessm.training import METHODS, synthetic_corpus, train_teacher


@pytest.fixture(scope="module")
def teacher_dir(tmp_path_factory):
    """A quickly trained teacher checkpoint shared by the CLI tests."""
    out = tmp_path_factory.mktemp("teacher")
    lines = synthetic_corpus(120, seed=0)
    model = LanguageModel(toy_config(), np.random.default_rng(42))
    train_teacher(model, lines, steps=120, batch=8, seq_len=32, lr=3e-3, seed=1)
    checkpoint.save(out / "teacher.spkm", model)
    (out / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def test_missing_out_is_validation_error():
    assert main(["gradcheck"]) == 1


def test_unknown_choice_is_validation_error(tmp_path):
    assert main(["energy-report", "--config", "7b", "--out", str(tmp_path)]) == 1


def test_energy_report_paper(tmp_path):
    rc = main(["energy-report", "--config", "1.3b", "--variant", "lif",
               "--paper", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "energy.csv").read_text()
    assert csv.splitlines()[0].startswith("config,variant,k,fr_in,fr_out")
    assert "9.8652" in csv
    assert (tmp_path / "resolved_config.txt").exists()


def test_energy_report_toy_custom_rates(tmp_path):
    rc = main(["energy-report", "--config", "toy", "--variant", "tilif",
               "--fr-in", "0.3", "--fr-out", "0.1", "--k", "4",
               "--out", str(tmp_path)])
    assert rc == 0


def test_energy_report_toy_paper_rejected(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["energy-report", "--config", "toy", "--variant", "ann",
                 "--paper", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "no reference row for (toy, ann)" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("k", "8"), ("fr_in", "0.9"), ("fr_out", "0.1")])
@pytest.mark.parametrize("where", ["flag", "params"])
def test_energy_report_paper_refuses_the_settings_it_replaces(key, value, where,
                                                              tmp_path, capsys):
    argv = ["energy-report", "--config", "130m", "--variant", "tilif", "--paper"]
    if where == "flag":
        argv += [f"--{key.replace('_', '-')}", value]
    else:
        params = tmp_path / "run.params"
        params.write_text(f"{key}={value}\n", encoding="utf-8")
        argv += ["--params", str(params)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"drop {key}" in err
    assert not out.exists()


def test_energy_report_paper_records_only_what_it_used(tmp_path):
    assert main(["energy-report", "--config", "130m", "--variant", "tilif",
                 "--paper", "--out", str(tmp_path)]) == 0
    keys = {ln.partition("=")[0]
            for ln in (tmp_path / "resolved_config.txt").read_text().splitlines()}
    assert {"config", "variant", "paper"} <= keys
    assert not keys & {"k", "fr_in", "fr_out"}
    assert "k,fr_in,fr_out" in (tmp_path / "energy.csv").read_text()


def _argv_or_params(command, settings, where, tmp_path):
    """``command`` given ``settings`` as flags or in a ``--params`` file."""
    if where == "flag":
        return [command] + [t for k, v in settings.items()
                            for t in (f"--{k.replace('_', '-')}", v)]
    params = tmp_path / "run.params"
    params.write_text("".join(f"{k}={v}\n" for k, v in settings.items()), encoding="utf-8")
    return [command, "--params", str(params)]


@pytest.mark.parametrize("settings, message", [
    ({"variant": "tilif"}, "variant tilif needs fr_in, fr_out, k"),
    ({"variant": "ilif", "fr_in": "0.3", "fr_out": "0.1"}, "variant ilif needs k"),
    ({"variant": "lif", "fr_out": "0.1"}, "variant lif needs fr_in"),
    ({"variant": "ann", "fr_in": "0.3", "k": "3"}, "variant ann prices no spikes; drop fr_in, k"),
    ({"variant": "ann", "fr_out": "0"}, "variant ann prices no spikes; drop fr_out"),
    ({"variant": "lif", "fr_in": "0.3", "fr_out": "0.1", "k": "4"},
     "variant lif takes one micro-step; k must be 1, got 4"),
])
@pytest.mark.parametrize("where", ["flag", "params"])
def test_energy_report_needs_exactly_the_settings_it_prices(settings, message, where,
                                                            tmp_path, capsys):
    argv = _argv_or_params("energy-report", {"config": "130m", **settings}, where, tmp_path)
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("variant, extra, recorded", [
    ("ann", [], set()),
    ("lif", ["--fr-in", "0.3", "--fr-out", "0.1"], {"fr_in=0.3", "fr_out=0.1", "k=1"}),
    ("lif", ["--fr-in", "0.3", "--fr-out", "0.1", "--k", "1"],
     {"fr_in=0.3", "fr_out=0.1", "k=1"}),
    ("tilif", ["--fr-in", "0.3", "--fr-out", "0.1", "--k", "4"],
     {"fr_in=0.3", "fr_out=0.1", "k=4"}),
])
def test_energy_report_records_what_it_prices(variant, extra, recorded, tmp_path):
    assert main(["energy-report", "--config", "130m", "--variant", variant, *extra,
                 "--out", str(tmp_path)]) == 0
    lines = set((tmp_path / "resolved_config.txt").read_text().splitlines())
    assert {ln for ln in lines if ln.partition("=")[0] in ("k", "fr_in", "fr_out")} == recorded
    row = (tmp_path / "energy.csv").read_text().splitlines()[1].split(",")
    assert row[1:3] == [variant, "4" if variant == "tilif" else "1"]  # ann is priced at k 1


@pytest.mark.parametrize("where", ["flag", "params"])
def test_distill_lif_refuses_a_d_max_other_than_1(where, tmp_path, capsys):
    argv = _argv_or_params("distill", {"teacher": "t.spkm", "neuron": "lif", "d_max": "3"},
                           where, tmp_path)
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "d_max must be 1, got 3" in err
    assert not out.exists()


def test_distill_lif_records_the_d_max_it_runs(teacher_dir, tmp_path):
    out = tmp_path / "o"
    assert main(["distill", "--teacher", str(teacher_dir / "teacher.spkm"), "--neuron", "lif",
                 "--steps", "1", "--batch", "2", "--corpus", str(teacher_dir / "corpus.txt"),
                 "--out", str(out)]) == 0
    assert "d_max=1" in (out / "resolved_config.txt").read_text().splitlines()
    assert checkpoint.load(out / "student.spkm").cfg.neuron.d_max == 1


def _required(command):
    """A value for each of ``command``'s required options; none is read
    before ``--out`` is made."""
    return {k: opt.choices[0] if opt.choices else "x.spkm"
            for k, opt in COMMANDS[command].items() if opt.default is REQUIRED}


def _required_cases():
    for command, opts in COMMANDS.items():
        for key, opt in {**GLOBAL_OPTS, **opts}.items():
            if opt.default is REQUIRED:
                for how in ("missing", "empty-flag", "empty-params"):
                    yield pytest.param(command, key, how, id=f"{command}-{key}-{how}")


@pytest.mark.parametrize("command, key, how", list(_required_cases()))
def test_required_options_refused_before_anything_is_written(command, key, how,
                                                             tmp_path, capsys):
    out = tmp_path / "o"
    given = {**_required(command), "out": str(out)}
    flag = f"--{key.replace('_', '-')}"
    argv = [command]
    if how == "empty-params":
        params = tmp_path / "run.params"
        params.write_text(f"{key}=\n", encoding="utf-8")
        argv += ["--params", str(params)]
    for k, v in given.items():
        if k != key:
            argv += [f"--{k.replace('_', '-')}", v]
        elif how == "empty-flag":
            argv += [flag, ""]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and flag in err
    assert not out.exists()


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_that_is_a_file_exits_1_and_writes_nothing(command, under, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "o" if under else blocker
    argv = [command] + [t for k, v in _required(command).items()
                        for t in (f"--{k.replace('_', '-')}", v)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    reason = "Not a directory" if under else "File exists"
    assert err == [f"error: cannot write {out}: {reason}"]
    assert os.listdir(tmp_path) == ["file"] and blocker.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("argv, name", [
    (["energy-report"], "energy.csv"),
    (["train-teacher", "--steps", "1", "--batch", "2", "--seq-len", "8",
      "--corpus-lines", "7"], "teacher.spkm"),
])
def test_output_name_that_is_a_directory_exits_1(argv, name, tmp_path, capsys):
    (tmp_path / name).mkdir()
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: cannot write {tmp_path / name}: Is a directory"]


def test_main_restores_the_callers_precision(tmp_path):
    with dtype_scope("float64"):
        for precision in ("float32", "float64"):
            assert main(["energy-report", "--precision", precision,
                         "--out", str(tmp_path / precision)]) == 0
            assert default_dtype() == np.float64


def test_help_marks_the_required_options(capsys):
    assert main(["rl", "--help"]) == 0
    assert capsys.readouterr().out.count("(required)") == 3  # --out, --method, --ckpt


def test_activation_hist_negative_layer_refused_before_anything_is_written(tmp_path,
                                                                          capsys):
    out = tmp_path / "o"
    assert main(["activation-hist", "--ckpt", "m.spkm", "--layer", "-1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "layer must be >= 0, got -1" in err
    assert not out.exists()


def test_readme_command_lines_resolve():
    # every documented command line parses and resolves; nothing runs or is written
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [ln for ln in section.splitlines() if ln.startswith("spikessm ")]
    assert len(lines) == 11
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert resolve_options(args.command, args)["out"].startswith("runs/"), line


def test_choices_are_the_package_tuples():
    assert COMMANDS["distill"]["neuron"].choices is KINDS
    assert COMMANDS["rl"]["method"].choices is METHODS
    assert COMMANDS["clamp-ablation"]["mode"].choices is CLAMP_MODES
    for command in ("activation-hist", "clamp-ablation"):
        assert COMMANDS[command]["site"].choices is SITES


def test_params_file_and_override(tmp_path):
    params = tmp_path / "run.params"
    params.write_text("config=130m\nvariant=lif\npaper=true\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["energy-report", "--params", str(params), "--variant", "tilif",
               "--paper", "--out", str(out)])
    assert rc == 0
    resolved = (out / "resolved_config.txt").read_text()
    assert "variant=tilif" in resolved  # flag overrides the file
    assert "config=130m" in resolved


def test_params_file_unknown_key_rejected(tmp_path):
    params = tmp_path / "run.params"
    params.write_text("config=130m\nwidth=9\n", encoding="utf-8")
    assert main(["energy-report", "--params", str(params),
                 "--out", str(tmp_path / "o")]) == 1


def test_verify_equivalence_small(tmp_path):
    rc = main(["verify-equivalence", "--trials", "200", "--max-dim", "64",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "pass" in (tmp_path / "verify.csv").read_text()


def test_gradcheck_cli(tmp_path):
    rc = main(["gradcheck", "--probes", "25", "--out", str(tmp_path)])
    assert rc == 0
    body = (tmp_path / "gradcheck.csv").read_text()
    assert "dense_block" in body and "fail" not in body
    assert "sequence_logprob" in body
    assert "\nhidden_align," in body  # both inputs trainable, unlike sgc_path


def test_eval_ppl_requires_corpus(teacher_dir, tmp_path):
    rc = main(["eval-ppl", "--ckpt", str(teacher_dir / "teacher.spkm"),
               "--out", str(tmp_path)])
    assert rc == 1


def test_eval_ppl_runs(teacher_dir, tmp_path):
    rc = main(["eval-ppl", "--ckpt", str(teacher_dir / "teacher.spkm"),
               "--corpus", str(teacher_dir / "corpus.txt"),
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "eval.csv").read_text().startswith("metric,value\nppl,")


def test_eval_ppl_missing_ckpt(tmp_path):
    rc = main(["eval-ppl", "--ckpt", str(tmp_path / "nope.spkm"),
               "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert rc == 1


def test_activation_hist(teacher_dir, tmp_path):
    rc = main(["activation-hist", "--ckpt", str(teacher_dir / "teacher.spkm"),
               "--layer", "0", "--site", "y_t", "--bins", "8",
               "--corpus", str(teacher_dir / "corpus.txt"),
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "activation_hist.csv").read_text().splitlines()
    assert lines[0] == "value_lo,value_hi,count"
    assert len(lines) == 9
    counts = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(counts) > 0


def test_activation_hist_bad_layer(teacher_dir, tmp_path):
    rc = main(["activation-hist", "--ckpt", str(teacher_dir / "teacher.spkm"),
               "--layer", "9", "--out", str(tmp_path),
               "--corpus", str(teacher_dir / "corpus.txt")])
    assert rc == 1


@pytest.mark.parametrize("cut", [2, 10, 40, -3])
def test_eval_ppl_truncated_checkpoint(teacher_dir, tmp_path, capsys, cut):
    blob = (teacher_dir / "teacher.spkm").read_bytes()
    bad = tmp_path / "cut.spkm"
    bad.write_bytes(blob[:cut])
    rc = main(["eval-ppl", "--ckpt", str(bad), "--corpus",
               str(teacher_dir / "corpus.txt"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "truncated container" in err[0] and "at byte" in err[0]


def test_eval_ppl_config_the_tensors_do_not_back(teacher_dir, tmp_path, capsys):
    blob = (teacher_dir / "teacher.spkm").read_bytes()
    (n,) = struct.unpack("<I", blob[8:12])
    cfg = json.dumps({**json.loads(blob[12:12 + n]), "vocab": 2 ** 40}).encode()
    bad = tmp_path / "huge.spkm"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(cfg)) + cfg + blob[12 + n:])
    rc = main(["eval-ppl", "--ckpt", str(bad), "--corpus",
               str(teacher_dir / "corpus.txt"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "embedding has shape" in err[0]


def test_eval_ppl_huge_layer_count_fails_fast(teacher_dir, tmp_path):
    # a shape table of 10**12 layers would never finish (or fill the
    # host's memory), so the run is bounded by a timeout
    blob = (teacher_dir / "teacher.spkm").read_bytes()
    (n,) = struct.unpack("<I", blob[8:12])
    cfg = json.dumps({**json.loads(blob[12:12 + n]), "n_layers": 10 ** 12,
                      "sgc": True}).encode()
    bad = tmp_path / "deep.spkm"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(cfg)) + cfg + blob[12 + n:])
    cmd = [sys.executable, "-m", "spikessm.cli", "eval-ppl", "--ckpt", str(bad),
           "--corpus", str(teacher_dir / "corpus.txt"), "--out", str(tmp_path / "o")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and f"{10 ** 12} layers" in err[0], err


def test_eval_ppl_refuses_a_container_with_the_old_config_keys(teacher_dir, tmp_path,
                                                               capsys):
    # the keys a container carried before the compensation setting became
    # one flag and the neuron lost its test hook
    blob = (teacher_dir / "teacher.spkm").read_bytes()
    (n,) = struct.unpack("<I", blob[8:12])
    old = json.loads(blob[12:12 + n])
    del old["sgc"]
    old.update(sgc_layers=[], neuron={**old["neuron"], "passthrough": False})
    cfg = json.dumps(old, sort_keys=True).encode()
    bad = tmp_path / "old.spkm"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(cfg)) + cfg + blob[12 + n:])
    rc = main(["eval-ppl", "--ckpt", str(bad), "--corpus", str(teacher_dir / "corpus.txt"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "unknown ['sgc_layers'], missing ['sgc']" in err[0], err


def test_eval_ppl_layer_count_mismatch_is_one_short_line(teacher_dir, tmp_path, capsys):
    # 22 layers pass the layer-count bound (the toy teacher has 22
    # tensors) and leave 200 names missing; the message counts them
    blob = (teacher_dir / "teacher.spkm").read_bytes()
    (n,) = struct.unpack("<I", blob[8:12])
    cfg = json.dumps({**json.loads(blob[12:12 + n]), "n_layers": 22}).encode()
    bad = tmp_path / "deep.spkm"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(cfg)) + cfg + blob[12 + n:])
    rc = main(["eval-ppl", "--ckpt", str(bad), "--corpus", str(teacher_dir / "corpus.txt"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    msg = err[0].replace(str(bad), "<ckpt>")
    assert len(msg.encode("utf-8")) < 300, msg
    assert "200 missing" in msg and "'layers.10.a_log'" in msg, msg


def test_activation_hist_short_corpus(teacher_dir, tmp_path, capsys):
    corpus = tmp_path / "short.txt"
    corpus.write_text("hi there\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["activation-hist", "--ckpt", str(teacher_dir / "teacher.spkm"),
               "--corpus", str(corpus), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: corpus shorter than one evaluation window: 10 tokens, 49 needed"
    assert not (out / "activation_hist.csv").exists()


@pytest.mark.parametrize("command, extra, message", [
    ("train-teacher", ["--steps", "3"], "training window: 12 tokens, 50 needed"),
    ("train-teacher", ["--steps", "3", "--seq-len", "11"], "training window: 12 tokens, 13 needed"),
    ("distill", ["--steps", "3"], "evaluation window: 12 tokens, 49 needed"),
    ("eval-ppl", [], "evaluation window: 12 tokens, 49 needed"),
    ("eval-ppl", ["--seq-len", "12"], "evaluation window: 12 tokens, 13 needed"),
    ("clamp-ablation", [], "evaluation window: 12 tokens, 49 needed"),
])
def test_short_corpus_refused_before_any_output(command, extra, message, teacher_dir,
                                                tmp_path, capsys):
    """A corpus too short for one window of the command's seq_len is the
    user's input: exit 1 with one line before corpus.txt, a step or any
    output; only the resolved configuration is written."""
    corpus = tmp_path / "ten.txt"
    corpus.write_text("abcdefghij\n", encoding="utf-8")  # 12 tokens with BOS/EOS
    out = tmp_path / "o"
    argv = [command, "--corpus", str(corpus), "--out", str(out), *extra]
    if command != "train-teacher":
        argv += ["--teacher" if command == "distill" else "--ckpt",
                 str(teacher_dir / "teacher.spkm")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: corpus shorter than one {message}"]
    assert os.listdir(out) == ["resolved_config.txt"]


def test_short_synthetic_corpus_refused_before_any_output(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["train-teacher", "--corpus-lines", "1", "--steps", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "training window" in err[0]
    assert os.listdir(out) == ["resolved_config.txt"]


def test_corpus_of_exactly_one_window_runs(teacher_dir, tmp_path):
    corpus = tmp_path / "one.txt"
    corpus.write_text("abcdefghijk\n", encoding="utf-8")  # 13 tokens
    assert main(["eval-ppl", "--ckpt", str(teacher_dir / "teacher.spkm"), "--seq-len", "12",
                 "--corpus", str(corpus), "--out", str(tmp_path / "e")]) == 0
    assert main(["train-teacher", "--steps", "2", "--batch", "2", "--seq-len", "11",
                 "--corpus", str(corpus), "--out", str(tmp_path / "t")]) == 0


def test_clamp_ablation(teacher_dir, tmp_path):
    rc = main(["clamp-ablation", "--ckpt", str(teacher_dir / "teacher.spkm"),
               "--mode", "max_to_zero", "--site", "y_t",
               "--corpus", str(teacher_dir / "corpus.txt"),
               "--out", str(tmp_path)])
    assert rc == 0
    header, row = (tmp_path / "clamp_ablation.csv").read_text().splitlines()
    assert header == "mode,site,ppl_off,ppl_clamped,delta"
    assert float(row.split(",")[4]) > 0  # clamping hurts


def test_distill_rejects_spiking_teacher(teacher_dir, tmp_path):
    out1 = tmp_path / "d"
    rc = main(["distill", "--teacher", str(teacher_dir / "teacher.spkm"),
               "--steps", "3", "--batch", "2", "--out", str(out1),
               "--corpus", str(teacher_dir / "corpus.txt")])
    assert rc == 0
    rc = main(["distill", "--teacher", str(out1 / "student.spkm"),
               "--steps", "3", "--out", str(tmp_path / "d2"),
               "--corpus", str(teacher_dir / "corpus.txt")])
    assert rc == 1


def test_distill_saves_the_teacher_tensor_names(teacher_dir, tmp_path, capsys):
    """The compensation mirrors are run state: ``student.spkm`` holds the
    teacher's tensor names and a same-seed rerun writes the same bytes. A
    container that still holds mirrors (a student saved while they were
    model parameters) is refused with exit 2 and one line."""
    def run(tag):
        out = tmp_path / tag
        assert main(["distill", "--teacher", str(teacher_dir / "teacher.spkm"),
                     "--steps", "3", "--seed", "4", "--out", str(out),
                     "--corpus", str(teacher_dir / "corpus.txt")]) == 0
        return out

    a, b = run("a"), run("b")
    _, teacher = checkpoint.load_raw(teacher_dir / "teacher.spkm")
    _, student = checkpoint.load_raw(a / "student.spkm")
    assert list(student) == list(teacher)
    for name in ("student.spkm", "metrics.csv", "eval.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    model = checkpoint.load(a / "student.spkm")
    layer = model.layers[0]
    named = model.named_parameters() + [("layers.0.w_sgc_in", layer.w_in),
                                        ("layers.0.w_sgc_out", layer.w_out)]
    model.named_parameters = lambda: named
    old = tmp_path / "old.spkm"
    checkpoint.save(old, model)
    capsys.readouterr()
    rc = main(["eval-ppl", "--ckpt", str(old), "--corpus",
               str(teacher_dir / "corpus.txt"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and \
        "2 unexpected ['layers.0.w_sgc_in', 'layers.0.w_sgc_out']" in err[0], err


def test_rerun_byte_identical_outputs(tmp_path):
    """Same seed, same command: byte-identical CSV outputs."""
    def run(tag):
        out = tmp_path / tag
        cmd = [sys.executable, "-m", "spikessm.cli", "train-teacher",
               "--steps", "8", "--batch", "4", "--seq-len", "16",
               "--corpus-lines", "40", "--seed", "5", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return ((out / "metrics.csv").read_bytes(),
                (out / "teacher.spkm").read_bytes(),
                (out / "corpus.txt").read_bytes())

    assert run("a") == run("b")


def test_rl_cli_smoke(teacher_dir, tmp_path):
    rc = main(["rl", "--method", "kto", "--ckpt",
               str(teacher_dir / "teacher.spkm"), "--steps", "3",
               "--batch", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "preferences.tsv").exists()
    assert (tmp_path / "aligned.spkm").exists()
    assert (tmp_path / "metrics.csv").read_text().startswith("step,loss,lr")


def test_rl_kto_loss_moves_and_reruns_identically(teacher_dir, tmp_path, capsys):
    """KTO on a spiking student: 0.5 on the first step, where the policy is
    the reference, then other values; same seed, same bytes; one row has
    no other row to pair its prompt with, so ``--batch 1`` is refused."""
    assert main(["distill", "--teacher", str(teacher_dir / "teacher.spkm"),
                 "--steps", "3", "--seed", "3", "--out", str(tmp_path / "student"),
                 "--corpus", str(teacher_dir / "corpus.txt")]) == 0
    ckpt = str(tmp_path / "student" / "student.spkm")

    def run(tag, *extra):
        out = tmp_path / tag
        rc = main(["rl", "--method", "kto", "--ckpt", ckpt, "--steps", "20",
                   "--seed", "5", "--out", str(out), *extra])
        return rc, out

    rc, a = run("a")
    assert rc == 0
    losses = [line.split(",")[1] for line in
              (a / "metrics.csv").read_text().splitlines()[1:]]
    assert len(losses) == 20 and losses[0] == "0.500000"
    assert all(v != "0.500000" for v in losses[1:])
    rc, b = run("b")
    assert rc == 0
    for name in ("metrics.csv", "aligned.spkm"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    capsys.readouterr()
    rc, _ = run("one", "--batch", "1")
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "batch >= 2" in err[0]


@pytest.mark.parametrize("where", ["flag", "params"])
def test_rl_kto_batch_1_refused_before_anything_is_written(where, teacher_dir, tmp_path,
                                                          capsys):
    out = tmp_path / "o"
    argv = ["rl", "--method", "kto", "--ckpt", str(teacher_dir / "teacher.spkm"),
            "--out", str(out)]
    if where == "flag":
        argv += ["--batch", "1"]
    else:
        params = tmp_path / "run.params"
        params.write_text("batch=1\n", encoding="utf-8")
        argv += ["--params", str(params)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: KTO needs batch >= 2 to pair prompts with other responses"]
    assert not out.exists()


@pytest.mark.parametrize("method, text, where, reason", [
    ("dpo", "p\tgood\tbad\n\np\tgood\n", ":3", "expected 3 tab-separated fields, got 2"),
    ("kto", "p\tr\t+1\np\tr\tmaybe\n", ":2", "bad KTO label 'maybe'"),
    ("kto", "p\tgood\tbad\n", ":1", "bad KTO label 'bad'"),  # a DPO record
    ("dpo", "\n \n", "", "no preference records"),
], ids=["dpo-fields", "kto-label", "dpo-record-as-kto", "no-records"])
def test_rl_bad_preference_record_exits_1_at_its_line(method, text, where, reason,
                                                      teacher_dir, tmp_path, capsys):
    data = tmp_path / "prefs.tsv"
    data.write_text(text, encoding="utf-8")
    assert main(["rl", "--method", method, "--ckpt", str(teacher_dir / "teacher.spkm"),
                 "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {data}{where}: {reason}"]


def test_rl_requires_method(teacher_dir, tmp_path):
    rc = main(["rl", "--ckpt", str(teacher_dir / "teacher.spkm"),
               "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["train-teacher", "--steps", "0"],
    ["train-teacher", "--batch", "0"],
    ["train-teacher", "--seq-len", "-3"],
    ["distill", "--teacher", "t.spkm", "--steps", "0"],
    ["distill", "--teacher", "t.spkm", "--batch", "-1"],
    ["rl", "--method", "dpo", "--ckpt", "p.spkm", "--steps", "0"],
    ["rl", "--method", "dpo", "--ckpt", "p.spkm", "--batch", "0"],
    ["eval-ppl", "--ckpt", "m.spkm", "--corpus", "c.txt", "--seq-len", "0"],
    ["verify-equivalence", "--max-dim", "0"],
    ["verify-equivalence", "--trials", "-3"],
    ["gradcheck", "--probes", "0"],
    ["activation-hist", "--ckpt", "m.spkm", "--bins", "0"],
    ["train-teacher", "--corpus-lines", "0"],
    ["distill", "--teacher", "t.spkm", "--corpus-lines", "-2"],
    ["rl", "--method", "kto", "--ckpt", "p.spkm", "--corpus-lines", "0"],
    ["distill", "--teacher", "t.spkm", "--d-max", "0"],
    ["energy-report", "--k", "0"],
])
def test_non_positive_sizes_rejected(argv, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "must be >= 1" in err
    assert not out.exists()  # rejected before anything is written


@pytest.mark.parametrize("argv, flag", [
    (["train-teacher", "--steps", "1", "--corpus", ""], "--corpus"),
    (["train-teacher", "--steps", "1", "--params", ""], "--params"),
    (["distill", "--teacher", "t.spkm", "--corpus", ""], "--corpus"),
    (["activation-hist", "--ckpt", "m.spkm", "--corpus", ""], "--corpus"),
    (["clamp-ablation", "--ckpt", "m.spkm", "--corpus", ""], "--corpus"),
    (["rl", "--method", "dpo", "--ckpt", "p.spkm", "--data", ""], "--data"),
    (["energy-report", "--params", ""], "--params"),
    (["distill", "--teacher", "t.spkm", "--sgc", ""], "--sgc"),
    (["train-teacher", "--steps", ""], "--steps"),
])
def test_empty_option_rejected(argv, flag, tmp_path, capsys):
    """An option given empty is refused, not read as "not given" (an empty
    --corpus would otherwise train on the synthetic corpus)."""
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{flag} is empty" in err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("train-teacher", "corpus"),
                                          ("rl", "data"), ("distill", "lr")])
def test_empty_option_in_params_file_rejected(command, key, tmp_path, capsys):
    params = tmp_path / "run.params"
    params.write_text(f"{key}=\n", encoding="utf-8")
    required = {"train-teacher": ["--steps", "1"], "distill": ["--teacher", "t.spkm"],
                "rl": ["--method", "dpo", "--ckpt", "p.spkm"]}[command]
    out = tmp_path / "o"
    assert main([command, *required, "--params", str(params), "--out", str(out)]) == 1
    assert f"--{key} is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["train-teacher", "--lr", "-1"], "lr must be positive and finite"),
    (["train-teacher", "--lr", "0"], "lr must be positive and finite"),
    (["train-teacher", "--lr", "nan"], "lr must be positive and finite"),
    (["distill", "--teacher", "t.spkm", "--lr", "inf"], "lr must be positive and finite"),
    (["rl", "--method", "dpo", "--ckpt", "p.spkm", "--lr=-5e-6"],
     "lr must be positive and finite"),
    (["verify-equivalence", "--seed", "-1"], "seed must be >= 0"),
    (["rl", "--method", "dpo", "--ckpt", "p.spkm", "--beta-pref", "nan"],
     "beta_pref must be positive and finite"),
    (["rl", "--method", "dpo", "--ckpt", "p.spkm", "--beta-pref", "inf"],
     "beta_pref must be positive and finite"),
    (["rl", "--method", "kto", "--ckpt", "p.spkm", "--beta-pref", "0"],
     "beta_pref must be positive and finite"),
    (["rl", "--method", "kto", "--ckpt", "p.spkm", "--beta-pref=-0.1"],
     "beta_pref must be positive and finite"),
    (["energy-report", "--fr-in", "1.5"], "fr_in must lie in [0, 1]"),
    (["energy-report", "--fr-in", "nan"], "fr_in must lie in [0, 1]"),
    (["energy-report", "--fr-out=-0.1"], "fr_out must lie in [0, 1]"),
    (["energy-report", "--fr-out", "inf"], "fr_out must lie in [0, 1]"),
])
def test_bad_lr_and_seed_rejected(argv, message, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["params-bytes", "params-dir", "corpus-bytes",
                                  "corpus-dir", "ckpt-dir", "data-bytes", "data-dir"])
def test_malformed_input_files_exit_1_one_line(case, teacher_dir, tmp_path, capsys):
    garbled = tmp_path / "garbled.txt"
    garbled.write_bytes(b"\xff\xfeseed=1\tgood\tbad\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    ckpt, corpus = str(teacher_dir / "teacher.spkm"), str(teacher_dir / "corpus.txt")
    kind, _, what = case.partition("-")
    bad = str(garbled if what == "bytes" else folder)
    argv = {
        "params": ["energy-report", "--params", bad],
        "corpus": ["eval-ppl", "--ckpt", ckpt, "--corpus", bad],
        "ckpt": ["eval-ppl", "--ckpt", bad, "--corpus", corpus],
        "data": ["rl", "--method", "dpo", "--ckpt", ckpt, "--data", bad],
    }[kind]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and bad in err[0]
    assert ("not UTF-8 text" if what == "bytes" else "Is a directory") in err[0]


def test_corpus_lines_sets_synthetic_corpus_size(tmp_path):
    out = tmp_path / "o"
    assert main(["train-teacher", "--steps", "1", "--batch", "2", "--seq-len", "8",
                 "--corpus-lines", "7", "--out", str(out)]) == 0
    assert len((out / "corpus.txt").read_text(encoding="utf-8").splitlines()) == 7


def test_same_seed_byte_identical_across_blas_threads(tmp_path):
    """``train-teacher``, then ``distill`` from its teacher, then ``rl``
    by DPO and by KTO, ``eval-ppl`` and ``activation-hist`` from its
    student, under 1 and 2 BLAS threads."""
    def run(threads, command, *args):
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        cmd = [sys.executable, "-m", "spikessm.cli", command, *args, "--seed", "3",
               "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return out

    teacher = [run(t, "train-teacher", "--steps", "20") for t in ("1", "2")]
    distill = [run(t, "distill", "--teacher", str(teacher[0] / "teacher.spkm"),
                   "--steps", "10") for t in ("1", "2")]
    ckpt = ("--ckpt", str(distill[0] / "student.spkm"))
    corpus = ("--corpus", str(distill[0] / "corpus.txt"))
    rl = [[run(t, "rl", "--method", method, *ckpt, "--steps", "5")
           for t in ("1", "2")] for method in ("dpo", "kto")]
    ppl = [run(t, "eval-ppl", *ckpt, *corpus) for t in ("1", "2")]
    hist = [run(t, "activation-hist", *ckpt, *corpus) for t in ("1", "2")]
    for outs, files in ((teacher, ("teacher.spkm", "metrics.csv")),
                        (distill, ("student.spkm", "metrics.csv", "eval.csv")),
                        *((outs, ("aligned.spkm", "metrics.csv", "preferences.tsv"))
                          for outs in rl),
                        (ppl, ("eval.csv",)), (hist, ("activation_hist.csv",))):
        for f in files:
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f


# ---------------------------------------------------------------------------
# fuzzing: whatever the argv or the parameter file, main exits 0, 1 or 2
# with a message, never an exception. Only commands whose valid runs take
# milliseconds are driven; verify-equivalence's sizes are capped for that.

FUZZ_CAPS = {"trials": 20, "max_dim": 16}
JUNK = st.text(alphabet="-=_.abcxyz ", max_size=6)  # no digits: cannot lift a cap


def _fuzz_value(key, opt):
    if opt.choices:
        good = st.sampled_from([str(c) for c in opt.choices])
    elif opt.type is int:
        good = st.one_of(st.integers(-3, 3),  # the edges of every range check
                         st.integers(-3, FUZZ_CAPS.get(key, 10 ** 6))).map(str)
    elif opt.type is float:
        good = st.floats().map(repr)
    elif opt.type is _bool:
        good = st.sampled_from(["true", "false", "1", "0", "yes"])
    else:
        good = JUNK
    return st.one_of(good, good, good, JUNK)  # mostly well-formed, to reach the handler


def _fuzz_argv(command):
    schema = {k: v for k, v in {**GLOBAL_OPTS, **COMMANDS[command]}.items()
              if k not in ("out", "params")}
    values = {k: _fuzz_value(k, opt) for k, opt in schema.items()}
    options = st.fixed_dictionaries(  # a capped size is always given: its default is not
        {k: v for k, v in values.items() if k in FUZZ_CAPS},
        optional={k: v for k, v in values.items() if k not in FUZZ_CAPS})
    return st.builds(
        lambda opts, junk: [command] + [t for k, v in opts.items()
                                        for t in (f"--{k.replace('_', '-')}", v)] + junk,
        options, st.lists(JUNK, max_size=2))


def _run_main(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv + ["--out", os.path.join(tmp, "o")])
    return rc, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=st.one_of(_fuzz_argv("energy-report"), _fuzz_argv("verify-equivalence")))
def test_fuzz_argv_exits_cleanly(argv):
    rc, err = _run_main(argv)
    assert rc in (0, 1, 2) and "Traceback" not in err


ENERGY_KEYS = sorted({**GLOBAL_OPTS, **COMMANDS["energy-report"]}) + ["width", "", " "]
PARAMS_LINES = st.lists(st.tuples(st.sampled_from(ENERGY_KEYS), st.text(max_size=8)),
                        max_size=4).map(
    lambda kv: "\n".join(f"{k}={v}" for k, v in kv).encode("utf-8", "surrogatepass"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blob=st.one_of(st.binary(max_size=64), PARAMS_LINES))
def test_fuzz_params_file_exits_cleanly(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.params")
        with open(path, "wb") as f:
            f.write(blob)
        rc, err = _run_main(["energy-report", "--params", path])
    assert rc in (0, 1, 2) and "Traceback" not in err


PREF_FIELD = st.text(st.characters(exclude_characters="\t\n\r"), max_size=4)
PREF_RECORDS = st.lists(
    st.one_of(st.tuples(PREF_FIELD, PREF_FIELD,  # mostly well-formed, to reach a record
                        st.one_of(st.sampled_from(["+1", "-1", "1"]), PREF_FIELD)),
              st.lists(st.text(max_size=4), max_size=4)).map("\t".join),
    max_size=4).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blob=st.one_of(st.binary(max_size=64), PREF_RECORDS), method=st.sampled_from(METHODS))
def test_fuzz_preference_file_gives_records_or_one_line(blob, method):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prefs.tsv")
        with open(path, "wb") as f:
            f.write(blob)
        try:
            examples = preference_records(read_lines("preference file", path), method, path)
        except CliError as exc:
            assert len(f"error: {exc}".splitlines()) == 1
        else:
            assert examples and all(e.paired == (method == "dpo") for e in examples)
