"""Golden bytes: what the CLI writes at seed 3 and one BLAS thread,
pinned by digest in ``tests/golden.json``.

The chain trains a teacher, distills three students from it (TI-LIF with
compensation, ``--neuron lif``, ``--neuron ilif --sgc false``), aligns the
first by DPO and by KTO, scores it, clamps it in two (mode, site) pairs,
and runs the commands that need no checkpoint, among them ``energy-report``
at every published row and at given settings for each variant. Every
output file, stdout, stderr and the exit code of each command is compared
with the committed digests, after the temporary directory is replaced by
``<TMP>``. A mismatch names the command and the file and locates the
first difference: the row and column of a CSV, the tensor and element
block of a ``.spkm`` (the file holds digests, not weights), the line of
anything else.

A change that alters an output on purpose regenerates the file:

    python tests/test_golden.py --write

which prints every file whose digest moved, located, before it writes:
that list is the change's declared test-data edit.

The digests pin one numpy and BLAS build; another may round float32
differently, so the file records the versions it was made under and a
failure prints both.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
if __name__ == "__main__":  # the --write run imports the package from this checkout
    sys.path.insert(0, str(SRC))

from spikessm.checkpoint import load_raw, save
from spikessm.energy import REFERENCE_ROWS
from spikessm.mamba2 import LanguageModel, toy_config

GOLDEN = TESTS / "golden.json"
TOKEN = b"<TMP>"
BLOCK = 256  # elements of a .spkm tensor per digest

TEACHER = ("--teacher", "{tmp}/train-teacher/teacher.spkm", "--steps", "10")
STUDENT = "{tmp}/distill/student.spkm"
SCORED = ("--ckpt", STUDENT, "--corpus", "{tmp}/distill/corpus.txt")
# energy-report at every published (preset, variant) row, then each variant
# at spike settings it is given; ann takes none
ENERGY = {
    **{f"energy-report-{config}-{variant}-paper":
       ("energy-report", "--config", config, "--variant", variant, "--paper", "true")
       for config, variant in REFERENCE_ROWS if (config, variant) != ("130m", "tilif")},
    "energy-report-ann": ("energy-report", "--variant", "ann"),
    "energy-report-lif": ("energy-report", "--variant", "lif",
                          "--fr-in", "0.25", "--fr-out", "0.125"),
    "energy-report-ilif": ("energy-report", "--config", "1.3b", "--variant", "ilif",
                           "--fr-in", "0.3", "--fr-out", "0.05", "--k", "4"),
    "energy-report-tilif": ("energy-report", "--config", "toy", "--variant", "tilif",
                            "--fr-in", "0.193", "--fr-out", "0.082", "--k", "3"),
}
# each stage's commands read only what earlier stages wrote
CHAIN = (
    {"train-teacher": ("train-teacher", "--steps", "20"),
     "energy-report": ("energy-report", "--config", "130m", "--variant", "tilif",
                       "--paper", "true"),
     **ENERGY,
     "gradcheck": ("gradcheck", "--probes", "30"),
     "verify-equivalence": ("verify-equivalence", "--trials", "300")},
    {"distill": ("distill", *TEACHER),
     "distill-lif": ("distill", *TEACHER, "--neuron", "lif"),
     "distill-ilif-nosgc": ("distill", *TEACHER, "--neuron", "ilif", "--sgc", "false")},
    {"rl-dpo": ("rl", "--method", "dpo", "--ckpt", STUDENT, "--steps", "5"),
     "rl-kto": ("rl", "--method", "kto", "--ckpt", STUDENT, "--steps", "5"),
     "eval-ppl": ("eval-ppl", *SCORED),
     "activation-hist": ("activation-hist", *SCORED),
     "clamp-ablation": ("clamp-ablation", *SCORED),
     "clamp-ablation-max_to_one-u_t": ("clamp-ablation", *SCORED, "--mode", "max_to_one",
                                       "--site", "u_t")},
)


def build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def describe(path: Path, data: bytes) -> dict:
    """A file's digest, plus what locates a difference in it."""
    entry = {"sha256": _digest(data)}
    if path.suffix == ".spkm":
        _, tensors = load_raw(path)
        entry["tensors"] = {
            name: {"shape": list(a.shape), "dtype": a.dtype.str,
                   "blocks": [_digest(a.ravel()[i:i + BLOCK].tobytes())[:8]
                              for i in range(0, a.size, BLOCK)]}
            for name, a in tensors.items()}
    elif path.suffix == ".csv":
        entry["rows"] = [line.split(",") for line in data.decode("utf-8", "replace").splitlines()]
    else:
        entry["lines"] = [_digest(line)[:8] for line in data.splitlines()]
    return entry


def run_command(tmp: Path, name: str, argv: tuple[str, ...]) -> dict:
    """Run one CLI command at seed 3 into ``tmp/name``; its exit code and
    the description of stdout, stderr and every file it wrote, with
    ``tmp`` replaced by the token."""
    out = tmp / name
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    cmd = [sys.executable, "-m", "spikessm.cli", *(a.format(tmp=tmp) for a in argv),
           "--seed", "3", "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
    files = {"<stdout>": proc.stdout, "<stderr>": proc.stderr}
    written = sorted(out.iterdir()) if out.is_dir() else []  # none if refused at parse time
    files.update((p.name, p.read_bytes()) for p in written if p.is_file())
    tmp_bytes = str(tmp).encode()
    return {"exit": proc.returncode,
            "files": {f: describe(out / f, data if f.endswith(".spkm")
                                  else data.replace(tmp_bytes, TOKEN))
                      for f, data in files.items()}}


def run_chain() -> dict:
    """Every command of :data:`CHAIN` in one temporary directory, two at
    a time within a stage."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        for stage in CHAIN:
            runs = {name: pool.submit(run_command, Path(tmp), name, argv)
                    for name, argv in stage.items()}
            got.update((name, run.result()) for name, run in runs.items())
    return got


def _first(a: list, b: list) -> int:
    """The first index where two lists differ."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _tail(want: list, got: list) -> str:
    """What differs between two files whose common lines all agree."""
    return "line ends" if len(want) == len(got) else f"{len(got)} lines, {len(want)} expected"


def locate(want: dict, got: dict) -> str:
    """Where a file first differs from its golden description."""
    if "rows" in want:
        i = _first(want["rows"], got["rows"])
        if i == len(want["rows"]) or i == len(got["rows"]):
            return _tail(want["rows"], got["rows"])
        w, g = want["rows"][i], got["rows"][i]
        j = _first(w, g)
        header = want["rows"][0]
        column = header[j] if j < len(header) else j + 1
        return (f"CSV line {i + 1}, column {column}: expected "
                f"{w[j] if j < len(w) else None!r}, got {g[j] if j < len(g) else None!r}")
    if "tensors" in want:
        for name, w in want["tensors"].items():
            g = got["tensors"].get(name)
            if g is None:
                return f"tensor {name} missing"
            if (g["shape"], g["dtype"]) != (w["shape"], w["dtype"]):
                return (f"tensor {name}: {g['dtype']} {g['shape']}, "
                        f"{w['dtype']} {w['shape']} expected")
            k = _first(w["blocks"], g["blocks"])
            if k < len(w["blocks"]):
                start = k * BLOCK
                end = min(start + BLOCK, int(np.prod(w["shape"], dtype=np.int64))) - 1
                index = np.unravel_index(start, w["shape"]) if w["shape"] else ()
                return (f"tensor {name} {tuple(w['shape'])}: first difference among "
                        f"elements {start}..{end}, from index {tuple(map(int, index))}")
        extra = sorted(set(got["tensors"]) - set(want["tensors"]))
        return f"tensors {extra} not expected" if extra else "header or config bytes"
    i = _first(want["lines"], got["lines"])
    if i == len(want["lines"]) or i == len(got["lines"]):
        return _tail(want["lines"], got["lines"])
    return f"line {i + 1}"


def mismatches(want: dict, got: dict) -> list[str]:
    """One line per command and file that differs from the golden set."""
    out = []
    for command in want.keys() | got.keys():
        w, g = want.get(command), got.get(command)
        if w is None or g is None:
            out.append(f"{command}: {'not in golden.json' if w is None else 'not run'}")
            continue
        if w["exit"] != g["exit"]:
            out.append(f"{command}: exit code {g['exit']}, {w['exit']} expected")
        for name in sorted(w["files"].keys() | g["files"].keys()):
            wf, gf = w["files"].get(name), g["files"].get(name)
            if wf is None or gf is None:
                out.append(f"{command}: {name}: {'not expected' if wf is None else 'not written'}")
            elif wf["sha256"] != gf["sha256"]:
                out.append(f"{command}: {name}: {locate(wf, gf)}")
    return sorted(out)


def test_cli_outputs_match_golden_bytes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    diffs = mismatches(golden["commands"], run_chain())
    assert not diffs, (
        f"golden bytes differ (made under {golden['build']}, running under {build()}); "
        f"regenerate with `python tests/test_golden.py --write` only for a change "
        f"meant to alter these outputs:\n" + "\n".join(diffs))


def test_a_mismatch_names_the_command_and_file_and_locates_it(tmp_path):
    model = LanguageModel(toy_config(), np.random.default_rng(0))
    paths = tmp_path / "want.spkm", tmp_path / "got.spkm"
    save(paths[0], model)
    w_in = model.layers[0].w_in.data
    w_in.flat[300] = np.nextafter(w_in.flat[300], np.inf)  # one ulp, in the second block
    save(paths[1], model)

    def run(exit_code, csv, stdout, ckpt):
        return {"exit": exit_code, "files": {
            "metrics.csv": describe(Path("metrics.csv"), csv),
            "<stdout>": describe(Path("<stdout>"), stdout),
            "model.spkm": describe(ckpt, ckpt.read_bytes())}}

    want = run(0, b"step,loss\n0,1.0\n1,2.0\n", b"a\nb\n", paths[0])
    got = run(2, b"step,loss\n0,1.0\n1,2.5\n", b"a\nc\n", paths[1])
    assert mismatches({"rl-dpo": want, "eval-ppl": want},
                      {"rl-dpo": got, "eval-ppl": want}) == [
        "rl-dpo: <stdout>: line 2",
        "rl-dpo: exit code 2, 0 expected",
        "rl-dpo: metrics.csv: CSV line 3, column loss: expected '2.0', got '2.5'",
        "rl-dpo: model.spkm: tensor layers.0.w_in (64, 290): first difference among "
        "elements 256..511, from index (0, 256)",
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    got = run_chain()
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"] if GOLDEN.exists() else {}
    print("\n".join(mismatches(old, got)) or "no output moved")
    text = json.dumps({"build": build(), "commands": got}, indent=1)
    # one line per list of digests or cells (no JSON string holds a raw newline)
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: re.sub(r"\n *", "", m.group()), text)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
