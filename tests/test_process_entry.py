"""The two ways into the command line: ``cli.main(argv)`` in process, and the
process entry ``cli.run`` behind ``python -m sentimatch.cli`` and the
``sentimatch`` script, which turns the cyclic garbage collector off and ends
the process with ``os._exit`` once ``main`` returns.

The process entry must print what ``main`` prints, byte for byte, on stdout
and stderr, and exit with its status; ``main`` must leave the collector as it
found it. Turning the collector off is safe because a command leaves the same
few hundred cyclic objects (its argument parser) whatever its input size.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sentimatch
from sentimatch.cli import main
from conftest import write_csv, write_jsonl
from test_golden import CASES, ERROR_CASES, expand, golden, write_inputs  # noqa: F401 (a fixture)

ROOT = Path(__file__).resolve().parents[1]
LABELS = ("positive", "negative", "neutral")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, status", [(["kb", "check"], 0), (["kb", "check", "--kb", "missing.json"], 1)])
def test_main_returns_its_status_and_leaves_the_collector_alone(capsys, enabled, argv, status):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == status
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def _commands_on(directory: Path, n: int) -> dict[str, list[str]]:
    """Each command that reads a corpus, labels or ratings, on ``n`` records."""
    corpus = write_jsonl(
        directory / f"corpus{n}.jsonl",
        [{"id": f"d{i}", "text": f"Item {i} works GREAT :) why? {'x' * (i % 7)}", "label": LABELS[i % 3]}
         for i in range(n)],
    )
    pred = write_csv(directory / f"pred{n}.csv", [[f"d{i}", LABELS[i * 7 // 3 % 3]] for i in range(n)],
                     header=["id", "label"])
    ratings = write_csv(
        directory / f"ratings{n}.csv",
        [[f"t{i}", LABELS[i % 3], LABELS[i // 2 % 3], LABELS[i // 3 % 3]] for i in range(n)],
        header=["item", "a", "b", "c"],
    )
    return {
        "profile": ["profile", str(corpus)],
        "sample": ["sample", str(corpus), "--n", "auto", "--seed", "1"],
        "evaluate": ["evaluate", "--gold", str(corpus), "--pred", str(pred)],
        "agreement": ["agreement", str(ratings)],
    }


@pytest.mark.parametrize("command", ["profile", "sample", "evaluate", "agreement"])
def test_cyclic_garbage_does_not_grow_with_the_input(capsys, tmp_path, command):
    """With the collector off, as under ``run``, a command on 2,000 records
    leaves exactly the cyclic garbage it leaves on 10."""
    small, large = _commands_on(tmp_path, 10)[command], _commands_on(tmp_path, 2000)[command]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        found = []
        for argv in (small, small, large):  # the first run may import or cache
            gc.collect()
            assert main(argv) == 0
            capsys.readouterr()
            found.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert found[2] == found[1]


def _script_entry() -> str:
    """The object that ``[project.scripts] sentimatch`` names, as ``module:attr``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^sentimatch = "([\w.]+:\w+)"$', text, re.M).group(1)


# Cases run as child processes, all started at once: the golden cases by name,
# one for each command and one error, and three compared with ``main`` run in
# process. "{out}" stands for an output file of the child's own.
GOLDEN = [
    "profile-mixed-pool-json",
    "sample-mixed-pool-jsonl",
    "evaluate-jsonl-json",
    "agreement-five-raters-json",
    "recommend-example-embedded-stats-json",
    "kb-check-json",
    "agreement-ragged",
]
IN_PROCESS = {
    "help": ["--help"],
    "usage-error": ["sample", "{tmp}/reviews.csv", "--seed", "1"],
    "sample-output": ["sample", "{tmp}/reviews.csv", "--n", "8", "--seed", "3", "--output", "{out}"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("inputs")
    write_inputs(tmp)
    return tmp


def _child_env(**settings: str) -> dict[str, str]:
    """The environment of a child that imports this checkout, with buffered
    stdout as by default, so that a missing flush loses output."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(sentimatch.__file__).resolve().parents[1]), **settings}


def _expand(argv: list[str], inputs: Path, out: Path) -> list[str]:
    return expand([arg.replace("{out}", str(out)) for arg in argv], inputs)


@pytest.fixture(scope="module")
def children(inputs) -> dict[str, tuple[int, bytes, bytes, Path]]:
    """Each case's exit code, stdout, stderr and output file, from ``python
    -m sentimatch.cli`` and, for ``script-kb-check``, the script's entry."""
    env = _child_env(COLUMNS="80")
    module, attr = _script_entry().split(":")
    argvs = {
        **{case: (CASES | ERROR_CASES)[case] for case in GOLDEN},
        **IN_PROCESS,
        "script-kb-check": ["kb", "check", "--format", "json"],
    }
    procs = {}
    for case, argv in argvs.items():
        out = inputs / f"{case}.out"
        entry = ["-m", "sentimatch.cli"]
        if case == "script-kb-check":
            entry = ["-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]
        procs[case] = out, subprocess.Popen(
            [sys.executable, *entry, *_expand(argv, inputs, out)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
    results = {}
    for case, (out, proc) in procs.items():
        stdout, stderr = proc.communicate(timeout=60)
        results[case] = proc.returncode, stdout, stderr, out
    return results


@pytest.mark.parametrize("case", GOLDEN)
def test_the_process_entry_prints_the_golden_output(children, golden, inputs, case):
    code, out, err, _ = children[case]
    expected = golden[case].encode("utf-8")
    if case in ERROR_CASES:
        assert (code, out, err.replace(str(inputs).encode(), b"{tmp}")) == (1, b"", expected)
    else:
        assert (code, out, err) == (0, expected, b"")


def test_the_script_entry_prints_the_golden_output(children, golden):
    assert _script_entry() == "sentimatch.cli:run"
    code, out, err, _ = children["script-kb-check"]
    assert (code, out, err) == (0, golden["kb-check-json"].encode("utf-8"), b"")


@pytest.mark.parametrize("case", sorted(IN_PROCESS))
def test_the_process_entry_matches_main(children, inputs, capsys, monkeypatch, tmp_path, case):
    monkeypatch.setenv("COLUMNS", "80")
    out = tmp_path / "main.out"
    argv = _expand(IN_PROCESS[case], inputs, out)
    try:
        status = main(argv)
    except SystemExit as exc:  # --help and a usage error leave through argparse
        status = exc.code
    captured = capsys.readouterr()
    code, child_out, child_err, child_file = children[case]
    assert code == status == {"help": 0, "usage-error": 2, "sample-output": 0}[case]
    assert child_out == captured.out.encode("utf-8")
    assert child_err == captured.err.replace(str(out), str(child_file)).encode("utf-8")
    if case == "sample-output":
        assert child_file.read_bytes() == out.read_bytes()
        assert child_err == f"wrote 8 documents to {child_file}\n".encode("utf-8")


def test_output_written_before_an_error_is_flushed(inputs, capsys):
    """A stdout that cannot encode a later row still gets the rows before it,
    as at a normal interpreter exit: the process entry flushes before it ends."""
    argv = ["sample", str(inputs / "reviews.csv"), "--n", "16", "--seed", "1"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines(keepends=True)
    proc = subprocess.run([sys.executable, "-m", "sentimatch.cli", *argv],
                          capture_output=True, env=_child_env(PYTHONIOENCODING="ascii"), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout.decode("ascii") == "".join(itertools.takewhile(str.isascii, rows))
    assert proc.stderr.startswith(b"error: 'ascii' codec can't encode") and proc.stderr.count(b"\n") == 1
