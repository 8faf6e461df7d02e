"""The README's Python examples run as written, and it names every option."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from sentimatch import cli
from conftest import write_jsonl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order_in_one_namespace(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    write_jsonl(
        tmp_path / "corpus.jsonl",
        [
            {"id": "a", "text": "Works great, thanks :)", "label": "positive"},
            {"id": "b", "text": "Crashes on startup. Why??", "label": "negative"},
            {"id": "c", "text": "See the docs", "label": "neutral"},
        ],
    )
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert '{"id": "a", "text": "Works great, thanks :)", "label": "positive"}' in out
    assert (tmp_path / "sample.csv").read_bytes().startswith(b"id,text,label\r\n")


def test_readme_names_every_long_option_of_every_subcommand():
    readme = README.read_text(encoding="utf-8")
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{name} {option}"
        for name, parser in commands.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and not re.search(re.escape(option) + r"(?![\w-])", readme)
    ]
    assert not missing
