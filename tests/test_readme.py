"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

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
