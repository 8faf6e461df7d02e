from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import sentimatch
from sentimatch import load_knowledge_base
from sentimatch.errors import (
    EvaluationError,
    InputValueError,
    IntegrityError,
    KnowledgeBaseError,
    LabelMappingError,
    named,
)
from sentimatch.profiles import bundled_kb_path


def test_named_prefixes_the_message_and_keeps_the_type():
    original = LabelMappingError("mapping target for 'x' is bad", unmapped=("x",))
    with pytest.raises(LabelMappingError) as info:
        with named("map.json", LabelMappingError):
            raise original
    assert type(info.value) is LabelMappingError
    assert str(info.value) == "map.json: mapping target for 'x' is bad"
    assert info.value.__cause__ is original


def test_named_converts_to_the_given_type():
    original = ValueError("item 0 has an empty rating")
    with pytest.raises(EvaluationError) as info:
        with named("r.csv", (KeyError, ValueError), EvaluationError):
            raise original
    assert type(info.value) is EvaluationError
    assert str(info.value) == "r.csv: item 0 has an empty rating"
    assert info.value.__cause__ is original


def test_named_passes_other_exceptions_through():
    original = KeyError("x")
    with pytest.raises(KeyError) as info:
        with named("r.csv", ValueError, EvaluationError):
            raise original
    assert info.value is original
    assert info.value.__cause__ is None


def _edited_kb(tmp_path: Path, edit) -> Path:
    raw = json.loads(bundled_kb_path().read_text(encoding="utf-8"))
    edit(raw)
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_knowledge_base_names_an_integrity_error_once(tmp_path):
    def out_of_range(raw):
        raw["tool_performance"][0]["micro_f1"] = 1.5

    path = _edited_kb(tmp_path, out_of_range)
    with pytest.raises(IntegrityError) as info:
        load_knowledge_base(path)
    assert type(info.value) is IntegrityError
    assert str(info.value) == f"{path}: ALBERT/App: micro_f1=1.5 outside [0, 1]"
    assert type(info.value.__cause__) is IntegrityError
    assert str(info.value.__cause__) == "ALBERT/App: micro_f1=1.5 outside [0, 1]"


def test_knowledge_base_names_a_malformed_entry_once(tmp_path):
    path = _edited_kb(tmp_path, lambda raw: raw.pop("features"))
    with pytest.raises(KnowledgeBaseError) as info:
        load_knowledge_base(path)
    assert type(info.value) is KnowledgeBaseError
    assert str(info.value) == f"{path}: malformed entry: missing key 'features' in knowledge base"
    assert type(info.value.__cause__) is InputValueError


# The only functions of the package that may put a caught exception's text
# into a new exception: named is the file-naming policy; read_json and
# _read_jsonl_records build their own message forms ("invalid JSON: ...",
# "line <n>: ...") and run outside it.
_NAMING_FUNCTIONS = {"named", "read_json", "_read_jsonl_records"}


def _formats_the_caught(handler: ast.ExceptHandler) -> bool:
    """Whether a raise in ``handler`` formats the exception it caught."""
    return any(
        isinstance(value, ast.FormattedValue)
        and isinstance(value.value, ast.Name)
        and value.value.id == handler.name
        for node in ast.walk(handler)
        if isinstance(node, ast.Raise) and node.exc is not None
        for value in ast.walk(node.exc)
    )


def _naming_handlers(node: ast.AST, function: str | None = None):
    """(enclosing function or None, line) of each ``except ... as`` handler under
    ``node`` that formats what it caught into the exception it raises."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _naming_handlers(child, child.name)
            continue
        if isinstance(child, ast.ExceptHandler) and child.name and _formats_the_caught(child):
            yield function, child.lineno
        yield from _naming_handlers(child, function)


def test_only_named_prefixes_a_caught_error():
    handlers = [
        (function, f"{path.name}:{line}")
        for path in sorted(Path(sentimatch.__file__).parent.glob("*.py"))
        for function, line in _naming_handlers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert "named" in {function for function, _ in handlers}
    assert [(f, where) for f, where in handlers if f not in _NAMING_FUNCTIONS] == []
