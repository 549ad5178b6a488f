"""Every expected failure in the suite is strict and names the ROADMAP item
meant to fix it, so a fix shows as an XPASS and the marker cannot outlive
its reason."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROADMAP = TESTS.parent / "ROADMAP.md"
ITEM = re.compile(r"\bROADMAP item (\d+[a-z]?)\b")


def roadmap_items() -> set[str]:
    """The numbers of the items ROADMAP.md lists under ``### n.`` headings."""
    return set(re.findall(r"^### (\d+[a-z]?)\. ", ROADMAP.read_text(), re.M))


def xfail_problems(source: str, items: set[str]) -> list[str]:
    """One line per ``xfail`` in ``source`` that is not a call with
    ``strict=True`` and a literal ``reason`` naming one of ``items``.

    A bare ``pytest.mark.xfail`` and the imperative ``pytest.xfail(...)``
    fail too: neither can be strict."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    problems = []
    markers = [node for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "xfail"]
    for node in sorted(markers, key=lambda node: node.lineno):
        call = calls.get(id(node))
        keywords = {k.arg: k.value for k in call.keywords} if call else {}
        strict = keywords.get("strict")
        if not (isinstance(strict, ast.Constant) and strict.value is True):
            problems.append(f"line {node.lineno}: xfail is not strict=True")
            continue
        try:
            reason = ast.literal_eval(keywords["reason"])
        except (KeyError, ValueError):
            reason = None
        named = ITEM.findall(reason) if isinstance(reason, str) else []
        if not any(item in items for item in named):
            problems.append(f"line {node.lineno}: xfail reason names no "
                            "ROADMAP item")
    return problems


def test_every_xfail_is_strict_and_names_its_item():
    items = roadmap_items()
    assert items   # the headings were found
    problems = [f"{path.name} {problem}"
                for path in sorted(TESTS.glob("*.py"))
                for problem in xfail_problems(path.read_text(), items)]
    assert problems == []


def test_the_check_rejects_each_kind_of_bad_marker():
    source = '''
import pytest
good = pytest.mark.xfail(strict=True, reason=("ROADMAP item 1: "
                                              "it is open"))
loose = pytest.mark.xfail(reason="ROADMAP item 1")
unnamed = pytest.mark.xfail(strict=True, reason="known defect")
unknown = pytest.mark.xfail(strict=True, reason="ROADMAP item 99")
built = pytest.mark.xfail(strict=True, reason=f"ROADMAP item {1}")

@pytest.mark.xfail
def test_bare():
    pytest.xfail("ROADMAP item 1")
'''
    assert xfail_problems(source, {"1"}) == [
        "line 5: xfail is not strict=True",
        "line 6: xfail reason names no ROADMAP item",
        "line 7: xfail reason names no ROADMAP item",
        "line 8: xfail reason names no ROADMAP item",
        "line 10: xfail is not strict=True",
        "line 12: xfail is not strict=True",
    ]
