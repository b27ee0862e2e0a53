"""Every rule id the program raises is named in some test file, or is
listed in UNTESTED.  The list may only shrink: an id that gains a test, or
leaves the program, must leave the list too."""

from __future__ import annotations

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCES = TESTS.parent / "src" / "qcspend"

# Rule ids no test names yet: none.
UNTESTED: set[str] = set()


def raised_rule_ids() -> set[str]:
    """The string literals in the first argument of every
    `RuleViolation(...)` and `_decoding(...)` call."""
    ids = set()
    for source in SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("RuleViolation", "_decoding"):
                ids.update(
                    sub.value for sub in ast.walk(node.args[0]) if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                )
    return ids


def named_in_tests(rule: str) -> bool:
    """Is `rule` named, as a whole id, in a test or test-data file other
    than this one?"""
    pattern = re.compile(rf"(?<![\w-]){re.escape(rule)}(?![\w-])")
    for path in TESTS.rglob("*"):
        if path.is_file() and path != Path(__file__).resolve() and "__pycache__" not in path.parts:
            if pattern.search(path.read_text(encoding="utf-8", errors="replace")):
                return True
    return False


def test_every_rule_id_is_tested_or_listed():
    untested = {rule for rule in raised_rule_ids() - UNTESTED if not named_in_tests(rule)}
    assert not untested, f"rule ids no test names: {sorted(untested)}"


def test_untested_list_only_shrinks():
    raised = raised_rule_ids()
    gone = UNTESTED - raised
    tested = {rule for rule in UNTESTED & raised if named_in_tests(rule)}
    assert not gone, f"listed as untested but no longer raised: {sorted(gone)}"
    assert not tested, f"listed as untested but now tested: {sorted(tested)}"
