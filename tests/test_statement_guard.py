"""The statement guard's matching rules (tests/statement_guard.py), on
hand-written sources with the lines hit given, so no tracing is involved."""

from collections import Counter

from statement_guard import problems

# Statements on lines 3 to 7; line 6 is the second `return False`.
TWIN_RETURNS = """
def check(x):
    if x < 0:
        return False
    if x > 9:
        return False
    return True
"""
NAMED_RETURNS = TWIN_RETURNS.replace("return False", "return False  # negative", 1).replace(
    "return False\n", "return False  # too large\n"
)
HITS = {3, 4, 5, 7}


def guard(source: str, *listed: str, hits: set[int] = HITS) -> list[str]:
    return problems([("m", "m.py", source, hits)], Counter(("m", "check", text) for text in listed))


def test_unlisted_unrun_statement_fails():
    assert guard(TWIN_RETURNS) == ["never runs and is not listed: m | check | return False  (m.py:6)"]


def test_text_of_two_statements_fails():
    # The listed text is that of both returns, the one that runs and the one
    # that does not, so its reason cannot say which one it covers.
    assert guard(TWIN_RETURNS, "return False") == ["listed text is that of 2 statements of its function: m | check | return False"]
    # Neither runs, and one line for each still cannot tell them apart.
    assert guard(TWIN_RETURNS, "return False", "return False", hits={3, 5, 7}) == [
        "listed text is that of 2 statements of its function: m | check | return False"
    ]


def test_text_of_one_statement_passes():
    assert guard(NAMED_RETURNS, "return False  # too large") == []


def test_listed_statement_that_runs_fails():
    assert guard(NAMED_RETURNS, "return False  # negative") == [
        "never runs and is not listed: m | check | return False  # too large  (m.py:6)",
        "listed but runs or is gone: m | check | return False  # negative",
    ]
