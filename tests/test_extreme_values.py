"""Every integer field of a run's configuration, at the edges of the
widths the wire format uses, ends in a clean exit, a rule id or a config
error, never a traceback.

The fields come from the tables the configuration is checked against
(`Params`, the grant, agent and script-entry tables of a scenario, and a
snapshot's config line), not from a hand list, so a field added to a
table is driven too.  The scenario, `data/extreme_values.json`, is short,
and it still reaches a deposit-mode reveal (where `challenge_blocks` sets
a height) and a canary kill (where `era_countdown` does)."""

import copy
import json
from dataclasses import is_dataclass
from pathlib import Path

import pytest

from qcspend.cli import main
from qcspend.consensus import SNAPSHOT_CONFIG, SNAPSHOT_GRANT
from qcspend.params import Params, record_table, u32_count
from qcspend.simulation import AGENT, GRANT, SCRIPT_ENTRY

EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
SCENARIO = json.loads((Path(__file__).parent / "data" / "extreme_values.json").read_text())


def int_fields(table: dict, prefix: tuple = ()) -> list[tuple]:
    """The paths of the integer fields of a `check_fields` table, into its
    nested tables and dataclass records."""
    paths = []
    for name, (kind, default) in table.items():
        if kind in (int, u32_count):
            paths.append(prefix + (name,))
        elif isinstance(kind, dict):
            paths += int_fields(kind, prefix + (name,))
        elif is_dataclass(kind):
            paths += int_fields(record_table(kind()), prefix + (name,))
    return paths


def objects(data: dict, where: str) -> list[dict]:
    """The objects of a scenario or config JSON that `where` names."""
    if where == "script":
        return [entry for agent in data["agents"] for entry in agent.get("script", ())]
    if where == ".":
        return [data]
    return data[where] if isinstance(data[where], list) else [data[where]]


def place(data: dict, where: str, path: tuple, value: int) -> int:
    """Set the field at `path` to `value` in every object `where` names
    that holds the path's parent; returns how many were set."""
    placed = 0
    for obj in objects(data, where):
        for key in path[:-1]:
            obj = obj.get(key) if isinstance(obj, dict) else None
        if isinstance(obj, dict):
            obj[path[-1]] = value
            placed += 1
    return placed


# (where the table's objects sit, the table): a scenario file's, and a
# snapshot config line's.
RUN_TABLES = {"params": record_table(Params()), "grants": GRANT, "agents": AGENT, "script": SCRIPT_ENTRY}
VERIFY_TABLES = {".": SNAPSHOT_CONFIG, "grants": SNAPSHOT_GRANT}
RUN_CASES = [(where, path) for where, table in RUN_TABLES.items() for path in int_fields(table)]
VERIFY_CASES = [(where, path) for where, table in VERIFY_TABLES.items() for path in int_fields(table)]


def case_id(case) -> str:
    return ".".join((case[0],) + case[1]).lstrip(".")


def outcome(argv: list[str], capsys) -> tuple[int, str]:
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001 - the defect this test looks for
        return -1, f"{type(exc).__name__}: {exc}"
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", RUN_CASES, ids=case_id)
def test_run_with_each_integer_field_at_its_edges(case, tmp_path, capsys):
    where, path = case
    failures = []
    for value in EDGES:
        data = copy.deepcopy(SCENARIO)
        if where == "params" and len(path) == 1:
            argv = ["--params-override", f"{path[0]}={value}"]
        else:
            assert place(data, where, path, value), "the scenario holds no object with this field"
            argv = []
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        code, err = outcome(["run", str(scenario), "--out", str(tmp_path / "out"), *argv], capsys)
        clean = code == 0 or code == 1 and err.startswith("rule violation:") or code == 2 and err.startswith("config error:")
        if not clean or "Traceback" in err:
            failures.append(f"{value}: exit {code}: {err.strip()}")
    assert failures == []


@pytest.fixture(scope="module")
def snapshot_lines(tmp_path_factory) -> list[str]:
    out = tmp_path_factory.mktemp("extreme-values")
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "revealed naked:u-naked" in report and "claimed the bounty" in report  # what the edges must reach
    return (out / "snapshot.txt").read_text().splitlines()


@pytest.mark.parametrize("case", VERIFY_CASES, ids=case_id)
def test_verify_with_each_integer_field_at_its_edges(case, snapshot_lines, tmp_path, capsys):
    where, path = case
    failures = []
    for value in EDGES:
        config = json.loads(snapshot_lines[1][len("config ") :])
        assert place(config, where, path, value), "the config line holds no object with this field"
        snapshot = tmp_path / "snapshot.txt"
        snapshot.write_text("\n".join([snapshot_lines[0], "config " + json.dumps(config), *snapshot_lines[2:]]) + "\n")
        code, err = outcome(["verify", str(snapshot)], capsys)
        if not (code == 0 or code == 1 and err.startswith("verification failed:")) or "Traceback" in err:
            failures.append(f"{value}: exit {code}: {err.strip()}")
    assert failures == []
