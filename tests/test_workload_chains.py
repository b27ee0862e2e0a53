"""The benchmark's scenario workloads, built as plain runs: the pq-load and
lfc-history configs that `perfbench/workloads.py` generates at seeds 1 and
2, each run to its end, must give the report, snapshot and violation log
pinned in `tests/data/workload_digests.golden`.  They are longer and
busier than the bundled scenarios, so a change to how agents are ticked
that the bundled runs miss shows here."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from qcspend.simulation import ScenarioConfig, Simulation

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "data" / "workload_digests.golden"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
CHAINS = [(name, seed) for name in WORKLOADS.SCENARIOS for seed in (1, 2)]


def digests(name: str, seed: int) -> str:
    """`name seed` and the sha256 of the report, snapshot and violation log
    of the workload's run, as `qcspend run` writes them."""
    sim = Simulation(ScenarioConfig.from_dict(WORKLOADS.SCENARIOS[name](seed)))
    sim.run()
    violations = "".join(f"h{h} {rule} {detail}\n" for h, rule, detail in sim.chain.violations)
    files = (sim.report(), sim.snapshot(), violations)
    return " ".join([name, str(seed)] + [hashlib.sha256(text.encode()).hexdigest() for text in files])


def golden() -> dict[tuple[str, str], str]:
    return {tuple(line.split()[:2]): line for line in GOLDEN.read_text().splitlines()}


def test_golden_names_every_chain():
    assert list(golden()) == [(name, str(seed)) for name, seed in CHAINS]


@pytest.mark.parametrize("name, seed", CHAINS)
def test_workload_chain_matches_golden(name, seed):
    assert digests(name, seed) == golden()[name, str(seed)]


if __name__ == "__main__":
    # Regenerate the golden: PYTHONPATH=src python tests/test_workload_chains.py
    GOLDEN.write_text("".join(digests(name, seed) + "\n" for name, seed in CHAINS))
