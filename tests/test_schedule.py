"""The tick schedule: `Simulation.schedule` maps a tick height to the
agents due then and the deferrals each one runs.  `Simulation.run` ticks an
agent only when a deferral or a scripted action falls due, or when it has a
standing duty (a fraud-proof watch, a quantum front-runner), which reads
the chain or the pool every tick; deferrals due at one tick run in the
order they were made, and the agents due at one tick run in configuration
order."""

import json
import sys
from importlib import resources

import pytest

from qcspend import agents
from qcspend.agents import Agent, MinerAgent, UserAgent
from qcspend.fawkescoin import ChallengeStatus
from qcspend.lifted_fawkescoin import LfcState
from qcspend.scenarios import load_scenario
from qcspend.simulation import ScenarioConfig, Simulation


def bundled(name: str) -> dict:
    return json.loads(resources.files("qcspend").joinpath(f"scenarios/{name}.json").read_text())


def ticked_heights(sim: Simulation, monkeypatch) -> dict[str, list[int]]:
    """Run `sim` to its end and return, per agent, the heights it was ticked at."""
    ticks = {agent_id: [] for agent_id in sim.agents}
    on_tick = Agent.on_tick

    def recording(agent, deferred):
        ticks[agent.id].append(agent.sim.tick_height)
        on_tick(agent, deferred)

    monkeypatch.setattr(Agent, "on_tick", recording)
    sim.run()
    return ticks


def deferral_heights(sim: Simulation, agent: Agent) -> list[int]:
    """The heights at which the schedule holds deferrals of `agent`."""
    return [height for height, due in sim.schedule.items() if due.get(agent)]


def test_deferrals_due_in_one_tick_run_in_insertion_order():
    sim = Simulation(load_scenario("honest-fc"))
    alice = sim.agents["alice"]
    ran = []
    sim.run(2)
    alice.defer(4, lambda: ran.append(("first", sim.tick_height)))
    alice.defer(4, lambda: ran.append(("second", sim.tick_height)))
    # Made during tick 3 for tick 3, so due at tick 4, after the two above.
    alice.defer(3, lambda: alice.defer(3, lambda: ran.append(("third", sim.tick_height))))
    alice.defer(4, lambda: ran.append(("fourth", sim.tick_height)))
    sim.run(2)
    assert ran == [("first", 4), ("second", 4), ("fourth", 4), ("third", 4)]
    assert deferral_heights(sim, alice) == []


def test_deferral_for_a_past_height_runs_on_the_next_tick():
    sim = Simulation(load_scenario("honest-fc"))
    alice = sim.agents["alice"]
    sim.run(10)
    ran = []
    alice.defer(3, lambda: ran.append(sim.tick_height))
    assert not ran
    sim.run(1)
    assert ran == [11]


def test_agent_with_nothing_due_is_not_ticked(monkeypatch):
    # honest-fc: the oracle acts once, alice commits twice and reveals each
    # commitment once its wait is over, and the miner never includes a
    # lifted commitment, so it has no claim duty.
    ticks = ticked_heights(Simulation(load_scenario("honest-fc")), monkeypatch)
    assert ticks == {"m0": [], "oracle": [5], "alice": [25, 26, 125, 126]}


def test_a_quiet_height_runs_no_agent_code():
    # Besides the scheduled miner building its block, code of the agents
    # module runs only at the heights some agent is due: a height with
    # nothing due calls no agent method, a duty included.
    sim = Simulation(load_scenario("honest-fc"))
    build = MinerAgent.build_block.__code__
    ran = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == agents.__file__:
            while frame is not None and frame.f_code is not build:
                frame = frame.f_back
            if frame is None:
                ran.add(sim.tick_height)

    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert sorted(ran) == [5, 25, 26, 125, 126]


def test_agents_due_at_one_height_tick_in_configuration_order(monkeypatch):
    # At height 5 a standing watcher, a miner with a deferral and the
    # oracle's scripted kill are due; neither id order nor the order the
    # work was entered is the configuration order.
    data = bundled("honest-fc")
    data["agents"].insert(0, {"id": "zoe", "kind": "user", "watch": ["u-zoe"]})
    data["grants"].append({"name": "u-zoe", "owner": "zoe", "type": "hashed", "path": "m/0h/0/0", "value": 1})
    sim = Simulation(ScenarioConfig.from_dict(data))
    sim.agents["m0"].defer(5, lambda: None)
    order = []
    on_tick = Agent.on_tick
    monkeypatch.setattr(Agent, "on_tick", lambda agent, deferred: order.append((agent.sim.tick_height, agent.id)) or on_tick(agent, deferred))
    sim.run(5)
    assert [agent_id for height, agent_id in order if height == 5] == ["zoe", "m0", "oracle"]


@pytest.mark.parametrize("watch, ticked", [([], [25, 26, 125, 126]), (["u-hashed"], list(range(1, 141)))], ids=["scripted", "standing"])
def test_an_agent_due_for_several_reasons_ticks_once(watch, ticked, monkeypatch):
    # Alice's scripted commit at 25 meets a deferral made for 25, and with
    # a watch, her standing duty as well.
    data = bundled("honest-fc")
    data["agents"][2]["watch"] = watch
    sim = Simulation(ScenarioConfig.from_dict(data))
    ran = []
    sim.agents["alice"].defer(25, lambda: ran.append(sim.tick_height))
    assert ticked_heights(sim, monkeypatch)["alice"] == ticked and ran == [25]


def test_standing_duties_tick_every_height(monkeypatch):
    # A fraud-proof watcher and a quantum front-runner read the chain or the
    # pool every tick; a front-runner without a quantum computer does not.
    data = bundled("front-runner")
    data["agents"] += [{"id": "watcher", "kind": "user", "watch": ["u-watched"]}, {"id": "idle-runner", "kind": "front_runner"}]
    data["grants"].append({"name": "u-watched", "owner": "watcher", "type": "hashed", "path": "m/0h/0/0", "value": 1})
    sim = Simulation(ScenarioConfig.from_dict(data))
    assert list(sim.standing) == [sim.agents["eve"], sim.agents["watcher"]]
    assert sim.agents["idle-runner"].duty is None and sim.agents["alice"].duty is None
    ticks = ticked_heights(sim, monkeypatch)
    every = list(range(1, data["blocks"] + 1))
    assert ticks["eve"] == every and ticks["watcher"] == every
    assert ticks["idle-runner"] == []


def test_a_watcher_answers_each_challenge_once(monkeypatch):
    # The fraud-proof watch ticks every height and answers the challenges
    # the last block opened.  With the answer recorded but not made, the
    # theft's challenge stays open for all its `challenge_blocks` ticks,
    # and is answered at the first of them alone.
    answered = []
    monkeypatch.setattr(UserAgent, "_respond_with_fraud_proof", lambda agent, name, record: answered.append((agent.sim.tick_height, name, record.txid)))
    sim = Simulation(load_scenario("fraud-proof"))
    sim.run()
    (record,) = sim.chain.challenges.values()
    opened = record.challenge_end_height - sim.config.params.challenge_blocks
    assert sim.chain.height > record.challenge_end_height and record.status is not ChallengeStatus.DEFEATED
    assert answered == [(opened + 1, "u-bait", record.txid)]


def test_dropped_lifted_commitment_leaves_no_deferral():
    # A key-lifted commitment on a plain-key output is void, so the miner
    # drops it; the owner checks for it once, at the next tick, and then
    # waits for nothing.
    data = bundled("lfc-spammer")
    data["agents"][2]["script"][0]["abandon"] = False
    data["grants"][0]["type"] = "derived_plain"
    sim = Simulation(ScenarioConfig.from_dict(data))
    spammer = sim.agents["spammer"]
    sim.run(430)
    assert [rule for _, rule, _ in sim.chain.violations] == ["lfc-keylift-leaked"]
    assert not sim.chain.lfc_by_hash
    assert deferral_heights(sim, spammer) == [431]
    sim.run(1)
    assert deferral_heights(sim, spammer) == []
    assert spammer.actions == ["h430 lifted commitment for u1 (alpha=1000)"]


# scenario -> miner -> the heights it is ticked at, and the claims it posts
# at each.  A miner's only deferral is the claim of one block's lifted
# commitments, due one block past their reveal deadline.
CLAIM_TICKS = {
    # The fake commitment is injected at a scripted tick, not included, so
    # there is nothing to claim.
    "lfc-delay": {"m0": {}, "mallory": {430: 0}},
    # One tick, for the spammer's commitment of block 430, down from 201
    # ticks when a miner polled its open commitments.
    "lfc-spammer": {"m0": {631: 1}},
    # m0's two records were revealed by their owners before the claim fell
    # due; mallory's tick at 12549 is scripted.
    "epoch-mechanics": {"m0": {10161: 0, 12561: 0}, "mallory": {12549: 0, 12750: 6}},
}


@pytest.mark.parametrize("name", CLAIM_TICKS)
def test_a_miner_ticks_only_when_its_claims_fall_due(name, monkeypatch):
    sim = Simulation(load_scenario(name))
    ticks = ticked_heights(sim, monkeypatch)
    deadline = sim.config.params.reveal_deadline()
    for miner, expected in CLAIM_TICKS[name].items():
        actions = sim.agents[miner].actions
        assert ticks[miner] == list(expected) and deferral_heights(sim, sim.agents[miner]) == []
        posted = [int(action.split()[0][1:]) for action in actions if "proof of ownership" in action]
        assert {h: posted.count(h) for h in expected} == expected
        # Each claim tick is one block past the reveal deadline of a block
        # whose lifted commitments this miner included.
        for height in set(posted):
            assert any(a.startswith(f"h{height - deadline - 1} included lifted commitment") for a in actions)
    claimed = [r for r in sim.chain.lfc_by_hash.values() if r.state is LfcState.CLAIMED_BY_MINER]
    assert len(claimed) == sum(sum(expected.values()) for expected in CLAIM_TICKS[name].values())
