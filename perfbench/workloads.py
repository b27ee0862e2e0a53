"""Seeded workload generators.

Each generator turns a workload seed into plain inputs for the program:
a scenario config dict (the same strict JSON shape `qcspend run` reads)
for the two scenario workloads, and a list of trial specs for
`fuzz-trials`.  The same seed always gives the same inputs; nothing here
times anything or touches a chain.

The shapes follow the bundled scenarios and the two tier-1 fuzz loops
(`TestFrontRunningImpossibility`, `TestBoundedReorgSafety`): the seed
moves heights, values, fees, paths and waits, while the number of each
kind of action stays fixed, so two seeds cost about the same.
"""

from __future__ import annotations

import random

# Blocks at the end of every scenario in which no agent acts, so that the
# reorgs measured there replace blocks without transactions.
QUIET_TAIL = 30

# Reorg forks lie this many blocks or fewer below the final height; with
# up to three forks every depth stays within the default max_reorg_depth
# of 20.
FORK_WINDOW = 18

# Pre-quantum group order of the scenario workloads.  At the default
# q = 8191 one random key in five would collide with one of lfc-history's
# ~1,700 leaked keys and be refused as leaked; at q ~ 2**20 only the
# rejections the generators plan for happen.
SCENARIO_GROUP_Q = 1_048_573


def fork_heights(rng: random.Random, blocks: int, count: int) -> list[int]:
    """Distinct fork heights in the quiet tail, highest first: each reorg
    attaches at or below the previous one, so it still meets the chain it
    was prepared against after the earlier reorgs replaced the tip."""
    return sorted(rng.sample(range(blocks - FORK_WINDOW, blocks), count), reverse=True)


# -- pq-load -------------------------------------------------------------------


def pq_load(seed: int) -> dict:
    """Post-quantum heavy traffic after the canary kill: users make
    staggered FawkesCoin spends (hashed, derived and naked with a deposit),
    each commitment and deposit signed on the 2048-bit group; a quantum
    front-runner races every reveal; a thief and a watching owner play out
    one theft and its fraud proof."""
    rng = random.Random(f"pq-load:{seed}")
    blocks = 1000
    n_users = 2
    grants: list[dict] = []
    users: dict[str, list[dict]] = {f"user{i}": [] for i in range(n_users)}
    spends = [(user, mode) for user in users for mode in ("hashed", "derived", "naked")]
    rng.shuffle(spends)
    # Distinct commit heights keep reveals (commit + 100) one per tick, so
    # the front-runner never funds two races from one output.
    heights = sorted(rng.sample(range(30, 700), len(spends)))
    for user in users:
        grants.append({"name": f"{user}-fee", "owner": user, "type": "pq", "value": 20_000})
    for k, ((user, mode), height) in enumerate(zip(spends, heights)):
        value = rng.randrange(5_000, 80_000)
        fee = rng.randrange(0, 200)
        name = f"{user}-{mode}"
        action = {"height": height, "do": "fc_spend", "utxo": name, "mode": mode, "fee": fee,
                  "commit_fee": rng.randrange(0, 20)}
        if mode == "derived":
            grants.append({"name": name, "owner": user, "type": "derived_plain",
                           "path": f"m/0h/0/{rng.randrange(16)}", "value": value})
        else:
            grants.append({"name": name, "owner": user, "type": "hashed",
                           "path": f"m/1h/{k}", "value": value})
        if mode == "naked":
            deposit = f"{user}-deposit"
            action["deposit"] = deposit
            grants.append({"name": deposit, "owner": user, "type": "pq",
                           "value": value + fee + rng.randrange(1, 1_000)})
        users[user].append(action)

    bait = rng.randrange(20_000, 90_000)
    steal_fee = rng.randrange(100, 1_000)
    grants += [
        {"name": "u-bait", "owner": "baiter", "type": "derived_plain", "path": "m/0h/0/0", "value": bait},
        {"name": "pq-baiter", "owner": "baiter", "type": "pq", "value": 10_000},
        {"name": "d-thief", "owner": "thief", "type": "pq", "value": bait + steal_fee + rng.randrange(1, 1_000)},
        {"name": "pq-thief", "owner": "thief", "type": "pq", "value": 5_000},
        {"name": "pq-eve", "owner": "eve", "type": "pq", "value": 50_000},
    ]
    agents = [
        {"id": "m0", "kind": "miner"},
        {"id": "m1", "kind": "miner"},
        {"id": "oracle", "kind": "user", "quantum": True, "script": [{"height": 5, "do": "kill_canary"}]},
    ]
    agents += [{"id": user, "kind": "user", "script": sorted(script, key=lambda a: a["height"])}
               for user, script in users.items()]
    agents += [
        {"id": "baiter", "kind": "user", "watch": ["u-bait"]},
        {"id": "thief", "kind": "user", "quantum": True,
         "script": [{"height": rng.randrange(30, 80), "do": "steal", "utxo": "u-bait", "mode": "naked",
                     "deposit": "d-thief", "fee": steal_fee}]},
        # Last in tick order, so it sees each reveal in the tick it is sent.
        {"id": "eve", "kind": "front_runner", "quantum": True},
    ]
    return {
        "name": "pq-load",
        "seed": seed,
        "blocks": blocks,
        "group_q": SCENARIO_GROUP_Q,
        "params": {"era_countdown": 15, "challenge_blocks": 150},
        "agents": agents,
        "miners": ["m0", "m1"],
        "grants": grants,
    }


# -- lfc-history -----------------------------------------------------------------

LFC_WAIT = 20          # wait_blocks = reveal_window = proof_window
FC_EPOCH = 120
LFC_EPOCH = 200
LFC_CUTOFF = 100       # commitments only at epoch offsets [0, 100)
CLAIM_BAND = 59        # abandoned at offset >= 59 -> claimed in the last 100 blocks
EXTENSION_CLAIMS = 5   # k * p with the default k = 10, p = 1/2
PLAIN_GRANTS = 1_500   # plain-pk outputs at genesis: keys leaked from the first block


def lfc_history(seed: int) -> dict:
    """Thousands of blocks of short FawkesCoin / lifted epoch pairs carrying
    key- and seed-lifted commitments and their reveals, abandoned
    commitments that miners claim, one claim burst that forces an
    extension, a delay-attack fake commitment inside that extension (its
    fine is withheld until the extension ends), samaritan reports, a
    registry declaration and 1,500 plain-pk grants that start out leaked."""
    rng = random.Random(f"lfc-history:{seed}")
    kill, countdown = 5, 40
    n_pairs = 8
    burst = rng.randrange(1, n_pairs - 3)  # the last three regular epochs carry the void commitments

    lfc_epochs: list[tuple[int, str]] = []  # (start, "regular" | "burst" | "extension")
    height = kill + countdown
    for i in range(n_pairs):
        height += FC_EPOCH
        lfc_epochs.append((height, "burst" if i == burst else "regular"))
        height += LFC_EPOCH
        if i == burst:
            lfc_epochs.append((height, "extension"))
            height += LFC_EPOCH
    blocks = height + 2 * QUIET_TAIL  # ends inside a FawkesCoin epoch

    n_spenders = 8
    spenders = [f"s{i}" for i in range(n_spenders)]
    scripts: dict[str, list[dict]] = {s: [] for s in spenders}
    grants: list[dict] = []
    next_path = {s: 1 for s in spenders}  # m/1h/0 of s0 is the declared path
    first_seed_reveal: dict[str, int] = {}

    def new_grant(owner: str, path: str | None = None) -> str:
        if path is None:
            path = f"m/1h/{next_path[owner]}"
            next_path[owner] += 1
        name = f"{owner}:{path}"
        grants.append({"name": name, "owner": owner, "type": "hashed", "path": path,
                       "value": rng.randrange(3_000, 60_000)})
        return name

    def commit(owner: str, at: int, sig: str, abandon: bool = False, utxo: str | None = None) -> None:
        action = {"height": at, "do": "lfc_spend", "utxo": utxo or new_grant(owner),
                  "alpha": rng.randrange(0, 400), "sig": sig}
        if abandon:
            action["abandon"] = True
        scripts[owner].append(action)
        if sig == "seed" and not abandon:
            first_seed_reveal.setdefault(owner, at + LFC_WAIT)

    extension_start = None
    for start, kind in lfc_epochs:
        if kind == "extension":
            extension_start = start
            for _ in range(6):
                commit(rng.choice(spenders), start + rng.randrange(0, LFC_CUTOFF), rng.choice(("key", "seed")))
            continue
        for _ in range(24):
            commit(rng.choice(spenders), start + rng.randrange(0, LFC_CUTOFF), "key")
        for _ in range(12):
            commit(rng.choice(spenders), start + rng.randrange(0, LFC_CUTOFF), "seed")
        for _ in range(4):
            commit(rng.choice(spenders), start + rng.randrange(0, CLAIM_BAND), "key", abandon=True)
        in_band = EXTENSION_CLAIMS + 3 if kind == "burst" else rng.randrange(0, 4)
        for _ in range(in_band):
            commit(rng.choice(spenders), start + rng.randrange(CLAIM_BAND, LFC_CUTOFF), "key", abandon=True)

    # Key-lifted commitments on keys a seed-lifted reveal has already put on
    # chain (the regular paths, plus s0's declared path): miners must drop
    # them as void.
    late = [start for start, kind in lfc_epochs if kind == "regular"][-3:]
    for owner in spenders:
        if owner not in first_seed_reveal:
            commit(owner, late[0] + rng.randrange(0, LFC_CUTOFF), "seed")
        for i in (1, 2):
            utxo = new_grant(owner, f"m/0h/0/{i}")
            commit(owner, rng.choice(late[1:]) + rng.randrange(0, LFC_CUTOFF), "key", utxo=utxo)
    commit("s0", late[-1] + rng.randrange(0, LFC_CUTOFF), "key", utxo=new_grant("s0", "m/1h/0"))

    reported = [f"r{i}" for i in range(4)]
    grants += [{"name": r, "owner": "reporter", "type": "raw_hashed", "value": rng.randrange(1_000, 9_000)}
               for r in reported]
    grants.append({"name": "u-victim", "owner": "victim", "type": "hashed", "path": "m/0h/0/3",
                   "value": rng.randrange(50_000, 150_000)})
    grants += [{"name": f"plain{i}", "owner": "hoarder", "type": "derived_plain", "path": f"m/2h/{i}",
                "value": rng.randrange(100, 5_000)} for i in range(PLAIN_GRANTS)]

    fake_height = extension_start + rng.randrange(5, 40)
    reporter_script = [{"height": 10 + 2 * i, "do": "samaritan", "utxo": r} for i, r in enumerate(reported)]
    reporter_script.append({"height": late[0] + rng.randrange(0, LFC_CUTOFF), "do": "lfc_spend",
                            "utxo": "r0", "alpha": 0, "sig": "key"})
    agents = [
        {"id": "m0", "kind": "miner"},
        {"id": "m1", "kind": "miner"},
        {"id": "m2", "kind": "miner"},
        {"id": "mallory", "kind": "miner", "script": [{"height": fake_height, "fake_lfc": {"utxo": "u-victim"}}]},
        {"id": "oracle", "kind": "user", "quantum": True, "script": [{"height": kill, "do": "kill_canary"}]},
        {"id": "reporter", "kind": "user", "script": reporter_script},
        {"id": "victim", "kind": "user"},
        {"id": "hoarder", "kind": "user"},
    ]
    scripts["s0"].append({"height": 20, "do": "registry_declare", "paths": ["m/1h/0"]})
    agents += [{"id": s, "kind": "user", "script": sorted(scripts[s], key=lambda a: a["height"])}
               for s in spenders]
    return {
        "name": "lfc-history",
        "seed": seed,
        "blocks": blocks,
        "group_q": SCENARIO_GROUP_Q,
        "params": {
            "era_countdown": countdown,
            "wait_blocks": LFC_WAIT,
            "reveal_window": LFC_WAIT,
            "proof_window": LFC_WAIT,
            "fc_epoch_len": FC_EPOCH,
            "fc_commit_cutoff": 20,
            "lfc_epoch_len": LFC_EPOCH,
            "lfc_commit_cutoff": LFC_CUTOFF,
        },
        "agents": agents,
        "miners": ["m0", "m1", "m2"],
        "miner_overrides": {str(fake_height): "mallory"},
        "grants": grants,
    }


# -- fuzz-trials -------------------------------------------------------------------


# One trial per wait, in an order the seed picks, so every seed runs the
# same number of trials over the same number of waiting blocks: a trial
# builds its premine, the commitment, the wait, the reveal, the
# rebroadcast after the reorg, the adversary's wait and its reveal
# attempt, 2 * wait + 3 blocks and the premine, so seven trials build at
# least 1,001 blocks.
TRIAL_WAITS = (52, 58, 64, 70, 76, 82, 88)


def fuzz_trials(seed: int) -> list[dict]:
    """Independent short chains: a hashed commit-wait-reveal, an adversary
    commitment in the reveal's block, a reorg shallower than the wait, a
    rebroadcast of the abandoned transactions, and the adversary's reveal
    once its own wait is over."""
    rng = random.Random(f"fuzz-trials:{seed}")
    return [
        {
            "wallet_seed": rng.randrange(1 << 32),
            "wait": wait,
            "value": rng.randrange(1_000, 90_000),
            "fee": rng.randrange(0, 50),
            "premine": rng.randrange(0, 4),
            "depth": rng.randrange(1, wait),
        }
        for wait in rng.sample(TRIAL_WAITS, len(TRIAL_WAITS))
    ]


SCENARIOS = {"pq-load": pq_load, "lfc-history": lfc_history}
WORKLOADS = ("pq-load", "lfc-history", "fuzz-trials")
