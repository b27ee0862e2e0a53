"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run pytest with -s or -rA to see them inline)."""

import hashlib
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from qcspend.canary_game import (
    EntityTimeline,
    GameSpec,
    canonical_games,
    classify_timeline,
    collapse,
    render_payoff_table,
    sweep_bounty,
    sweep_w,
)
from qcspend.fawkescoin import ChallengeStatus
from qcspend.groups import pk_ec, toy_group
from qcspend.hdwallet import DerivationPath, DerivationStep, ExtendedSecretKey, derive, public_child, to_xpk
from qcspend.ledger import TxKind
from qcspend.lifted_fawkescoin import LfcState
from qcspend.lifting import (
    KeyLiftedScheme,
    KeyLiftedSig,
    SeedLiftedScheme,
    SeedLiftedSig,
    deserialize_lifted,
    euf_lcma_game,
    keylift_lcma_adversary,
    lifted_backends,
    seedlift_quantum_adversary,
    serialize_lifted,
)
from qcspend.params import FinePolicy
from qcspend.scenarios import BUNDLED, run_scenario

DATA = Path(__file__).parent / "data"
GROUP = toy_group(101)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL {description}")
        raise
    print(f"criterion {number:2d} PASS {description}")


_SIMS: dict = {}


def scenario(name: str):
    if name not in _SIMS:
        start = time.perf_counter()
        _SIMS[name] = (run_scenario(name), time.perf_counter() - start)
    return _SIMS[name]


def test_criterion_1_canary_table_golden():
    with criterion(1, "canary payoff table matches the reference table byte-for-byte"):
        start = time.perf_counter()
        rendered = render_payoff_table()
        elapsed = time.perf_counter() - start
        golden = (DATA / "canary_table.golden").read_text()
        assert rendered == golden
        for tl, game in canonical_games().items():
            assert classify_timeline(game).timeline == tl
        assert elapsed < 1.0


def test_criterion_2_sweep_arrows():
    with criterion(2, "waiting-time and bounty sweeps follow the reference transition arrows"):
        games = canonical_games()
        tl3 = GameSpec(EntityTimeline(0, 6), EntityTimeline(1, 9), w=4, bounty=10, loot=1000)
        assert collapse(sweep_w(tl3, [4, 3, 2])) == [3, 4]
        tl5a = GameSpec(EntityTimeline(0, 8), EntityTimeline(2, 9), w=6, bounty=10, loot=1000)
        assert collapse(sweep_w(tl5a, [6, 5])) == [5, 3]
        tl5b = GameSpec(EntityTimeline(0, 6), EntityTimeline(4, 10), w=5, bounty=10, loot=1000)
        assert collapse(sweep_w(tl5b, [5, 3, 1])) == [5, 6, 4]
        assert collapse(sweep_w(games[6], [3, 2, 1])) == [6, 4]
        assert collapse(sweep_bounty(games[7], [(0, 5), (0, 4), (0, 2), (0, 0)])) == [7, 6, 4]
        assert collapse(sweep_bounty(games[5], [(0, 2), (0, 1), (0, 0)])) == [5, 3]


def test_criterion_3_delay_fine():
    with criterion(3, "delay fine: 3.35% within half a basis point of spec, 3,350 on 100,000 exactly"):
        policy = FinePolicy()
        assert abs(policy.exact_fraction() - 0.0335) < 5e-4
        assert policy.fine(100_000) == 3_350


def test_criterion_4_derivation_algebra():
    with criterion(4, "path-fold identity and public/secret consistency over 500 randomized cases"):
        rng = random.Random(2024)
        for case in range(500):
            msk = ExtendedSecretKey(rng.randrange(GROUP.q), rng.randbytes(32))
            split = rng.randrange(5)
            steps = [
                DerivationStep(rng.randrange(1 << 32), rng.random() < 0.5)
                for _ in range(rng.randrange(5))
            ]
            p1 = DerivationPath(tuple(steps[:split]))
            p2 = DerivationPath(tuple(steps[split:]))
            full = p1.concat(p2)
            assert derive(GROUP, msk, full) == derive(GROUP, derive(GROUP, msk, p1), p2)
            watch_path = DerivationPath(
                tuple(DerivationStep(rng.randrange(64), False) for _ in range(rng.randrange(4)))
            )
            xpk = to_xpk(GROUP, msk)
            for step in watch_path.steps:
                xpk = public_child(GROUP, xpk, step)
            assert xpk.pk.value == pk_ec(GROUP, derive(GROUP, msk, watch_path).sk).value


def test_criterion_5_lifting_roundtrips_and_fuzz():
    with criterion(5, "lifting round-trips on 128 random cases; 256-mutation fuzz admits nothing"):
        key_scheme = KeyLiftedScheme(GROUP)
        seed_scheme = SeedLiftedScheme(GROUP, iterations=16)
        for i in range(128):
            tag = hashlib.sha512(b"acceptance5:%d" % i).digest()
            msg = tag[:17]
            for scheme in (key_scheme, seed_scheme):
                secret, public = scheme.keygen(tag)
                assert scheme.lifted_verify(public, msg, scheme.lifted_sign(secret, msg))

        false_accepts = 0
        tag = hashlib.sha512(b"acceptance5:fuzz").digest()
        msg = b"the one true message"
        for scheme, sig_type in ((key_scheme, KeyLiftedSig), (seed_scheme, SeedLiftedSig)):
            secret, public = scheme.keygen(tag)
            sig = scheme.lifted_sign(secret, msg)
            blob = serialize_lifted(GROUP, sig)
            for i in range(64):
                mutated = bytearray(msg)
                mutated[i % len(msg)] ^= 1 + (i * 29) % 255
                if scheme.lifted_verify(public, bytes(mutated), sig):
                    false_accepts += 1
            for i in range(64):
                mutated = bytearray(blob)
                mutated[i * 3 % len(blob)] ^= 1 + (i * 31) % 255
                try:
                    bad = deserialize_lifted(GROUP, bytes(mutated))
                except Exception:
                    continue
                if isinstance(bad, sig_type) and scheme.lifted_verify(public, msg, bad):
                    false_accepts += 1
        assert false_accepts == 0


def test_criterion_6_euf_lcma_demonstrations():
    with criterion(6, "the dlog adversary beats key-lifting in the LCMA game and loses to seed-lifting"):
        key_backend, seed_backend = lifted_backends(GROUP)
        key_scheme = KeyLiftedScheme(GROUP, key_backend)
        win = euf_lcma_game(key_scheme, keylift_lcma_adversary(GROUP, key_backend), rounds=10)
        assert win.won_all  # key-lifting is not a strong lifting

        seed_scheme = SeedLiftedScheme(GROUP, seed_backend, iterations=16)
        lose = euf_lcma_game(seed_scheme, seedlift_quantum_adversary(GROUP, seed_backend), rounds=100)
        assert lose.wins == 0


def test_criterion_7a_honest_fc():
    with criterion(7, "(a) honest FawkesCoin hashed spend finalizes"):
        sim, elapsed = scenario("honest-fc")
        assert sim.chain.utxo(sim.grant_outpoint("u-hashed")) is None
        assert sim.profits()["alice"] == -220
        assert elapsed < 5.0


def test_criterion_7b_front_runner():
    with criterion(7, "(b) front-runner nets zero against FawkesCoin, positive against direct spending"):
        fc, t1 = scenario("front-runner")
        direct, t2 = scenario("front-runner-direct")
        assert fc.profits()["eve"] == 0
        assert direct.profits()["eve"] == 50_000
        assert t1 < 5.0 and t2 < 5.0


def test_criterion_7c_spammer():
    with criterion(7, "(c) lifted-FawkesCoin spammer loses the whole output to the miner"):
        sim, elapsed = scenario("lfc-spammer")
        assert sim.profits()["spammer"] == -100_000
        assert next(iter(sim.chain.lfc_by_hash.values())).state is LfcState.CLAIMED_BY_MINER
        assert elapsed < 5.0


def test_criterion_7d_delay_attacker():
    with criterion(7, "(d) delay attacker pays exactly the fine; the victim is compensated"):
        sim, elapsed = scenario("lfc-delay")
        assert sim.profits()["victim"] == 3_350
        assert sim.profits()["mallory"] == sim.config.params.block_reward - 3_350
        assert elapsed < 5.0


def test_criterion_7e_fraud_proof():
    with criterion(7, "(e) fraud proof returns deposit-minus-fee with exact conservation"):
        sim, elapsed = scenario("fraud-proof")
        record = next(iter(sim.chain.challenges.values()))
        assert record.status is ChallengeStatus.DEFEATED
        assert sim.profits()["baiter"] == record.deposit_value - record.fee
        assert sim.profits()["thief"] == -record.deposit_value
        sim.chain.recompute_balance()
        assert elapsed < 5.0


SALVAGE_EXPECTED = {
    ("salvage-restrictive", "u-naked"): "burnt",
    ("salvage-restrictive", "u-lost"): "burnt",
    ("salvage-restrictive", "u-steal"): "burnt",
    ("salvage-unrestrictive", "u-naked"): "spendable",
    ("salvage-unrestrictive", "u-lost"): "unspendable",
    ("salvage-unrestrictive", "u-steal"): "quantum-loot",
    ("salvage-permissive", "u-naked"): "spendable",
    ("salvage-permissive", "u-lost"): "spendable",
    ("salvage-permissive", "u-steal"): "loot",
}


def observed_salvage_status(sim, label: str) -> str:
    info = sim.grants[label]
    alive = sim.chain.utxo(info["outpoint"]) is not None
    if alive:
        return "burnt" if sim.config.params.fc_mode == "restrictive" else "unspendable"
    # gone: who ended up with the value?
    if label == "u-steal":
        taker = "thief" if "thief" in sim.agents and sim.profits().get("thief", 0) > 0 else "pickpocket"
        taker_agent = sim.agents[taker]
        return "quantum-loot" if taker_agent.quantum else "loot"
    return "spendable"  # the owner moved it through the deposit flow


def test_criterion_7f_salvage_matrix():
    with criterion(7, "(f) salvage matrix over 3 modes x 3 classes matches the reference statuses"):
        observed = {}
        for name in ("salvage-restrictive", "salvage-unrestrictive", "salvage-permissive"):
            sim, elapsed = scenario(name)
            assert elapsed < 5.0
            for label in ("u-naked", "u-lost", "u-steal"):
                observed[(name, label)] = observed_salvage_status(sim, label)
        assert observed == SALVAGE_EXPECTED


def test_criterion_8_epoch_mechanics():
    with criterion(8, "30,000-block run: cutoffs respected, 1,900/500 rotation, era at kill+8,000, one extension"):
        sim, _ = scenario("epoch-mechanics")
        chain = sim.chain
        assert chain.height == 30_000
        assert chain.era_start() == chain.canary.killed_at + 8_000 == 8_050
        for epoch in chain.epochs:
            assert epoch.length == (1_900 if epoch.kind.value == "fc" else 500)
        for block in chain.blocks[1:]:
            epoch = chain.epoch_of(block.height)
            for tx in block.transactions:
                if tx.kind is TxKind.FC_COMMIT:
                    assert epoch.offset(block.height) < 1_800
                if tx.kind is TxKind.LFC_COMMIT:
                    assert epoch.offset(block.height) < 200
        extensions = [e for e in chain.epochs if e.extension]
        assert len(extensions) == 1
        fined = [r for r in chain.lfc_by_hash.values() if r.state is LfcState.EXPIRED_FINED]
        assert len(fined) == 1
        # withheld through the extension, paid only at its closing block
        assert fined[0].resolved_height == extensions[0].end - 1


def test_criterion_9_ledger_conservation():
    with criterion(9, "per-block value balance reconciles across every bundled scenario"):
        # The per-block assertion runs inside end_block; a clean run plus a
        # full recomputation at the end is the whole criterion.
        for name in BUNDLED:
            sim, elapsed = scenario(name)
            sim.chain.recompute_balance()
            assert elapsed < 30.0


def test_criterion_10_determinism():
    with criterion(10, "same seed, byte-identical snapshots and reports"):
        for name in ("honest-fc", "lfc-delay"):
            first, _ = scenario(name)
            second = run_scenario(name)
            assert first.snapshot() == second.snapshot()
            assert first.report() == second.report()
        report = scenario("honest-fc")[0].report()
        assert report == (DATA / "honest_fc_report.golden").read_text()
