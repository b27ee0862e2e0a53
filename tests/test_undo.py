"""The undo journal: a rejected transaction or block leaves no effects, and
a reorg rewinds in place to the state a clean replay of its blocks gives."""

import random

import pytest

from helpers import Harness, differing_in, same_state
from qcspend.consensus import Chain, proof_message, reorg, replay_chain
from qcspend.encoding import enc_bytes, enc_u32
from qcspend.fawkescoin import ChallengeStatus, RevealMode, RevealPayload
from qcspend.groups import decode_point, prequantum_sign, quantum_invert, toy_group
from qcspend.hdwallet import path
from qcspend.ledger import AddrKind, Block, Transaction, TxKind, TxOutput, plain_pk_address
from qcspend.lifted_fawkescoin import LfcState, claim_payload, record_payload
from qcspend.rules import RuleViolation

# Canary killed at 3 with a countdown of 4: the era and a FawkesCoin epoch
# open at 7, a lifted epoch runs 47..376, and the chain rotates back to
# FawkesCoin at 377.  Lifted fees are paid out 300 blocks after they are
# earned, so the chain runs past both payout heights.
PARAMS = dict(
    era_countdown=4,
    fc_epoch_len=40,
    fc_commit_cutoff=10,
    lfc_epoch_len=330,
    lfc_commit_cutoff=300,
    wait_blocks=5,
    reveal_window=5,
    proof_window=5,
    challenge_blocks=6,
)
CHAIN_HEIGHT = 380


def kill_tx(h: Harness) -> Transaction:
    canary = toy_group(8191)
    sig = prequantum_sign(canary, quantum_invert(decode_point(canary, h.config.canary_pk)), h.config.canary_nonce)
    return Transaction(TxKind.CANARY_KILL, payload=h.wallet("eve").pq_address().serialize() + enc_bytes(sig.encode()))


def reveal(h: Harness, owner: str, label: str, p: str, mode: RevealMode, kind=TxKind.FC_REVEAL, fee=0, deposit=None):
    wallet = h.wallet(owner)
    utxo = h.chain.utxos[h.outpoints[label]]
    sk = wallet.derived_sk(path(p))
    payload = RevealPayload(mode, wallet.msk, path(p)) if mode is RevealMode.DERIVED else RevealPayload(mode)
    inputs = [(utxo.outpoint, ("pre", wallet, sk))]
    value = utxo.value - fee
    if deposit is not None:
        inputs.append((h.outpoints[deposit], ("pq", wallet)))
        value += h.chain.utxos[h.outpoints[deposit]].value
    return h.signed(kind, inputs, [TxOutput(wallet.pq_address(), value)], payload.serialize(h.group))


def main_chain() -> Harness:
    """A chain whose blocks exercise every journaled mutation: a samaritan
    report, a plain-key output, the canary kill, FawkesCoin hashed, derived
    and deposit reveals (registry declaration and materialization, a
    challenge that finalizes), lifted commitments that are revealed,
    claimed and fined, lifted fee payouts and both epoch rotations."""
    h = Harness(killed_at=None, **PARAMS)
    h.grant_hashed("u0", "alice", "m/0h/0/9", 4_000)
    h.grant_hashed("u1", "alice", "m/0h/0/0", 3_000)
    h.grant_hashed("u2", "alice", "m/0h/0/1", 3_001)
    h.grant_hashed("u3", "carol", "m/0h/0/0", 1_000)
    # Outside the regular paths, so the derived reveal does not leak them.
    for i, label in enumerate(["u4", "u5", "u6"]):
        h.grant_hashed(label, "alice", f"m/1h/{i}", 3_004 + i)
    h.grant_pq("fee-alice", "alice", 10_000)
    h.grant_pq("dep-carol", "carol", 2_500)
    h.build()
    alice = h.wallet("alice")
    pending = {}

    def commit(name, tx):
        pending[name] = tx
        return h.fc_commit_tx("alice", tx.txid(), fee=3)

    def lfc_commit(name, label, p, alpha):
        pending[name] = reveal(h, "alice", label, p, RevealMode.HASHED, TxKind.LFC_REVEAL, alpha)
        hu = h.chain.utxos[h.outpoints[label]].utxo_hash()
        return Transaction(TxKind.LFC_COMMIT, payload=record_payload(pending[name].txid(), hu, alpha))

    def claim(name, p, alpha):
        committed = pending[name].txid()
        sigma = alice.keylift_proof(h.chain, alice.derived_sk(path(p)), proof_message(committed, alpha))
        return Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma))

    digest = h.chain.registry.key_digest(h.group, alice.msk)
    declare = Transaction(TxKind.REGISTRY_DECLARE, payload=enc_bytes(digest) + enc_u32(1) + path("m/5h/1").serialize())
    transfer = h.signed(
        TxKind.TRANSFER,
        [(h.outpoints["u0"], ("pre", alice, alice.derived_sk(path("m/0h/0/9"))))],
        [TxOutput(plain_pk_address(h.wallet("bob").derived_pk(path("m/0h/0/0"))), 4_000)],
    )
    script = {
        1: lambda: ([], [h.wallet("dave").derived_pk(path("m/0h/0/0"))]),
        2: lambda: ([transfer], []),
        3: lambda: ([kill_tx(h)], []),
        8: lambda: ([commit("hashed", reveal(h, "alice", "u1", "m/0h/0/0", RevealMode.HASHED, fee=7))], []),
        9: lambda: ([commit("derived", reveal(h, "alice", "u2", "m/0h/0/1", RevealMode.DERIVED))], []),
        10: lambda: ([declare], []),
        11: lambda: ([commit("naked", reveal(h, "carol", "u3", "m/0h/0/0", RevealMode.NAKED, fee=5, deposit="dep-carol"))], []),
        14: lambda: ([pending["hashed"]], []),
        15: lambda: ([pending["derived"]], []),
        17: lambda: ([pending["naked"]], []),
        48: lambda: ([lfc_commit("revealed", "u4", "m/1h/0", 1_000)], []),
        49: lambda: ([lfc_commit("claimed", "u5", "m/1h/1", 500)], []),
        50: lambda: ([lfc_commit("fined", "u6", "m/1h/2", 0)], []),
        54: lambda: ([pending["revealed"]], []),
        60: lambda: ([claim("claimed", "m/1h/1", 500)], []),
    }
    while h.chain.height < CHAIN_HEIGHT:
        txs, reports = script.get(h.chain.height + 1, lambda: ([], []))()
        h.mine_with(txs, reports)
    return h


@pytest.fixture(scope="module")
def main():
    return main_chain()


def test_main_chain_exercises_every_journaled_mutation(main):
    chain = main.chain
    assert [tx.kind for b in chain.blocks for tx in b.transactions].count(TxKind.FC_REVEAL) == 3
    assert chain.blocks[1].samaritan_reports and chain.canary.killed_at == 3
    assert [r.status for r in chain.challenges.values()] == [ChallengeStatus.FINALIZED]
    assert {r.state for r in chain.lfc_by_hash.values()} == {LfcState.REVEALED, LfcState.CLAIMED_BY_MINER, LfcState.EXPIRED_FINED}
    assert len(list(chain.registry.entries)) == 1 and len(chain.registry.declared) == 1
    assert [e.kind.value for e in chain.epochs] == ["fc", "lfc", "fc"]
    assert sum(len(b.coinbase.outputs) == 2 for b in chain.blocks) == 2  # both lifted fee payouts
    claims = [r.resolved_height for r in chain.lfc_by_hash.values() if r.state is LfcState.CLAIMED_BY_MINER]
    assert not chain.fee_shares_by_block and claims == [60]


def test_reorgs_at_every_depth_match_a_clean_replay(main):
    """Walk the main chain, and every few blocks reorg onto a branch of empty
    blocks at a random depth from 0 to `max_reorg_depth` (above the final
    block), then back onto the main chain, by a branch that may be shorter.
    After every reorg the live chain equals a clean replay of its blocks in
    every attribute."""
    config, blocks = main.config, main.chain.blocks
    limit = main.params.max_reorg_depth
    rng = random.Random(11)
    live = config.build()
    depths = set()

    def check(branch):
        depth = live.height - (branch[0].height - 1)
        rebuilt, _ = reorg(live, config, branch)
        assert rebuilt is live
        assert same_state(live, replay_chain(config, live.blocks))
        depths.add(depth)

    while live.height < len(blocks) - 1:
        for block in blocks[live.height + 1 : live.height + 1 + rng.randint(1, 24)]:
            live.apply_block(block)
        fork = live.height - rng.randint(0, min(limit, live.height - live.final_height))
        side = replay_chain(config, blocks[: fork + 1])
        for _ in range(rng.randint(1, limit)):
            side.begin_block("m1", main.wallet("m1").pq_address())
            side.end_block()
        check(side.blocks[fork + 1 :])
        back = blocks[fork + 1 : fork + 1 + rng.randint(1, limit)]
        if back:
            check(back)
        else:
            break
    assert {0, limit} <= depths


class TestAtomicity:
    def chain_at(self, main, height) -> Chain:
        return replay_chain(main.config, main.chain.blocks[: height + 1])

    @pytest.mark.parametrize("k", [0, 1])
    def test_block_failing_at_transaction_k_leaves_no_effects(self, main, k):
        chain = self.chain_at(main, 16)
        good = main.chain.blocks[17]  # the deposit reveal
        bad_tx = Transaction(TxKind.FC_COMMIT, payload=b"\x00")
        txs = list(good.transactions)
        txs.insert(k, bad_tx)
        bad = Block(good.height, good.parent, good.miner_id, good.miner_address, tuple(txs), (), good.coinbase)
        reference, digest = self.chain_at(main, 16), chain.state_digest()
        with pytest.raises(RuleViolation, match="fc-commit-malformed"):
            chain.apply_block(bad)
        assert chain.state_digest() == digest and same_state(chain, reference)
        chain.apply_block(good)

    def test_mismatched_block_leaves_no_effects(self, main):
        chain = self.chain_at(main, 53)
        good = main.chain.blocks[54]  # the lifted reveal
        bad = Block(good.height, good.parent, good.miner_id, good.miner_address, good.transactions, (), main.chain.blocks[53].coinbase)
        with pytest.raises(RuleViolation, match="block-mismatch"):
            chain.apply_block(bad)
        assert same_state(chain, self.chain_at(main, 53))
        chain.apply_block(good)

    @pytest.mark.parametrize("field", ["value", "address", "payload", "reports"])
    def test_block_differing_in_a_recomputed_field_leaves_no_effects(self, main, field):
        blocks = main.chain.blocks
        # Block 1 carries the samaritan report; the first lifted fee payout
        # has a second coinbase output.
        height = 1 if field == "reports" else next(b.height for b in blocks if len(b.coinbase.outputs) == 2)
        chain = self.chain_at(main, height - 1)
        digest, final = chain.state_digest(), chain.final_height
        with pytest.raises(RuleViolation, match="block-mismatch"):
            chain.apply_block(differing_in(blocks[height], field, main.wallet("m1").pq_address()))
        assert chain.state_digest() == digest and chain.final_height == final
        assert same_state(chain, self.chain_at(main, height - 1))
        chain.apply_block(blocks[height])
        assert same_state(chain, self.chain_at(main, height))

    def test_handler_that_mutates_then_raises_leaves_no_effects(self, main, monkeypatch):
        chain = self.chain_at(main, 13)
        good = main.chain.blocks[14]  # the hashed reveal, which pays a fee
        handlers = dict(Chain._HANDLERS)
        apply_reveal = handlers[TxKind.FC_REVEAL]

        def buggy(self, tx, height):
            apply_reveal(self, tx, height)
            raise KeyError("a handler bug after its effects")

        monkeypatch.setitem(handlers, TxKind.FC_REVEAL, buggy)
        monkeypatch.setattr(Chain, "_HANDLERS", handlers)
        digest = chain.state_digest()
        chain.begin_block(good.miner_id, good.miner_address)
        with pytest.raises(KeyError):
            chain.add_tx(good.transactions[0])
        assert chain.state_digest() == digest
        monkeypatch.undo()
        chain.end_block()  # without the reveal's fee
        reference = self.chain_at(main, 13)
        reference.begin_block(good.miner_id, good.miner_address)
        reference.end_block()
        assert same_state(chain, reference)

    def test_reorg_with_an_invalid_third_block_restores_the_chain(self, main):
        chain = self.chain_at(main, 60)
        fork = 50
        side = self.chain_at(main, fork)
        for _ in range(5):
            side.begin_block("m1", main.wallet("m1").pq_address())
            side.end_block()
        branch = side.blocks[fork + 1 :]
        third = branch[2]
        bad_tx = Transaction(TxKind.TRANSFER)
        branch[2] = Block(third.height, third.parent, third.miner_id, third.miner_address, (bad_tx,), (), third.coinbase)
        digest = chain.state_digest()
        with pytest.raises(RuleViolation, match="tx-empty"):
            reorg(chain, main.config, branch)
        assert chain.state_digest() == digest and same_state(chain, self.chain_at(main, 60))
        chain.begin_block("m0", main.wallet("m0").pq_address())
        chain.end_block()
        assert chain.blocks[-1].parent == main.chain.blocks[60].block_hash()
        assert same_state(chain, replay_chain(main.config, chain.blocks))


def test_reorg_below_a_final_block_rejected(main):
    """A reorg onto a shorter branch lowers the tip; the blocks the old tip
    had buried `max_reorg_depth` deep stay final."""
    config, blocks = main.config, main.chain.blocks
    chain = replay_chain(config, blocks[:100])
    assert chain.final_height == 99 - main.params.max_reorg_depth
    reorg(chain, config, blocks[80:82])
    assert (chain.height, chain.final_height) == (81, 79)
    side = replay_chain(config, blocks[:75])
    side.begin_block("m1", main.wallet("m1").pq_address())
    side.end_block()
    with pytest.raises(RuleViolation, match="reorg-depth"):
        reorg(chain, config, side.blocks[75:])
    assert same_state(chain, replay_chain(config, blocks[:82]))


def test_rewound_blocks_take_their_violations(main):
    config, blocks = main.config, main.chain.blocks
    chain = replay_chain(config, blocks[:30])
    for _ in range(2):
        chain.begin_block("m1", main.wallet("m1").pq_address())
        chain.try_add_tx(Transaction(TxKind.TRANSFER))
        chain.end_block()
    assert [v[:2] for v in chain.violations] == [(30, "tx-empty"), (31, "tx-empty")]
    side = replay_chain(config, chain.blocks[:31])
    side.begin_block("m2", main.wallet("m2").pq_address())
    side.end_block()
    reorg(chain, config, side.blocks[31:])
    assert [v[:2] for v in chain.violations] == [(30, "tx-empty")]


def test_hash_index_names_the_live_pre_quantum_outputs(main):
    """The H(u) index maps the hash of every live pre-quantum output to its
    outpoint, and holds nothing else, after a build, a rewind and a reorg."""
    config, blocks = main.config, main.chain.blocks

    def check(chain):
        live = [u for u in chain.utxos.values() if u.address.kind is not AddrKind.POST_QUANTUM]
        assert live and len(live) < len(chain.utxos)  # post-quantum outputs stay out
        assert chain.utxo_hash_index == {u.utxo_hash(): u.outpoint for u in live}

    check(main.chain)
    chain = replay_chain(config, blocks[:61])
    chain._rewind(47)  # undoes the lifted commitments, the reveal and the claim
    check(chain)
    side = replay_chain(config, blocks[:48])
    side.begin_block("m1", main.wallet("m1").pq_address())
    side.end_block()
    reorg(chain, config, blocks[48:61])
    check(chain)
    reorg(chain, config, side.blocks[48:])
    check(chain)


def test_reorg_restores_an_overwritten_entry():
    """A second commitment to one hash overwrites the entry of the first;
    reorging its block away puts the first one's entry back."""
    h = Harness()
    h.grant_pq("fee-alice", "alice", 10_000)
    h.build()
    committed = b"\x5a" * 32
    for _ in range(2):
        h.mine_with([h.fc_commit_tx("alice", committed, fee=3)])
    assert h.chain.fc_commitments[committed] == [1, 2]
    side = replay_chain(h.config, h.chain.blocks[:2])
    side.begin_block("m1", h.wallet("m1").pq_address())
    side.end_block()
    reorg(h.chain, h.config, side.blocks[2:])
    clean = replay_chain(h.config, h.chain.blocks)
    assert h.chain.fc_commitments[committed] == [1]
    assert same_state(h.chain, clean) and h.chain.state_digest() == clean.state_digest()
