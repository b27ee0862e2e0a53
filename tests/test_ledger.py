import pickle

import pytest

from qcspend.groups import pk_ec, toy_group
from qcspend.hdwallet import ExtendedSecretKey, derive, path
from qcspend.ledger import (
    Address,
    AddrKind,
    Block,
    KeyRegistry,
    LeakTracker,
    Transaction,
    TxInput,
    TxKind,
    TxOutput,
    Utxo,
    Witness,
    WitnessKind,
    pk_hash_address,
    post_quantum_address,
    select_samaritan_reports,
)
from qcspend.params import Params

GROUP = toy_group(101)


class TestLeakTracker:
    def test_monotone_first_height_wins(self):
        t = LeakTracker()
        t.mark(b"pk", 5)
        t.mark(b"pk", 9)
        assert t.leak_height(b"pk") == 5
        assert t.is_leaked(b"pk")

    def test_unknown_key(self):
        assert not LeakTracker().is_leaked(b"nope")

    def test_pk_hash_address_finds_its_marked_key(self):
        t = LeakTracker()
        pk = pk_ec(GROUP, 7).encode()
        t.mark(pk, 3)
        assert t.leaked_pk(pk_hash_address(pk)) == pk
        assert t.leaked_pk(pk_hash_address(pk_ec(GROUP, 8).encode())) is None

    def test_plain_pk_address_needs_a_mark(self):
        t = LeakTracker()
        pk = pk_ec(GROUP, 7).encode()
        address = Address(AddrKind.PLAIN_PK, pk)
        assert t.leaked_pk(address) is None
        t.mark(pk, 3)
        assert t.leaked_pk(address) == pk

    def test_post_quantum_address_has_no_leaked_key(self):
        t = LeakTracker()
        pk = pk_ec(GROUP, 7).encode()
        t.mark(pk, 3)
        assert t.leaked_pk(Address(AddrKind.POST_QUANTUM, pk_hash_address(pk).data)) is None

    def test_remark_keeps_first_height_for_the_address(self):
        t = LeakTracker()
        pk = pk_ec(GROUP, 7).encode()
        t.mark(pk, 3)
        t.mark(pk, 9)
        found = t.leaked_pk(pk_hash_address(pk))
        assert found == pk and t.leak_height(found) == 3

    def test_address_index_stays_out_of_the_snapshot(self):
        t = LeakTracker()
        pks = [pk_ec(GROUP, sk).encode() for sk in (7, 8)]
        for h, pk in enumerate(pks):
            t.mark(pk, h)
        assert t.snapshot() == {pks[0]: 0, pks[1]: 1}


class TestSamaritanSelection:
    def test_budget_arithmetic_33_byte_keys(self):
        # 1024-byte budget over 33-byte key encodings: exactly 31 fit.
        pending = [bytes([i]) * 33 for i in range(40)]
        selected = select_samaritan_reports(pending, LeakTracker(), 1024, 33)
        assert len(selected) == 31 == 1024 // 33
        assert selected == pending[:31]

    def test_duplicates_collapse(self):
        pending = [b"\x01" * 33, b"\x01" * 33, b"\x02" * 33]
        assert len(select_samaritan_reports(pending, LeakTracker(), 1024, 33)) == 2

    def test_already_leaked_dropped(self):
        tracker = LeakTracker()
        tracker.mark(b"\x01" * 33, 3)
        pending = [b"\x01" * 33, b"\x02" * 33]
        assert select_samaritan_reports(pending, tracker, 1024, 33) == [b"\x02" * 33]

    def test_malformed_length_dropped(self):
        assert select_samaritan_reports([b"short"], LeakTracker(), 1024, 33) == []

    def test_serialized_bytes_never_exceed_budget(self):
        for n in (1, 7, 30, 31, 32, 100):
            pending = [i.to_bytes(2, "big") * 16 + b"x" for i in range(n)]  # 33 bytes each
            selected = select_samaritan_reports(pending, LeakTracker(), 1024, 33)
            assert sum(len(p) for p in selected) <= 1024


class TestKeyRegistry:
    def test_prefix_closure_example(self):
        # Regular set {m/0, m/0/1}: closure is {m, m/0, m/0/1}, so the
        # revealed key itself plus two descendants materialize.
        registry = KeyRegistry(["m/0", "m/0/1"])
        xsk = ExtendedSecretKey(17, bytes(32))
        entry = registry.materialize(GROUP, xsk, height=50)
        assert len(entry.materialized_keys) == 3
        expected = {derive(GROUP, xsk, path(p)).serialize(GROUP) for p in ("m", "m/0", "m/0/1")}
        assert entry.materialized_keys == frozenset(expected)

    def test_declared_paths_extend_the_closure(self):
        registry = KeyRegistry(["m/0"])
        xsk = ExtendedSecretKey(17, bytes(32))
        digest = registry.key_digest(GROUP, xsk)
        registry.declared[digest] = [path("m/5h/1")]
        entry = registry.materialize(GROUP, xsk, height=9)
        # closure: m, m/0, m/5h, m/5h/1
        assert len(entry.materialized_keys) == 4

    def test_ban_height_for_materialized_members(self):
        registry = KeyRegistry(["m/0"])
        xsk = ExtendedSecretKey(23, bytes(32))
        registry.materialize(GROUP, xsk, height=77)
        child = derive(GROUP, xsk, path("m/0"))
        assert registry.ban_height(GROUP, child) == 77
        assert registry.ban_height(GROUP, xsk) == 77
        stranger = ExtendedSecretKey(99, bytes(32))
        assert registry.ban_height(GROUP, stranger) is None

    def test_materialize_idempotent(self):
        registry = KeyRegistry(["m/0"])
        xsk = ExtendedSecretKey(23, bytes(32))
        assert registry.materialize(GROUP, xsk, 5) is not None
        assert registry.materialize(GROUP, xsk, 9) is None
        assert registry.ban_height(GROUP, xsk) == 5


class TestSerialization:
    def test_transaction_roundtrip(self):
        tx = Transaction(
            TxKind.TRANSFER,
            (TxInput((b"\xaa" * 32, 3)),),
            (TxOutput(pk_hash_address(b"\xbb"), 77, wait_override=5),),
            b"payload",
        )
        assert Transaction.deserialize(tx.serialize()) == tx

    def test_block_roundtrip(self):
        coinbase = Transaction(TxKind.COINBASE, outputs=(TxOutput(post_quantum_address(b"k"), 50),))
        block = Block(3, b"\x01" * 32, "m0", post_quantum_address(b"k"), (), (b"\x02" * 33,), coinbase)
        assert Block.deserialize(block.serialize()) == block

    def test_slotted_records_pickle_round_trip(self):
        # The records have slots and no instance dict; the benchmark pickles
        # blocks between processes.
        spend = Transaction(
            TxKind.TRANSFER,
            (TxInput((b"\xaa" * 32, 3), Witness(WitnessKind.PRE_QUANTUM, b"pk", b"sig")), TxInput((b"\xab" * 32, 0))),
            (TxOutput(pk_hash_address(b"\xbb"), 77, wait_override=5),),
            b"payload",
        )
        coinbase = Transaction(TxKind.COINBASE, outputs=(TxOutput(post_quantum_address(b"k"), 50),))
        block = Block(3, b"\x01" * 32, "m0", post_quantum_address(b"k"), (spend,), (b"\x02" * 33,), coinbase)
        utxo = Utxo((b"\xaa" * 32, 1), 9, pk_hash_address(b"\xbb"), 4, coinbase=True, wait_override=7)
        for record in (block, utxo):
            assert not hasattr(record, "__dict__")
            assert pickle.loads(pickle.dumps(record)) == record

    def test_signed_gives_each_input_its_signers_witness(self):
        tx = Transaction(
            TxKind.TRANSFER,
            (TxInput((b"\xaa" * 32, 0)), TxInput((b"\xaa" * 32, 1))),
            (TxOutput(post_quantum_address(b"k"), 9),),
            b"payload",
        )
        signed = tx.signed(
            lambda h: Witness(WitnessKind.PRE_QUANTUM, b"first", h),
            lambda h: Witness(WitnessKind.POST_QUANTUM, b"second", h),
        )
        assert signed.sighash() == tx.sighash()
        assert [i.witness for i in signed.inputs] == [
            Witness(WitnessKind.PRE_QUANTUM, b"first", tx.sighash()),
            Witness(WitnessKind.POST_QUANTUM, b"second", tx.sighash()),
        ]
        assert [i.outpoint for i in signed.inputs] == [i.outpoint for i in tx.inputs]
        assert (signed.kind, signed.outputs, signed.payload) == (tx.kind, tx.outputs, tx.payload)

    def test_signed_needs_one_signer_per_input(self):
        tx = Transaction(TxKind.TRANSFER, (TxInput((b"\xaa" * 32, 0)),))
        with pytest.raises(ValueError, match="2 signers for 1 inputs"):
            tx.signed(lambda h: Witness(WitnessKind.NONE), lambda h: Witness(WitnessKind.NONE))
        with pytest.raises(ValueError, match="0 signers for 1 inputs"):
            tx.signed()

    def test_txid_changes_with_content(self):
        a = Transaction(TxKind.TRANSFER, payload=b"x")
        b = Transaction(TxKind.TRANSFER, payload=b"y")
        assert a.txid() != b.txid()

    def test_utxo_wait_floor(self):
        def utxo(wait_override):
            return Utxo((bytes(32), 0), 5, post_quantum_address(b"k"), 0, wait_override=wait_override)

        assert Params().output_wait(utxo(0)) == 100
        assert Params().output_wait(utxo(7)) == 7
        assert Params(wait_floor=5).output_wait(utxo(3)) == 5
