import hashlib
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path
from qcspend import ledger
from qcspend.groups import pk_ec, toy_group
from qcspend.hdwallet import DerivationPath, DerivationStep, ExtendedSecretKey, derive
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

U32S = st.integers(0, 2**32 - 1)
U64S = st.integers(0, 2**64 - 1)
SHORT = st.binary(max_size=40)
ADDRESSES = st.sampled_from(AddrKind).flatmap(
    lambda kind: st.builds(
        Address, st.just(kind), SHORT if kind is AddrKind.PLAIN_PK else st.binary(min_size=32, max_size=32)
    )
)
WITNESSES = st.builds(Witness, st.sampled_from(WitnessKind), SHORT, SHORT)
TRANSACTIONS = st.builds(
    Transaction,
    st.sampled_from(TxKind),
    st.lists(st.builds(TxInput, st.tuples(SHORT, U32S), WITNESSES), max_size=3).map(tuple),
    st.lists(st.builds(TxOutput, ADDRESSES, U64S, U32S), max_size=3).map(tuple),
    SHORT,
)
BLOCKS = st.builds(
    Block,
    U64S,
    SHORT,
    st.text(max_size=8),
    ADDRESSES,
    st.lists(TRANSACTIONS, max_size=3).map(tuple),
    st.lists(SHORT, max_size=3).map(tuple),
    TRANSACTIONS,
)


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
        registry = KeyRegistry(Params(regular_paths=("m/0", "m/0/1")))
        xsk = ExtendedSecretKey(17, bytes(32))
        entry = registry.materialize(GROUP, xsk, height=50)
        assert len(entry.materialized_keys) == 3
        expected = {derive(GROUP, xsk, path(p)).serialize(GROUP) for p in ("m", "m/0", "m/0/1")}
        assert entry.materialized_keys == frozenset(expected)

    def test_declared_paths_extend_the_closure(self):
        registry = KeyRegistry(Params(regular_paths=("m/0",)))
        xsk = ExtendedSecretKey(17, bytes(32))
        digest = registry.key_digest(GROUP, xsk)
        registry.declared[digest] = [path("m/5h/1")]
        entry = registry.materialize(GROUP, xsk, height=9)
        # closure: m, m/0, m/5h, m/5h/1
        assert len(entry.materialized_keys) == 4

    def test_ban_height_for_materialized_members(self):
        registry = KeyRegistry(Params(regular_paths=("m/0",)))
        xsk = ExtendedSecretKey(23, bytes(32))
        registry.materialize(GROUP, xsk, height=77)
        child = derive(GROUP, xsk, path("m/0"))
        assert registry.ban_height(GROUP, child) == 77
        assert registry.ban_height(GROUP, xsk) == 77
        stranger = ExtendedSecretKey(99, bytes(32))
        assert registry.ban_height(GROUP, stranger) is None

    def test_materialize_idempotent(self):
        registry = KeyRegistry(Params(regular_paths=("m/0",)))
        xsk = ExtendedSecretKey(23, bytes(32))
        assert registry.materialize(GROUP, xsk, 5) is not None
        assert registry.materialize(GROUP, xsk, 9) is None
        assert registry.ban_height(GROUP, xsk) == 5

    step_lists = st.lists(st.builds(DerivationStep, index=st.integers(0, 2), hardened=st.booleans()), max_size=4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(regular=st.lists(step_lists, max_size=5), declared=st.lists(step_lists, max_size=3), sk=st.integers(0, 100))
    def test_materialize_derives_each_prefix_once_from_its_parent(self, regular, declared, sk):
        # K_xsk is derive(xsk, P') for every prefix P' of a regular or a
        # declared path, and each non-empty prefix costs one child step
        # from its parent prefix's key, each key one public key.
        registry = KeyRegistry(Params(regular_paths=tuple(str(DerivationPath(tuple(s))) for s in regular)))
        xsk = ExtendedSecretKey(sk, hashlib.sha512(b"xsk %d" % sk).digest()[:32])
        registry.declared[registry.key_digest(GROUP, xsk)] = [DerivationPath(tuple(s)) for s in declared]
        prefixes = {tuple(s[:n]) for s in regular + declared for n in range(len(s) + 1)} | {()}
        expected = [derive(GROUP, xsk, DerivationPath(p)) for p in prefixes]
        steps, pk_sks = [], []
        real_child, real_pk_ec = ledger.child, ledger.pk_ec
        with mock.patch.object(ledger, "child", lambda g, parent, step, pk: steps.append(step) or real_child(g, parent, step, pk)), \
                mock.patch.object(ledger, "pk_ec", lambda g, sk: pk_sks.append(sk) or real_pk_ec(g, sk)):
            entry = registry.materialize(GROUP, xsk, 1)
        assert entry.materialized_keys == {key.serialize(GROUP) for key in expected}
        assert entry.materialized_pks == {pk_ec(GROUP, key.sk).encode() for key in expected}
        assert len(steps) == len(prefixes) - 1
        assert len(pk_sks) == len(prefixes)

    def test_regular_paths_are_parsed_once_per_params(self, monkeypatch):
        params = Params()
        parsed = []
        real_parse = DerivationPath.parse
        monkeypatch.setattr(DerivationPath, "parse", staticmethod(lambda text: parsed.append(text) or real_parse(text)))
        registries = [KeyRegistry(params), KeyRegistry(params)]
        assert parsed == []
        for i, registry in enumerate(registries):
            registry.materialize(GROUP, ExtendedSecretKey(17 + i, bytes(32)), 5)
            registry.materialize(GROUP, ExtendedSecretKey(30 + i, bytes(32)), 6)
        assert parsed == list(params.regular_paths)
        assert params == Params()  # the parsed paths are no field


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
        # The seven wire records are NamedTuples: immutable, with no instance
        # dict, and the benchmark pickles blocks between processes.
        witness = Witness(WitnessKind.PRE_QUANTUM, b"pk", b"sig")
        txin = TxInput((b"\xaa" * 32, 3), witness)
        txout = TxOutput(pk_hash_address(b"\xbb"), 77, wait_override=5)
        spend = Transaction(TxKind.TRANSFER, (txin, TxInput((b"\xab" * 32, 0))), (txout,), b"payload")
        coinbase = Transaction(TxKind.COINBASE, outputs=(TxOutput(post_quantum_address(b"k"), 50),))
        block = Block(3, b"\x01" * 32, "m0", post_quantum_address(b"k"), (spend,), (b"\x02" * 33,), coinbase)
        utxo = Utxo((b"\xaa" * 32, 1), 9, pk_hash_address(b"\xbb"), 4, coinbase=True, wait_override=7)
        records = (txout.address, utxo, witness, txin, txout, spend, block)
        for record in records:
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            assert not hasattr(record, "__dict__")
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is type(record)

    def test_address_and_utxo_check_their_fields(self):
        with pytest.raises(ValueError, match="hash addresses are 32 bytes"):
            Address(AddrKind.PK_HASH, bytes(31))
        with pytest.raises(ValueError, match="negative value"):
            Utxo((bytes(32), 0), -1, pk_hash_address(b"pk"), 0)
        # `_replace` builds through the same check.
        utxo = Utxo((bytes(32), 0), 1, pk_hash_address(b"pk"), 0)
        with pytest.raises(ValueError, match="negative value"):
            utxo._replace(value=-1)
        with pytest.raises(ValueError, match="hash addresses are 32 bytes"):
            utxo.address._replace(data=bytes(31))
        assert utxo._replace(value=2) == Utxo((bytes(32), 0), 2, pk_hash_address(b"pk"), 0)

    # 80 derandomized blocks hold every tx, witness and address kind.
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(BLOCKS)
    def test_records_round_trip_through_bytes_and_pickle(self, block):
        for record in (block, *block.transactions, block.coinbase):
            encoded = record.serialize()
            decoded = type(record).deserialize(encoded)
            assert decoded == record and decoded.serialize() == encoded
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
