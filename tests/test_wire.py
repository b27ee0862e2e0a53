"""The wire format, byte for byte: one object of each wire kind pinned to
its encoded bytes and hashes, and the decoders under byte mutation."""

import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import Harness
from qcspend.consensus import verify_snapshot
from qcspend.encoding import DecodeError, enc_bytes
from qcspend.fawkescoin import parse_commit_payload
from qcspend.hdwallet import DerivationPath
from qcspend.ledger import (
    Address,
    AddrKind,
    Block,
    Transaction,
    TxInput,
    TxKind,
    TxOutput,
    Utxo,
    Witness,
    WitnessKind,
)
from qcspend.lifted_fawkescoin import parse_record_payload, record_payload
from qcspend.lifting import deserialize_lifted, serialize_lifted
from qcspend.rules import RuleViolation
from qcspend.scenarios import run_scenario

DATA = Path(__file__).parent / "data"


def blob(label: str, n: int) -> bytes:
    return hashlib.sha512(label.encode()).digest()[:n]


ADDRESSES = {kind: Address(kind, blob("addr" + kind.name, 33 if kind is AddrKind.PLAIN_PK else 32)) for kind in AddrKind}
WITNESSES = {
    kind: Witness(kind) if kind is WitnessKind.NONE else Witness(kind, blob("pk" + kind.name, 33), blob("sig" + kind.name, 70))
    for kind in WitnessKind
}


def transaction(kind: TxKind) -> Transaction:
    """One input per witness kind and one output per address kind, with
    values and waits at the edges of their widths."""
    inputs = tuple(TxInput((blob(f"txid{kind.name}{i}", 32), i * 1000), w) for i, w in enumerate(WITNESSES.values()))
    values = (0, 2**64 - 1, 12_345 + kind.value)
    waits = (0, 7, 2**32 - 1)
    outputs = tuple(TxOutput(a, v, w) for a, v, w in zip(ADDRESSES.values(), values, waits))
    return Transaction(kind, inputs, outputs, blob("payload" + kind.name, kind.value * 3))


BLOCK = Block(
    height=2**40 + 3,
    parent=blob("parent", 32),
    miner_id="miner-é",
    miner_address=ADDRESSES[AddrKind.POST_QUANTUM],
    transactions=(transaction(TxKind.TRANSFER), transaction(TxKind.LFC_CLAIM)),
    samaritan_reports=(blob("report0", 33), blob("report1", 33)),
    coinbase=transaction(TxKind.COINBASE),
)
UTXOS = {
    "utxo-coinbase": Utxo((blob("cb", 32), 0), 50, ADDRESSES[AddrKind.POST_QUANTUM], 9, coinbase=True),
    "utxo-wait": Utxo((blob("spend", 32), 2), 2**64 - 1, ADDRESSES[AddrKind.PK_HASH], 2**64 - 1, wait_override=2**32 - 1),
}


def wire_records() -> dict[str, str]:
    """Name -> hex of every pinned encoding and hash."""
    out = {}
    for kind, address in ADDRESSES.items():
        out[f"address-{kind.name}"] = address.serialize()
    for kind, witness in WITNESSES.items():
        out[f"witness-{kind.name}"] = witness.serialize()
    tx = transaction(TxKind.TRANSFER)
    out["input"] = tx.inputs[1].serialize()
    out["output"] = tx.outputs[1].serialize()
    for kind in TxKind:
        tx = transaction(kind)
        out[f"tx-{kind.name}"] = tx.serialize()
        out[f"txid-{kind.name}"] = tx.txid()
        out[f"sighash-{kind.name}"] = tx.sighash()
    out["block"] = BLOCK.serialize()
    out["block-hash"] = BLOCK.block_hash()
    for name, utxo in UTXOS.items():
        out[name] = utxo.serialize()
        out[name + "-hash"] = utxo.utxo_hash()
    out["path"] = DerivationPath.parse("m/0h/1/2147483647h/4294967295").serialize()
    return {name: data.hex() for name, data in out.items()}


def test_wire_bytes_match_golden():
    golden = dict(line.split() for line in (DATA / "wire_bytes.golden").read_text().splitlines())
    assert wire_records() == golden


@pytest.mark.parametrize(
    "encode, message",
    [
        (lambda: TxOutput(ADDRESSES[AddrKind.PK_HASH], 2**64).serialize(), "u64 out of range: 18446744073709551616"),
        (lambda: TxOutput(ADDRESSES[AddrKind.PK_HASH], 1, -1).serialize(), "u32 out of range: -1"),
        (lambda: TxInput((bytes(32), 2**32)).serialize(), "u32 out of range: 4294967296"),
        (lambda: Transaction(TxKind.TRANSFER, (TxInput((bytes(32), -1)),)).sighash(), "u32 out of range: -1"),
        (lambda: Utxo((bytes(32), 0), 2**64, ADDRESSES[AddrKind.PK_HASH], 0).utxo_hash(), "u64 out of range: 18446744073709551616"),
        (lambda: Utxo((bytes(32), 0), 1, ADDRESSES[AddrKind.PK_HASH], -1).serialize(), "u64 out of range: -1"),
        (lambda: replace(BLOCK, height=-1).block_hash(), "u64 out of range: -1"),
    ],
)
def test_out_of_range_integers_raise_decode_error(encode, message):
    with pytest.raises(DecodeError, match=f"^{message}$"):
        encode()


def test_golden_bytes_decode_to_their_objects():
    golden = dict(line.split() for line in (DATA / "wire_bytes.golden").read_text().splitlines())
    for kind in TxKind:
        assert Transaction.deserialize(bytes.fromhex(golden[f"tx-{kind.name}"])) == transaction(kind)
    assert Block.deserialize(bytes.fromhex(golden["block"])) == BLOCK
    path = DerivationPath.parse("m/0h/1/2147483647h/4294967295")
    assert DerivationPath.deserialize(bytes.fromhex(golden["path"])) == path


# -- decoder fuzzing ------------------------------------------------------------


def tag_offsets(tx: Transaction) -> list[int]:
    """Where the enum tags of `tx`'s encoding sit: its kind, each input's
    witness kind and each output's address kind."""
    offsets, pos = [0], 5
    for i in tx.inputs:
        pos += len(i.serialize()) - len(i.witness.serialize())
        offsets.append(pos)
        pos += len(i.witness.serialize())
    pos += 4
    for o in tx.outputs:
        offsets.append(pos)
        pos += len(o.serialize())
    return offsets


def mutants(data: bytes, tags: list[int]):
    """Every flip of one byte under three masks, every truncation, a few
    extensions, and every value at each tag offset."""
    for pos in range(len(data)):
        for mask in (0x01, 0x80, 0xFF):
            yield data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1 :]
    for n in range(len(data)):
        yield data[:n]
    for tail in (b"\x00", b"\xff" * 4, data[:9]):
        yield data + tail
    for pos in tags:
        for value in range(256):
            yield data[:pos] + bytes([value]) + data[pos + 1 :]


def check_decoder(decode, data: bytes, tags: list[int]) -> int:
    """Decode every mutant of `data`: it may fail only with DecodeError, and
    what decodes must encode back to the mutant.  Returns the number of
    mutants that decoded."""
    decoded = 0
    for mutant in mutants(data, tags):
        try:
            obj = decode(mutant)
        except DecodeError:
            continue
        assert obj.serialize() == mutant
        decoded += 1
    return decoded


@pytest.fixture(scope="module")
def snapshot_blocks():
    """The blocks of a bundled-scenario snapshot that carry more than a
    coinbase, parsed back from the snapshot's own lines, and genesis."""
    lines = run_scenario("salvage-permissive").snapshot().splitlines()
    blocks = [bytes.fromhex(line[len("block ") :]) for line in lines if line.startswith("block ")]
    return [data for i, data in enumerate(blocks) if i == 0 or Block.deserialize(data).transactions]


def test_transaction_decoder_fuzz(snapshot_blocks):
    txs = [tx for data in snapshot_blocks for tx in Block.deserialize(data).transactions]
    kinds = {tx.kind for tx in txs}
    witnesses = {i.witness.kind for tx in txs for i in tx.inputs}
    assert len(kinds) >= 3 and witnesses == set(WitnessKind)
    decoded = sum(check_decoder(Transaction.deserialize, tx.serialize(), tag_offsets(tx)) for tx in txs)
    assert decoded > len(txs)  # some mutants are valid transactions of another shape


def test_block_decoder_fuzz(snapshot_blocks):
    for data in snapshot_blocks:
        block = Block.deserialize(data)
        miner_tag = 8 + 4 + len(block.parent) + 4 + len(block.miner_id.encode())
        check_decoder(Block.deserialize, data, [miner_tag])


def test_payload_hashes_must_be_32_bytes():
    with pytest.raises(DecodeError, match="^commitment is a 32-byte hash$"):
        parse_commit_payload(enc_bytes(bytes(31)))
    with pytest.raises(DecodeError, match="^record carries two 32-byte hashes$"):
        parse_record_payload(record_payload(bytes(32), bytes(31), 5))


def test_unknown_tags_raise_decode_error_with_the_enum_message():
    tx = transaction(TxKind.TRANSFER).serialize()
    offsets = tag_offsets(transaction(TxKind.TRANSFER))
    cases = [(offsets[0], "TxKind"), (offsets[1], "WitnessKind"), (offsets[-1], "AddrKind")]
    for pos, enum_name in cases:
        with pytest.raises(DecodeError, match=f"^200 is not a valid {enum_name}$"):
            Transaction.deserialize(tx[:pos] + b"\xc8" + tx[pos + 1 :])


def test_lifted_signature_decoder_fuzz():
    h = Harness()
    h.build()
    wallet = h.wallet("alice")
    p = DerivationPath.parse("m/0h/0/1")
    message = b"fuzz" * 8
    sigmas = [wallet.keylift_proof(h.chain, wallet.derived_sk(p), message), wallet.seedlift_proof(h.chain, p, message)]
    for data in sigmas:
        decoded = 0
        for mutant in mutants(data, [0]):
            try:
                sig = deserialize_lifted(h.group, mutant)
            except DecodeError:
                continue
            assert serialize_lifted(h.group, sig) == mutant
            decoded += 1
        assert decoded


def snapshot_mutants(text: str, rng: random.Random, flips: int):
    """Characters replaced at `flips` positions drawn by `rng`, each line
    dropped, doubled or cut in half, and a few lines appended."""
    for pos in rng.sample(range(len(text)), flips):
        for ch in "0f g\n":
            if ch != text[pos]:
                yield text[:pos] + ch + text[pos + 1 :]
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        yield "".join(lines[:i] + lines[i + 1 :])
        yield "".join(lines[: i + 1] + lines[i:])
        yield "".join(lines[:i]) + line[: len(line) // 2]
    for tail in ("block 00\n", "digest " + "0" * 128 + "\n", "config {}\n", "\x00"):
        yield text + tail


def test_snapshot_verifier_fuzz():
    # front-runner-direct is the smallest bundled snapshot (24 lines), so a
    # full replay of a mutant takes ~2 ms.
    text = run_scenario("front-runner-direct").snapshot()
    digest = verify_snapshot(text).state_digest()
    rejected = accepted = 0
    for mutant in snapshot_mutants(text, random.Random(20261019), 500):
        try:
            chain = verify_snapshot(mutant)
        except RuleViolation:
            rejected += 1
            continue
        assert chain.state_digest() == digest
        accepted += 1
    assert rejected > 10 * accepted
