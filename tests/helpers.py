"""Shared fixtures for driving a Chain by hand in unit tests."""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import is_dataclass
from functools import partial

from qcspend.agents import Wallet
from qcspend.consensus import Chain, ChainConfig, GenesisGrant
from qcspend.encoding import enc_u64
from qcspend.fawkescoin import RevealMode, RevealPayload, commit_payload
from qcspend.groups import address_hash, pk_ec, toy_group
from qcspend.hdwallet import DerivationPath
from qcspend.ledger import NO_WITNESS, Address, Block, Transaction, TxInput, TxKind, TxOutput, pk_hash_address
from qcspend.lifting import seedlift_owf
from qcspend.params import Params

KDF_ITERS = 8

# A derivation path from its text, as tests spell one.
path = DerivationPath.parse

# Chain attributes `same_state` leaves out: the undo data, and the builder's
# log of skipped entries, which is not chain state.
NOT_STATE = {"_journal", "_undo", "violations"}


def _by_value(x):
    """`x` in a form that compares by value: dicts as plain dicts (so a
    Counter's zero entries count), lists item by item, functions by name,
    and objects that define no equality of their own by their attributes."""
    if isinstance(x, dict):
        return {k: _by_value(v) for k, v in x.items()}
    if hasattr(x, "_fields"):  # a NamedTuple record, which compares by value
        return x
    if isinstance(x, (list, tuple)):
        return [_by_value(v) for v in x]
    if callable(x) and hasattr(x, "__qualname__"):
        return x.__qualname__
    if hasattr(x, "__dict__") and not is_dataclass(x) and type(x).__eq__ is object.__eq__:
        return (type(x).__name__, _by_value(vars(x)))
    return x


def same_state(a, b) -> bool:
    """Do two chains hold equal state in every attribute, the indexes that
    `state_digest` skips included (UTXO hash index, locks, open challenges,
    the leak tracker's address index, the registry's key index, the
    FawkesCoin commitments)?  Undo data and violations are left out."""
    names = (set(vars(a)) | set(vars(b))) - NOT_STATE
    return all(_by_value(getattr(a, n, None)) == _by_value(getattr(b, n, None)) for n in names)


def differing_in(block: Block, field: str, address: Address) -> Block:
    """`block` with one field that a replay recomputes changed: its first
    coinbase output's `value`, or its `address` (to `address`), the coinbase
    `payload`, or the samaritan `reports` (each stored twice; selection
    keeps one)."""
    coinbase = block.coinbase
    first, rest = coinbase.outputs[0], coinbase.outputs[1:]
    if field == "value":
        coinbase = coinbase._replace(outputs=(first._replace(value=first.value + 1),) + rest)
    elif field == "address":
        coinbase = coinbase._replace(outputs=(first._replace(address=address),) + rest)
    elif field == "payload":
        coinbase = coinbase._replace(payload=enc_u64(block.height + 1))
    else:
        assert field == "reports" and block.samaritan_reports
        return block._replace(samaritan_reports=block.samaritan_reports * 2)
    return block._replace(coinbase=coinbase)


class FlatBackend:
    """A backend whose proof is one flat blob with no length prefix: a
    64-byte binding hash, then the secret.  As insecure as the transparent
    backend; only its proof layout differs, which no code outside the
    backend may read."""

    def __init__(self, owf):
        self._owf = owf

    def sign(self, secret: bytes, msg: bytes) -> bytes:
        return self._binding(secret, msg) + secret

    def verify(self, public: bytes, msg: bytes, proof: bytes) -> bool:
        binding, secret = proof[:64], proof[64:]
        return self._owf(secret) == public and binding == self._binding(secret, msg)

    @staticmethod
    def _binding(secret: bytes, msg: bytes) -> bytes:
        return hashlib.sha512(b"flat-bind" + len(msg).to_bytes(4, "big") + msg + secret).digest()


def flat_backends(group) -> tuple[FlatBackend, FlatBackend]:
    """The (key-lifting, seed-lifting) pair of `FlatBackend`s over `group`."""
    return FlatBackend(address_hash), FlatBackend(seedlift_owf(group))


@contextmanager
def encodings_of(tx: Transaction):
    """A list that gains an entry each time a transaction equal to `tx` is
    encoded whole (`Transaction.serialize`, which its txid and its block's
    bytes read; its sighash is encoded apart), until the block ends."""
    seen = []
    real = Transaction.serialize

    def spy(self):
        if self == tx:
            seen.append(self)
        return real(self)

    Transaction.serialize = spy
    try:
        yield seen
    finally:
        Transaction.serialize = real


class Harness:
    """A chain plus named wallets and grants, in-era from genesis by
    default (canary pre-killed, zero countdown)."""

    def __init__(self, q: int = 8191, killed_at=0, seed: int = 7, **overrides):
        overrides.setdefault("era_countdown", 0)
        self.params = Params().with_overrides(**overrides)
        self.q = q
        self.seed = seed
        self.group = toy_group(q)
        self._wallets: dict[str, Wallet] = {}
        self._grants: list[tuple[str, GenesisGrant]] = []
        self._killed_at = killed_at
        self.chain: Chain | None = None
        self.outpoints: dict[str, tuple[bytes, int]] = {}

    def wallet(self, name: str) -> Wallet:
        if name not in self._wallets:
            self._wallets[name] = Wallet(self.group, name, self.seed, KDF_ITERS)
        return self._wallets[name]

    def grant(self, label: str, address: Address, value: int, wait: int = 0) -> None:
        assert self.chain is None, "grant before build()"
        self._grants.append((label, GenesisGrant(address, value, wait)))

    def grant_hashed(self, label: str, owner: str, path: str, value: int, wait: int = 0) -> None:
        pk = self.wallet(owner).derived_pk(DerivationPath.parse(path))
        self.grant(label, pk_hash_address(pk), value, wait)

    def grant_pq(self, label: str, owner: str, value: int) -> None:
        self.grant(label, self.wallet(owner).pq_address(), value)

    def build(self) -> Chain:
        canary_group = toy_group(8191)
        canary_pk = pk_ec(canary_group, 4242).encode()
        self.config = ChainConfig(
            params=self.params,
            group_q=self.q,
            canary_q=8191,
            canary_pk=canary_pk,
            canary_nonce=b"nonce" * 4,
            canary_killed_at=self._killed_at,
            grants=tuple(g for _, g in self._grants),
        )
        self.chain = self.config.build()
        genesis_txid = self.chain.blocks[0].coinbase.txid()
        for i, (label, _) in enumerate(self._grants):
            self.outpoints[label] = (genesis_txid, i)
        return self.chain

    # -- block driving -----------------------------------------------------

    def mine(self, n: int = 1, miner: str = "m0") -> None:
        for _ in range(n):
            self.chain.begin_block(miner, self.wallet(miner).pq_address())
            self.chain.end_block()

    def mine_to(self, height: int, miner: str = "m0") -> None:
        while self.chain.height < height:
            self.mine(miner=miner)

    def mine_with(self, txs, reports=(), miner: str = "m0"):
        self.chain.begin_block(miner, self.wallet(miner).pq_address())
        for tx in txs:
            self.chain.add_tx(tx)
        return self.chain.end_block(reports)

    def pq_outpoint(self, owner: str):
        """The owner's smallest live post-quantum output (so deposits,
        which the fixtures make larger, are left alone)."""
        address = self.wallet(owner).pq_address().serialize()
        live = [
            u
            for u in self.chain.utxos.values()
            if u.address.serialize() == address and not u.coinbase and u.outpoint not in self.chain.lfc_locks
        ]
        assert live, f"{owner} has no post-quantum output"
        return min(live, key=lambda u: (u.value, u.created_height, u.outpoint)).outpoint

    # -- transaction builders ---------------------------------------------------

    def signed(self, kind, inputs_with_signers, outputs, payload=b"") -> Transaction:
        """inputs_with_signers: list of (outpoint, signer) where signer is
        ("pre", wallet, sk), ("pq", wallet), or None."""

        def sign(signer):
            if signer is None:
                return lambda _: NO_WITNESS
            if signer[0] == "pre":
                return partial(signer[1].witness_pre, signer[2])
            return signer[1].witness_pq

        tx = Transaction(kind, tuple(TxInput(op) for op, _ in inputs_with_signers), tuple(outputs), payload)
        return tx.signed(*(sign(signer) for _, signer in inputs_with_signers))

    def fc_commit_tx(self, owner: str, committed_hash: bytes, fee: int = 0) -> Transaction:
        wallet = self.wallet(owner)
        op = self.pq_outpoint(owner)
        value = self.chain.utxos[op].value
        outputs = [TxOutput(wallet.pq_address(), value - fee)] if value > fee else []
        return self.signed(TxKind.FC_COMMIT, [(op, ("pq", wallet))], outputs, commit_payload(committed_hash))

    def fc_reveal_hashed(self, owner: str, label: str, path: str, fee: int = 0, dest: Address | None = None) -> Transaction:
        wallet = self.wallet(owner)
        op = self.outpoints[label]
        utxo = self.chain.utxos[op]
        sk = wallet.derived_sk(DerivationPath.parse(path))
        payload = RevealPayload(RevealMode.HASHED).serialize(self.group)
        outputs = [TxOutput(dest or wallet.pq_address(), utxo.value - fee)]
        return self.signed(TxKind.FC_REVEAL, [(op, ("pre", wallet, sk))], outputs, payload)

    def fc_flow_hashed(self, owner: str, label: str, path: str, fee: int = 0, commit_fee: int = 0):
        """Commit now, mine out the wait, return the ready reveal tx."""
        reveal = self.fc_reveal_hashed(owner, label, path, fee)
        self.mine_with([self.fc_commit_tx(owner, reveal.txid(), commit_fee)])
        wait = self.params.output_wait(self.chain.utxos[self.outpoints[label]])
        self.mine(wait - 1)
        return reveal
