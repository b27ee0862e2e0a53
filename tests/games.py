"""The tests' oracle for the security the paper states: the EUF-CMA /
EUF-LCMA unforgeability games over the key- and seed-lifted signatures,
with their scripted adversaries, and the watch-only derivation and the
derivation-suffix relation of HD keys.  The chain, the simulator and the
CLI call none of it.

A game scheme takes its backend from `lifted_backends` unless a test hands
it one.  `seedlift_harvest_adversary` reads the lifting secret out of one
transparent seed-lifted proof, so it wins the plain EUF-CMA game against
the bundled backend.  A game harness instance is single-threaded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from qcspend.groups import (
    GroupParams,
    GroupPoint,
    PreQuantumSignature,
    address_hash,
    decode_point,
    pk_ec,
    prequantum_sign,
    quantum_invert,
)
from qcspend.hdwallet import (
    DerivationPath,
    DerivationStep,
    ExtendedSecretKey,
    Seed,
    derive,
    kdf,
    kdf_pq,
)
from qcspend.lifting import (
    KeyLiftedSig,
    OwfBackend,
    SeedLiftedSig,
    TransparentBackend,
    _seedlift_message,
    keylift_sign,
    keylift_verify,
    lifted_backends,
    seedlift_sign,
    seedlift_verify,
)

# -- unforgeability games -----------------------------------------------------------


@dataclass(frozen=True)
class RoundResult:
    won: bool
    reason: str


@dataclass(frozen=True)
class GameResult:
    rounds: tuple[RoundResult, ...]

    @property
    def wins(self) -> int:
        return sum(1 for r in self.rounds if r.won)

    @property
    def won_all(self) -> bool:
        return self.wins == len(self.rounds)


class GameOracles:
    """What the adversary sees for one game round: the public key plus
    classical signing oracles.  Lifted queries are recorded; a forgery on
    a recorded message loses by definition.  Base-oracle access is the
    LCMA twist; without it this is the plain EUF-CMA game."""

    def __init__(self, scheme, secret, public, base_oracle: bool):
        self._scheme = scheme
        self._secret = secret
        self.public = public
        self._base = base_oracle
        self.lifted_queries: list[bytes] = []

    def base_sign(self, msg: bytes):
        if not self._base:
            raise LookupError("base oracle disabled (EUF-CMA game)")
        return self._scheme.base_sign(self._secret, msg)

    def lifted_sign(self, msg: bytes):
        self.lifted_queries.append(msg)
        return self._scheme.lifted_sign(self._secret, msg)


def euf_lcma_game(scheme, adversary, rounds: int = 1, *, base_oracle: bool = True) -> GameResult:
    """Run the unforgeability game `rounds` times with fresh keys.

    The adversary is a callable receiving GameOracles and returning a
    (message, signature) forgery attempt.  Malformed output or an
    adversary exception records a loss with the reason.
    """
    results = []
    for i in range(rounds):
        # The eight zero bytes are a fixed part of every round's key tag.
        tag = hashlib.sha512(b"euf-game" + bytes(8) + i.to_bytes(8, "big")).digest()
        secret, public = scheme.keygen(tag)
        oracles = GameOracles(scheme, secret, public, base_oracle)
        try:
            out = adversary(oracles)
            if out is None:
                results.append(RoundResult(False, "no-forgery-attempted"))
                continue
            msg, sig = out
        except Exception as exc:  # noqa: BLE001 - adversary misbehavior loses
            results.append(RoundResult(False, f"adversary-error: {exc}"))
            continue
        if not isinstance(msg, bytes):
            results.append(RoundResult(False, "malformed-output"))
        elif msg in oracles.lifted_queries:
            results.append(RoundResult(False, "message-was-queried"))
        elif scheme.lifted_verify(public, msg, sig):
            results.append(RoundResult(True, "forgery-verified"))
        else:
            results.append(RoundResult(False, "verify-rejected"))
    return GameResult(tuple(results))


class KeyLiftedScheme:
    """Key-lifting packaged for the game harness.  The base scheme is the
    deployed one with the public key attached to every signature, exactly
    the leak that makes this lifting correct but not strong."""

    def __init__(self, group: GroupParams, backend: OwfBackend | None = None):
        self.group = group
        self.backend = backend or lifted_backends(group)[0]

    def keygen(self, tag: bytes):
        sk = int.from_bytes(tag, "big") % self.group.q
        address = address_hash(pk_ec(self.group, sk).encode())
        return sk, address

    def base_sign(self, sk: int, msg: bytes) -> tuple[PreQuantumSignature, bytes]:
        pk = pk_ec(self.group, sk).encode()
        return prequantum_sign(self.group, sk, msg, pk), pk

    def lifted_sign(self, sk: int, msg: bytes) -> KeyLiftedSig:
        return keylift_sign(self.group, self.backend, sk, msg)

    def lifted_verify(self, address: bytes, msg: bytes, sig) -> bool:
        if not isinstance(sig, KeyLiftedSig):
            return False
        return keylift_verify(self.backend, address, msg, sig)


class SeedLiftedScheme:
    """Seed-lifting packaged for the game harness.  Key generation samples
    a derivation path of at most four steps from the key tag (the
    construction leaves the path distribution open; uniform is used here)."""

    def __init__(self, group: GroupParams, backend: OwfBackend | None = None, iterations: int = 64):
        self.group = group
        self.backend = backend or lifted_backends(group)[1]
        self.iterations = iterations

    def keygen(self, tag: bytes):
        seed = Seed(tag[:32], tag[32:40])
        length = tag[40] % 5
        steps = tuple(
            DerivationStep(index=tag[41 + i] % 8, hardened=bool(tag[50 + i] & 1)) for i in range(length)
        )
        p = DerivationPath(steps)
        msk = kdf(self.group, seed, self.iterations)
        pk = pk_ec(self.group, derive(self.group, msk, p).sk)
        return (seed, p), pk

    def base_sign(self, secret, msg: bytes) -> PreQuantumSignature:
        seed, p = secret
        leaf = derive(self.group, kdf(self.group, seed, self.iterations), p)
        return prequantum_sign(self.group, leaf.sk, msg)

    def lifted_sign(self, secret, msg: bytes) -> SeedLiftedSig:
        seed, p = secret
        return seedlift_sign(self.group, self.backend, seed, p, msg, self.iterations)

    def lifted_verify(self, pk: GroupPoint, msg: bytes, sig) -> bool:
        if not isinstance(sig, SeedLiftedSig):
            return False
        return seedlift_verify(self.group, self.backend, pk.encode().__eq__, msg, sig)


# -- scripted adversaries ------------------------------------------------------------


def null_adversary(oracles: GameOracles):
    return None


def replay_adversary(oracles: GameOracles):
    """Queries the lifted oracle and replays the result: loses by definition."""
    msg = b"replayed message"
    sig = oracles.lifted_sign(msg)
    return msg, sig


def keylift_lcma_adversary(group: GroupParams, backend: OwfBackend):
    """The adversary that shows key-lifting is not a strong lifting.

    One base-oracle query hands over the public key; the discrete-log
    oracle turns it into the full secret key, after which a lifted forgery
    on the same (never lifted-queried) message is mechanical.
    """

    def run(oracles: GameOracles):
        target = b"lcma target"
        _sig, pk_bytes = oracles.base_sign(target)
        sk = quantum_invert(decode_point(group, pk_bytes))
        assert pk_ec(group, sk).encode() == pk_bytes
        return target, keylift_sign(group, backend, sk, target)

    return run


def seedlift_quantum_adversary(group: GroupParams, backend: OwfBackend):
    """The same quantum playbook pointed at seed-lifting.

    Inverting the leaf public key yields the leaf scalar, but a seed-lifted
    forgery must carry a master key whose serialized form is an owf image
    the adversary can open, over a message that binds the exact path.  Both
    fabrication attempts below fail verification, so the adversary loses.
    """

    def run(oracles: GameOracles):
        target = b"lcma target"
        pk = oracles.public
        leaf_sk = quantum_invert(pk)
        # Attempt 1: pose the recovered leaf as a master key with an empty
        # path.  The derivation equation holds; the backend proof cannot,
        # because no preimage of the fabricated master key is known.
        fake_msk = ExtendedSecretKey(leaf_sk, bytes(32))
        fake_proof = backend.sign(bytes(64), _seedlift_message(target, DerivationPath()))
        attempt = SeedLiftedSig(fake_proof, fake_msk, DerivationPath())
        if seedlift_verify(group, backend, pk.encode().__eq__, target, attempt):
            return target, attempt
        # Attempt 2: reuse an honest proof for a different message; the
        # binding over (message, path) rejects it.
        honest = oracles.lifted_sign(b"some other message")
        return target, SeedLiftedSig(honest.proof, honest.msk, honest.path)

    return run


def seedlift_harvest_adversary(group: GroupParams, backend: OwfBackend):
    """Reads the lifting secret out of one honest seed-lifted proof.

    The transparent proof opens with the preimage `kdf_pre(seed)`, so one
    lifted query, and no base-oracle access, yields a proof over a fresh
    message for the same path.  It wins against the transparent backend
    (the plain EUF-CMA game); a zero-knowledge backend hides the preimage.
    """

    def run(oracles: GameOracles):
        target = b"harvest target"
        honest = oracles.lifted_sign(b"harvested message")
        secret = TransparentBackend.revealed_secret(honest.proof)
        proof = backend.sign(secret, _seedlift_message(target, honest.path))
        return target, SeedLiftedSig(proof, kdf_pq(group, secret), honest.path)

    return run


# -- watch-only derivation -------------------------------------------------------


@dataclass(frozen=True)
class ExtendedPublicKey:
    pk: GroupPoint
    chain_code: bytes

    def __post_init__(self):
        if len(self.chain_code) != 32:
            raise ValueError("chain code must be 32 bytes")


def to_xpk(group: GroupParams, xsk: ExtendedSecretKey) -> ExtendedPublicKey:
    return ExtendedPublicKey(pk_ec(group, xsk.sk), xsk.chain_code)


def public_child(group: GroupParams, parent: ExtendedPublicKey, step: DerivationStep) -> ExtendedPublicKey:
    """Watch-only derivation.  Hardened children need the secret key by
    construction, so a hardened request is an error rather than a wrong
    answer."""
    if step.hardened:
        raise ValueError("hardened derivation is impossible from a public key")
    digest = hashlib.sha512(parent.chain_code + parent.pk.encode() + step.index.to_bytes(4, "big")).digest()
    offset = pk_ec(group, group.scalar_from_hash(digest[:32]))
    return ExtendedPublicKey(offset.add(parent.pk), digest[32:])


# -- suffix relation ----------------------------------------------------------


def is_der_suffix(
    group: GroupParams,
    candidate: tuple[ExtendedSecretKey, DerivationPath],
    of: tuple[ExtendedSecretKey, DerivationPath],
) -> Optional[DerivationPath]:
    """If `candidate` = (key', P') is a derivation suffix of `of` = (key, P),
    return the witness prefix W with P = W || P' and key' = derive(key, W);
    otherwise None."""
    cand_key, cand_path = candidate
    base_key, base_path = of
    split = len(base_path.steps) - len(cand_path.steps)
    if split < 0:
        return None
    if base_path.steps[split:] != cand_path.steps:
        return None
    witness = DerivationPath(base_path.steps[:split])
    if derive(group, base_key, witness) == cand_key:
        return witness
    return None
