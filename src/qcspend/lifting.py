"""Signature lifting: an argument-of-knowledge backend interface, the
key-lifting and seed-lifting constructions over it, and the EUF-CMA /
EUF-LCMA game harnesses.

A lifting replaces the sign/verify pair of an already-deployed signature
scheme while keeping its keys.  Both constructions here ride on a backend
that proves knowledge of a preimage of a one-way function:

* key-lifting: the lifted secret is the pre-quantum public key itself and
  the lifted public key is its 32-byte hash (the address).  Works only
  while the public key has not leaked.
* seed-lifting: the lifted secret is the next-to-last state of the seed
  KDF chain; one more hash application yields the master extended key.  A
  signature carries (proof, msk, path) and verifies only if the path
  derives the exact public key being spent, with the path bound inside
  the signed message so it cannot be swapped or truncated.

The only bundled backend is `TransparentBackend`, which is deliberately
insecure: its "proof" simply reveals the preimage plus a binding hash, so
one seed-lifted proof hands out the lifting secret of every key of its
wallet (`seedlift_harvest_adversary`).  That is enough to execute every
protocol rule at desk scale.  A zero-knowledge argument-of-knowledge
system would slot in behind the same two-method interface, in place of
the transparent pair that `lifted_backends` returns.

Serialized signature layout (transparent-backend proof shape): one tag
byte (1 = key-lifted, 2 = seed-lifted), then length-prefixed proof fields,
and for seed-lifted signatures the master key and path.

Signing and verification are pure given a thread-safe backend; a game
harness instance is single-threaded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Protocol

from .encoding import DecodeError, Reader, bytes_at, enc_bytes
from .groups import (
    GroupParams,
    GroupPoint,
    PreQuantumSignature,
    address_hash,
    decode_point,
    pk_ec,
    prequantum_sign,
    quantum_invert,
)
from .hdwallet import (
    DerivationPath,
    DerivationStep,
    ExtendedSecretKey,
    Seed,
    derive,
    deserialize_xsk,
    kdf,
    kdf_pq,
    kdf_pre,
    read_path,
)

KEY_LIFTED_TAG = 1
SEED_LIFTED_TAG = 2


class OwfBackend(Protocol):
    """Proof-of-preimage-knowledge backend instantiated with a one-way
    function f.  verify(f(x), m, sign(x, m)) must hold for all x, m.  The
    proof bytes are the backend's own format: verify parses them itself
    and returns False, never raises, on bytes it cannot parse."""

    def sign(self, secret: bytes, msg: bytes) -> bytes: ...

    def verify(self, public: bytes, msg: bytes, proof: bytes) -> bool: ...


class TransparentBackend:
    """Test stand-in for the argument-of-knowledge scheme.

    INSECURE BY DESIGN: the proof, enc_bytes(secret) + enc_bytes(binding),
    contains the secret in the clear, so it gives no zero knowledge.  It
    models the real construction's interface only, never its privacy.
    """

    def __init__(self, owf: Callable[[bytes], bytes]):
        self._owf = owf

    def sign(self, secret: bytes, msg: bytes) -> bytes:
        return enc_bytes(secret) + enc_bytes(self._binding(secret, msg))

    def verify(self, public: bytes, msg: bytes, proof: bytes) -> bool:
        r = Reader(proof)
        try:
            secret, binding = r.bytes_(), r.bytes_()
            r.done()
        except DecodeError:
            return False
        return self._owf(secret) == public and binding == self._binding(secret, msg)

    @staticmethod
    def revealed_secret(proof: bytes) -> bytes:
        """The leak: the preimage a transparent proof opens with."""
        return Reader(proof).bytes_()

    @staticmethod
    def _binding(secret: bytes, msg: bytes) -> bytes:
        return hashlib.sha512(b"transparent-bind" + enc_bytes(secret) + enc_bytes(msg)).digest()


def seedlift_owf(group: GroupParams) -> Callable[[bytes], bytes]:
    """The one-way step the seed-lifting proves knowledge through: one hash
    application mapping the pre-KDF state to a serialized master key."""
    return lambda x: kdf_pq(group, x).serialize(group)


def lifted_backends(group: GroupParams) -> tuple[OwfBackend, OwfBackend]:
    """The (key-lifting, seed-lifting) backends over `group`: the one place
    the backend is chosen."""
    return TransparentBackend(address_hash), TransparentBackend(seedlift_owf(group))


# -- key-lifting ---------------------------------------------------------------


@dataclass(frozen=True)
class KeyLiftedSig:
    proof: bytes

    def serialize(self) -> bytes:
        return bytes([KEY_LIFTED_TAG]) + self.proof


def keylift_sign(group: GroupParams, backend: OwfBackend, sk: int, msg: bytes) -> KeyLiftedSig:
    """Sign with the public key as the lifted secret.  Verifies against the
    32-byte address hash of the public key only."""
    pk_bytes = pk_ec(group, sk).encode()
    return KeyLiftedSig(backend.sign(pk_bytes, msg))


def keylift_verify(backend: OwfBackend, address: bytes, msg: bytes, sig: KeyLiftedSig) -> bool:
    if len(address) != 32:
        return False
    try:
        return backend.verify(address, msg, sig.proof)
    except (TypeError, AttributeError):
        return False


# -- seed-lifting ----------------------------------------------------------------


def _seedlift_message(msg: bytes, p: DerivationPath) -> bytes:
    # Length-prefixed so a truncated path can never alias message bytes.
    return enc_bytes(msg) + p.serialize()


@dataclass(frozen=True)
class SeedLiftedSig:
    proof: bytes
    msk: ExtendedSecretKey
    path: DerivationPath

    def serialize(self, group: GroupParams) -> bytes:
        return (
            bytes([SEED_LIFTED_TAG])
            + self.proof
            + enc_bytes(self.msk.serialize(group))
            + self.path.serialize()
        )


def seedlift_sign(
    group: GroupParams,
    backend: OwfBackend,
    seed: Seed,
    p: DerivationPath,
    msg: bytes,
    iterations: int = 2048,
) -> SeedLiftedSig:
    secret = kdf_pre(seed, iterations)
    msk = kdf_pq(group, secret)
    proof = backend.sign(secret, _seedlift_message(msg, p))
    return SeedLiftedSig(proof, msk, p)


def seedlift_verify(
    group: GroupParams, backend: OwfBackend, pk: GroupPoint, msg: bytes, sig: SeedLiftedSig
) -> bool:
    """Accept iff the carried path derives exactly `pk` from the carried
    master key AND the backend proof checks against that master key over
    the path-bound message.  Returns False on malformed input, never raises."""
    try:
        leaf = derive(group, sig.msk, sig.path)
        if pk_ec(group, leaf.sk).value != pk.value:
            return False
        return backend.verify(sig.msk.serialize(group), _seedlift_message(msg, sig.path), sig.proof)
    except (DecodeError, ValueError, TypeError, AttributeError):
        return False


# -- wire format -----------------------------------------------------------------


LiftedSignature = KeyLiftedSig | SeedLiftedSig


def serialize_lifted(group: GroupParams, sig: LiftedSignature) -> bytes:
    if isinstance(sig, KeyLiftedSig):
        return sig.serialize()
    return sig.serialize(group)


def _proof_at(data: bytes, pos: int) -> tuple[bytes, int]:
    # A proof is two length-prefixed fields, kept as one raw span.
    _, end = bytes_at(data, pos)
    _, end = bytes_at(data, end)
    return data[pos:end], end


def deserialize_lifted(group: GroupParams, data: bytes) -> LiftedSignature:
    r = Reader(data)
    tag = r.u8()
    proof = r.walk(_proof_at)
    if tag == KEY_LIFTED_TAG:
        r.done()
        return KeyLiftedSig(proof)
    if tag == SEED_LIFTED_TAG:
        msk = deserialize_xsk(group, r.bytes_())
        p = read_path(r)
        r.done()
        return SeedLiftedSig(proof, msk, p)
    raise DecodeError(f"unknown lifted signature tag {tag}")


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
        sk = int.from_bytes(tag, "big") % self.group.secret_key_bound
        address = address_hash(pk_ec(self.group, sk).encode())
        return sk, address

    def base_sign(self, sk: int, msg: bytes) -> tuple[PreQuantumSignature, bytes]:
        return prequantum_sign(self.group, sk, msg), pk_ec(self.group, sk).encode()

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
        return seedlift_verify(self.group, self.backend, pk, msg, sig)


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
        if seedlift_verify(group, backend, pk, target, attempt):
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
