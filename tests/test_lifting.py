import hashlib

import pytest

from games import (
    KeyLiftedScheme,
    SeedLiftedScheme,
    euf_lcma_game,
    keylift_lcma_adversary,
    null_adversary,
    replay_adversary,
    seedlift_harvest_adversary,
    seedlift_quantum_adversary,
)
from helpers import flat_backends
from qcspend.encoding import enc_bytes
from qcspend.groups import address_hash, decode_point, pk_ec, prequantum_verify, secure_group, toy_group
from qcspend.hdwallet import ExtendedSecretKey, Seed, derive, kdf, path
from qcspend.lifting import (
    KeyLiftedSig,
    SeedLiftedSig,
    TransparentBackend,
    deserialize_lifted,
    keylift_sign,
    keylift_verify,
    lifted_backends,
    seedlift_owf,
    seedlift_sign,
    seedlift_verify,
    serialize_lifted,
)

GROUP = toy_group(101)
KEY_BACKEND, SEED_BACKEND = lifted_backends(GROUP)
KDF_ITERS = 32  # desk-scale iteration count; the chain split is what matters


def make_seed(i: int) -> Seed:
    return Seed(hashlib.sha512(b"seed%d" % i).digest()[:16], b"pw")


class TestTransparentBackend:
    def test_roundtrip(self):
        sig = KEY_BACKEND.sign(b"secret", b"msg")
        assert KEY_BACKEND.verify(address_hash(b"secret"), b"msg", sig)

    def test_wrong_public_rejected(self):
        sig = KEY_BACKEND.sign(b"secret", b"msg")
        assert not KEY_BACKEND.verify(address_hash(b"other"), b"msg", sig)

    def test_extraction_64_trials(self):
        for i in range(64):
            secret = hashlib.sha512(b"x%d" % i).digest()
            sig = KEY_BACKEND.sign(secret, b"m")
            assert TransparentBackend.revealed_secret(sig) == secret


# Each backend of the factory and of the flat-proof test pair, with the
# one-way function it proves a preimage of.
_OWFS = (address_hash, seedlift_owf(toy_group()))
BACKEND_ROWS = list(zip(lifted_backends(toy_group()) + flat_backends(toy_group()), _OWFS * 2))


@pytest.mark.parametrize("backend, owf", BACKEND_ROWS, ids=["key", "seed", "flat-key", "flat-seed"])
class TestBackendContract:
    """What every backend keeps, whatever its proof bytes: the ones
    `lifted_backends` returns, and `FlatBackend`, whose proof has no length
    prefix.  ROADMAP item 2's backend, once it takes the place of the
    transparent pair, must pass them unchanged."""

    def test_round_trip_32_secrets(self, backend, owf):
        for i in range(32):
            secret = hashlib.sha512(b"contract%d" % i).digest()
            msg = secret[:i]
            assert backend.verify(owf(secret), msg, backend.sign(secret, msg))

    def test_mangled_proof_rejected_without_raising(self, backend, owf):
        secret, msg = hashlib.sha512(b"contract").digest(), b"the message"
        proof, public = backend.sign(secret, msg), owf(secret)
        flips = [proof[:i] + bytes([proof[i] ^ 0xFF]) + proof[i + 1 :] for i in range(len(proof))]
        truncations = [proof[:i] for i in range(len(proof))]
        extensions = [proof + bytes([b]) for b in range(256)]
        for bad in flips + truncations + extensions:
            assert backend.verify(public, msg, bad) is False

    def test_proof_bound_to_its_message(self, backend, owf):
        secret, msg = hashlib.sha512(b"contract").digest(), b"the message"
        assert not backend.verify(owf(secret), msg + b"x", backend.sign(secret, msg))


class TestKeyLifting:
    def test_round_trip(self):
        sk = 21
        address = address_hash(pk_ec(GROUP, sk).encode())
        sig = keylift_sign(GROUP, KEY_BACKEND, sk, b"spend it")
        assert keylift_verify(KEY_BACKEND, address, b"spend it", sig)

    def test_wrong_address_rejected(self):
        sig = keylift_sign(GROUP, KEY_BACKEND, 21, b"spend it")
        other = address_hash(pk_ec(GROUP, 22).encode())
        assert not keylift_verify(KEY_BACKEND, other, b"spend it", sig)

    def test_extracted_secret_is_public_key(self):
        sig = keylift_sign(GROUP, KEY_BACKEND, 21, b"m")
        assert TransparentBackend.revealed_secret(sig.proof) == pk_ec(GROUP, 21).encode()

    def test_round_trip_128_random_cases(self):
        for i in range(128):
            sk = int.from_bytes(address_hash(b"case%d" % i), "big") % GROUP.q
            msg = hashlib.sha512(b"msg%d" % i).digest()[:20]
            address = address_hash(pk_ec(GROUP, sk).encode())
            assert keylift_verify(KEY_BACKEND, address, msg, keylift_sign(GROUP, KEY_BACKEND, sk, msg))

    def test_keygen_key_signs_on_the_secure_group(self):
        scheme = KeyLiftedScheme(secure_group())
        sk, address = scheme.keygen(b"\x07" * 64)
        sig, pk = scheme.base_sign(sk, b"m")
        assert address == address_hash(pk)
        assert prequantum_verify(scheme.group, decode_point(scheme.group, pk), b"m", sig)


class TestSeedLifting:
    def test_round_trip(self):
        seed, p = make_seed(1), path("m/0h/2")
        sig = seedlift_sign(GROUP, SEED_BACKEND, seed, p, b"pay", KDF_ITERS)
        pk = pk_ec(GROUP, derive(GROUP, kdf(GROUP, seed, KDF_ITERS), p).sk)
        assert seedlift_verify(GROUP, SEED_BACKEND, pk.encode().__eq__, b"pay", sig)

    def test_each_path_valid_only_for_its_own_key(self):
        seed = make_seed(2)
        paths = [path("m/0"), path("m/1"), path("m/0/1h"), path("m/2h")]
        msk = kdf(GROUP, seed, KDF_ITERS)
        sigs = [seedlift_sign(GROUP, SEED_BACKEND, seed, p, b"pay", KDF_ITERS) for p in paths]
        pks = [pk_ec(GROUP, derive(GROUP, msk, p).sk) for p in paths]
        for i, sig in enumerate(sigs):
            for j, pk in enumerate(pks):
                expected = pk.value == pks[i].value
                assert seedlift_verify(GROUP, SEED_BACKEND, pk.encode().__eq__, b"pay", sig) == expected

    def test_tampered_msk_rejected(self):
        seed, p = make_seed(3), path("m/4")
        sig = seedlift_sign(GROUP, SEED_BACKEND, seed, p, b"pay", KDF_ITERS)
        pk = pk_ec(GROUP, derive(GROUP, sig.msk, p).sk)
        tampered = SeedLiftedSig(sig.proof, ExtendedSecretKey((sig.msk.sk + 1) % GROUP.q, sig.msk.chain_code), p)
        assert not seedlift_verify(GROUP, SEED_BACKEND, pk.encode().__eq__, b"pay", tampered)

    def test_swapped_path_rejected(self):
        seed = make_seed(4)
        p, other = path("m/1/2"), path("m/9")
        sig = seedlift_sign(GROUP, SEED_BACKEND, seed, p, b"pay", KDF_ITERS)
        pk = pk_ec(GROUP, derive(GROUP, sig.msk, p).sk)
        assert not seedlift_verify(GROUP, SEED_BACKEND, pk.encode().__eq__, b"pay", SeedLiftedSig(sig.proof, sig.msk, other))

    def test_truncated_path_forgery_fails(self):
        # Honest signature for p1 || p2; forging (same proof, mid-key, p2)
        # satisfies the derivation equation but the backend binds the full
        # path inside the signed message and the original master key.
        seed, p1, p2 = make_seed(5), path("m/3h"), path("m/1")
        full = p1.concat(p2)
        sig = seedlift_sign(GROUP, SEED_BACKEND, seed, full, b"pay", KDF_ITERS)
        mid = derive(GROUP, sig.msk, p1)
        pk = pk_ec(GROUP, derive(GROUP, sig.msk, full).sk)
        assert pk_ec(GROUP, derive(GROUP, mid, p2).sk).value == pk.value  # suffix collision holds
        assert not seedlift_verify(GROUP, SEED_BACKEND, pk.encode().__eq__, b"pay", SeedLiftedSig(sig.proof, mid, p2))

    def test_malformed_input_rejected_without_raising(self):
        seed, p = make_seed(7), path("m/5")
        sig = seedlift_sign(GROUP, SEED_BACKEND, seed, p, b"pay", KDF_ITERS)
        owns = pk_ec(GROUP, derive(GROUP, sig.msk, p).sk).encode().__eq__
        assert not seedlift_verify(GROUP, SEED_BACKEND, owns, b"pay", SeedLiftedSig(sig.proof, None, p))
        key_sig = keylift_sign(GROUP, KEY_BACKEND, 21, b"pay")
        address = address_hash(pk_ec(GROUP, 21).encode())
        assert not keylift_verify(KEY_BACKEND, address[:31], b"pay", key_sig)
        assert not keylift_verify(KEY_BACKEND, address, b"pay", KeyLiftedSig(None))

    def test_round_trip_128_random_cases(self):
        for i in range(128):
            tag = hashlib.sha512(b"sl%d" % i).digest()
            scheme = SeedLiftedScheme(GROUP, SEED_BACKEND, iterations=KDF_ITERS)
            secret, pk = scheme.keygen(tag)
            msg = tag[:24]
            assert scheme.lifted_verify(pk, msg, scheme.lifted_sign(secret, msg))


def mutate_once(data: bytes, i: int) -> bytes:
    out = bytearray(data)
    out[i % len(out)] ^= 1 + (i * 37) % 255
    return bytes(out)


class TestMutationFuzz:
    def test_keylift_256_mutations_no_false_accept(self):
        sk, msg = 33, b"the exact message"
        address = address_hash(pk_ec(GROUP, sk).encode())
        sig = keylift_sign(GROUP, KEY_BACKEND, sk, msg)
        blob = serialize_lifted(GROUP, sig)
        for i in range(128):
            assert not keylift_verify(KEY_BACKEND, address, mutate_once(msg, i), sig)
        for i in range(128):
            try:
                bad = deserialize_lifted(GROUP, mutate_once(blob, i))
            except Exception:
                continue
            if not isinstance(bad, KeyLiftedSig):
                continue
            assert not keylift_verify(KEY_BACKEND, address, msg, bad)

    def test_seedlift_256_mutations_no_false_accept(self):
        seed, p, msg = make_seed(6), path("m/0h/1"), b"the exact message"
        sig = seedlift_sign(GROUP, SEED_BACKEND, seed, p, msg, KDF_ITERS)
        pk = pk_ec(GROUP, derive(GROUP, sig.msk, p).sk)
        blob = serialize_lifted(GROUP, sig)
        for i in range(128):
            assert not seedlift_verify(GROUP, SEED_BACKEND, pk.encode().__eq__, mutate_once(msg, i), sig)
        for i in range(128):
            try:
                bad = deserialize_lifted(GROUP, mutate_once(blob, i))
            except Exception:
                continue
            if not isinstance(bad, SeedLiftedSig):
                continue
            assert not seedlift_verify(GROUP, SEED_BACKEND, pk.encode().__eq__, msg, bad)


class TestUnforgeabilityGames:
    def test_replay_adversary_loses(self):
        scheme = KeyLiftedScheme(GROUP, KEY_BACKEND)
        result = euf_lcma_game(scheme, replay_adversary, rounds=3)
        assert result.wins == 0
        assert all(r.reason == "message-was-queried" for r in result.rounds)

    def test_null_adversary_loses(self):
        scheme = KeyLiftedScheme(GROUP, KEY_BACKEND)
        result = euf_lcma_game(scheme, null_adversary, rounds=3)
        assert result.wins == 0

    def test_keylift_lcma_adversary_wins(self):
        # Key-lifting is a correct lifting but NOT a strong one: the base
        # scheme's signatures carry the public key, which IS the lifted
        # secret once the dlog oracle recovers sk from it.
        scheme = KeyLiftedScheme(GROUP, KEY_BACKEND)
        adversary = keylift_lcma_adversary(GROUP, KEY_BACKEND)
        result = euf_lcma_game(scheme, adversary, rounds=8)
        assert result.won_all
        assert all(r.reason == "forgery-verified" for r in result.rounds)

    def test_keylift_adversary_needs_base_oracle(self):
        scheme = KeyLiftedScheme(GROUP, KEY_BACKEND)
        adversary = keylift_lcma_adversary(GROUP, KEY_BACKEND)
        result = euf_lcma_game(scheme, adversary, rounds=4, base_oracle=False)
        assert result.wins == 0
        assert all("adversary-error" in r.reason for r in result.rounds)

    def test_seedlift_quantum_adversary_loses_100_trials(self):
        scheme = SeedLiftedScheme(GROUP, SEED_BACKEND, iterations=KDF_ITERS)
        adversary = seedlift_quantum_adversary(GROUP, SEED_BACKEND)
        result = euf_lcma_game(scheme, adversary, rounds=100)
        assert result.wins == 0
        assert all(r.reason == "verify-rejected" for r in result.rounds)

    def test_seedlift_base_oracle_signs_but_forges_nothing(self):
        # The base oracle signs the target under the leaf key, but a base
        # signature carries no proof about the seed, so posing it as the
        # lifted one loses.
        scheme = SeedLiftedScheme(GROUP, SEED_BACKEND, iterations=KDF_ITERS)
        target, verified = b"lcma target", []

        def adversary(oracles):
            sig = oracles.base_sign(target)
            verified.append(prequantum_verify(GROUP, oracles.public, target, sig))
            return target, sig

        result = euf_lcma_game(scheme, adversary, rounds=10)
        assert verified == [True] * 10
        assert result.wins == 0 and all(r.reason == "verify-rejected" for r in result.rounds)

    def test_seedlift_harvest_adversary_wins_without_base_oracle(self):
        """Today's result, pinned: the transparent proof opens with
        kdf_pre(seed), so one lifted query forges for any message, and the
        factory's seed backend loses the plain EUF-CMA game in every round.
        ROADMAP item 2's zero-knowledge backend is what turns this to 0."""
        scheme = SeedLiftedScheme(toy_group(), iterations=16)
        adversary = seedlift_harvest_adversary(scheme.group, scheme.backend)
        result = euf_lcma_game(scheme, adversary, rounds=10, base_oracle=False)
        assert result.won_all

    def test_malformed_output_recorded(self):
        scheme = KeyLiftedScheme(GROUP, KEY_BACKEND)
        result = euf_lcma_game(scheme, lambda o: ("not-bytes", None), rounds=1)
        assert result.wins == 0
        assert result.rounds[0].reason == "malformed-output"


class TestSerialization:
    def test_keylift_roundtrip(self):
        sig = keylift_sign(GROUP, KEY_BACKEND, 5, b"m")
        assert deserialize_lifted(GROUP, serialize_lifted(GROUP, sig)) == sig

    def test_seedlift_roundtrip(self):
        sig = seedlift_sign(GROUP, SEED_BACKEND, make_seed(9), path("m/1h/0"), b"m", KDF_ITERS)
        back = deserialize_lifted(GROUP, serialize_lifted(GROUP, sig))
        assert back == sig

    def test_unknown_tag_rejected(self):
        with pytest.raises(Exception):
            deserialize_lifted(GROUP, b"\x07" + enc_bytes(b"") + enc_bytes(b""))
