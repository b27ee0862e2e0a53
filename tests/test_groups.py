import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcspend import groups
from qcspend.encoding import DecodeError
from qcspend.groups import (
    GroupError,
    GroupMode,
    GroupParams,
    PreQuantumSignature,
    decode_point,
    h512,
    jacobi,
    pk_ec,
    prequantum_sign,
    prequantum_verify,
    quantum_invert,
    secure_group,
    toy_group,
)

G101 = toy_group(101)

# Published SHA-512 digest of the empty string (FIPS 180-4 test vector).
SHA512_EMPTY = bytes.fromhex(
    "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
    "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
)


def naive_mul(group, a, b):
    """Brute-force group exponentiation oracle: repeated group operation,
    no pow()."""
    acc = 1
    for _ in range(a):
        acc = acc * group.g % group.p
    for _ in range(b):
        acc = acc * group.g % group.p
    return acc


def naive_dlog(group, point_value):
    acc = 1
    for k in range(group.q):
        if acc == point_value:
            return k
        acc = acc * group.g % group.p
    raise AssertionError("not in subgroup")


class TestPkEc:
    def test_zero_maps_to_identity(self):
        assert pk_ec(G101, 0).is_identity()
        assert pk_ec(G101, 0).encode() == G101.identity.encode()

    def test_one_maps_to_generator(self):
        assert pk_ec(G101, 1).encode() == G101.generator.encode()

    def test_wraparound_sum(self):
        # 37 + 64 = 101 = 0 mod q, so the group sum lands on the identity.
        total = pk_ec(G101, 37).add(pk_ec(G101, 64))
        assert total.encode() == pk_ec(G101, 0).encode()
        assert total.value == naive_mul(G101, 37, 64)

    def test_homomorphism_exhaustive_q101(self):
        points = [pk_ec(G101, k) for k in range(G101.q)]
        for k in range(G101.q):
            for l in range(G101.q):
                assert points[k].add(points[l]).value == points[(k + l) % G101.q].value

    def test_homomorphism_exhaustive_q257(self):
        g = toy_group(257)
        points = [pk_ec(g, k).value for k in range(g.q)]
        for k in range(g.q):
            pk = points[k]
            for l in range(g.q):
                assert pk * points[l] % g.p == points[(k + l) % g.q]

    def test_injective_and_encoding_unique(self):
        encodings = {pk_ec(G101, k).encode() for k in range(G101.q)}
        assert len(encodings) == G101.q

    def test_out_of_range_rejected(self):
        with pytest.raises(GroupError):
            pk_ec(G101, G101.q)


class TestEncodings:
    @pytest.mark.parametrize("q", [101, 257, 8191])
    def test_point_len_is_scalar_len_plus_one(self, q):
        g = toy_group(q)
        assert g.point_len == g.scalar_len + 1
        assert len(pk_ec(g, 5).encode()) == g.point_len
        assert len(g.encode_scalar(5)) == g.scalar_len

    def test_secure_group_lengths(self):
        g = secure_group()
        assert g.modulus_bits == 2048
        assert g.point_len == g.scalar_len + 1

    def test_scalar_roundtrip_exhaustive(self):
        for x in range(G101.q):
            assert G101.decode_scalar(G101.encode_scalar(x)) == x

    def test_point_roundtrip(self):
        for k in (0, 1, 50, 100):
            p = pk_ec(G101, k)
            assert decode_point(G101, p.encode()).value == p.value

    def test_vulnerable_mode_caps_order(self):
        with pytest.raises(GroupError):
            GroupParams(p=secure_group().p, q=secure_group().q, g=2, mode=GroupMode.QUANTUM_VULNERABLE)


class TestPreQuantumSignatures:
    def test_roundtrip_empty_message(self):
        sig = prequantum_sign(G101, 13, b"")
        assert prequantum_verify(G101, pk_ec(G101, 13), b"", sig)

    def test_flipped_byte_rejected(self):
        sig = prequantum_sign(G101, 13, b"hello")
        raw = bytearray(sig.encode())
        for i in range(len(raw)):
            mutated = bytearray(raw)
            mutated[i] ^= 0x01
            try:
                bad = PreQuantumSignature.decode(bytes(mutated))
            except Exception:
                continue
            assert not prequantum_verify(G101, pk_ec(G101, 13), b"hello", bad)

    def test_wrong_key_rejected_exhaustive(self):
        msg = b"exhaustive check"
        for sk in range(G101.q):
            sig = prequantum_sign(G101, sk, msg)
            assert prequantum_verify(G101, pk_ec(G101, sk), msg, sig)
            assert not prequantum_verify(G101, pk_ec(G101, (sk + 1) % G101.q), msg, sig)

    def test_forgery_smoke_64_trials(self):
        # Soundness against message swaps is only statistical (the hash
        # challenge can collide), so the smoke test runs on a group large
        # enough that these fixed trials all reject.
        g = toy_group(8191)
        for i in range(64):
            msg = b"trial %d" % i
            sig = prequantum_sign(g, 7, msg)
            assert not prequantum_verify(g, pk_ec(g, 7), msg + b"x", sig)

    def test_malformed_signature_returns_false(self):
        assert not prequantum_verify(G101, pk_ec(G101, 3), b"m", PreQuantumSignature(b"\x00\x00", 5))
        assert not prequantum_verify(G101, pk_ec(G101, 3), b"m", PreQuantumSignature(b"", 10**9))


def encode_value(group, value):
    return value.to_bytes(group.point_len, "big")


class TestSubgroupCheck:
    """decode_point's membership test must agree with pow(x, q, p) == 1,
    by the Jacobi symbol on safe-prime groups and by pow elsewhere."""

    SG = secure_group()

    def assert_decodes_iff_member(self, group, value):
        if pow(value, group.q, group.p) == 1:
            assert decode_point(group, encode_value(group, value)).value == value
        else:
            with pytest.raises(DecodeError, match="^point not in the prime-order subgroup$"):
                decode_point(group, encode_value(group, value))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=secure_group().p - 1))
    def test_secure_group_matches_euler_criterion(self, value):
        self.assert_decodes_iff_member(self.SG, value)

    @pytest.mark.parametrize("value, member", [(1, True), (2, True), (11, False), ("p-1", False)])
    def test_secure_group_fixed_cases(self, value, member):
        value = self.SG.p - 1 if value == "p-1" else value
        assert (pow(value, self.SG.q, self.SG.p) == 1) is member
        self.assert_decodes_iff_member(self.SG, value)

    @pytest.mark.parametrize("q", [11, 23, 101, 8191])
    def test_toy_groups_exhaustive(self, q):
        # q = 11 and 23 give safe primes (the Jacobi path); 101 and 8191
        # give p = c*q + 1 with c > 2 (the pow path), where every value
        # outside the subgroup must still be rejected.
        g = toy_group(q)
        assert (g.p == 2 * g.q + 1) is (q in (11, 23))
        for value in range(1, g.p):
            self.assert_decodes_iff_member(g, value)

    def test_jacobi_small_moduli(self):
        # (a/15) = (a/3)(a/5), by the Legendre symbols of each factor.
        def legendre(a, p):
            r = pow(a, (p - 1) // 2, p)
            return -1 if r == p - 1 else r

        for a in range(30):
            assert jacobi(a, 15) == legendre(a, 3) * legendre(a, 5)


class TestSecureSignatureCaches:
    SG = secure_group()
    SK = 123456789
    MSG = b"cache me"

    def test_changed_input_never_hits_the_cache(self):
        pk = pk_ec(self.SG, self.SK)
        sig = prequantum_sign(self.SG, self.SK, self.MSG)
        other = prequantum_sign(self.SG, self.SK, b"other message")
        assert prequantum_verify(self.SG, pk, self.MSG, sig)
        assert prequantum_verify(self.SG, pk, self.MSG, sig)  # answered from the cache
        assert not prequantum_verify(self.SG, pk, self.MSG, PreQuantumSignature(sig.nonce_point, sig.s + 1))
        assert not prequantum_verify(self.SG, pk, self.MSG, PreQuantumSignature(other.nonce_point, sig.s))
        assert not prequantum_verify(self.SG, pk, b"cache mE", sig)
        assert not prequantum_verify(self.SG, pk_ec(self.SG, self.SK + 1), self.MSG, sig)

    def test_float_s_does_not_hit_the_int_entry(self):
        # Under the identity key, (g^s, s) verifies for any s; 2**600 is
        # exact as a float, and 2.0**600 == 2**600 with equal hashes.
        identity, s = pk_ec(self.SG, 0), 2**600
        nonce = pk_ec(self.SG, s).encode()
        assert prequantum_verify(self.SG, identity, self.MSG, PreQuantumSignature(nonce, s))
        assert not prequantum_verify(self.SG, identity, self.MSG, PreQuantumSignature(nonce, float(s)))

    def test_malformed_input_returns_false(self):
        pk = pk_ec(self.SG, self.SK)
        sig = prequantum_sign(self.SG, self.SK, self.MSG)
        assert not prequantum_verify(self.SG, pk, self.MSG, None)
        assert not prequantum_verify(self.SG, pk, ["unhashable"], sig)
        assert not prequantum_verify(self.SG, None, self.MSG, sig)
        assert not prequantum_verify(self.SG, pk, self.MSG, PreQuantumSignature(b"\x00", sig.s))

    def test_toy_calls_skip_the_caches(self):
        signers, verdicts = groups._signer_pk.cache_info(), groups._verify_cached.cache_info()
        sig = prequantum_sign(G101, 13, b"toy")
        assert prequantum_verify(G101, pk_ec(G101, 13), b"toy", sig)
        assert groups._signer_pk.cache_info() == signers
        assert groups._verify_cached.cache_info() == verdicts

    def test_caches_are_bounded(self):
        assert groups._signer_pk.cache_info().maxsize == groups.SIGNER_CACHE_SIZE > 0
        assert groups._verify_cached.cache_info().maxsize == groups.VERIFY_CACHE_SIZE > 0


class TestQuantumInvert:
    def test_known_exponent(self):
        assert quantum_invert(pk_ec(G101, 5)) == 5

    def test_identity(self):
        assert quantum_invert(G101.identity) == 0

    def test_against_exhaustive_scan_q8191(self):
        g = toy_group(8191)
        sk = 1
        for i in range(50):
            sk = (sk * 2654435761 + i) % g.q
            point = pk_ec(g, sk)
            assert quantum_invert(point) == naive_dlog(g, point.value) == sk

    def test_exhaustive_q101(self):
        for sk in range(G101.q):
            assert quantum_invert(pk_ec(G101, sk)) == sk

    def test_secure_mode_refuses(self):
        with pytest.raises(GroupError):
            quantum_invert(pk_ec(secure_group(), 12345))


class TestHash512:
    def test_deterministic(self):
        assert h512(b"abc").digest == h512(b"abc").digest

    def test_split_reconstructs(self):
        h = h512(b"split me")
        assert h.left + h.right == h.digest
        assert len(h.left) == len(h.right) == 32

    def test_empty_string_vector(self):
        assert h512(b"").digest == SHA512_EMPTY
