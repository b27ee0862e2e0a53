import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcspend import groups
from qcspend.agents import Wallet
from qcspend.encoding import DecodeError
from qcspend.groups import (
    GroupError,
    GroupMode,
    GroupParams,
    GroupPoint,
    PreQuantumSignature,
    address_hash,
    decode_point,
    is_prime,
    jacobi,
    pk_ec,
    prequantum_sign,
    prequantum_verify,
    quantum_invert,
    secure_group,
    toy_group,
)

G101 = toy_group(101)
DATA = Path(__file__).parent / "data"
# The known-answer key: a digest mod q, as a wallet's post-quantum key.
KNOWN_SK = int.from_bytes(hashlib.sha512(b"known-answer key").digest(), "big") % secure_group().q

# Published SHA-512 digest of the empty string (FIPS 180-4 test vector).
SHA512_EMPTY = bytes.fromhex(
    "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
    "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
)


def known_answers() -> dict[str, str]:
    return dict(line.split() for line in (DATA / "secure_signature.golden").read_text().splitlines())


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
        assert pk_ec(G101, 0).encode() == GroupPoint(G101, 1).encode()

    def test_one_maps_to_generator(self):
        assert pk_ec(G101, 1).encode() == GroupPoint(G101, G101.g).encode()

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


class TestFixedBasePkEc:
    """pk_ec raises the fixed base g from the group's table of digit powers,
    one row per DIGIT_BITS-bit digit of q - 1: the group law and `pow` must
    agree at the edges of [0, q), at every row edge, at q - 1's partial top
    digit and for any scalar, and the known key and signature must keep
    their bytes."""

    SG = secure_group()
    # A stride for runs of ones and lone bits: the digit width, so that
    # 2^(W*i) - 1 fills every row below i and 2^(W*i) is row i's first power.
    W = groups.DIGIT_BITS
    ROWS = -(-(secure_group().q - 1).bit_length() // groups.DIGIT_BITS)
    # The width of a challenge's bound, 2^CHALLENGE_BITS; a scalar in
    # [0, q) spans SCALAR_CHUNKS slices of that width.
    CHUNK_BITS = groups.CHALLENGE_BITS
    SCALAR_CHUNKS = -(-(secure_group().q - 1).bit_length() // groups.CHALLENGE_BITS)

    def lone_bits(self) -> list[int]:
        """g^(2^n) mod p for each bit n below the width of q, by repeated
        squaring."""
        powers = [self.SG.g]
        while len(powers) < (self.SG.q - 1).bit_length():
            powers.append(powers[-1] ** 2 % self.SG.p)
        return powers

    def assert_run_and_lone_bit(self, n: int):
        # 2^n - 1 is a run of n ones and 2^n a lone bit above it: g^(2^n)
        # comes from repeated squaring, and g^(2^n - 1) * g must equal it.
        run, lone = pk_ec(self.SG, 2**n - 1), pk_ec(self.SG, 2**n)
        assert lone.value == self.lone_bits()[n]
        assert run.add(GroupPoint(self.SG, self.SG.g)).value == lone.value
        assert run.value == pow(self.SG.g, 2**n - 1, self.SG.p)

    @pytest.mark.parametrize("x", [0, 1, "q-1"])
    def test_edges(self, x):
        # 0 maps to the identity, 1 to g, and q - 1 to the inverse of g.
        x = self.SG.q - 1 if x == "q-1" else x
        point = pk_ec(self.SG, x)
        assert point.add(GroupPoint(self.SG, self.SG.g)).value == pk_ec(self.SG, (x + 1) % self.SG.q).value
        assert point.value == {0: 1, 1: self.SG.g}.get(x, pow(self.SG.g, -1, self.SG.p))

    @pytest.mark.parametrize("i", range(1, ROWS))
    def test_digit_boundaries(self, i):
        self.assert_run_and_lone_bit(self.W * i)

    def test_partial_top_digit(self):
        # q - 1 has fewer bits than the rows hold: its top digit alone, the
        # top row's highest lone bit, and q - 1 itself.
        top = self.W * (self.ROWS - 1)
        q1 = self.SG.q - 1
        assert 0 < q1 >> top < 1 << (self.W - 1)
        for x in (q1 >> top << top, 1 << (q1.bit_length() - 1), q1):
            assert pk_ec(self.SG, x).value == pow(self.SG.g, x, self.SG.p)

    def test_table_shape(self):
        # Built with the group: one row per digit of q - 1, a power per digit.
        fresh = GroupParams(p=self.SG.p, q=self.SG.q, g=self.SG.g)
        assert "generator_table" in vars(fresh)
        assert len(fresh.generator_table) == self.ROWS == 43
        assert {len(row) for row in fresh.generator_table} == {1 << self.W}
        assert fresh.generator_table == self.SG.generator_table

    @pytest.mark.parametrize("q", [101, 8191])
    def test_matches_pow_exhaustive(self, q):
        g = toy_group(q)
        assert [pk_ec(g, x).value for x in range(q)] == [pow(g.g, x, g.p) for x in range(q)]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.sampled_from([secure_group(), toy_group(1_048_573)]).flatmap(
        lambda g: st.tuples(st.just(g), st.integers(min_value=0, max_value=g.q - 1))))
    def test_matches_pow(self, case):
        g, x = case
        assert pk_ec(g, x).value == pow(g.g, x, g.p)

    @pytest.mark.parametrize("c", range(SCALAR_CHUNKS))
    def test_chunk_boundaries(self, c):
        # 2^(128c) - 1 fills every slice below c; 2^128 is also the largest
        # challenge.  2^256 is past q and is refused.
        self.assert_run_and_lone_bit(self.CHUNK_BITS * c)
        with pytest.raises(GroupError):
            pk_ec(self.SG, 2 ** (self.CHUNK_BITS * self.SCALAR_CHUNKS))

    def test_lone_bit_in_every_row(self):
        # Every lone bit of a scalar, from 2^0 to the top bit of q - 1.
        for n, power in enumerate(self.lone_bits()):
            assert pk_ec(self.SG, 2**n).value == power

    # A wallet key and a nonce are 512-bit digests reduced mod q; 256 bits
    # is the width of a scalar's encoding.
    @pytest.mark.parametrize("bits", [256, 512])
    def test_seeded_wallet_nonce_and_s_sizes(self, bits):
        rng = random.Random(bits)
        for _ in range(16):
            x, y = rng.getrandbits(bits) % self.SG.q, rng.getrandbits(bits) % self.SG.q
            assert pk_ec(self.SG, x).add(pk_ec(self.SG, y)).value == pk_ec(self.SG, (x + y) % self.SG.q).value
            assert pk_ec(self.SG, x).value == pow(self.SG.g, x, self.SG.p)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=secure_group().q - 1), st.integers(min_value=0, max_value=secure_group().q - 1))
    def test_any_scalar(self, x, y):
        assert pk_ec(self.SG, x).add(pk_ec(self.SG, y)).value == pk_ec(self.SG, (x + y) % self.SG.q).value

    @pytest.mark.parametrize("x", [-1, "q"])
    def test_out_of_range_rejected(self, x):
        with pytest.raises(GroupError):
            pk_ec(self.SG, self.SG.q if x == "q" else x)

    def test_known_answers(self):
        # Key and signature bytes, recorded with the key raised by pow and
        # the signature checked by pow.
        known = known_answers()
        assert pk_ec(self.SG, KNOWN_SK).encode().hex() == known["pk"]
        sig = prequantum_sign(self.SG, KNOWN_SK, b"known-answer message")
        assert sig.encode().hex() == known["signature"]
        assert prequantum_verify(self.SG, decode_point(self.SG, bytes.fromhex(known["pk"])), b"known-answer message", sig)


class TestEncodings:
    @pytest.mark.parametrize("q", [101, 257, 8191])
    def test_point_len_is_scalar_len_plus_one(self, q):
        g = toy_group(q)
        assert g.point_len == g.scalar_len + 1
        assert len(pk_ec(g, 5).encode()) == g.point_len
        assert len(g.encode_scalar(5)) == g.scalar_len

    def test_secure_group_lengths(self):
        g = secure_group()
        assert (g.p.bit_length(), g.q.bit_length()) == (256, 255)
        assert (g.scalar_len, g.point_len) == (32, 33)

    def test_secure_group_is_a_safe_prime_group(self):
        # Checked here once, not each time a process builds the group.  p = 7
        # (mod 8), so g = 2 is a quadratic residue and has order q.
        g = secure_group()
        assert g.p == 2 * g.q + 1 and is_prime(g.q) and is_prime(g.p)
        assert (g.g, g.p % 8, g.mode) == (2, 7, GroupMode.SECURE)

    def test_secure_group_is_the_first_safe_prime_below_its_seed(self):
        # q is the largest q = 3 (mod 4) at or below SHA-256(b"qcspend secure
        # group"), with bit 254 set and bit 255 cleared, such that q and
        # 2q + 1 are both prime: a constant with no room for a choice.
        seed = int.from_bytes(hashlib.sha256(b"qcspend secure group").digest(), "big")
        top = (seed | 1 << 254) & ~(1 << 255)
        q = secure_group().q
        assert q % 4 == 3 and 2**254 <= q <= top
        assert not any(is_prime(c) and is_prime(2 * c + 1) for c in range(q + 4, top + 1, 4))

    def test_scalar_roundtrip_exhaustive(self):
        for x in range(G101.q):
            assert G101.decode_scalar(G101.encode_scalar(x)) == x

    def test_point_roundtrip(self):
        for k in (0, 1, 50, 100):
            p = pk_ec(G101, k)
            assert decode_point(G101, p.encode()).value == p.value

    def test_vulnerable_mode_caps_order(self):
        # The order decides the mode: a group past the cap is SECURE, and no
        # toy group has such an order.
        assert (toy_group(16_777_213).mode, secure_group().mode) == (GroupMode.QUANTUM_VULNERABLE, GroupMode.SECURE)
        with pytest.raises(GroupError, match=r"^vulnerable groups must have order <= 2\*\*24$"):
            toy_group(secure_group().q)

    @pytest.mark.parametrize(
        "p, q, g, message",
        [
            (23, 7, 2, "q must divide p - 1"),
            (23, 11, 1, "generator must have order exactly q"),
            # 2^((p - 1) / 11) mod p has order 11, but p needs three bytes.
            (65539, 11, 63742, "modulus too wide for the point encoding"),
        ],
    )
    def test_bad_group_parameters_rejected(self, p, q, g, message):
        with pytest.raises(GroupError, match=f"^{message}$"):
            GroupParams(p=p, q=q, g=g)

    def test_malformed_scalar_and_point_rejected(self):
        with pytest.raises(DecodeError, match="^bad scalar length$"):
            G101.decode_scalar(bytes(G101.scalar_len + 1))
        with pytest.raises(DecodeError, match="^point value outside Z_p\\*$"):
            decode_point(G101, bytes(G101.point_len))

    def test_no_prime_below_two(self):
        assert not is_prime(0) and not is_prime(1)


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

    def test_toy_known_answer(self):
        # Recorded before the secure group's keys and challenges were
        # narrowed: a toy group keeps its challenges in [1, q - 1].
        assert groups._challenge_bound(toy_group(8191)) == 8190
        sig = prequantum_sign(toy_group(8191), 4321, b"known-answer message")
        assert sig.encode().hex() == known_answers()["toy-signature"]


class TestSecureKeys:
    """Secure-group keys lie in [0, q), and s = k + e*sk is reduced mod q
    with a nonce k that is uniform mod q, so s gives nothing of the key
    away."""

    SG = secure_group()

    def test_one_signature_does_not_give_the_key_away(self):
        # Were s left unreduced, with a key and a challenge as wide as the
        # nonce, s // e would be the key give or take a few.
        wallet = Wallet(G101, "alice", 1, 8)
        assert 0 < wallet.pq_sk < self.SG.q
        for msg in (b"leak", b"sighash", b""):
            sig = prequantum_sign(self.SG, wallet.pq_sk, msg)
            e = groups._challenge(self.SG, sig.nonce_point, wallet.pq_pk, msg)
            assert e <= 2**groups.CHALLENGE_BITS and sig.s < self.SG.q
            assert wallet.pq_sk not in {sig.s // e - d for d in range(-3, 4)}

    def test_a_key_of_q_is_refused(self):
        with pytest.raises(GroupError, match="^secret scalar out of range: "):
            prequantum_sign(self.SG, self.SG.q, b"m")

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=secure_group().q - 1), st.binary(max_size=16))
    @example(0, b"")
    @example(secure_group().q - 1, b"widest")
    def test_every_key_below_q_round_trips(self, sk, msg):
        sig = prequantum_sign(self.SG, sk, msg)
        assert prequantum_verify(self.SG, pk_ec(self.SG, sk), msg, sig)


class TestSignWithAHeldKey:
    """A caller that holds the encoding of pk_ec(sk) passes it to
    prequantum_sign, which then raises no key of its own: the signature is
    the same, and a key outside [0, q) is still refused before the held
    encoding is read."""

    TOY = toy_group(8191)
    SG = secure_group()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=toy_group(8191).q - 1), st.binary(max_size=16))
    @example(0, b"")
    @example(toy_group(8191).q - 1, b"widest")
    def test_toy_group(self, sk, msg):
        assert prequantum_sign(self.TOY, sk, msg, pk_ec(self.TOY, sk).encode()) == prequantum_sign(self.TOY, sk, msg)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=secure_group().q - 1), st.binary(max_size=16))
    @example(0, b"")
    @example(secure_group().q - 1, b"widest")
    def test_secure_group(self, sk, msg):
        assert prequantum_sign(self.SG, sk, msg, pk_ec(self.SG, sk).encode()) == prequantum_sign(self.SG, sk, msg)

    @pytest.mark.parametrize("sk", [-1, secure_group().q], ids=["-1", "q"])
    def test_a_key_outside_the_range_is_refused(self, sk):
        with pytest.raises(GroupError, match="^secret scalar out of range: "):
            prequantum_sign(self.SG, sk, b"m", pk_ec(self.SG, 1).encode())

    def test_wallet_raises_only_the_nonce(self, monkeypatch):
        wallet = Wallet(G101, "signer", 11, 8)
        expected = prequantum_sign(self.SG, wallet.pq_sk, b"sighash").encode()
        raised = []
        real = groups.pk_ec

        def counting(group, sk):
            if group.mode is GroupMode.SECURE:
                raised.append(sk)
            return real(group, sk)

        monkeypatch.setattr(groups, "pk_ec", counting)
        witness = wallet.witness_pq(b"sighash")
        assert len(raised) == 1 and raised[0] != wallet.pq_sk
        assert witness.pk == wallet.pq_pk and witness.signature == expected


def encode_value(group, value):
    return value.to_bytes(group.point_len, "big")


def sign_by_hand(group, sk, k, pk_bytes, msg, nonce):
    """A signature of sk with nonce k whose challenge is hashed over the
    given key and nonce encodings; returns the challenge too."""
    e = groups._challenge(group, nonce, pk_bytes, msg)
    return e, PreQuantumSignature(nonce, (k + e * sk) % group.q)


def equation_holds(group, pk_value, sig, e) -> bool:
    """g^s == R * pk^e mod p, by pow and with no membership test."""
    p = group.p
    return pow(group.g, sig.s, p) == int.from_bytes(sig.nonce_point, "big") * pow(pk_value, e, p) % p


@pytest.mark.parametrize("group", [pytest.param(secure_group(), id="secure"), pytest.param(G101, id="toy101")])
class TestSingleVerifyMembership:
    """A single verify tests the key for subgroup membership and takes the
    nonce point's from the equation: g^s and pk lie in the order-q
    subgroup, so g^s = R*pk^e puts R there too.  -1 has order 2 and is no
    member, so p - x is no member for any member x."""

    SK, K = 42, 17

    @pytest.mark.parametrize("forgery", ["s", "msg", "nonce", "key"])
    def test_forged_signature_is_rejected(self, group, forgery):
        # A valid signature with s + 1, another message, the nonce point of
        # a signature on another message, or another member key.
        pk, msg = pk_ec(group, self.SK), b"forged"
        sig = prequantum_sign(group, self.SK, msg)
        other = prequantum_sign(group, self.SK, b"other message")
        assert prequantum_verify(group, pk, msg, sig)
        pk, msg, sig = {
            "s": (pk, msg, PreQuantumSignature(sig.nonce_point, (sig.s + 1) % group.q)),
            "msg": (pk, msg + b"!", sig),
            "nonce": (pk, msg, PreQuantumSignature(other.nonce_point, sig.s)),
            "key": (pk_ec(group, self.SK + 1), msg, sig),
        }[forgery]
        assert not prequantum_verify(group, pk, msg, sig)

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    def test_key_outside_the_subgroup_is_rejected(self, group, parity):
        # (p - pk)^e = (-1)^e * pk^e, so a signature of sk under the key
        # p - pk meets the equation whenever its challenge is even.
        forged_key = GroupPoint(group, group.p - pk_ec(group, self.SK).value)
        nonce = pk_ec(group, self.K).encode()
        for attempt in range(64):
            msg = b"off-subgroup key %d" % attempt
            e, sig = sign_by_hand(group, self.SK, self.K, forged_key.encode(), msg, nonce)
            if e % 2 == parity:
                break
        assert e % 2 == parity
        assert equation_holds(group, forged_key.value, sig, e) is (parity == 0)
        assert not prequantum_verify(group, forged_key, msg, sig)

    def test_nonce_outside_the_subgroup_is_rejected(self, group):
        # R' = p - R, once in a valid signature and once with s = k + e*sk
        # made for the challenge hashed over R' = p - g^k (Boyd and
        # Pavlovski): then R'*pk^e = -g^s.
        pk, msg = pk_ec(group, self.SK), b"off-subgroup nonce"
        sig = prequantum_sign(group, self.SK, msg)
        replaced = PreQuantumSignature(encode_value(group, group.p - int.from_bytes(sig.nonce_point, "big")), sig.s)
        nonce = encode_value(group, group.p - pk_ec(group, self.K).value)
        e, remade = sign_by_hand(group, self.SK, self.K, pk.encode(), msg, nonce)
        assert not equation_holds(group, pk.value, remade, e)
        for bad in (replaced, remade):
            assert not prequantum_verify(group, pk, msg, bad)

    @pytest.mark.parametrize("case", ["short", "long", "zero", "R+p"])
    def test_malformed_nonce_returns_false(self, group, case):
        # Each encoding but zero names R mod p, and s is made for the
        # challenge hashed over it, so the equation alone would accept it.
        pk, msg = pk_ec(group, self.SK), b"malformed nonce"
        k = next(k for k in range(1, group.q) if pk_ec(group, k).value < 256)  # R's first byte is 0
        value = pk_ec(group, k).value
        nonce = {
            "short": encode_value(group, value)[1:],
            "long": b"\x00" + encode_value(group, value),
            "zero": bytes(group.point_len),
            "R+p": encode_value(group, value + group.p),
        }[case]
        e, sig = sign_by_hand(group, self.SK, k, pk.encode(), msg, nonce)
        assert equation_holds(group, pk.value, sig, e) is (case != "zero")
        assert prequantum_verify(group, pk, msg, sig) is False

    def test_key_of_another_group_is_rejected(self, group):
        # The same p and q with the generator g^2: the key's value meets the
        # equation, but it names another group.
        other = GroupParams(p=group.p, q=group.q, g=group.g**2 % group.p)
        pk, msg = pk_ec(group, self.SK), b"another group"
        sig = prequantum_sign(group, self.SK, msg)
        stranger = GroupPoint(other, pk.value)
        assert prequantum_verify(group, pk, msg, sig)
        assert not prequantum_verify(group, stranger, msg, sig)


class TestSubgroupCheck:
    """decode_point's membership test must agree with pow(x, q, p) == 1,
    by the Jacobi symbol on safe-prime groups and by pow elsewhere."""

    SG = secure_group()
    NOT_MEMBER = "point not in the prime-order subgroup"

    def wrong_verdicts(self, group, values):
        """The values of `values` that decode_point gets wrong: a member must
        decode to itself, and any other value must raise DecodeError with
        NOT_MEMBER.  One loop, not one `pytest.raises` per value: the
        exhaustive rows check hundreds of thousands."""
        wrong = []
        for value in values:
            expected = value if pow(value, group.q, group.p) == 1 else self.NOT_MEMBER
            try:
                got = decode_point(group, encode_value(group, value)).value
            except DecodeError as exc:
                got = str(exc)
            if got != expected:
                wrong.append((value, got))
        return wrong

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=secure_group().p - 1))
    def test_secure_group_matches_euler_criterion(self, value):
        assert self.wrong_verdicts(self.SG, [value]) == []

    @pytest.mark.parametrize("value, member", [(1, True), (2, True), (11, False), ("p-1", False)])
    def test_secure_group_fixed_cases(self, value, member):
        value = self.SG.p - 1 if value == "p-1" else value
        assert (pow(value, self.SG.q, self.SG.p) == 1) is member
        assert self.wrong_verdicts(self.SG, [value]) == []

    @pytest.mark.parametrize("q", [11, 23, 101, 8191])
    def test_toy_groups_exhaustive(self, q):
        # q = 11 and 23 give safe primes (the Jacobi path); 101 and 8191
        # give p = c*q + 1 with c > 2 (the pow path), where every value
        # outside the subgroup must still be rejected.
        g = toy_group(q)
        assert (g.p == 2 * g.q + 1) is (q in (11, 23))
        assert self.wrong_verdicts(g, range(1, g.p)) == []

    def test_jacobi_small_moduli(self):
        # (a/15) = (a/3)(a/5), by the Legendre symbols of each factor.
        def legendre(a, p):
            r = pow(a, (p - 1) // 2, p)
            return -1 if r == p - 1 else r

        for a in range(30):
            assert jacobi(a, 15) == legendre(a, 3) * legendre(a, 5)


class TestSecureSignatures:
    SG = secure_group()
    SK = 123456789
    MSG = b"sign me"

    def test_float_s_is_rejected(self):
        # Under the identity key, (g^s, s) verifies for any s; 2**200 is
        # exact as a float, and pow refuses a float exponent.
        identity, s = pk_ec(self.SG, 0), 2**200
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
        assert not prequantum_verify(self.SG, pk, self.MSG, PreQuantumSignature(sig.nonce_point, -1))

    def test_wallet_witness_verifies(self):
        wallet = Wallet(G101, "signer", 11, 8)
        witness = wallet.witness_pq(b"sighash")
        assert witness.pk == pk_ec(self.SG, wallet.pq_sk).encode()
        assert prequantum_verify(self.SG, decode_point(self.SG, witness.pk), b"sighash", PreQuantumSignature.decode(witness.signature))


class TestQuantumInvert:
    def test_known_exponent(self):
        assert quantum_invert(pk_ec(G101, 5)) == 5

    def test_identity(self):
        assert quantum_invert(GroupPoint(G101, 1)) == 0

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

    def test_two_inversions_share_one_table(self):
        # The first inversion on a group builds its baby steps; the second
        # reads the same table and must answer as the scan does.
        g = GroupParams.generate(1021)
        assert "baby_steps" not in vars(g)
        tables = []
        for sk in (5, 1020):
            point = pk_ec(g, sk)
            assert quantum_invert(point) == naive_dlog(g, point.value) == sk
            tables.append(vars(g)["baby_steps"])
        assert tables[0] is tables[1]

    def test_secure_mode_refuses(self):
        with pytest.raises(GroupError):
            quantum_invert(pk_ec(secure_group(), 12345))


class TestAddressHash:
    def test_empty_string_vector(self):
        assert address_hash(b"") == SHA512_EMPTY[:32]
