import builtins
import collections
import hashlib
import random
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcspend import groups
from qcspend.agents import Wallet
from qcspend.consensus import BATCH_VERIFY_SIZE
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
    prequantum_batch_verify,
    prequantum_sign,
    prequantum_verify,
    quantum_invert,
    secure_group,
    toy_group,
)

G101 = toy_group(101)
DATA = Path(__file__).parent / "data"
# The known-answer key: the low SECRET_KEY_BITS bits of a digest, as a
# wallet's post-quantum key.
KNOWN_SK = int.from_bytes(hashlib.sha512(b"known-answer key").digest(), "big") % 2**groups.SECRET_KEY_BITS

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


class TestFixedBasePkEc:
    """On the secure group pk_ec reads the generator's comb, or `pow` for an
    exponent wider than the comb; it must agree with pow for every scalar in
    [0, q), and the comb for every exponent it covers."""

    SG = secure_group()
    # A stride for runs of ones and lone bits across every scalar width; TOP
    # is its highest multiple below the width of q.
    W = 5
    TOP = (secure_group().q - 1).bit_length() // W
    CHUNKS = len(groups._generator_comb(secure_group()))
    # Slices of 128 bits that a scalar in [0, q) spans: 16 * 128 >= 2,047.
    SCALAR_CHUNKS = -(-(secure_group().q - 1).bit_length() // groups.COMB_CHUNK_BITS)
    # The widest exponent a batch raises g to: the sum of a 128-bit
    # multiplier times an s below 2^513 over a full consensus batch.
    WIDEST_BATCH_SUM = BATCH_VERIFY_SIZE * (2**groups.BATCH_MULTIPLIER_BITS - 1) * (2**513 - 1)
    ROWS, ROW_BITS = 8, groups.COMB_CHUNK_BITS // 8

    def assert_matches_pow(self, x):
        assert pk_ec(self.SG, x).value == pow(self.SG.g, x, self.SG.p)

    def assert_comb_matches_pow(self, x):
        assert groups._generator_pow(self.SG, x) == pow(self.SG.g, x, self.SG.p)

    def lone_bits(self) -> list[int]:
        """g^(2^n) mod p for each bit n of the comb, by repeated squaring."""
        powers = [self.SG.g]
        while len(powers) < self.CHUNKS * groups.COMB_CHUNK_BITS:
            powers.append(powers[-1] ** 2 % self.SG.p)
        return powers

    @pytest.mark.parametrize("x", [0, 1, "q-1"])
    def test_edges(self, x):
        self.assert_matches_pow(self.SG.q - 1 if x == "q-1" else x)

    @pytest.mark.parametrize("i", [1, 2, 3, 100, 204, TOP - 1, TOP])
    def test_digit_boundaries(self, i):
        # 2^(w*i) - 1 is a run of w*i ones and 2^(w*i) a lone bit above it.
        for x in (2 ** (self.W * i) - 1, 2 ** (self.W * i)):
            self.assert_matches_pow(x)

    def test_comb_covers_every_chunk_and_row(self):
        comb, p, chunk, lone_bits = groups._generator_comb(self.SG), self.SG.p, groups.COMB_CHUNK_BITS, self.lone_bits()
        assert (len(comb), chunk) == (6, 128)
        assert (self.CHUNKS - 1) * chunk < self.WIDEST_BATCH_SUM.bit_length() <= self.CHUNKS * chunk
        assert sum(map(len, comb)) == 1536
        for c, table in enumerate(comb):
            assert len(table) == 2**self.ROWS and table[0] == 1
            rows = [lone_bits[chunk * c + self.ROW_BITS * r] for r in range(self.ROWS)]
            for r in range(self.ROWS):
                assert table[2**r] == rows[r]
            everything = 1
            for element in rows:
                everything = everything * element % p
            assert table[-1] == everything

    @pytest.mark.parametrize("c", range(SCALAR_CHUNKS + 1))
    def test_chunk_boundaries(self, c):
        # 2^(128c) - 1 fills every chunk below c; 2^(128c) is a lone 1 at the
        # bottom of chunk c.  From c = CHUNKS on, 2^(128c) is wider than the
        # comb and takes pow.
        for x in (2 ** (groups.COMB_CHUNK_BITS * c) - 1, 2 ** (groups.COMB_CHUNK_BITS * c)):
            self.assert_comb_matches_pow(x)

    def test_lone_bit_in_every_row(self):
        lone_bits = self.lone_bits()
        for c in range(self.CHUNKS):
            for r in range(self.ROWS):
                for k in (0, self.ROW_BITS - 1):
                    n = groups.COMB_CHUNK_BITS * c + self.ROW_BITS * r + k
                    assert groups._generator_pow(self.SG, 2**n) == lone_bits[n]

    @pytest.mark.parametrize("bits", [0, 1, 128, 129, 256, 512, 647, 768])
    def test_cost_by_width(self, bits):
        # g^x reads the table of each 128-bit slice that x reaches, one entry
        # per bit of a row: ceil(bits / 128) tables and 16 multiplications a
        # table besides the 16 squarings.  A 256-bit key reads 2 tables, a
        # 512-bit nonce 4 and the widest batch sum (647 bits) 6.
        reads = []

        class Table(tuple):
            def __getitem__(self, index):
                reads.append(self.slice)
                return super().__getitem__(index)

        tables = []
        for c, table in enumerate(groups._generator_comb(self.SG)):
            tables.append(Table(table))
            tables[-1].slice = c
        x = 2**bits - 1
        assert groups._comb_pow(tuple(tables), self.SG.p, x) == pow(self.SG.g, x, self.SG.p)
        assert collections.Counter(reads) == {c: self.ROW_BITS for c in range(-(-bits // groups.COMB_CHUNK_BITS))}

    @staticmethod
    def count_pow(monkeypatch) -> list:
        calls = []
        monkeypatch.setattr(groups, "pow", lambda *args: calls.append(args) or builtins.pow(*args), raising=False)
        return calls

    def test_wider_exponent_takes_pow(self, monkeypatch):
        calls = self.count_pow(monkeypatch)
        x = 2 ** (self.CHUNKS * groups.COMB_CHUNK_BITS) + 12345
        assert groups._generator_pow(self.SG, x) == builtins.pow(self.SG.g, x, self.SG.p)
        assert calls == [(self.SG.g, x, self.SG.p)]
        calls.clear()
        assert groups._generator_pow(self.SG, x - 1 - 12345) == builtins.pow(self.SG.g, x - 1 - 12345, self.SG.p)
        assert calls == []  # 2^768 - 1 is the widest exponent the comb covers

    def test_widest_batch_sum_reads_the_comb(self, monkeypatch):
        # One bit past the comb's width takes pow.
        calls, x = self.count_pow(monkeypatch), self.WIDEST_BATCH_SUM
        assert groups._generator_pow(self.SG, x) == builtins.pow(self.SG.g, x, self.SG.p)
        assert calls == []
        wider = 2 ** (self.CHUNKS * groups.COMB_CHUNK_BITS)
        assert groups._generator_pow(self.SG, wider) == builtins.pow(self.SG.g, wider, self.SG.p)
        assert calls == [(self.SG.g, wider, self.SG.p)]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=secure_group().q - 1))
    def test_any_scalar(self, x):
        self.assert_matches_pow(x)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=CHUNKS * groups.COMB_CHUNK_BITS).flatmap(lambda bits: st.integers(0, 2**bits - 1)))
    def test_any_exponent_the_comb_covers(self, x):
        self.assert_comb_matches_pow(x)

    # A key has 256 bits, a nonce and almost every s 512, a batch sum up to
    # 647, and 1,024 bits are wider than the comb.
    @pytest.mark.parametrize("bits", [256, 512, 647, 1024])
    def test_seeded_wallet_nonce_and_s_sizes(self, bits):
        rng = random.Random(bits)
        for _ in range(16):
            self.assert_matches_pow(rng.getrandbits(bits))

    @pytest.mark.parametrize("x", [-1, "q"])
    def test_out_of_range_rejected(self, x):
        with pytest.raises(GroupError):
            pk_ec(self.SG, self.SG.q if x == "q" else x)

    def test_known_answers(self):
        # Key and signature bytes, recorded with the key raised by pow and
        # the signature checked by pow.
        known = known_answers()
        assert pk_ec(self.SG, KNOWN_SK).encode().hex() == known["pk"]
        assert prequantum_sign(self.SG, KNOWN_SK, b"known-answer message").encode().hex() == known["signature"]


class TestKeyTable:
    """From a key's first secure verify on, pk^e comes from the key's own
    fixed-base table; it must agree with pow for every challenge."""

    SG = secure_group()
    W = groups.FIXED_BASE_WINDOW
    BOUND = 2**groups.CHALLENGE_BITS  # the largest challenge
    TOP = BOUND.bit_length() // W  # highest digit position of a challenge
    SK = 987654321
    PK = pk_ec(secure_group(), SK)

    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        # No tables before a test, and none after it: some tests build
        # stand-in tables.
        groups._key_table.cache_clear()
        yield
        groups._key_table.cache_clear()

    @staticmethod
    def forbid_pow(monkeypatch):
        """Fail any `pow` in groups: a key with a table needs none."""

        def no_pow(*args):
            raise AssertionError("pow called")

        monkeypatch.setattr(groups, "pow", no_pow, raising=False)

    def tabled(self, pk: GroupPoint) -> tuple[int, ...]:
        """The key's table, built by its first call."""
        groups._key_pow(pk, 1)
        table = groups._key_table(pk.group, pk.value)
        assert isinstance(table, tuple)
        return table

    def test_table_covers_every_challenge(self):
        assert len(self.tabled(self.PK)) == self.TOP + 1 == 33

    # 1; 2^128, the largest challenge and a lone 1 at position TOP; 2^132 - 1,
    # the top digit value at every position of the table; at positions 1, 2
    # and TOP, 2^(w*i) - 1 (the top digit value at every position below i);
    # 2^(w*i) (a lone 1) at positions 1, 2 and TOP - 1; and 2^5 - 1, 2^5,
    # 2^10 - 1 and 2^10, which end inside a digit.
    EDGES = {
        "1": 1,
        "2^128": 2**128,
        "2^132-1": 2**132 - 1,
        "2^4-1": 2**4 - 1,
        "2^4": 2**4,
        "2^8-1": 2**8 - 1,
        "2^8": 2**8,
        "2^128-1": 2**128 - 1,
        "2^124": 2**124,
        "2^5-1": 2**5 - 1,
        "2^5": 2**5,
        "2^10-1": 2**10 - 1,
        "2^10": 2**10,
    }

    @pytest.mark.parametrize("e", list(EDGES.values()), ids=list(EDGES))
    def test_edges(self, e, monkeypatch):
        self.tabled(self.PK)
        power = builtins.pow(self.PK.value, e, self.SG.p)
        self.forbid_pow(monkeypatch)
        assert groups._key_pow(self.PK, e) == power

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=BOUND))
    def test_any_challenge(self, e):
        self.tabled(self.PK)
        assert groups._key_pow(self.PK, e) == pow(self.PK.value, e, self.SG.p)

    def test_wider_exponent_takes_pow(self, monkeypatch):
        table, calls = self.tabled(self.PK), []
        monkeypatch.setattr(groups, "pow", lambda *args: calls.append(args) or builtins.pow(*args), raising=False)
        x = 2 ** (self.W * len(table))
        assert groups._fixed_base_pow(table, self.SG.p, x) == builtins.pow(self.PK.value, x, self.SG.p)
        assert calls == [(self.PK.value, x, self.SG.p)]

    def test_first_verify_builds_the_table(self, monkeypatch):
        sigs = [(msg, prequantum_sign(self.SG, self.SK, msg)) for msg in (b"one", b"two")]
        assert groups._verify(self.SG, self.PK, *sigs[0])
        info = groups._key_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and len(groups._key_table(self.SG, self.PK.value)) == self.TOP + 1
        monkeypatch.setattr(groups, "_power_table", None)  # the next verify reads it
        self.forbid_pow(monkeypatch)
        assert groups._verify(self.SG, self.PK, *sigs[1])

    def test_forgeries_are_rejected_with_a_table(self):
        other = pk_ec(self.SG, self.SK + 1)
        self.tabled(self.PK)
        self.tabled(other)
        msg = b"tabled"
        sig = prequantum_sign(self.SG, self.SK, msg)
        assert groups._verify(self.SG, self.PK, msg, sig)
        assert not groups._verify(self.SG, self.PK, msg, PreQuantumSignature(sig.nonce_point, (sig.s + 1) % self.SG.q))
        assert not groups._verify(self.SG, self.PK, msg + b"!", sig)
        assert not groups._verify(self.SG, other, msg, sig)

    def test_tables_are_kept_per_group(self):
        # One key value in two secure groups: each group's table serves only
        # that group.
        small = GroupParams.generate(2**61 - 1, GroupMode.SECURE)
        value = pk_ec(small, 123456789).value
        e = 2**60 + 12345
        for group in (self.SG, small) * 3:
            assert groups._key_pow(GroupPoint(group, value), e) == pow(value, e, group.p)
        info = groups._key_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 4, 2)

    def test_toy_keys_keep_pow(self):
        pk = pk_ec(G101, 13)
        for msg in (b"a", b"b", b"c"):
            assert groups._verify(G101, pk, msg, prequantum_sign(G101, 13, msg))
        assert groups._key_table.cache_info().misses == 0

    def test_known_answer_verifies_with_a_table(self):
        known = known_answers()
        pk = decode_point(self.SG, bytes.fromhex(known["pk"]))
        sig = PreQuantumSignature.decode(bytes.fromhex(known["signature"]))
        assert pk == pk_ec(self.SG, KNOWN_SK)
        for _ in range(3):
            assert groups._verify(self.SG, pk, b"known-answer message", sig)
        info = groups._key_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_tables_are_bounded(self):
        # The key verified longest ago loses its table first.
        size = groups.KEY_TABLE_SIZE
        assert groups._key_table.cache_info().maxsize == size
        points = [pk_ec(self.SG, sk) for sk in range(2, size + 4)]
        for pk in points + points[-2:]:
            assert groups._key_pow(pk, 2**100 + 7) == pow(pk.value, 2**100 + 7, self.SG.p)
            assert groups._key_table.cache_info().currsize <= size
        info = groups._key_table.cache_info()
        assert (info.misses, info.hits) == (size + 2, 2)
        groups._key_pow(points[0], 1)
        assert groups._key_table.cache_info().misses == size + 3  # built again

    def test_tables_stay_bounded_under_concurrent_callers(self, monkeypatch):
        # A stand-in table builder, so that the threads race on the cache
        # alone, over twice as many keys as it keeps.
        monkeypatch.setattr(groups, "_power_table", lambda p, base, bits: (base,))
        sizes, errors = [], []
        points = [GroupPoint(self.SG, value) for value in range(2, 2 * groups.KEY_TABLE_SIZE + 2)]

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(1000):
                    pk = rng.choice(points)
                    assert groups._key_pow(pk, 1) == pk.value
                    sizes.append(groups._key_table.cache_info().currsize)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not errors and sizes and max(sizes) <= groups.KEY_TABLE_SIZE

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

    def test_secure_group_is_a_safe_prime_group(self):
        # Checked here once, not each time a process builds the group.
        g = secure_group()
        assert g.p == 2 * g.q + 1 and is_prime(g.q) and is_prime(g.p)

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
            GroupParams(p=p, q=q, g=g, mode=GroupMode.QUANTUM_VULNERABLE)

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


class TestShortSecureKeys:
    """On the secure group s = k + e*sk is never reduced mod q, so only the
    512-bit nonce k hides e*sk: keys have at most SECRET_KEY_BITS bits and
    challenges at most CHALLENGE_BITS."""

    SG = secure_group()

    def test_one_signature_does_not_give_the_key_away(self):
        # With a key and a challenge as wide as the nonce, s // e is the key
        # give or take a few.
        wallet = Wallet(G101, "alice", 1, 8)
        assert 0 < wallet.pq_sk < 2**groups.SECRET_KEY_BITS
        for msg in (b"leak", b"sighash", b""):
            sig = prequantum_sign(self.SG, wallet.pq_sk, msg)
            e = groups._challenge(self.SG, sig.nonce_point, wallet.pq_pk, msg)
            assert e <= 2**groups.CHALLENGE_BITS
            assert wallet.pq_sk not in {sig.s // e - d for d in range(-3, 4)}

    def test_a_key_of_2_to_the_256_is_refused(self):
        with pytest.raises(GroupError, match="^secret scalar out of range$"):
            prequantum_sign(self.SG, 2**groups.SECRET_KEY_BITS, b"m")

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**256 - 1), st.binary(max_size=16))
    @example(0, b"")
    @example(2**256 - 1, b"widest")
    def test_every_key_below_2_to_the_256_round_trips(self, sk, msg):
        sig = prequantum_sign(self.SG, sk, msg)
        assert sig.s < 2**513
        assert prequantum_verify(self.SG, pk_ec(self.SG, sk), msg, sig)


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


def padded(group, item) -> list:
    """`item` behind BATCH_MIN - 1 valid signatures by other keys, so that
    on a secure group with an empty memo it goes through one batch."""
    sks = range(7, 6 + groups.BATCH_MIN)
    return [(pk_ec(group, sk), b"good", prequantum_sign(group, sk, b"good")) for sk in sks] + [item]


def spy_batches(monkeypatch) -> list[int]:
    """The size of every batch that `_batch_holds` checks from now on."""
    sizes, original = [], groups._batch_holds
    monkeypatch.setattr(groups, "_batch_holds", lambda group, items: sizes.append(len(items)) or original(group, items))
    return sizes


@pytest.mark.parametrize("group", [pytest.param(secure_group(), id="secure"), pytest.param(G101, id="toy101")])
class TestSingleVerifyMembership:
    """A single verify tests the key for subgroup membership and takes the
    nonce point's from the equation: g^s and pk lie in the order-q
    subgroup, so g^s = R*pk^e puts R there too.  -1 has order 2 and is no
    member, so p - x is no member for any member x."""

    SK, K = 42, 17

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(groups, "_verified", set())

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

    def test_nonce_outside_the_subgroup_is_rejected(self, group, monkeypatch):
        # R' = p - R, once in a valid signature and once with s = k + e*sk
        # made for the challenge hashed over R' = p - g^k (Boyd and
        # Pavlovski): then R'*pk^e = -g^s.
        pk, msg = pk_ec(group, self.SK), b"off-subgroup nonce"
        sig = prequantum_sign(group, self.SK, msg)
        replaced = PreQuantumSignature(encode_value(group, group.p - int.from_bytes(sig.nonce_point, "big")), sig.s)
        nonce = encode_value(group, group.p - pk_ec(group, self.K).value)
        e, remade = sign_by_hand(group, self.SK, self.K, pk.encode(), msg, nonce)
        assert not equation_holds(group, pk.value, remade, e)
        batches = spy_batches(monkeypatch)
        for bad in (replaced, remade):
            assert not groups._verify(group, pk, msg, bad)
            assert not prequantum_verify(group, pk, msg, bad)
            assert not prequantum_batch_verify(group, padded(group, (pk, msg, bad)))
        assert batches == ([groups.BATCH_MIN] * 2 if group.mode is GroupMode.SECURE else [])

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
        assert groups._verify(group, pk, msg, sig) is False
        assert prequantum_verify(group, pk, msg, sig) is False

    def test_key_of_another_group_is_rejected(self, group, monkeypatch):
        # The same p and q with the generator g^2: the key's value meets the
        # equation, but it names another group.
        other = GroupParams(p=group.p, q=group.q, g=group.g**2 % group.p, mode=group.mode)
        pk, msg = pk_ec(group, self.SK), b"another group"
        sig = prequantum_sign(group, self.SK, msg)
        stranger = GroupPoint(other, pk.value)
        assert prequantum_verify(group, pk, msg, sig)
        assert not prequantum_verify(group, stranger, msg, sig)
        batches = spy_batches(monkeypatch)
        assert not prequantum_batch_verify(group, padded(group, (stranger, msg, sig)))
        assert batches == ([groups.BATCH_MIN] if group.mode is GroupMode.SECURE else [])


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

    def test_decodes_are_memoised_and_failures_are_not(self):
        good, bad = pk_ec(self.SG, self.SK + 7).encode(), encode_value(self.SG, self.SG.p - 1)
        before = groups._decoded.cache_info()
        assert decode_point(self.SG, good) is decode_point(self.SG, good)
        for _ in range(2):
            with pytest.raises(DecodeError, match="^point not in the prime-order subgroup$"):
                decode_point(self.SG, bad)
        after = groups._decoded.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 3)

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
        signers, decoded, verified = groups._signer_pk.cache_info(), groups._decoded.cache_info(), set(groups._verified)
        sig = prequantum_sign(G101, 13, b"toy")
        assert prequantum_verify(G101, pk_ec(G101, 13), b"toy", sig)
        assert prequantum_batch_verify(G101, [(pk_ec(G101, 13), b"toy", sig), (pk_ec(G101, 14), b"toy", sig)]) is False
        assert decode_point(G101, pk_ec(G101, 13).encode()).value == pk_ec(G101, 13).value
        assert groups._signer_pk.cache_info() == signers
        assert groups._decoded.cache_info() == decoded
        assert groups._verified == verified

    def test_wallet_signs_with_its_memoised_key(self, monkeypatch):
        wallet = Wallet(G101, "signer", 11, 8)
        scalars, original = [], groups.pk_ec
        monkeypatch.setattr(groups, "pk_ec", lambda group, sk: scalars.append(sk) or original(group, sk))
        witness = wallet.witness_pq(b"sighash")
        assert scalars and wallet.pq_sk not in scalars  # only the nonce is raised
        assert witness.pk == original(self.SG, wallet.pq_sk).encode()
        assert prequantum_verify(self.SG, decode_point(self.SG, witness.pk), b"sighash", PreQuantumSignature.decode(witness.signature))

    def test_caches_are_bounded(self, monkeypatch):
        assert groups._signer_pk.cache_info().maxsize == groups.SIGNER_CACHE_SIZE > 0
        assert groups._decoded.cache_info().maxsize == groups.SIGNER_CACHE_SIZE
        monkeypatch.setattr(groups, "VERIFY_CACHE_SIZE", 3)
        monkeypatch.setattr(groups, "_verified", set())
        items = TestBatchVerify.POOL
        for pk, msg, sig in items:
            assert prequantum_verify(self.SG, pk, msg, sig)
            assert len(groups._verified) <= 3 and (self.SG, pk, msg, sig.nonce_point, sig.s, int) in groups._verified
        assert prequantum_batch_verify(self.SG, items[:2])
        assert len(groups._verified) <= 3
        assert prequantum_batch_verify(self.SG, items)  # more items than the memo holds
        assert len(groups._verified) == 3

    def test_memo_stays_bounded_under_concurrent_callers(self, monkeypatch):
        # Stand-ins that accept every signature at once, so that the threads
        # race on the memo alone: without its lock two writers could each
        # see room for their keys and together overfill it.
        monkeypatch.setattr(groups, "_verify", lambda group, pk, msg, sig: True)
        monkeypatch.setattr(groups, "_batch_holds", lambda group, items: True)
        sizes, errors = [], []

        class Memo(set):
            def __len__(self):
                size = super().__len__()
                time.sleep(0)  # hand the interpreter over between the check and the write
                return size

            def update(self, keys):
                super().update(keys)
                sizes.append(len(self))

        monkeypatch.setattr(groups, "VERIFY_CACHE_SIZE", 5)
        monkeypatch.setattr(groups, "_verified", Memo())
        pk = pk_ec(self.SG, self.SK)
        items = [(pk, b"m%d" % i, PreQuantumSignature(b"R", i)) for i in range(40)]

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(1000):
                    if rng.random() < 0.5:
                        assert prequantum_verify(self.SG, *rng.choice(items))
                    else:
                        assert prequantum_batch_verify(self.SG, rng.sample(items, 3))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not errors and sizes and max(sizes) <= 5


class TestBatchVerify:
    SG = secure_group()
    # Valid signatures by four keys on two messages each.
    POOL = [
        (pk_ec(secure_group(), sk), msg, prequantum_sign(secure_group(), sk, msg))
        for sk in (11, 2222, 333333, 44444444)
        for msg in (b"first", b"second")
    ]
    FORGERIES = ("none", "s", "msg", "nonce", "key")

    @classmethod
    def item(cls, index: int, forgery: str):
        pk, msg, sig = cls.POOL[index]
        other_pk, _, other_sig = cls.POOL[(index + 2) % len(cls.POOL)]
        return {
            "none": (pk, msg, sig),
            "s": (pk, msg, PreQuantumSignature(sig.nonce_point, (sig.s + 1) % cls.SG.q)),
            "msg": (pk, msg + b"!", sig),
            "nonce": (pk, msg, PreQuantumSignature(other_sig.nonce_point, sig.s)),
            "key": (other_pk, msg, sig),
        }[forgery]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 7), st.sampled_from(FORGERIES)), min_size=1, max_size=6))
    def test_verdict_is_all_of_the_single_verdicts(self, drawn):
        items = [self.item(index, forgery) for index, forgery in drawn]
        # The single check behind the memo, so the memo cannot answer it;
        # and an empty memo, so that from BATCH_MIN items on a batch does.
        singles = [groups._verify(self.SG, *item) for item in items]
        groups._verified.clear()
        assert prequantum_batch_verify(self.SG, items) == all(singles)

    def test_fewer_than_batch_min_verify_one_by_one(self, monkeypatch):
        batches = spy_batches(monkeypatch)
        for n in range(1, groups.BATCH_MIN + 1):
            monkeypatch.setattr(groups, "_verified", set())
            assert prequantum_batch_verify(self.SG, self.POOL[:n])
            assert batches == ([] if n < groups.BATCH_MIN else [n])
        # Items the memo holds do not count towards BATCH_MIN.
        monkeypatch.setattr(groups, "_verified", set())
        assert prequantum_verify(self.SG, *self.POOL[0])
        assert prequantum_batch_verify(self.SG, self.POOL[: groups.BATCH_MIN])
        assert batches == [groups.BATCH_MIN]

    @staticmethod
    def forbid_checks(monkeypatch) -> None:
        """Make every check past the memo fail, alone or in a batch."""
        monkeypatch.setattr(groups, "_verify", None)
        monkeypatch.setattr(groups, "_batch_holds", None)

    def test_held_batch_answers_from_its_record(self, monkeypatch):
        monkeypatch.setattr(groups, "_verified", set())
        assert prequantum_batch_verify(self.SG, self.POOL)
        self.forbid_checks(monkeypatch)
        assert all(prequantum_verify(self.SG, *item) for item in self.POOL)
        assert prequantum_batch_verify(self.SG, self.POOL[:3])  # a prefix of the last batch

    def test_single_verdicts_answer_a_later_batch(self, monkeypatch):
        monkeypatch.setattr(groups, "_verified", set())
        assert all(prequantum_verify(self.SG, *item) for item in self.POOL[:2])
        self.forbid_checks(monkeypatch)
        assert prequantum_batch_verify(self.SG, self.POOL[:2])

    def test_batch_verdicts_outlive_a_later_disjoint_batch(self, monkeypatch):
        monkeypatch.setattr(groups, "_verified", set())
        batches = spy_batches(monkeypatch)
        assert prequantum_batch_verify(self.SG, self.POOL[:4])
        assert prequantum_batch_verify(self.SG, self.POOL[4:])
        assert batches == [4, 4]
        self.forbid_checks(monkeypatch)
        assert all(prequantum_verify(self.SG, *item) for item in self.POOL)

    def test_nonce_outside_the_subgroup_is_rejected(self, monkeypatch):
        # Boyd and Pavlovski's attack: R' = p - R is no quadratic residue, and
        # s = k + e'*sk with e' hashed over R'.  Then R'^a * pk^(a*e') equals
        # (-1)^a * g^(a*s), so the batch equation holds whenever R''s
        # multiplier a is even; only the subgroup test rejects the batch.
        monkeypatch.setattr(groups, "_verified", set())
        sk, pk = 4242, pk_ec(self.SG, 4242)
        for attempt in range(64):
            msg, k = b"boyd-pavlovski %d" % attempt, 1_000 + attempt
            nonce = (self.SG.p - pk_ec(self.SG, k).value).to_bytes(self.SG.point_len, "big")
            e = groups._challenge(self.SG, nonce, pk.encode(), msg)
            items = [*self.POOL[: groups.BATCH_MIN - 1], (pk, msg, PreQuantumSignature(nonce, (k + e * sk) % self.SG.q))]
            multipliers = groups._batch_multipliers(items)
            if multipliers[-1] % 2 == 0:
                break
        p, q = self.SG.p, self.SG.q
        left = pow(self.SG.g, sum(a * sig.s for a, (_, _, sig) in zip(multipliers, items)) % q, p)
        right = 1
        for a, (key, message, sig) in zip(multipliers, items):
            challenge = groups._challenge(self.SG, sig.nonce_point, key.encode(), message)
            right = right * pow(int.from_bytes(sig.nonce_point, "big"), a, p) * pow(key.value, a * challenge, p) % p
        assert left == right  # the equation alone would accept
        batches = spy_batches(monkeypatch)
        assert not prequantum_batch_verify(self.SG, items)
        assert batches == [groups.BATCH_MIN]
        assert not prequantum_verify(self.SG, *items[-1])

    def test_key_outside_the_subgroup_is_rejected(self, monkeypatch):
        # The same attack on the key: pk' = p - pk is no quadratic residue,
        # and pk'^(a*e) equals (-1)^(a*e) * pk^(a*e), so the equation holds
        # whenever a*e is even.  The key's subgroup test comes from the
        # decode memo, which must not hold pk' (a decode of it fails).
        monkeypatch.setattr(groups, "_verified", set())
        sk, k = 4242, 1_000
        forged_key = GroupPoint(self.SG, self.SG.p - pk_ec(self.SG, sk).value)
        for attempt in range(64):
            msg = b"off-subgroup key %d" % attempt
            nonce = pk_ec(self.SG, k).encode()
            e = groups._challenge(self.SG, nonce, forged_key.encode(), msg)
            items = [*self.POOL[: groups.BATCH_MIN - 1], (forged_key, msg, PreQuantumSignature(nonce, (k + e * sk) % self.SG.q))]
            if groups._batch_multipliers(items)[-1] * e % 2 == 0:
                break
        p, q = self.SG.p, self.SG.q
        multipliers = groups._batch_multipliers(items)
        left = pow(self.SG.g, sum(a * sig.s for a, (_, _, sig) in zip(multipliers, items)) % q, p)
        right = 1
        for a, (key, message, sig) in zip(multipliers, items):
            challenge = groups._challenge(self.SG, sig.nonce_point, key.encode(), message)
            right = right * pow(int.from_bytes(sig.nonce_point, "big"), a, p) * pow(key.value, a * challenge, p) % p
        assert left == right  # the equation alone would accept
        batches = spy_batches(monkeypatch)
        assert not prequantum_batch_verify(self.SG, items)
        assert batches == [groups.BATCH_MIN]
        with pytest.raises(DecodeError, match="^point not in the prime-order subgroup$"):
            decode_point(self.SG, forged_key.encode())

    def test_malformed_items_return_false(self, monkeypatch):
        monkeypatch.setattr(groups, "_verified", set())
        pk, msg, sig = self.POOL[0]
        for bad in (
            (pk, msg, None),
            (None, msg, sig),
            (pk, ["unhashable"], sig),
            (pk, msg, PreQuantumSignature(b"\x00", sig.s)),
            (pk, msg, PreQuantumSignature(sig.nonce_point, -1)),
            (pk, msg, PreQuantumSignature(sig.nonce_point, float(sig.s))),
        ):
            assert not prequantum_batch_verify(self.SG, [*self.POOL[1 : groups.BATCH_MIN], bad])
            assert not prequantum_batch_verify(self.SG, [bad])

    def test_sum_past_q_is_reduced(self, monkeypatch):
        # `prequantum_sign` refuses keys this wide, so these signatures are
        # made by hand: keys just below q give s of ~2,047 bits, so the sum
        # of the a_i*s_i passes q.  The forged twin is checked first, as a
        # verdict that holds is memoised.
        monkeypatch.setattr(groups, "_verified", set())
        q = self.SG.q
        items = self.POOL[: groups.BATCH_MIN - 2]
        for sk, msg, k in ((q - 3, b"wide", 1_000), (q - 5, b"wider", 2_000)):
            pk, nonce = pk_ec(self.SG, sk), pk_ec(self.SG, k).encode()
            e = groups._challenge(self.SG, nonce, pk.encode(), msg)
            items.append((pk, msg, PreQuantumSignature(nonce, (k + e * sk) % q)))
        assert sum(a * sig.s for a, (_, _, sig) in zip(groups._batch_multipliers(items), items)) >= q
        pk, msg, sig = items[-1]
        batches = spy_batches(monkeypatch)
        assert not prequantum_batch_verify(self.SG, [*items[:-1], (pk, msg, PreQuantumSignature(sig.nonce_point, (sig.s + 1) % q))])
        assert prequantum_batch_verify(self.SG, items)
        assert batches == [groups.BATCH_MIN] * 2

    def test_multi_pow_matches_pow(self):
        rng = random.Random(5)
        p = self.SG.p
        for bits in (0, 1, 7, 128, 640):
            pairs = [(rng.randrange(1, p), rng.getrandbits(bits)) for _ in range(3)]
            expected = 1
            for base, exponent in pairs:
                expected = expected * pow(base, exponent, p) % p
            assert groups._multi_pow(p, pairs) == expected

    def test_toy_groups_verify_one_by_one(self):
        items = [(pk_ec(G101, sk), b"toy", prequantum_sign(G101, sk, b"toy")) for sk in (3, 5, 7)]
        assert prequantum_batch_verify(G101, items)
        forged = items[:2] + [(items[2][0], b"toy!", items[2][2])]
        assert prequantum_batch_verify(G101, forged) == all(prequantum_verify(G101, *item) for item in forged)


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


class TestAddressHash:
    def test_empty_string_vector(self):
        assert address_hash(b"") == SHA512_EMPTY[:32]
