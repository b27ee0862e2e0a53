import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcspend.encoding import DecodeError, Reader, enc_bytes, enc_u32, enc_u64


class TestRoundTrips:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_u32(self, n):
        r = Reader(enc_u32(n))
        assert r.u32() == n
        r.done()

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_u64(self, n):
        r = Reader(enc_u64(n))
        assert r.u64() == n
        r.done()

    @given(st.binary(max_size=200))
    def test_bytes(self, b):
        r = Reader(enc_bytes(b))
        assert r.bytes_() == b
        r.done()

    @given(st.binary(max_size=60), st.integers(min_value=0, max_value=2**32 - 1), st.binary(max_size=60))
    def test_concatenated_fields_never_alias(self, a, n, b):
        r = Reader(enc_bytes(a) + enc_u32(n) + enc_bytes(b))
        assert r.bytes_() == a
        assert r.u32() == n
        assert r.bytes_() == b
        r.done()


class TestStrictness:
    def test_out_of_range_rejected(self):
        with pytest.raises(DecodeError):
            enc_u32(2**32)
        with pytest.raises(DecodeError):
            enc_u32(-1)

    def test_truncated_buffer(self):
        r = Reader(enc_bytes(b"abcdef")[:-2])
        with pytest.raises(DecodeError):
            r.bytes_()
        with pytest.raises(DecodeError):
            Reader(bytes(7)).u64()

    def test_trailing_bytes_rejected(self):
        r = Reader(enc_u32(5) + b"junk")
        r.u32()
        with pytest.raises(DecodeError):
            r.done()

    @given(st.binary(min_size=1, max_size=50))
    def test_length_prefix_cannot_overread(self, payload):
        # advertise more bytes than present
        broken = enc_u32(len(payload) + 1) + payload
        with pytest.raises(DecodeError):
            Reader(broken).bytes_()
