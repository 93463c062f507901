"""CTR mode, GHASH, MACs and session keys."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.crypto.aes import AES
from repro.crypto.ctr import CtrMode, xor_bytes
from repro.crypto.ghash import Ghash, gf128_mul
from repro.crypto.keys import SessionKeys
from repro.crypto.mac import GcmMac, HmacSha256Mac, constant_time_equal

_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


class TestXorBytes:
    def test_xor(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_self_inverse(self):
        a, b = b"hello!", b"world."
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            xor_bytes(b"ab", b"abc")


class TestCtrMode:
    def test_transform_is_involution(self):
        ctr = CtrMode(_KEY)
        data = b"secret accelerator tensor bytes!" * 3
        cb = bytes(range(16))
        assert ctr.transform(cb, ctr.transform(cb, data)) == data

    def test_keystream_deterministic(self):
        ctr = CtrMode(_KEY)
        assert ctr.keystream(bytes(16), 64) == ctr.keystream(bytes(16), 64)

    def test_keystream_lane_structure(self):
        """Lane i of the keystream is AES(counter + i)."""
        ctr = CtrMode(_KEY)
        ks = ctr.keystream(bytes(16), 48)
        aes = AES(_KEY)
        for lane in range(3):
            counter = lane.to_bytes(16, "big")
            assert ks[16 * lane : 16 * lane + 16] == aes.encrypt_block(counter)

    def test_different_counters_different_streams(self):
        ctr = CtrMode(_KEY)
        a = ctr.keystream(bytes(16), 32)
        b = ctr.keystream((1 << 64).to_bytes(16, "big"), 32)
        assert a != b

    def test_counter_wraps_at_128_bits(self):
        ctr = CtrMode(_KEY)
        top = (2**128 - 1).to_bytes(16, "big")
        ks = ctr.keystream(top, 32)
        assert ks[16:] == AES(_KEY).encrypt_block(bytes(16))

    def test_partial_block(self):
        ctr = CtrMode(_KEY)
        assert len(ctr.keystream(bytes(16), 10)) == 10

    def test_zero_bytes(self):
        assert CtrMode(_KEY).keystream(bytes(16), 0) == b""

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            CtrMode(_KEY).keystream(bytes(16), -1)

    def test_bad_counter_length(self):
        with pytest.raises(ConfigError):
            CtrMode(_KEY).keystream(bytes(15), 16)

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, data):
        ctr = CtrMode(_KEY)
        cb = b"\xab" * 16
        assert ctr.transform(cb, ctr.transform(cb, data)) == data


class TestGf128:
    def test_zero_annihilates(self):
        assert gf128_mul(0, 12345) == 0

    def test_commutative(self):
        a, b = 0xDEADBEEF << 64, 0xCAFEBABE
        assert gf128_mul(a, b) == gf128_mul(b, a)

    def test_one_msb_is_identity(self):
        """In GCM bit order the multiplicative identity is MSB-first 1."""
        one = 1 << 127
        x = 0x123456789ABCDEF << 32
        assert gf128_mul(x, one) == x

    @given(st.integers(min_value=0, max_value=2**128 - 1),
           st.integers(min_value=0, max_value=2**128 - 1),
           st.integers(min_value=0, max_value=2**128 - 1))
    @settings(max_examples=15, deadline=None)
    def test_distributive(self, a, b, c):
        assert gf128_mul(a, b ^ c) == gf128_mul(a, b) ^ gf128_mul(a, c)


class TestGhash:
    def test_nist_test_case_2(self):
        """NIST GCM spec test case 2: zero key, one zero plaintext block.

        GHASH_H(C) with C = 0388dace60b6a392f328c2b971b2fe78 must equal
        f38cbb1ad69223dcc3457ae5b6b0f885.
        """
        h = AES(bytes(16)).encrypt_block(bytes(16))
        digest = Ghash(h).digest(bytes.fromhex("0388dace60b6a392f328c2b971b2fe78"))
        assert digest.hex() == "f38cbb1ad69223dcc3457ae5b6b0f885"

    def test_empty_data(self):
        h = AES(bytes(16)).encrypt_block(bytes(16))
        # GHASH of empty data is GHASH of just the length block (zero),
        # and multiplying zero by H gives zero.
        assert Ghash(h).digest(b"") == bytes(16)

    def test_length_matters(self):
        h = AES(_KEY).encrypt_block(bytes(16))
        g = Ghash(h)
        assert g.digest(b"\x00" * 16) != g.digest(b"\x00" * 32)

    def test_bad_subkey(self):
        with pytest.raises(ConfigError):
            Ghash(bytes(8))

    @given(h=st.binary(min_size=16, max_size=16),
           data=st.binary(max_size=100),
           aad=st.binary(max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_tables_match_gf128_horner(self, h, data, aad):
        """The per-key lookup tables evaluate exactly the reference
        polynomial: Horner over padded AAD, padded data, then lengths."""
        key = int.from_bytes(h, "big")
        body = aad.ljust(-(-len(aad) // 16) * 16, b"\0")
        body += data.ljust(-(-len(data) // 16) * 16, b"\0")
        y = 0
        for offset in range(0, len(body), 16):
            y = gf128_mul(y ^ int.from_bytes(body[offset : offset + 16], "big"), key)
        y = gf128_mul(y ^ (len(aad) * 8 << 64 | len(data) * 8), key)
        assert Ghash(h).digest(data, aad) == y.to_bytes(16, "big")


class TestMacs:
    @pytest.mark.parametrize("mac_cls", [GcmMac, HmacSha256Mac])
    def test_deterministic(self, mac_cls):
        m = mac_cls(_KEY)
        assert m.tag(b"x" * 64, 0x1000, 7) == mac_cls(_KEY).tag(b"x" * 64, 0x1000, 7)

    @pytest.mark.parametrize("mac_cls", [GcmMac, HmacSha256Mac])
    def test_binds_data(self, mac_cls):
        m = mac_cls(_KEY)
        assert m.tag(b"x" * 64, 0, 0) != m.tag(b"y" * 64, 0, 0)

    @pytest.mark.parametrize("mac_cls", [GcmMac, HmacSha256Mac])
    def test_binds_address(self, mac_cls):
        """Relocation resistance: same data at another address differs."""
        m = mac_cls(_KEY)
        assert m.tag(b"x" * 64, 0x0, 5) != m.tag(b"x" * 64, 0x40, 5)

    @pytest.mark.parametrize("mac_cls", [GcmMac, HmacSha256Mac])
    def test_binds_version(self, mac_cls):
        """Replay resistance: same data+address, older VN differs."""
        m = mac_cls(_KEY)
        assert m.tag(b"x" * 64, 0x40, 5) != m.tag(b"x" * 64, 0x40, 6)

    def test_tag_truncation(self):
        assert len(GcmMac(_KEY, tag_bits=64).tag(b"d" * 16, 0, 0)) == 8
        assert len(HmacSha256Mac(_KEY, tag_bits=56).tag(b"d" * 16, 0, 0)) == 7

    def test_bad_tag_bits(self):
        with pytest.raises(ConfigError):
            GcmMac(_KEY, tag_bits=63)
        with pytest.raises(ConfigError):
            HmacSha256Mac(_KEY, tag_bits=256)

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")


class TestSessionKeys:
    def test_keys_differ(self):
        k = SessionKeys.derive(b"root", b"nonce")
        assert k.encryption_key != k.integrity_key

    def test_deterministic(self):
        assert SessionKeys.derive(b"r", b"n") == SessionKeys.derive(b"r", b"n")

    def test_nonce_changes_keys(self):
        a = SessionKeys.derive(b"r", b"n1")
        b = SessionKeys.derive(b"r", b"n2")
        assert a.encryption_key != b.encryption_key

    def test_rotation_changes_keys(self):
        k = SessionKeys.derive(b"r", b"n")
        r = k.rotate()
        assert r.encryption_key != k.encryption_key
        assert r.session_id == k.session_id + 1

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError):
            SessionKeys.derive(b"", b"nonce")

    def test_key_sizes(self):
        k = SessionKeys.derive(b"r", b"n")
        assert len(k.encryption_key) == 16
        assert len(k.integrity_key) == 16
