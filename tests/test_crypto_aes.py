"""AES cipher: FIPS-197 known answers, inverse cipher, batch equivalence."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.crypto.aes import AES, INV_SBOX, SBOX
from repro.crypto.aes_batch import AesBatch

_PT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestSbox:
    """Spot values from the FIPS-197 table; full inverse consistency."""

    def test_sbox_zero(self):
        assert SBOX[0x00] == 0x63

    def test_sbox_one(self):
        assert SBOX[0x01] == 0x7C

    def test_sbox_53(self):
        assert SBOX[0x53] == 0xED

    def test_inverse_is_inverse(self):
        for x in range(256):
            assert INV_SBOX[SBOX[x]] == x

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_full_tables_pinned(self):
        """Every byte of both generated tables, against the FIPS-197 values."""
        assert hashlib.sha256(SBOX + INV_SBOX).hexdigest() == (
            "e94e8e08c68e0bb5d7866f94a033e89b46531e0e1207f5da8349332c186b7c78"
        )


class TestFipsVectors:
    """FIPS-197 Appendix C known-answer tests."""

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        assert AES(key).encrypt_block(_PT).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        assert AES(key).encrypt_block(_PT).hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        assert AES(key).encrypt_block(_PT).hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_zero_key_zero_block(self):
        assert AES(bytes(16)).encrypt_block(bytes(16)).hex() == (
            "66e94bd4ef8a2c3b884cfa59ca342b2e"
        )


class TestRoundTrip:
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_decrypt_inverts_encrypt(self, key_len):
        key = bytes(range(key_len))
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(_PT)) == _PT

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, key, block):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    def test_encryption_changes_data(self):
        aes = AES(bytes(16))
        assert aes.encrypt_block(_PT) != _PT

    def test_different_keys_differ(self):
        a = AES(bytes(16)).encrypt_block(_PT)
        b = AES(bytes([1] * 16)).encrypt_block(_PT)
        assert a != b


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ConfigError):
            AES(bytes(15))

    def test_bad_block_length_encrypt(self):
        with pytest.raises(ConfigError):
            AES(bytes(16)).encrypt_block(bytes(15))

    def test_bad_block_length_decrypt(self):
        with pytest.raises(ConfigError):
            AES(bytes(16)).decrypt_block(bytes(17))


def _scalar_blocks(key: bytes, blocks: np.ndarray) -> np.ndarray:
    aes = AES(key)
    return np.array(
        [list(aes.encrypt_block(bytes(b))) for b in blocks], dtype=np.uint8
    ).reshape(-1, 16)


class TestBatchEquivalence:
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_batch_matches_scalar(self, key_len):
        key = bytes(range(key_len))
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 256, size=(32, 16), dtype=np.uint8)
        batch = AesBatch(key).encrypt_blocks(blocks)
        assert np.array_equal(batch, _scalar_blocks(key, blocks))

    @pytest.mark.parametrize("nblocks", [1, 3])
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_small_batches_match_scalar(self, key_len, nblocks):
        """GCM records are a handful of blocks; the fused rounds must agree
        there too, including the single-row tag-mask case."""
        key = bytes(range(100, 100 + key_len))
        rng = np.random.default_rng(key_len * 10 + nblocks)
        blocks = rng.integers(0, 256, size=(nblocks, 16), dtype=np.uint8)
        batch = AesBatch(key).encrypt_blocks(blocks)
        assert batch.shape == (nblocks, 16) and batch.dtype == np.uint8
        assert np.array_equal(batch, _scalar_blocks(key, blocks))

    def test_batch_shape_validation(self):
        with pytest.raises(ConfigError):
            AesBatch(bytes(16)).encrypt_blocks(np.zeros((4, 8), dtype=np.uint8))

    def test_batch_dtype_validation(self):
        with pytest.raises(ConfigError):
            AesBatch(bytes(16)).encrypt_blocks(np.zeros((4, 16), dtype=np.int32))

    def test_batch_key_validation(self):
        with pytest.raises(ConfigError):
            AesBatch(bytes(7))

    def test_empty_batch(self):
        out = AesBatch(bytes(16)).encrypt_blocks(np.zeros((0, 16), dtype=np.uint8))
        assert out.shape == (0, 16)
