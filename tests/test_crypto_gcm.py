"""AES-GCM AEAD against the NIST / McGrew-Viega test vectors and a
scalar reference construction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError, IntegrityError
from repro.crypto import gcm as gcm_module
from repro.crypto.aes import AES
from repro.crypto.gcm import AesGcm
from repro.crypto.ghash import gf128_mul

_KEY3 = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
_IV3 = bytes.fromhex("cafebabefacedbaddecaf888")
_PT3 = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
_AAD4 = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


class TestNistVectors:
    def test_case_1_empty(self):
        __, tag = AesGcm(bytes(16)).encrypt(bytes(12), b"")
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case_2_single_zero_block(self):
        ct, tag = AesGcm(bytes(16)).encrypt(bytes(12), bytes(16))
        assert ct.hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case_3_four_blocks(self):
        ct, tag = AesGcm(_KEY3).encrypt(_IV3, _PT3)
        assert ct.hex().startswith("42831ec2217774244b7221b784d0d49c")
        assert tag.hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case_4_with_aad(self):
        ct, tag = AesGcm(_KEY3).encrypt(_IV3, _PT3[:-4], _AAD4)
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"


class TestAeadProperties:
    def test_roundtrip(self):
        gcm = AesGcm(_KEY3)
        ct, tag = gcm.encrypt(_IV3, b"hello accelerator", b"header")
        assert gcm.decrypt(_IV3, ct, tag, b"header") == b"hello accelerator"

    def test_tampered_ciphertext_rejected(self):
        gcm = AesGcm(_KEY3)
        ct, tag = gcm.encrypt(_IV3, b"payload bytes here")
        bad = bytes([ct[0] ^ 1]) + ct[1:]
        with pytest.raises(IntegrityError):
            gcm.decrypt(_IV3, bad, tag)

    def test_tampered_tag_rejected(self):
        gcm = AesGcm(_KEY3)
        ct, tag = gcm.encrypt(_IV3, b"payload")
        with pytest.raises(IntegrityError):
            gcm.decrypt(_IV3, ct, bytes(16))

    def test_wrong_aad_rejected(self):
        gcm = AesGcm(_KEY3)
        ct, tag = gcm.encrypt(_IV3, b"payload", b"aad-one")
        with pytest.raises(IntegrityError):
            gcm.decrypt(_IV3, ct, tag, b"aad-two")

    def test_distinct_ivs_distinct_ciphertexts(self):
        gcm = AesGcm(_KEY3)
        a, _ = gcm.encrypt(bytes(12), b"same message")
        b, _ = gcm.encrypt(b"\x01" + bytes(11), b"same message")
        assert a != b

    def test_iv_length_enforced(self):
        with pytest.raises(ConfigError):
            AesGcm(_KEY3).encrypt(bytes(16), b"x")


def _reference_gcm(key: bytes, iv: bytes, plaintext: bytes, aad: bytes) -> tuple[bytes, bytes]:
    """SP 800-38D spelled out with one scalar AES call per block and a
    ``gf128_mul`` Horner loop: the oracle the batched path must match."""
    aes = AES(key)
    h = int.from_bytes(aes.encrypt_block(bytes(16)), "big")
    j0 = int.from_bytes(iv, "big") << 32 | 1
    stream = b"".join(
        aes.encrypt_block((j0 & ~0xFFFFFFFF | (j0 + i) & 0xFFFFFFFF).to_bytes(16, "big"))
        for i in range(1, len(plaintext) // 16 + 2)
    )
    ciphertext = bytes(p ^ k for p, k in zip(plaintext, stream))

    def blocks(data: bytes):
        for offset in range(0, len(data), 16):
            yield data[offset : offset + 16].ljust(16, b"\0")

    y = 0
    for block in [*blocks(aad), *blocks(ciphertext)]:
        y = gf128_mul(y ^ int.from_bytes(block, "big"), h)
    y = gf128_mul(y ^ (len(aad) * 8 << 64 | len(ciphertext) * 8), h)
    mask = int.from_bytes(aes.encrypt_block(j0.to_bytes(16, "big")), "big")
    return ciphertext, (y ^ mask).to_bytes(16, "big")


class TestReferenceEquivalence:
    def test_reference_reproduces_nist_case_4(self):
        ct, tag = _reference_gcm(_KEY3, _IV3, _PT3[:-4], _AAD4)
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"
        assert ct == AesGcm(_KEY3).encrypt(_IV3, _PT3[:-4], _AAD4)[0]

    @given(key=st.sampled_from([16, 24, 32]).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)),
           iv=st.binary(min_size=12, max_size=12),
           plaintext=st.binary(max_size=600),
           aad=st.binary(max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_reference(self, key, iv, plaintext, aad):
        gcm = AesGcm(key)
        ct, tag = gcm.encrypt(iv, plaintext, aad)
        assert (ct, tag) == _reference_gcm(key, iv, plaintext, aad)
        assert gcm.decrypt(iv, ct, tag, aad) == plaintext


class TestTamper:
    @pytest.mark.parametrize("field", ["ciphertext", "tag", "aad"])
    @pytest.mark.parametrize("bit", [0, 7, 100])
    def test_single_bit_flip_rejected_before_decryption(self, monkeypatch, field, bit):
        """A flipped bit anywhere raises, and the keystream is never XORed
        onto the ciphertext: no plaintext exists when the error surfaces."""
        gcm = AesGcm(_KEY3)
        record = dict(zip(("ciphertext", "tag"), gcm.encrypt(_IV3, _PT3, _AAD4)))
        record["aad"] = _AAD4
        flipped = bytearray(record[field])
        flipped[bit // 8 % len(flipped)] ^= 1 << bit % 8
        record[field] = bytes(flipped)

        xored = []
        real_xor = gcm_module.xor_bytes

        def spy(a, b):
            xored.append(a)
            return real_xor(a, b)

        monkeypatch.setattr(gcm_module, "xor_bytes", spy)
        with pytest.raises(IntegrityError):
            gcm.decrypt(_IV3, record["ciphertext"], record["tag"], record["aad"])
        assert record["ciphertext"] not in xored
