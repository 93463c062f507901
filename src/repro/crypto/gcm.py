"""AES-GCM authenticated encryption (NIST SP 800-38D).

The paper's CHaiDNN retrofit adds AES-GCM cores for memory protection
(§VI-C), and the host↔accelerator channel (§II) needs an AEAD for user
data and kernels in flight.  This composes the in-repo AES, GHASH and
XOR primitives into the standard GCM construction with a 96-bit IV.
Verified against the classic NIST/McGrew-Viega test vectors and, over
random inputs, against a scalar-AES reference in
``tests/test_crypto_gcm.py``.

A record costs one batched AES call: the counter blocks
``J0, inc32(J0), …, inc32^n(J0)`` are encrypted together, row 0 masking
the tag and rows 1…n forming the CTR keystream.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError, IntegrityError
from repro.crypto.aes_batch import AesBatch
from repro.crypto.ctr import xor_bytes
from repro.crypto.ghash import Ghash
from repro.crypto.mac import constant_time_equal


class AesGcm:
    """AES-GCM with 96-bit IVs and full 128-bit tags."""

    def __init__(self, key: bytes) -> None:
        self._aes = AesBatch(key)
        self._ghash = Ghash(self._aes.encrypt_blocks(np.zeros((1, 16), np.uint8)).tobytes())

    def _keystream(self, iv: bytes, nbytes: int) -> tuple[bytes, bytes]:
        """The tag mask ``E_K(J0)`` and ``nbytes`` of CTR keystream."""
        if len(iv) != 12:
            raise ConfigError(f"GCM IV must be 12 bytes, got {len(iv)}")
        nblocks = -(-nbytes // 16)
        counters = np.empty((nblocks + 1, 16), np.uint8)
        counters[:, :12] = np.frombuffer(iv, np.uint8)
        # J0 ends in the 32-bit counter 1; inc32 advances only those bits.
        counters[:, 12:] = np.arange(1, nblocks + 2, dtype=">u4").view(np.uint8).reshape(-1, 4)
        stream = self._aes.encrypt_blocks(counters).tobytes()
        return stream[:16], stream[16 : 16 + nbytes]

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Returns (ciphertext, 16-byte tag)."""
        mask, stream = self._keystream(iv, len(plaintext))
        ciphertext = xor_bytes(plaintext, stream)
        return ciphertext, xor_bytes(mask, self._ghash.digest(ciphertext, aad))

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify then decrypt; raises :class:`IntegrityError` on mismatch."""
        mask, stream = self._keystream(iv, len(ciphertext))
        expected = xor_bytes(mask, self._ghash.digest(ciphertext, aad))
        if not constant_time_equal(expected, tag):
            raise IntegrityError("GCM tag mismatch: message was tampered with")
        return xor_bytes(ciphertext, stream)
