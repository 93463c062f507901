"""Vectorized AES for bulk counter-mode keystream generation.

The scalar implementation in :mod:`repro.crypto.aes` is the reference;
this module evaluates the same cipher over an ``(N, 16)`` batch of blocks
with numpy table lookups, making the *functional* protection engine fast
enough to encrypt megabytes in tests and examples, and a GCM record one
numpy call.  Equivalence with the scalar cipher is asserted property-style
in the test-suite.

Each middle round (SubBytes, ShiftRows, MixColumns) is fused into four
gathers: output column ``c`` is ``T0[a0] ^ T1[a1] ^ T2[a2] ^ T3[a3]``,
where ``a_j`` is the byte ShiftRows moves into row ``j`` of column ``c``
and ``T_j`` packs that byte's S·2 / S·3 / S contributions to the four
rows into one little-endian 32-bit word.

Only encryption is provided — counter mode never runs the inverse cipher.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.crypto.aes import SBOX, _expand_key, _xtime, _ROUNDS

_SBOX_NP = np.frombuffer(SBOX, dtype=np.uint8)

# ShiftRows permutation for the column-major state layout (state[4c + r]).
_SHIFT = np.array([0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11], dtype=np.intp)


def _round_tables() -> list[np.ndarray]:
    """``T_j[x]``: the MixColumns column a post-ShiftRows row-``j`` input
    ``x`` contributes, as a little-endian word (byte ``r`` is row ``r``).

    MixColumns row ``r`` is ``2·a_r ^ 3·a_{r+1} ^ a_{r+2} ^ a_{r+3}``, so
    input row ``j`` enters output row ``r`` with coefficient
    ``(2, 3, 1, 1)[(j - r) % 4]``.
    """
    s1 = _SBOX_NP.astype("<u4")
    s2 = np.array([_xtime(s) for s in SBOX], dtype="<u4")
    by_coef = (s2, s2 ^ s1, s1, s1)
    return [
        sum(by_coef[(j - r) % 4] << np.uint32(8 * r) for r in range(4)).astype("<u4")
        for j in range(4)
    ]


_T = _round_tables()

# _GATHER[j][c]: state index ShiftRows moves into row j of column c.
_GATHER = [_SHIFT[j::4].copy() for j in range(4)]


class AesBatch:
    """AES encryption over batches of 16-byte blocks."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS:
            raise ConfigError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.rounds = _ROUNDS[len(key)]
        round_keys = [np.array(rk, dtype=np.uint8) for rk in _expand_key(bytes(key))]
        self._first_key = round_keys[0]
        self._middle_keys = [rk.view("<u4") for rk in round_keys[1:-1]]
        self._last_key = round_keys[-1]

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(N, 16)`` uint8 array of blocks."""
        if blocks.ndim != 2 or blocks.shape[1] != 16 or blocks.dtype != np.uint8:
            raise ConfigError("blocks must be an (N, 16) uint8 array")
        t0, t1, t2, t3 = _T
        g0, g1, g2, g3 = _GATHER
        state = blocks ^ self._first_key
        for rk in self._middle_keys:
            words = (t0[state.take(g0, axis=1)] ^ t1[state.take(g1, axis=1)]
                     ^ t2[state.take(g2, axis=1)] ^ t3[state.take(g3, axis=1)])
            words ^= rk
            state = words.astype("<u4", copy=False).view(np.uint8)
        state = _SBOX_NP[state.take(_SHIFT, axis=1)]
        state ^= self._last_key
        return state


def ctr_keystream(key: bytes, counter_blocks: np.ndarray) -> np.ndarray:
    """Keystream bytes for an ``(N, 16)`` array of counter blocks."""
    return AesBatch(key).encrypt_blocks(counter_blocks)
