"""AES block cipher (FIPS-197) implemented from scratch.

The MGX hardware uses pipelined AES cores for counter-mode encryption and
GCM-style authentication.  This module provides the functional equivalent:
a table-driven AES-128/192/256 implementation operating on 16-byte blocks.
Only block encryption is required by counter mode (decryption XORs the same
keystream), but the inverse cipher is included for completeness and is
exercised by the round-trip tests against the FIPS-197 known-answer
vectors.

Performance note: this is a clarity-first implementation (~0.2 ms per
block in CPython) and serves as the reference.  The timing simulators
never call it — they model the AES pipeline analytically — and the bulk
users go through :class:`repro.crypto.aes_batch.AesBatch`, which encrypts
a whole batch per numpy call: the functional engine's keystreams and every
AES-GCM record of the serving channel.  Moving ``AesGcm`` from one scalar
call per block to one batched call per record (plus table-driven GHASH)
took a 256-byte seal from 5.3 ms to 0.21 ms and the closed-loop serving
benchmark from 40 to ~500 req/s (2-core x86-64, CPython 3.11).
"""

from __future__ import annotations

from repro.common.errors import ConfigError

# ---------------------------------------------------------------------------
# S-box generation.  Rather than embedding the 256-entry table we derive it
# from the multiplicative inverse in GF(2^8) followed by the affine map, and
# pin the whole table by digest in the unit tests.
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) modulo the AES polynomial 0x11B."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Full GF(2^8) multiplication used by MixColumns."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses from log/antilog tables over the generator 3:
    # if a = 3^k then a^-1 = 3^(255 - k).
    antilog = [0] * 255
    log = [0] * 256
    power = 1
    for k in range(255):
        antilog[k] = power
        log[power] = k
        power ^= _xtime(power)  # power * 3
    inverse = [0] + [antilog[-log[a] % 255] for a in range(1, 256)]
    sbox = bytearray(256)
    for value in range(256):
        x = inverse[value]
        # Affine transform: y = x ^ rotl(x,1) ^ rotl(x,2) ^ rotl(x,3) ^ rotl(x,4) ^ 0x63
        y = x
        for shift in (1, 2, 3, 4):
            y ^= ((x << shift) | (x >> (8 - shift))) & 0xFF
        sbox[value] = y ^ 0x63
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]

#: Rounds per key size in bytes.
_ROUNDS = {16: 10, 24: 12, 32: 14}


def _expand_key(key: bytes) -> list[list[int]]:
    """Key schedule returning one 16-byte round key per round (as lists)."""
    nk = len(key) // 4
    rounds = _ROUNDS[len(key)]
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        word = list(words[i - 1])
        if i % nk == 0:
            word = word[1:] + word[:1]
            word = [SBOX[b] for b in word]
            word[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            word = [SBOX[b] for b in word]
        words.append([words[i - nk][j] ^ word[j] for j in range(4)])
    round_keys = []
    for r in range(rounds + 1):
        rk: list[int] = []
        for w in words[4 * r : 4 * r + 4]:
            rk.extend(w)
        round_keys.append(rk)
    return round_keys


def _sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = SBOX[state[i]]


def _inv_sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = INV_SBOX[state[i]]


# State layout: column-major as in FIPS-197; state[4*c + r] is row r, col c.

_SHIFT_MAP = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
_INV_SHIFT_MAP = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]


def _shift_rows(state: list[int]) -> list[int]:
    return [state[_SHIFT_MAP[i]] for i in range(16)]


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [state[_INV_SHIFT_MAP[i]] for i in range(16)]


def _mix_columns(state: list[int]) -> None:
    for c in range(4):
        a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
        state[4 * c + 0] = _gf_mul(a0, 2) ^ _gf_mul(a1, 3) ^ a2 ^ a3
        state[4 * c + 1] = a0 ^ _gf_mul(a1, 2) ^ _gf_mul(a2, 3) ^ a3
        state[4 * c + 2] = a0 ^ a1 ^ _gf_mul(a2, 2) ^ _gf_mul(a3, 3)
        state[4 * c + 3] = _gf_mul(a0, 3) ^ a1 ^ a2 ^ _gf_mul(a3, 2)


def _inv_mix_columns(state: list[int]) -> None:
    for c in range(4):
        a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
        state[4 * c + 0] = _gf_mul(a0, 14) ^ _gf_mul(a1, 11) ^ _gf_mul(a2, 13) ^ _gf_mul(a3, 9)
        state[4 * c + 1] = _gf_mul(a0, 9) ^ _gf_mul(a1, 14) ^ _gf_mul(a2, 11) ^ _gf_mul(a3, 13)
        state[4 * c + 2] = _gf_mul(a0, 13) ^ _gf_mul(a1, 9) ^ _gf_mul(a2, 14) ^ _gf_mul(a3, 11)
        state[4 * c + 3] = _gf_mul(a0, 11) ^ _gf_mul(a1, 13) ^ _gf_mul(a2, 9) ^ _gf_mul(a3, 14)


def _add_round_key(state: list[int], rk: list[int]) -> None:
    for i in range(16):
        state[i] ^= rk[i]


class AES:
    """AES block cipher with a fixed key.

    >>> AES(bytes(16)).encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS:
            raise ConfigError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = _ROUNDS[len(key)]
        self._round_keys = _expand_key(self.key)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != 16:
            raise ConfigError(f"AES block must be 16 bytes, got {len(block)}")
        state = list(block)
        _add_round_key(state, self._round_keys[0])
        for r in range(1, self.rounds):
            _sub_bytes(state)
            state = _shift_rows(state)
            _mix_columns(state)
            _add_round_key(state, self._round_keys[r])
        _sub_bytes(state)
        state = _shift_rows(state)
        _add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block (inverse cipher)."""
        if len(block) != 16:
            raise ConfigError(f"AES block must be 16 bytes, got {len(block)}")
        state = list(block)
        _add_round_key(state, self._round_keys[self.rounds])
        for r in range(self.rounds - 1, 0, -1):
            state = _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, self._round_keys[r])
            _inv_mix_columns(state)
        state = _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        return bytes(state)
