"""GHASH: the universal hash over GF(2^128) used by AES-GCM.

The paper's case study (§VI-C) adds AES-GCM cores for both memory
encryption and integrity verification.  GHASH is the authentication half
of GCM: a polynomial evaluation over GF(2^128) keyed by ``H = AES_K(0)``.

The field is GF(2^128) with the GCM reduction polynomial
``x^128 + x^7 + x^2 + x + 1`` and GCM's reflected bit order: bit 0 of byte
0 is the coefficient of x^0.  :func:`gf128_mul` is the standard
right-shift multiplication algorithm from NIST SP 800-38D and serves as
the reference; :class:`Ghash` multiplies by its fixed ``H`` through
per-key lookup tables derived from it.  ``AesGcm`` and ``GcmMac`` both
hash through :meth:`Ghash.digest`.
"""

from __future__ import annotations

from repro.common.errors import ConfigError

# GCM's "R" constant: the reduction polynomial's low terms, reflected.
_R = 0xE1000000000000000000000000000000


def gf128_mul(x: int, y: int) -> int:
    """Multiply two field elements in GCM bit order (MSB-first integers)."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _pad16(data: bytes) -> bytes:
    rem = len(data) % 16
    return data + bytes(16 - rem) if rem else data


class Ghash:
    """GHASH keyed by subkey ``H``, evaluated with per-key lookup tables.

    ``_tables[k][b]`` is ``(b placed at byte k) · H``, so a field multiply
    by ``H`` is 16 table lookups XORed together instead of the 128-step
    :func:`gf128_mul`, which stays as the reference.  The 16×256 tables
    are built once per key from the 128 products ``H · x^i``.
    """

    def __init__(self, h_subkey: bytes) -> None:
        if len(h_subkey) != 16:
            raise ConfigError(f"GHASH subkey must be 16 bytes, got {len(h_subkey)}")
        # powers[i] = H · x^i: multiplying by x is a right shift in GCM order.
        powers = []
        v = int.from_bytes(h_subkey, "big")
        for _ in range(128):
            powers.append(v)
            v = (v >> 1) ^ _R if v & 1 else v >> 1
        self._tables = []
        for k in range(16):
            # Bit j (value 1 << j) of byte k is the coefficient of x^(8k+7-j).
            table = [0] * 256
            for j in range(8):
                bit, power = 1 << j, powers[8 * k + 7 - j]
                for low in range(bit):
                    table[bit | low] = table[low] ^ power
            self._tables.append(table)

    def digest(self, data: bytes, aad: bytes = b"") -> bytes:
        """GCM's GHASH over zero-padded ``aad`` ‖ zero-padded ``data`` ‖
        the 64-bit bit lengths of both."""
        lengths = ((len(aad) * 8) << 64 | (len(data) * 8)).to_bytes(16, "big")
        body = _pad16(aad) + _pad16(data) + lengths
        tables = self._tables
        y = 0
        for offset in range(0, len(body), 16):
            x = y ^ int.from_bytes(body[offset : offset + 16], "big")
            y = 0
            for table, byte in zip(tables, x.to_bytes(16, "big")):
                y ^= table[byte]
        return y.to_bytes(16, "big")
