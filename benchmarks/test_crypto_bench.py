"""AES-GCM record microbenchmarks: the serving channel's per-request cost.

Every sealed request and reply is one ``AesGcm`` call, so these pin the
seal and open time at the record sizes the serving front-end carries
(a small request, a typical reply, a large reply) plus the one-off
per-key setup (batched round keys and the GHASH tables).  The
``crypto_`` fullname prefix puts them under the bench-trend gate.
"""

from __future__ import annotations

import pytest

from repro.crypto.gcm import AesGcm

_KEY = bytes(range(16))
_IV = bytes(12)
_AAD = b"tenant-7:req-42"


@pytest.mark.parametrize("nbytes", [64, 256, 2048])
def test_crypto_gcm_seal(benchmark, nbytes):
    gcm = AesGcm(_KEY)
    plaintext = bytes(nbytes)
    ciphertext, tag = benchmark(gcm.encrypt, _IV, plaintext, _AAD)
    assert len(ciphertext) == nbytes and len(tag) == 16


@pytest.mark.parametrize("nbytes", [64, 256, 2048])
def test_crypto_gcm_open(benchmark, nbytes):
    gcm = AesGcm(_KEY)
    plaintext = bytes(nbytes)
    ciphertext, tag = gcm.encrypt(_IV, plaintext, _AAD)
    assert benchmark(gcm.decrypt, _IV, ciphertext, tag, _AAD) == plaintext


def test_crypto_gcm_key_setup(benchmark):
    gcm = benchmark(AesGcm, _KEY)
    assert gcm.decrypt(_IV, *gcm.encrypt(_IV, b"x", _AAD), _AAD) == b"x"
