"""Keccak-256: published vectors and differential checks against the
independently structured oracle."""

import random

from solsem.keccak import _keccak_f, keccak256, keccak256_int

from keccak_oracle import keccak256_oracle

# published Keccak-256 digests (pre-NIST padding, as used on-chain)
VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    bytes(32): "290decd9548b62a8d60345a988386fc84ba6bc95484008f6362f93160ef3e563",
    (1).to_bytes(32, "big"):
        "b10e2d527612073b26eecdfd717e6a320cf44b4afac2b0732d9fcbe2b7fa0cf6",
    bytes(64): "ad3228b676f7d3cd4284a5443f17f1962b36e491b30a40b2405849e597ba5fb5",
}


def test_published_vectors():
    for data, digest in VECTORS.items():
        assert keccak256(data).hex() == digest


def test_oracle_matches_published_vectors():
    for data, digest in VECTORS.items():
        assert keccak256_oracle(data).hex() == digest


def test_differential_against_oracle():
    rng = random.Random(0xC0FFEE)
    # 134 and 270 end a block with two padding bytes, 135, 271 and 407 with
    # one; 408 fills three blocks, so the padding takes a fourth
    lengths = [0, 1, 31, 32, 55, 134, 135, 136, 137, 200, 270, 271, 272, 407,
               408, 500]
    for _ in range(200):
        n = rng.choice(lengths + [rng.randrange(0, 400)])
        data = rng.randbytes(n)
        assert keccak256(data) == keccak256_oracle(data)


def test_permutation_of_the_zero_state():
    # published Keccak-f[1600] intermediate values (KeccakF-1600-IntermediateValues)
    lanes = [0] * 25
    _keccak_f(lanes)
    assert lanes[:2] == [0xF1258F7940E1DDE7, 0x84D5CCF933C0478A]
    _keccak_f(lanes)
    assert lanes[0] == 0x2D5C954DF96ECB3C


def test_int_form_is_big_endian():
    assert keccak256_int(bytes(32)) == int(VECTORS[bytes(32)], 16)
