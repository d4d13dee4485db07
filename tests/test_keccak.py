"""Keccak-256: published vectors and differential checks of the digest, the
permutation and the slot derivations against the independently structured
oracle."""

import gc
import random
import sys

import pytest

from solsem.evaluator import slot_of_dyn, slot_of_map
from solsem.keccak import _keccak_f, keccak256, keccak256_int

from keccak_oracle import _permute, keccak256_oracle, keccak256_oracle_int

M64 = (1 << 64) - 1

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


def _oracle_permutation(lanes):
    """The oracle's Keccak-f of 25 lanes (lane x + 5*y is (x, y))."""
    grid = [[lanes[x + 5 * y] for y in range(5)] for x in range(5)]
    _permute(grid)
    return [grid[i % 5][i // 5] for i in range(25)]


def test_permutation_of_full_states_against_oracle():
    # a padded message leaves 8 lanes zero; these states fill all 25, and set
    # the top and bottom bit of every lane, which a rotation carries across
    rng = random.Random(0xF1600)
    states = [[rng.getrandbits(64) for _ in range(25)] for _ in range(60)]
    states += [[M64] * 25, [1 << 63] * 25, [1] * 25,
               [(1 << 63) | 1] * 25, [M64 if i % 2 else 0 for i in range(25)]]
    for state in states:
        lanes = list(state)
        _keccak_f(lanes)
        assert lanes == _oracle_permutation(state)
        assert all(0 <= lane < 1 << 64 for lane in lanes)


def test_two_permutations_in_a_row_against_oracle():
    rng = random.Random(0x2F)
    for state in ([rng.getrandbits(64) for _ in range(25)], [M64] * 25):
        lanes = list(state)
        _keccak_f(lanes)
        _keccak_f(lanes)
        assert lanes == _oracle_permutation(_oracle_permutation(state))


def test_slot_derivation_against_oracle():
    rng = random.Random(0x5107)
    bases = [0, 1, 2 ** 256 - 1] + [rng.getrandbits(256) for _ in range(20)]
    for p in bases:
        p32 = p.to_bytes(32, "big")
        for key in (0, 2 ** 256 - 1, rng.getrandbits(256), rng.getrandbits(160)):
            k32 = key.to_bytes(32, "big")
            assert slot_of_map(p, k32) == keccak256_oracle_int(p32 + k32)
            assert slot_of_map(p, k32, True) == keccak256_oracle_int(k32 + p32)
        for i in (0, 1, rng.randrange(1 << 64)):
            assert slot_of_dyn(p, i) == keccak256_oracle_int(p32) + i


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="call counts are pinned for CPython 3.11")
def test_one_digest_makes_three_python_calls():
    # a comprehension or a helper inside the permutation would be one more
    # Python call per group or round
    names = []

    def record(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)
    data = bytes(range(64))
    gc.collect()
    gc.disable()
    sys.setprofile(record)
    try:
        keccak256_int(data)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert names == ["keccak256_int", "keccak256", "_keccak_f"]
