"""Keccak-256 (original Keccak padding, as used by Ethereum; not NIST SHA3-256).

Self-contained implementation that derives the storage slots of mapping
values and dynamic-array elements. Each key or index a World has not seen
yet costs one digest, so the permutation is the per-new-key cost of every
mapping and dynamic-array access. `_keccak_f` is thus one straight-line
round over 25 local lanes, with rotation amounts and pi's lane moves written
out, not loops over index tables. The tests check it against published
vectors, the published permutation of the all-zero state, and an
independently structured implementation.
"""

from __future__ import annotations

import struct

_RATE = 136  # bytes: 1088-bit rate, 512-bit capacity
_MASK64 = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _keccak_f(lanes: list[int]) -> None:
    """Keccak-f[1600] on the 25 lanes, in place. Lane x + 5*y is (x, y),
    held in local aXY."""
    M = _MASK64
    (a00, a10, a20, a30, a40,
     a01, a11, a21, a31, a41,
     a02, a12, a22, a32, a42,
     a03, a13, a23, a33, a43,
     a04, a14, a24, a34, a44) = lanes
    for rc in _ROUND_CONSTANTS:
        # theta: column parities c_x, and d_x = c_(x-1) ^ rotl(c_(x+1), 1)
        c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
        c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
        c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
        c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
        c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & M)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & M)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & M)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & M)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & M)
        # theta's d_x folded into rho and pi: lane (x, y) xor d_x, rotated by
        # its own amount, moves to lane (y, 2x + 3y mod 5), named bXY
        b00 = a00 ^ d0
        b02 = (((t := a10 ^ d1) << 1) | (t >> 63)) & M
        b04 = (((t := a20 ^ d2) << 62) | (t >> 2)) & M
        b01 = (((t := a30 ^ d3) << 28) | (t >> 36)) & M
        b03 = (((t := a40 ^ d4) << 27) | (t >> 37)) & M
        b13 = (((t := a01 ^ d0) << 36) | (t >> 28)) & M
        b10 = (((t := a11 ^ d1) << 44) | (t >> 20)) & M
        b12 = (((t := a21 ^ d2) << 6) | (t >> 58)) & M
        b14 = (((t := a31 ^ d3) << 55) | (t >> 9)) & M
        b11 = (((t := a41 ^ d4) << 20) | (t >> 44)) & M
        b21 = (((t := a02 ^ d0) << 3) | (t >> 61)) & M
        b23 = (((t := a12 ^ d1) << 10) | (t >> 54)) & M
        b20 = (((t := a22 ^ d2) << 43) | (t >> 21)) & M
        b22 = (((t := a32 ^ d3) << 25) | (t >> 39)) & M
        b24 = (((t := a42 ^ d4) << 39) | (t >> 25)) & M
        b34 = (((t := a03 ^ d0) << 41) | (t >> 23)) & M
        b31 = (((t := a13 ^ d1) << 45) | (t >> 19)) & M
        b33 = (((t := a23 ^ d2) << 15) | (t >> 49)) & M
        b30 = (((t := a33 ^ d3) << 21) | (t >> 43)) & M
        b32 = (((t := a43 ^ d4) << 8) | (t >> 56)) & M
        b42 = (((t := a04 ^ d0) << 18) | (t >> 46)) & M
        b44 = (((t := a14 ^ d1) << 2) | (t >> 62)) & M
        b41 = (((t := a24 ^ d2) << 61) | (t >> 3)) & M
        b43 = (((t := a34 ^ d3) << 56) | (t >> 8)) & M
        b40 = (((t := a44 ^ d4) << 14) | (t >> 50)) & M
        # chi, kept non-negative (b ^ M is ~b on 64 bits), and iota
        a00 = b00 ^ ((b10 ^ M) & b20) ^ rc
        a10 = b10 ^ ((b20 ^ M) & b30)
        a20 = b20 ^ ((b30 ^ M) & b40)
        a30 = b30 ^ ((b40 ^ M) & b00)
        a40 = b40 ^ ((b00 ^ M) & b10)
        a01 = b01 ^ ((b11 ^ M) & b21)
        a11 = b11 ^ ((b21 ^ M) & b31)
        a21 = b21 ^ ((b31 ^ M) & b41)
        a31 = b31 ^ ((b41 ^ M) & b01)
        a41 = b41 ^ ((b01 ^ M) & b11)
        a02 = b02 ^ ((b12 ^ M) & b22)
        a12 = b12 ^ ((b22 ^ M) & b32)
        a22 = b22 ^ ((b32 ^ M) & b42)
        a32 = b32 ^ ((b42 ^ M) & b02)
        a42 = b42 ^ ((b02 ^ M) & b12)
        a03 = b03 ^ ((b13 ^ M) & b23)
        a13 = b13 ^ ((b23 ^ M) & b33)
        a23 = b23 ^ ((b33 ^ M) & b43)
        a33 = b33 ^ ((b43 ^ M) & b03)
        a43 = b43 ^ ((b03 ^ M) & b13)
        a04 = b04 ^ ((b14 ^ M) & b24)
        a14 = b14 ^ ((b24 ^ M) & b34)
        a24 = b24 ^ ((b34 ^ M) & b44)
        a34 = b34 ^ ((b44 ^ M) & b04)
        a44 = b44 ^ ((b04 ^ M) & b14)
    lanes[:] = (a00, a10, a20, a30, a40,
                a01, a11, a21, a31, a41,
                a02, a12, a22, a32, a42,
                a03, a13, a23, a33, a43,
                a04, a14, a24, a34, a44)


def keccak256(data: bytes) -> bytes:
    """Digest of `data` as 32 bytes."""
    # multi-rate padding with original Keccak domain byte 0x01
    padded = bytearray(data)
    pad_len = _RATE - (len(padded) % _RATE)
    padded += b"\x01" + b"\x00" * (pad_len - 2) + b"\x80" if pad_len >= 2 else b"\x81"
    lanes = [0] * 25
    for block_start in range(0, len(padded), _RATE):
        for i, word in enumerate(struct.unpack_from("<17Q", padded, block_start)):
            lanes[i] ^= word
        _keccak_f(lanes)
    return struct.pack("<4Q", *lanes[:4])


def keccak256_int(data: bytes) -> int:
    """Digest interpreted as a big-endian 256-bit integer (a slot number)."""
    return int.from_bytes(keccak256(data), "big")
