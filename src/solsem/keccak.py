"""Keccak-256 (original Keccak padding, as used by Ethereum; not NIST SHA3-256).

Self-contained implementation that derives the storage slots of mapping
values and dynamic-array elements. Each key or index a World has not seen
yet costs one digest, so the permutation is the per-new-key cost of every
mapping and dynamic-array access. `_keccak_f` is thus one straight-line
round over 25 local lanes, with rotation amounts and pi's lane moves written
out, not loops over index tables.

Inside `_keccak_f` a lane v is held replicated, as v * _REP, so that each
bit of the int below its valid top is the lane's bit at that index mod 64:
a rotation left by n is the one shift `>> (64 - n)`, and xor and and keep
the form, with no mask inside a round. Each round spends exactly 64 valid
bits from the top, since theta's `c << 1` spoils bit 0 and every rho shift
then drops it (lane (0, 0) by `>> 64`). So _GROUP + 1 copies carry _GROUP
rounds, after which the lanes are masked and replicated again; on
CPython 3.11, 5 copies (320 bits) per 4 rounds timed faster than groups of
3, 6, 8 or 12 rounds, as a wider int costs more per operation and a
shorter group replicates more often. The tests check the permutation and
the digest against published vectors and an independently structured
implementation.
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
_GROUP = 4  # rounds between two replications of the lanes
_REP = sum(1 << 64 * j for j in range(_GROUP + 1))  # v * _REP: _GROUP + 1 copies
# the round constants by group, each replicated over the copies still valid
# after its round
_GROUPS = tuple(
    tuple(rc * (_REP >> 64 * (r + 1))
          for r, rc in enumerate(_ROUND_CONSTANTS[g:g + _GROUP]))
    for g in range(0, len(_ROUND_CONSTANTS), _GROUP))


def _keccak_f(lanes: list[int]) -> None:
    """Keccak-f[1600] on the 25 lanes, in place. Lane x + 5*y is (x, y),
    held replicated in local aXY."""
    M = _MASK64
    R = _REP
    (a00, a10, a20, a30, a40,
     a01, a11, a21, a31, a41,
     a02, a12, a22, a32, a42,
     a03, a13, a23, a33, a43,
     a04, a14, a24, a34, a44) = lanes
    for group in _GROUPS:
        # mask off what the last group spent, then _GROUP + 1 copies
        (a00, a10, a20, a30, a40,
         a01, a11, a21, a31, a41,
         a02, a12, a22, a32, a42,
         a03, a13, a23, a33, a43,
         a04, a14, a24, a34, a44) = (
            (a00 & M) * R, (a10 & M) * R, (a20 & M) * R, (a30 & M) * R, (a40 & M) * R,
            (a01 & M) * R, (a11 & M) * R, (a21 & M) * R, (a31 & M) * R, (a41 & M) * R,
            (a02 & M) * R, (a12 & M) * R, (a22 & M) * R, (a32 & M) * R, (a42 & M) * R,
            (a03 & M) * R, (a13 & M) * R, (a23 & M) * R, (a33 & M) * R, (a43 & M) * R,
            (a04 & M) * R, (a14 & M) * R, (a24 & M) * R, (a34 & M) * R, (a44 & M) * R)
        for rc in group:
            # theta: column parities c_x, and d_x = c_(x-1) ^ rotl(c_(x+1), 1),
            # whose `<< 1` leaves bit 0 wrong
            c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
            c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
            c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
            c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
            c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
            d0 = c4 ^ (c1 << 1)
            d1 = c0 ^ (c2 << 1)
            d2 = c1 ^ (c3 << 1)
            d3 = c2 ^ (c4 << 1)
            d4 = c3 ^ (c0 << 1)
            # theta's d_x folded into rho and pi: lane (x, y) xor d_x, rotated
            # left by its own amount n (a shift right by 64 - n, or by 64 for
            # n = 0, drops bit 0), moves to lane (y, 2x + 3y mod 5), named bXY
            b00 = (a00 ^ d0) >> 64
            b02 = (a10 ^ d1) >> 63
            b04 = (a20 ^ d2) >> 2
            b01 = (a30 ^ d3) >> 36
            b03 = (a40 ^ d4) >> 37
            b13 = (a01 ^ d0) >> 28
            b10 = (a11 ^ d1) >> 20
            b12 = (a21 ^ d2) >> 58
            b14 = (a31 ^ d3) >> 9
            b11 = (a41 ^ d4) >> 44
            b21 = (a02 ^ d0) >> 61
            b23 = (a12 ^ d1) >> 54
            b20 = (a22 ^ d2) >> 21
            b22 = (a32 ^ d3) >> 39
            b24 = (a42 ^ d4) >> 25
            b34 = (a03 ^ d0) >> 23
            b31 = (a13 ^ d1) >> 19
            b33 = (a23 ^ d2) >> 49
            b30 = (a33 ^ d3) >> 43
            b32 = (a43 ^ d4) >> 56
            b42 = (a04 ^ d0) >> 46
            b44 = (a14 ^ d1) >> 62
            b41 = (a24 ^ d2) >> 3
            b43 = (a34 ^ d3) >> 8
            b40 = (a44 ^ d4) >> 50
            # chi as b0 ^ b2 ^ (b1 & b2), which is b0 ^ (~b1 & b2) and
            # keeps every int non-negative, and iota
            a00 = b00 ^ b20 ^ (b10 & b20) ^ rc
            a10 = b10 ^ b30 ^ (b20 & b30)
            a20 = b20 ^ b40 ^ (b30 & b40)
            a30 = b30 ^ b00 ^ (b40 & b00)
            a40 = b40 ^ b10 ^ (b00 & b10)
            a01 = b01 ^ b21 ^ (b11 & b21)
            a11 = b11 ^ b31 ^ (b21 & b31)
            a21 = b21 ^ b41 ^ (b31 & b41)
            a31 = b31 ^ b01 ^ (b41 & b01)
            a41 = b41 ^ b11 ^ (b01 & b11)
            a02 = b02 ^ b22 ^ (b12 & b22)
            a12 = b12 ^ b32 ^ (b22 & b32)
            a22 = b22 ^ b42 ^ (b32 & b42)
            a32 = b32 ^ b02 ^ (b42 & b02)
            a42 = b42 ^ b12 ^ (b02 & b12)
            a03 = b03 ^ b23 ^ (b13 & b23)
            a13 = b13 ^ b33 ^ (b23 & b33)
            a23 = b23 ^ b43 ^ (b33 & b43)
            a33 = b33 ^ b03 ^ (b43 & b03)
            a43 = b43 ^ b13 ^ (b03 & b13)
            a04 = b04 ^ b24 ^ (b14 & b24)
            a14 = b14 ^ b34 ^ (b24 & b34)
            a24 = b24 ^ b44 ^ (b34 & b44)
            a34 = b34 ^ b04 ^ (b44 & b04)
            a44 = b44 ^ b14 ^ (b04 & b14)
    lanes[:] = (a00 & M, a10 & M, a20 & M, a30 & M, a40 & M,
                a01 & M, a11 & M, a21 & M, a31 & M, a41 & M,
                a02 & M, a12 & M, a22 & M, a32 & M, a42 & M,
                a03 & M, a13 & M, a23 & M, a33 & M, a43 & M,
                a04 & M, a14 & M, a24 & M, a34 & M, a44 & M)


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
