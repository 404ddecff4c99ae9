"""Deterministic random substreams.

Every stochastic draw in the simulator comes from a substream derived
from (master_seed, module label, slot index). Substreams are mutually
independent and order-free: drawing for slot 500 never depends on
whether slot 499 was drawn first, which is what makes regime re-seeding
and byte-identical reruns cheap to guarantee.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

# numpy.random.SeedSequence (pool size 4) and PCG64 seeding constants.
# NumPy freezes both algorithms under its stream-compatibility policy
# (NEP 19), so substream_normals can replay them in a batch.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # 128-bit multiplier
_MASK32 = 0xFFFFFFFF


def substream(master_seed: int, module: str, index: int = 0) -> np.random.Generator:
    """Return the generator for (master_seed, module, index).

    The key is hashed with SHA-256 so nearby seeds or indices share no
    state. Calling twice with the same triple yields identical streams.
    """
    key = f"{master_seed}:{module}:{index}".encode()
    digest = hashlib.sha256(key).digest()
    entropy = int.from_bytes(digest[:16], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiply) operands of ``count`` successive hash steps.

    SeedSequence's running hash constant does not depend on the data,
    so every step's operands are fixed.
    """
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    return list(zip(consts, consts[1:]))


# 16 entropy-mixing steps (4 initial, 12 cross-mixes), 8 output words.
_MIX_STEPS = _hash_constants(_INIT_A, _MULT_A, 16)
_GEN_STEPS = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xor: int, mult: int) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _seed_words(pool: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's mix_entropy, then generate_state(8, uint32), for
    many keys at once: ``pool`` holds the four uint32 entropy words, low
    first, as arrays with one key per element. uint32 arithmetic wraps
    as SeedSequence's does."""
    steps = iter(_MIX_STEPS)
    pool = [_hashmix(word, *next(steps)) for word in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(pool[src], *next(steps))
                pool[dst] = mixed ^ (mixed >> 16)
    return [_hashmix(pool[i % 4], *step) for i, step in enumerate(_GEN_STEPS)]


def _mul64(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit product of uint64 ``a`` and a 64-bit constant, as (high, low) words."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low, cross, high = a0 * b0, a1 * b0, a1 * b1
    mid = (low >> 32) + (cross & _MASK32) + a0 * b1  # < 2^64: no carry is lost
    return high + (cross >> 32) + (mid >> 32), a * b


def _pcg64_states(master_seed: int, module: str, indices: Sequence[int]) -> list[np.ndarray]:
    """PCG64 (state, inc) of ``substream(master_seed, module, i)`` for each i, as
    the uint64 arrays [state high, state low, inc high, inc low]: the 128-bit
    arithmetic in 64-bit words, which wrap as it does."""
    prefix = f"{master_seed}:{module}:"
    digests = b"".join([hashlib.sha256((prefix + str(i)).encode()).digest() for i in indices])
    # The first 16 digest bytes are the 128-bit little-endian entropy: four
    # uint32 words, low first; SeedSequence pads missing high words with zeros.
    pool = np.frombuffer(digests, dtype="<u4").reshape(-1, 8)[:, :4].astype(np.uint32)
    # generate_state(4, uint64) pairs the words little-endian; PCG64 seeds
    # with (u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]), inc = that << 1 | 1.
    words = np.column_stack(_seed_words([pool[:, i] for i in range(4)]))
    seed_hi, seed_lo, inc_hi, inc_lo = words.astype("<u4", copy=False).view("<u8").T
    inc_hi, inc_lo = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1
    # pcg64_srandom_r: state = inc + seed, then one step, state * mult + inc.
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    carry, product_lo = _mul64(lo, _PCG_MULT_LO)
    hi = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo = product_lo + inc_lo
    return [hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo]


def substream_normals(
    master_seed: int, module: str, indices: Sequence[int], width: int
) -> np.ndarray:
    """Row r holds ``substream(master_seed, module, indices[r]).standard_normal(width)``.

    Bit-identical to the per-index calls, at a fraction of their seeding
    cost: one PCG64 is re-seeded per row instead of building a
    SeedSequence and a Generator.
    """
    out = np.empty((len(indices), width), dtype=np.float64)
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state  # one dict, re-filled per row
    pcg = state["state"]
    words = zip(*(a.tolist() for a in _pcg64_states(master_seed, module, indices)))
    for row, (state_hi, state_lo, inc_hi, inc_lo) in zip(out, words):
        pcg["state"], pcg["inc"] = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
        bit_gen.state = state
        gen.standard_normal(out=row)
    return out


def stable_id(prefix: str, *parts: bytes | str | np.ndarray) -> str:
    """Derive a short reproducible identifier from content bytes.

    An array part is hashed as its C-order bytes, what ``.tobytes()``
    returns, from its own buffer when it is C-contiguous.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
        h.update(part)
        h.update(b"\x00")
    return f"{prefix}-{h.hexdigest()[:12]}"
