"""numpy's ``default_rng(seed).uniform`` stream in plain Python integers.

Parsing draws the seeded initial states here, so a run never imports
``numpy.random``.  The stream is numpy's: ``SeedSequence(seed)`` (NEP 19)
mixes the seed's 32-bit words into a 4-word pool and expands it to four
64-bit words, which seed PCG64 (XSL-RR 128/64, O'Neill 2014); each draw
steps the generator and maps its top 53 bits into [0, 1).  The draws
match numpy's bit for bit, so old seeds still give the same states.
"""

M32, M64, M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, const: list[int], mult: int = 0x931E8875) -> int:
    """numpy's ``hashmix``: xor ``value`` with the running hash constant ``const[0]``,
    advance the constant by ``mult`` and multiply by it, all mod 2**32."""
    value ^= const[0]
    const[0] = const[0] * mult & M32
    value = value * const[0] & M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    out = (0xCA01F9DD * x - 0x4973F715 * y) & M32
    return out ^ out >> 16


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` for a non-negative int seed."""
    entropy = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = [0x43B0D7E5]
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, const) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))
    const = [0x8B51F9DD]
    out = [_hashmix(pool[i % 4], const, 0x58F38DED) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]  # little-endian word pairs


def uniform(seed: int, lo: float, hi: float, count: int) -> list[float]:
    """The first ``count`` values of ``np.random.default_rng(seed).uniform(lo, hi)``."""
    s0, s1, i0, i1 = _seed_words(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & M128
    state = ((inc + (s0 << 64 | s1)) * PCG_MULT + inc) & M128  # srandom: step, add, step
    out, width = [], hi - lo
    for _ in range(count):
        state = (state * PCG_MULT + inc) & M128
        word, rot = (state >> 64 ^ state) & M64, state >> 122
        word = (word >> rot | word << (64 - rot)) & M64
        out.append(lo + width * ((word >> 11) * 2.0**-53))
    return out
