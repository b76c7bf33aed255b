"""numpy's SeedSequence and PCG64, emulated on uint64 word arrays, one entry per generator.

`_child_states` derives the ``(state, inc)`` of
``np.random.default_rng((seed, i))`` for a range of indices i at once.
`_draw_sizes` steps each state through one ``rng.integers(2)`` and
`_doubles` through ``rng.random()`` calls; `_generators` sets one numpy
Generator to each state in turn.  A 128-bit value is a (high, low) pair
of uint64 arrays; `_mul_add` is one LCG step on such pairs and `_xsl_rr`
PCG64's output function.  The tests compare every word with
``default_rng`` on the installed numpy.
"""

from __future__ import annotations

import numpy as np

# numpy.random.SeedSequence's hash constants and PCG64's LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    """``value``'s 32-bit words, least significant first, as SeedSequence splits it."""
    if value < 0:
        raise ValueError(f"seed must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    # The constant's sequence does not depend on the data, so it stays a
    # Python int; the uint32 arrays wrap like SeedSequence's uint32_t.
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const
    return value ^ (value >> 16), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _mul_add(x, mult: int, add):
    """``x * mult + add`` mod 2^128, on (high, low) pairs of uint64 arrays; ``mult`` is an int.

    The low words' full product is summed from 32-bit limb products, which
    cannot overflow; the low word's carry is read by comparison.
    """
    x_hi, x_lo = x
    add_hi, add_lo = add
    m_hi, m_lo = np.uint64(mult >> 64 & _MASK64), np.uint64(mult & _MASK64)
    m1, m0 = np.uint64(mult >> 32 & _MASK32), np.uint64(mult & _MASK32)
    x1, x0 = x_lo >> 32, x_lo & _MASK32
    middle = (x0 * m0 >> 32) + (x1 * m0 & _MASK32) + (x0 * m1 & _MASK32)
    hi = x1 * m1 + (x1 * m0 >> 32) + (x0 * m1 >> 32) + (middle >> 32)
    lo = x_lo * m_lo + add_lo
    hi += x_hi * m_lo + x_lo * m_hi + add_hi + (lo < add_lo)
    return hi, lo


def _xsl_rr(state) -> np.ndarray:
    """PCG64's output at each ``(high, low)`` state: high ^ low rotated right by high >> 58."""
    hi, lo = state
    word = hi ^ lo
    rotation = hi >> 58
    return word >> rotation | word << (64 - rotation & 63)


def _child_states(seed: int, stop: int, start: int = 0):
    """``(state, inc)`` of ``np.random.default_rng((seed, i)).bit_generator`` for start <= i < stop.

    Each is a (high, low) pair of uint64 arrays, one entry per trial.
    SeedSequence hashes the entropy words [seed words..., i] into a pool
    of four words and draws 4 uint64 from it; PCG64 seeds its 128-bit
    state and increment from those.  This runs both steps on all the
    indices at once.  Such a generator also has ``has_uint32 = uinteger = 0``.
    """
    if stop > 1 << 32:
        raise ValueError(f"trial indices must fit one 32-bit word, got {stop} trials")
    entropy = [np.full(stop - start, word, dtype=np.uint32) for word in _uint32_words(seed)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    hash_const = _INIT_A
    pool = []
    for word in range(_POOL_SIZE):
        source = entropy[word] if word < len(entropy) else np.zeros(stop - start, np.uint32)
        value, hash_const = _hashmix(source, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for source in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(source, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    hash_const = _INIT_B
    words = []
    for word in range(8):
        value, hash_const = _hashmix(pool[word % _POOL_SIZE], hash_const, _MULT_B)
        words.append(value.astype(np.uint64))
    # Little-endian pairs of words make the uint64 seed[0..3]; PCG64 reads
    # seed[0], seed[1] as its initial state's high and low words and
    # seed[2], seed[3] as its stream's.
    seeds = [words[word] | words[word + 1] << 32 for word in range(0, 8, 2)]
    initial, stream = seeds[:2], seeds[2:]
    # pcg_setseq_128_srandom_r: inc = 2 stream + 1, then two LCG steps
    # with the initial state added after the first.
    inc = (stream[0] << 1 | stream[1] >> 63, stream[1] << 1 | 1)
    return _mul_add(_mul_add(initial, 1, inc), _PCG64_MULT, inc), inc


def _draw_sizes(state, inc):
    """Each trial's ``rng.integers(2)``: ``(state, large, buffered)`` after one LCG step.

    The draw reads bit 31 of one output's low half, and the generator keeps
    the high half (``has_uint32 = 1``, ``uinteger = buffered``) for later.
    """
    state = _mul_add(state, _PCG64_MULT, inc)
    word = _xsl_rr(state)
    return state, (word >> 31 & 1).astype(bool), word >> 32


def _doubles(state, inc, count: int) -> np.ndarray:
    """Each generator's next ``count`` ``rng.random()`` draws, one row per generator.

    A draw is one LCG step, and numpy's next_double keeps the top 53 bits
    of the output.
    """
    uniforms = np.empty((len(inc[0]), count))
    for draw in range(count):
        state = _mul_add(state, _PCG64_MULT, inc)
        uniforms[:, draw] = (_xsl_rr(state) >> 11) * 2.0**-53
    return uniforms


def _generators(state, inc, buffered):
    """One Generator, set to each entry's ``(state, inc)`` in turn and yielded there.

    ``buffered`` holds each entry's buffered 32-bit half output
    (``has_uint32 = 1``), or is None where there is none.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    # One state dict for all entries; only its integers change.
    pcg = {"state": 0, "inc": 0}
    generator = {"bit_generator": "PCG64", "state": pcg, "has_uint32": int(buffered is not None)}
    halves = [0] * len(inc[0]) if buffered is None else buffered.tolist()
    for state_hi, state_lo, inc_hi, inc_lo, half in zip(
        *(words.tolist() for words in (*state, *inc)), halves
    ):
        pcg["state"], pcg["inc"] = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
        generator["uinteger"] = half
        rng.bit_generator.state = generator
        yield rng
