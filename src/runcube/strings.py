"""Run-constrained binary strings and their letter decompositions.

A binary string is run-constrained when every maximal run of 1s, say of
length r, is immediately followed by a run of at least r+1 zeros.  Such
strings factor uniquely over the infinite alphabet

    0,  100,  11000,  1110000,  ...

where the letter of size r >= 1 is 1^r 0^(r+1) and the letter of size 0 is
the single character 0.  The number of run-constrained strings of length n
is the Fibonacci number f_n (f_0 = 0, f_1 = 1, and f_{-1} = 1 so the empty
string is counted).
"""

from dataclasses import dataclass, field
from functools import lru_cache
import math
from numbers import Integral

import numpy as np

from . import config
from .errors import DomainError, ResourceLimitError, StructureError, ValidationError


def _check_binary(word):
    if not isinstance(word, str):
        raise ValidationError("expected a string of 0s and 1s, got %r" % (word,))
    for i, ch in enumerate(word):
        if ch not in "01":
            raise ValidationError("non-binary character %r at position %d" % (ch, i), position=i)


def first_violation(word):
    """Index where the run condition first fails, or None if it holds.

    The reported index is the first character that breaks the constraint
    (a 1 arriving before enough 0s have passed), or len(word) when the
    word ends before the required zeros are complete.
    """
    _check_binary(word)
    i = 0
    m = len(word)
    while i < m:
        if word[i] == "0":
            i += 1
            continue
        r = 0
        while i + r < m and word[i + r] == "1":
            r += 1
        z = 0
        while i + r + z < m and word[i + r + z] == "0":
            z += 1
        if z < r + 1:
            return i + r + z
        i += r + z
    return None


def is_run_constrained(word):
    """True when every 1-run of length r is followed by at least r+1 zeros."""
    return first_violation(word) is None


def letter(r):
    """The alphabet letter of size r: '0' for r = 0, else 1^r 0^(r+1)."""
    r = int(r)
    if r < 0:
        raise DomainError("letter size must be nonnegative")
    if r == 0:
        return "0"
    return "1" * r + "0" * (r + 1)


def factorize(word):
    """Unique letter factorization, as the list of letter indices r."""
    pos = first_violation(word)
    if pos is not None:
        raise ValidationError(
            "word is not run-constrained (first violation at position %d)" % pos,
            position=pos,
        )
    sizes = []
    i = 0
    m = len(word)
    while i < m:
        if word[i] == "0":
            sizes.append(0)
            i += 1
        else:
            r = 0
            while i + r < m and word[i + r] == "1":
                r += 1
            sizes.append(r)
            i += 2 * r + 1
    return sizes


@dataclass
class RunDecomposition:
    """Letter-level shape of a run-constrained word.

    pre_run counts the zeros before the first nonzero letter.  Each segment
    is a (block, gap) pair: a maximal run of nonzero letters given by their
    sizes, then the number of zero letters that follow it.  The last gap is
    the trailing zero count, duplicated in post_run for convenience.  The
    case tag records the block profile used by the transfer-matrix style
    counting argument: with at least two blocks, A/B/C/D distinguish
    whether the first and last blocks consist of a single letter, and E
    collects everything with at most one block.
    """

    word: str
    pre_run: int
    segments: list = field(default_factory=list)
    post_run: int = 0
    case_tag: str = "E"

    def reassemble(self):
        parts = ["0" * self.pre_run]
        for block, gap in self.segments:
            for r in block:
                parts.append(letter(r))
            parts.append("0" * gap)
        return "".join(parts)

    def blocks(self):
        return [block for block, _ in self.segments]


def decompose(word):
    """Split a run-constrained word into zero runs and letter blocks."""
    sizes = factorize(word)
    pre = 0
    while pre < len(sizes) and sizes[pre] == 0:
        pre += 1
    segments = []
    i = pre
    while i < len(sizes):
        block = []
        while i < len(sizes) and sizes[i] != 0:
            block.append(sizes[i])
            i += 1
        gap = 0
        while i < len(sizes) and sizes[i] == 0:
            gap += 1
            i += 1
        segments.append((block, gap))
    post = segments[-1][1] if segments else 0
    if len(segments) <= 1:
        tag = "E"
    else:
        first_single = len(segments[0][0]) == 1
        last_single = len(segments[-1][0]) == 1
        tag = {
            (True, True): "A",
            (False, True): "B",
            (True, False): "C",
            (False, False): "D",
        }[(first_single, last_single)]
    dec = RunDecomposition(word, pre, segments, post, tag)
    if dec.reassemble() != word:
        raise StructureError("decomposition of %s reassembles to %s" % (word, dec.reassemble()))
    return dec


@lru_cache(maxsize=None)
def fibonacci(k):
    """Fibonacci numbers with f_0 = 0, f_1 = 1, extended to f_{-1} = 1."""
    if k < -1:
        raise DomainError("fibonacci index must be at least -1")
    if k == -1:
        return 1
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _require_int(value, name="n", least=None):
    """value as an int, refused with DomainError unless it is an integer, numpy's included.

    A bool, a float, a string or None is refused rather than truncated, and
    so is a value below `least` when that is given.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError("%s must be an integer, got %r" % (name, value))
    if least is not None and value < least:
        bound = "at least %d" % least if least else "nonnegative"
        raise DomainError("%s must be %s" % (name, bound))
    return int(value)


def _require_int64(length):
    """Raise DomainError unless masks of this length fit in int64."""
    if length >= 64:
        raise DomainError("masks of length %d do not fit in int64" % length)


def rc_masks(length):
    """Sorted int64 masks of all run-constrained strings of a length.

    Built bottom up: level L is level L-1 behind a leading zero, then each
    letter 1^r 0^(r+1) in front of level L-2r-1.  Prefixes are emitted in
    increasing numeric order, so the result is ascending without a sort.
    Each level is filled into one preallocated array, and the last level
    reads only the levels of the other parity, so the rest are dropped
    before it is built: the peak is about twice the result.
    Lengths of 64 or more would wrap int64 and raise DomainError.
    """
    if length < 0:
        raise DomainError("length must be nonnegative")
    _require_int64(length)
    levels = [np.zeros(1, dtype=np.int64)]
    for L in range(1, length + 1):
        if L == length:
            for i in range(L % 2, L, 2):
                levels[i] = None
        parts = [(levels[L - 1], 0)]
        parts += [(levels[L - 2 * r - 1], ((1 << r) - 1) << (L - r)) for r in range(1, (L + 1) // 2)]
        out = np.empty(sum(len(part) for part, _ in parts), np.int64)
        at = 0
        for part, head in parts:
            np.add(part, head, out=out[at : at + len(part)])
            at += len(part)
        levels.append(out)
    return levels[length]


def _refuse_enumeration(length, cap):
    """Raise before any work if the strings of a length are over the vertex cap."""
    total = fibonacci(length) if length else 1
    limit = config.vertex_cap(cap)
    if total > limit:
        raise ResourceLimitError(
            "length %d needs %d strings, over the cap %d" % (length, total, limit)
        )


def enumerate_rc(length, cap=None):
    """All run-constrained strings of a length, in ascending order."""
    length = _require_int(length, "length", least=0)
    _refuse_enumeration(length, cap)
    return [format(m, "0%db" % length) if length else "" for m in rc_masks(length).tolist()]


@lru_cache(maxsize=None)
def count_by_weight(length, weight):
    """Run-constrained strings of a given length containing exactly `weight` ones."""
    if length < 0 or weight < 0:
        return 0
    if weight == 0:
        return 1
    # condition on the first letter: a zero, or 1^r 0^(r+1) carrying r ones
    total = count_by_weight(length - 1, weight)
    r = 1
    while 2 * r + 1 <= length and r <= weight:
        total += count_by_weight(length - 2 * r - 1, weight - r)
        r += 1
    return total


def weight_count(n, w):
    """Weight-w vertices of the order-n graph: the binomial C(n-w+1, w).

    Vertices are run-constrained strings of length n+2, so this equals
    count_by_weight(n + 2, w).  Zero whenever w exceeds the largest
    achievable weight ceil(n/2).
    """
    if n < 1:
        raise DomainError("graph order must be at least 1")
    return binomial(n - w + 1, w)


def inversions(word):
    """Pairs i < j with word[i] = 0 and word[j] = 1.

    This is the statistic tracked by the q-weight enumerator: each 1 counts
    the zeros standing anywhere to its left.
    """
    _check_binary(word)
    zeros = 0
    inv = 0
    for ch in word:
        if ch == "0":
            zeros += 1
        else:
            inv += zeros
    return inv


def flip_degrees(word):
    """How many single-character flips keep the word run-constrained.

    Returns (up, down): up counts 0 -> 1 flips, down counts 1 -> 0 flips.
    """
    pos = first_violation(word)
    if pos is not None:
        raise ValidationError(
            "word is not run-constrained (first violation at position %d)" % pos,
            position=pos,
        )
    up = down = 0
    chars = list(word)
    for i, ch in enumerate(chars):
        chars[i] = "1" if ch == "0" else "0"
        if is_run_constrained("".join(chars)):
            if ch == "0":
                up += 1
            else:
                down += 1
        chars[i] = ch
    return up, down


def word_to_mask(word):
    """Integer whose binary digits (MSB first) spell the word."""
    _check_binary(word)
    return int(word, 2) if word else 0


def mask_is_run_constrained(mask):
    """is_run_constrained on the binary digits of a nonnegative int, MSB first.

    Leading zeros never matter, so the mask needs no length.  Each 1-run is
    read from the low end: the zeros below it are the zeros that follow it.
    """
    while mask:
        gap = (mask & -mask).bit_length() - 1
        mask >>= gap
        run = (mask ^ (mask + 1)).bit_length() - 1
        if gap <= run:
            return False
        mask >>= run
    return True


def mask_to_word(mask, length):
    if mask < 0 or mask >= (1 << length):
        raise DomainError("mask %d does not fit in %d bits" % (mask, length))
    return format(mask, "0%db" % length) if length else ""


def binomial(n, k):
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)
