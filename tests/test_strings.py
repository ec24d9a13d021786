from itertools import product
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from runcube import strings
from runcube.errors import ValidationError


def brute_is_rc(word):
    """Scan runs directly: every 1-run of length r needs >= r+1 zeros next."""
    i = 0
    n = len(word)
    while i < n:
        if word[i] == "0":
            i += 1
            continue
        r = 0
        while i + r < n and word[i + r] == "1":
            r += 1
        z = 0
        while i + r + z < n and word[i + r + z] == "0":
            z += 1
        if z < r + 1:
            return False
        i += r + z
    return True


def test_letters():
    assert strings.letter(0) == "0"
    assert strings.letter(1) == "100"
    assert strings.letter(3) == "1110000"


def test_first_violation_positions():
    assert strings.first_violation("100") is None
    assert strings.first_violation("110") == 3
    assert strings.first_violation("1") == 1
    assert strings.first_violation("10100") == 2


def test_factorize_roundtrip():
    word = "100" + "11000" + "0" + "1110000"
    indices = strings.factorize(word)
    assert indices == [1, 2, 0, 3]
    with pytest.raises(ValidationError):
        strings.factorize("11")


def test_enumeration_counts_are_fibonacci():
    for n in range(1, 15):
        assert len(strings.enumerate_rc(n)) == strings.fibonacci(n)


@pytest.mark.parametrize("length", range(15))
def test_enumeration_is_the_run_constrained_subset(length):
    every = ["".join(bits) for bits in product("01", repeat=length)]
    assert strings.enumerate_rc(length) == [w for w in every if brute_is_rc(w)]


def format_words(masks, length):
    """The per-mask `format` rendering that `_words` replaces: the reference."""
    return [format(m, "0%db" % length) for m in masks.tolist()]


@pytest.mark.parametrize("length", range(1, 64))
def test_words_match_format(length):
    top = (1 << length) - 1
    alternating = int("10" * 32, 2) & top
    fixed = np.array([0, top, alternating, top ^ alternating], dtype=np.int64)
    drawn = np.random.default_rng(length).integers(0, top, 300, dtype=np.int64, endpoint=True)
    masks = np.concatenate([fixed, drawn])
    assert strings._words(masks, length) == format_words(masks, length)
    assert strings._words(masks[:0], length) == []
    # a boolean-indexed copy, as the flip-scan oracle passes, and a strided view
    picked = masks[masks % 3 != 1]
    assert strings._words(picked, length) == format_words(picked, length)
    assert strings._words(masks[::3], length) == format_words(masks[::3], length)


def test_words_of_length_zero_are_empty():
    assert strings._words(np.zeros(3, dtype=np.int64), 0) == ["", "", ""]
    assert strings._words(np.zeros(0, dtype=np.int64), 0) == []
    assert strings.enumerate_rc(0) == [""]


@pytest.mark.parametrize("length", range(1, 21))
def test_enumeration_matches_format_of_its_masks(length):
    assert strings.enumerate_rc(length) == format_words(strings.rc_masks(length), length)


def test_rc_masks_peak_is_about_twice_its_result():
    # the last level and the levels of the other parity that it reads; a
    # build that kept every level and concatenated temporaries peaked at 3x
    tracemalloc.start()
    try:
        masks = strings.rc_masks(26)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(masks) == strings.fibonacci(26)
    assert peak < 2.2 * masks.nbytes


def test_enumeration_is_sorted_and_valid():
    words = strings.enumerate_rc(9)
    assert words == sorted(words)
    assert all(strings.is_run_constrained(w) for w in words)


def test_count_by_weight_against_brute():
    for n in range(0, 13):
        brute = {}
        for w in strings.enumerate_rc(n):
            brute[w.count("1")] = brute.get(w.count("1"), 0) + 1
        for k in range(n + 1):
            assert strings.count_by_weight(n, k) == brute.get(k, 0)


def test_weight_count_closed_form():
    # vertex weights of the order-n graph live on full strings of length n+2
    assert strings.weight_count(7, 2) == 15
    layer = sum(1 for w in strings.enumerate_rc(12) if w.count("1") == 3)
    assert strings.weight_count(10, 3) == layer
    for n in range(1, 26):
        for w in range(n + 3):
            assert strings.weight_count(n, w) == strings.count_by_weight(n + 2, w)
        top = -(-n // 2)
        assert strings.weight_count(n, top) > 0
        assert strings.weight_count(n, top + 1) == 0
        assert sum(strings.weight_count(n, w) for w in range(n + 1)) == strings.fibonacci(n + 2)


def test_inversions_brute():
    for w in strings.enumerate_rc(10):
        pairs = sum(
            1
            for i in range(len(w))
            for j in range(i + 1, len(w))
            if w[i] == "0" and w[j] == "1"
        )
        assert strings.inversions(w) == pairs


def test_decompose_case_tags():
    # blocks are maximal runs of adjacent non-0 letters
    assert strings.decompose("000").case_tag == "E"
    assert strings.decompose("100").case_tag == "E"
    assert strings.decompose("1001000").case_tag == "E"
    assert strings.decompose("1000100").case_tag == "A"
    assert strings.decompose("1001000100").case_tag == "B"
    assert strings.decompose("1000100100").case_tag == "C"
    assert strings.decompose("1001000100100").case_tag == "D"


def test_decompose_reassembles():
    for w in strings.enumerate_rc(12):
        assert strings.decompose(w).reassemble() == w


def test_flip_degrees_match_neighbors():
    for w in strings.enumerate_rc(8):
        up = down = 0
        for i in range(len(w)):
            flipped = w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1 :]
            if strings.is_run_constrained(flipped):
                if w[i] == "0":
                    up += 1
                else:
                    down += 1
        assert strings.flip_degrees(w) == (up, down)


def test_mask_word_roundtrip():
    for w in strings.enumerate_rc(9):
        assert strings.mask_to_word(strings.word_to_mask(w), 9) == w


@given(st.text(alphabet="01", max_size=24))
def test_validator_matches_run_scan(word):
    assert strings.is_run_constrained(word) == brute_is_rc(word)


@pytest.mark.parametrize("length", range(13))
def test_mask_validator_matches_run_scan_on_every_word(length):
    for bits in product("01", repeat=length):
        word = "".join(bits)
        assert strings.mask_is_run_constrained(strings.word_to_mask(word)) == brute_is_rc(word)


@given(st.text(alphabet="01", max_size=24))
def test_factorize_accepts_exactly_valid_words(word):
    if strings.is_run_constrained(word):
        indices = strings.factorize(word)
        assert "".join(strings.letter(r) for r in indices) == word
    else:
        with pytest.raises(ValidationError):
            strings.factorize(word)


@given(st.integers(min_value=0, max_value=60))
def test_fibonacci_recurrence(k):
    assert strings.fibonacci(k + 2) == strings.fibonacci(k + 1) + strings.fibonacci(k)
