"""Printed reference polynomials and frozen brute-force values.

Exponent tuples follow the ring variable order: (u, d) for the up-down
enumerators, (x,) for the degree enumerators.
"""

# up-down degree enumerators of R_1 .. R_8
UPDOWN_PRINTED = {
    1: {(1, 0): 1, (0, 1): 1},
    2: {(0, 1): 2, (2, 0): 1},
    3: {(0, 1): 1, (0, 2): 1, (1, 1): 2, (3, 0): 1},
    4: {(0, 2): 3, (1, 1): 2, (2, 1): 2, (4, 0): 1},
    5: {(0, 2): 5, (1, 2): 2, (2, 1): 3, (3, 1): 2, (5, 0): 1},
    6: {(0, 2): 4, (0, 3): 2, (1, 2): 6, (2, 2): 2, (3, 1): 4, (4, 1): 2, (6, 0): 1},
    7: {
        (0, 2): 3,
        (0, 3): 7,
        (1, 2): 5,
        (2, 2): 9,
        (3, 2): 2,
        (4, 1): 5,
        (5, 1): 2,
        (7, 0): 1,
    },
    8: {
        (0, 2): 2,
        (0, 3): 10,
        (0, 4): 1,
        (1, 2): 4,
        (1, 3): 8,
        (2, 2): 7,
        (3, 2): 12,
        (4, 2): 2,
        (5, 1): 6,
        (6, 1): 2,
        (8, 0): 1,
    },
}

# degree enumerators g_1 .. g_10
G_PRINTED = {
    1: {(1,): 2},
    2: {(2,): 1, (1,): 2},
    3: {(3,): 1, (2,): 3, (1,): 1},
    4: {(4,): 1, (3,): 2, (2,): 5},
    5: {(5,): 1, (4,): 2, (3,): 5, (2,): 5},
    6: {(6,): 1, (5,): 2, (4,): 6, (3,): 8, (2,): 4},
    7: {(7,): 1, (6,): 2, (5,): 7, (4,): 9, (3,): 12, (2,): 3},
    8: {(8,): 1, (7,): 2, (6,): 8, (5,): 12, (4,): 16, (3,): 14, (2,): 2},
    9: {(9,): 1, (8,): 2, (7,): 9, (6,): 15, (5,): 22, (4,): 24, (3,): 14, (2,): 2},
    10: {
        (10,): 1,
        (9,): 2,
        (8,): 10,
        (7,): 18,
        (6,): 30,
        (5,): 32,
        (4,): 39,
        (3,): 10,
        (2,): 2,
    },
}

# the three printed R_4 enumerators
R4_DOWN = {(0, 0): 1, (0, 1): 4, (0, 2): 3}
R4_UP = {(0, 0): 3, (1, 0): 2, (2, 0): 2, (4, 0): 1}
R4_DEGREE = {(2,): 5, (3,): 2, (4,): 1}

# brute-force edge counts of R_1 .. R_13
EDGE_COUNTS = [1, 2, 5, 10, 19, 36, 66, 120, 215, 382, 673, 1178, 2050]

# degree census of R_4 as {(up, down): count}
R4_CENSUS = {(0, 2): 3, (1, 1): 2, (2, 1): 2, (4, 0): 1}

# Boolean-interval violations and comparable pairs per n; n = 14 and 16
# were recorded with the per-pair closure code that preceded the bitsets,
# the violations for n = 9 .. 13 with the bitset survey
POSET_PAIRS = {1: 3, 2: 5, 3: 11, 4: 21, 5: 42, 6: 83, 7: 163, 8: 323, 14: 18985, 16: 73869}
POSET_VIOLATIONS = {
    1: 0, 2: 0, 3: 0, 4: 0, 5: 3, 6: 6, 7: 16, 8: 38,
    9: 84, 10: 194, 11: 422, 12: 923, 13: 1986, 14: 4236, 16: 18912,
}

# (exit code, sha256 of stdout) of CLI commands whose bytes no benchmark pins
CLI_SHA256 = {
    "verify --all": (1, "8b83d92e0ba7fadf30e7b9cb7cd7d100ecff7ea0175d2af0cc07b3a05a0d2042"),
    "poset rank --n 14": (0, "664572971b3db025d013cc8456b8bd0cb39132c6ffdf49ff853b8ba19e55c7b3"),
    "poset rank --n 14 --format json": (0, "6ff0d98abe4c206fa6f5d5d2ccea4324907240afe3729edd2417e3c414ebc536"),
    "poset mobius --n 6 --bottom 001000 --top 111000": (0, "298c4ef7cb94fc613c14f268302a3fa352225203baf72c7369a04c17f83e598c"),
    "poset mobius --n 6 --bottom 001000 --top 111000 --format json": (0, "bd53c670017c1ad38e7d7b27da8e0dbbcd224302a825fadff3ed016306a44732"),
    "poset intervals --n 7": (0, "bdc24c74ab986e369d4cd22427ac2536b13b07ab0c21c3fa2d70dcdcec853d86"),
    "poset intervals --n 7 --format json": (0, "11305466ad5c61cf8d0cbe0055f121e885bf99c0b0f44fa8e0457d4c61d6a55f"),
    "inv show --n 9": (0, "93985a4cc97d485fabf4dfad95a12cdbbf14214a389c41e5fe2f9801c9b6d523"),
    "inv show --n 9 --format json": (0, "2b109f17db5286660d166cf2fcc42abff1ffc2ea413aba2a41db50bb9e154c97"),
    "embed encode --word 0110": (0, "998890ef33791c6a7be36dc64260a568cf9ca10b832ad9e604878706642ea00c"),
    "embed encode --word 0110 --format json": (0, "b9b9aac5498abcacabaf4fe31e9c119505e01780ac39d22de6bd38611266620b"),
    "embed dilation --n 5": (0, "9a2a5606162b62701964e0859a419a28adbe469b20918c8bbc3e9d130fa350a4"),
    "embed dilation --n 5 --format json": (0, "162b8d6d7173747e06c62320b412a1fec19bbf5c759acf4a1fe2cbcc578b7187"),
    "embed host --max-n 8": (0, "1b35a1e66eeddebae76368bcbdc6f87cffc5465285745e82164cbac2e94d2a79"),
    "embed host --max-n 8 --format json": (0, "686ed24e5d7f860ca2485b4290364efed584eeab701f997726a14b6d75019932"),
}
