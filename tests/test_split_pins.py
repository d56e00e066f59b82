"""SHA-256 pins of the three splitting routes and the insertion-fiber sum.

The digests were taken from the code before each route was given its
per-call memos and the tableaux their trusted constructor, so any change in
a count, a witness, the order of a dict or a refusal message shows here.
"""

import hashlib
import json

import pytest

from kohnert import bases, tableaux
from kohnert.harness import compositions_upto
from kohnert.tableaux import NonReducedWordError

ALPHAS = compositions_upto(6, 4) + compositions_upto(4, 6)

# Block bounds per composition: the minimal ones, and those plus max + 1.
BLOCK_CHOICES = {
    "minimal_blocks": lambda d: d,
    "one_more_block": lambda d: d + ((d[-1] if d else 0) + 1,),
}

DIGESTS = {
    ("key_split_expansion", "minimal_blocks"):
        "30acec35fc0dfec4af1d1caa0b94575fa8f67af8f871ffcfb874e4f73c4e207f",
    ("key_split_expansion", "one_more_block"):
        "e096ada6372beca3376f87ed1aa6030f9cb44e9b81db7958ebc74581298e5c70",
    ("key_split_expansion_via_pairs", "minimal_blocks"):
        "dfeaf4dcbcbf18daa949b28342f4e0fde77fae47a251d298fb02328398c9dadd",
    ("key_split_expansion_via_pairs", "one_more_block"):
        "76cbcfea3981a6133c0e67ff16062d84027dd181171c236d0f0c84cc7be62de1",
    ("split_extract", "minimal_blocks"):
        "d559f691f86e0efce1bdd65df51e7e13f3c200af3b00671b815b8338d72fbff9",
    ("split_extract", "one_more_block"):
        "583aaf29497af2c155375b42cfcd13c920d7e212d1d107b460aefc2c4ab51d55",
}
FIBER_DIGEST = "d8e69be6ae568a90aef40f5e6392c64ec0b9021cde31ce384aff84d9301be427"


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def lambdas(lams):
    return [list(lam) for lam in lams]


def route_output(route, alpha, d):
    """One route's answer as JSON, in the order the route returned it."""
    if route == "key_split_expansion":
        return [
            [lambdas(lams), count, [[t.to_json_obj()["rows"] for t in tup] for tup in wits]]
            for lams, (count, wits) in bases.key_split_expansion(alpha, d).items()
        ]
    if route == "key_split_expansion_via_pairs":
        got = bases.key_split_expansion_via_pairs(alpha, d)
    else:
        got = bases.split_extract(bases.key_polynomial(alpha), d)
    return [[lambdas(lams), c] for lams, c in got.items()]


def test_compositions_pinned():
    assert len(ALPHAS) == 420


@pytest.mark.parametrize("route, blocks", sorted(DIGESTS))
def test_split_route_is_pinned(route, blocks):
    outputs = []
    for alpha in ALPHAS:
        d = BLOCK_CHOICES[blocks](bases.minimal_blocks(alpha))
        outputs.append([list(alpha), list(d), route_output(route, alpha, d)])
    assert sha256_json(outputs) == DIGESTS[route, blocks]


def test_key_by_insertion_fiber_is_pinned():
    outputs = [bases.key_by_insertion_fiber(alpha).to_json_obj() for alpha in ALPHAS]
    assert sha256_json(outputs) == FIBER_DIGEST


# (pair, block bounds, error type, the exact refusal of split_blocks)
REFUSALS = [
    (((2,), (1,)), (1,), ValueError, "block bounds [1] do not contain the descents of (1, 3, 2)"),
    (((2,), (3,)), (2, 3), ValueError, "marks exceed their letters; pair is not compatible"),
    (((2,), (1,)), (2, 2), ValueError, "block bounds must be strictly increasing: [2, 2]"),
    (((1,), (1,)), (0, 1), ValueError, "block bounds must be strictly increasing: [0, 1]"),
    (((3, 3), (1, 2)), (1,), ValueError, "marks (1, 2) exceed the last block bound"),
    (((3, 3), (1, 1)), (), ValueError, "marks (1, 1) exceed the last block bound"),
    (((3, 1), (3, 1)), (1, 3), ValueError, "marks are not weakly increasing"),
    (((3, 2), (2, 1)), (2, 3), ValueError, "marks not weakly increasing at position 1"),
    (((1, 2), (1, 1)), (2,), ValueError, "marks must strictly increase across ascent at 1"),
    (((2, 2), (1, 2)), (2,), NonReducedWordError, "(2, 2) is not a reduced word"),
    (((1, 1, 2), (1, 1, 1)), (2,), NonReducedWordError, "(1, 1, 2) is not a reduced word"),
    (((2, 2, 3, 4), (1, 1, 3, 3)), (2, 4), NonReducedWordError, "(2, 2) is not a reduced word"),
    (((1,), (0,)), (1,), ValueError, "marks are not weakly increasing"),
    (((0,), (1,)), (1,), ValueError, "transposition index must be >= 1"),
    (((2, 1, 2, 1), (1, 1, 2, 2)), (2,), ValueError, "marks exceed their letters; pair is not compatible"),
    (
        ((1, 2, 1, 2, 1), (1, 1, 1, 1, 1)),
        (1, 2),
        NonReducedWordError,
        "(1, 2, 1, 2, 1) is not a reduced word",
    ),
]


@pytest.mark.parametrize("pair, d, error, message", REFUSALS)
def test_split_blocks_refusal_messages(pair, d, error, message):
    with pytest.raises(ValueError) as exc:
        tableaux.split_blocks(pair, d)
    assert (type(exc.value), str(exc.value)) == (error, message)
