"""Report pinning: the SHA-256 of every registry family's deterministic
report body, with the code version dropped, at small bounds.

The digests were taken from the sweeps as first written, before the sweep
families were gathered into one registry, so any change to a case list, a
case outcome or the bytes of a failure or skip detail shows here.  conj1 at
weight <= 5 in <= 4 parts has 6 failing cases, which pins the term diffs.
theorem1 and theorem4 at weight <= 13 in one part were pinned while every
splitting route still enumerated reduced words; their one skipped case,
13, pins the skip reason of the routes that still do.  The closure sweeps
of the benchmark's closure workload were pinned before the closure walk
carried each diagram's weight, and before the kohnert family moved from the
ghost closure to the plain one.  The theorem1 sweeps of the split workload
were pinned before the compatible-pair route inserted each distinct block
word once.

No capped kohnert sweep is pinned from before that move: the cap counts the
closure a family walks, so such a sweep skips fewer cases now (see
tests/test_harness.py).
"""

import hashlib
import json

import pytest

from kohnert import harness

PINS = [
    ("conj1", {"max_weight": 5, "max_parts": 4},
     "1143534b11854d9d276c189a37d3fd1bf1ae4f23efd06ee8457286e2c6791882"),
    ("conj2", {"n": 4},
     "575c7174b6a0cccf03ab86dd058c625cd7bcafcec4c447bbd8ddd9dd7bc75bac"),
    ("kohnert", {"max_weight": 3, "max_parts": 3, "n": 4},
     "a32f33d64c7421e34786b882b2ad1009905b7f1acaea5d5cb89b35e543bfc23e"),
    ("theorem1", {"max_weight": 5, "max_parts": 3},
     "1d257d2a283290881f48b4e89056393e7b0a2c47b3e394d8c8721bc201074add"),
    ("bjs", {"n": 4},
     "42cb2f82f9787a64a6eba76fe397b3881c040a66fbf4cf9968aeaf2d66e9f3ac"),
    ("theorem4", {"max_weight": 5, "max_parts": 3},
     "e8ee73ad0ae8bb1226d372e46cc01e31e07010372b2789ac25408287272bfc7a"),
    ("talpha_props", {"max_weight": 5, "max_parts": 4},
     "0b0666984bf8999b64d0c839330371e5597ba1ce626db3db90e496743da3894d"),
    # capped closures: the skip reasons are pinned too
    ("conj1", {"max_weight": 3, "max_parts": 3, "cap": 2},
     "e9aa85a70cc3b98ff70c34ac0a8f0796ec060313fe78c5d5b1d4991581725986"),
    ("conj2", {"n": 4, "cap": 3},
     "c25f2447cf56f2b7115430416f41379d542b4e15bf4bd3ca65ed72ae08a5b105"),
    # past the reduced-word length bound: the skip reason of 13 is pinned
    ("theorem1", {"max_weight": 13, "max_parts": 1},
     "27f4cf0ab300a3ce23b6f52a401d4d48ca89023c9b20a43f5182075b1d3a6ef8"),
    ("theorem4", {"max_weight": 13, "max_parts": 1},
     "6b6eb5d282aff598536c2fc69987b29ce33f51598052f4d8f7ba599cf34a77c4"),
    # the closure sweeps of the benchmark's closure workload
    ("conj1", {"max_weight": 4, "max_parts": 5},
     "0a4ba84ddff57903dbb1c27a0049345b6d2b748f23ff607f97584cb94e32706f"),
    ("kohnert", {"max_weight": 5, "max_parts": 4, "n": 5},
     "453cbefaad344ad3a5d67947887097844247ec4887e556a89a312be7e209db35"),
    ("conj2", {"n": 6},
     "aa4fe2100d5b231356bfbaf353dad222af447e31e699081de9d763d81403d067"),
    # the theorem1 sweeps of the benchmark's split workload
    ("theorem1", {"max_weight": 7, "max_parts": 4},
     "0011f5fdd9beb23647539aabf38d634eca749b49b32e28fc5b05955734c654df"),
    ("theorem1", {"max_weight": 4, "max_parts": 7},
     "99f54cddfd338e6156a5bc0245624c5dcdf15a74c5edcc57930f874287115d88"),
]


def pinned_digest(report: harness.SweepReport) -> str:
    obj = json.loads(report.deterministic_json())
    del obj["config"]["version"]
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_every_registry_family_is_pinned():
    assert {family for family, _, _ in PINS} == set(harness.SWEEPS)


@pytest.mark.parametrize("family,bounds,digest", PINS)
def test_report_digest(family, bounds, digest):
    assert pinned_digest(harness.verify(family, **bounds)) == digest


def test_report_digest_with_two_workers():
    family, bounds, digest = PINS[0]
    report = harness.verify(family, jobs=2, **bounds)
    assert report.totals["fail"] == 6
    assert pinned_digest(report) == digest


def test_theorem1_pins_hold_with_fewer_block_offers(monkeypatch):
    # The word route (route 2) offers _accept_block only blocks that can
    # lead to a tableau tuple.  Over weight <= 7 in <= 4 parts it offered
    # 29 311 blocks before, 12 674 of them holding a letter at or below the
    # bound before their last; the pinned reports must not move.
    from kohnert import tableaux

    original = tableaux._accept_block
    offered = []

    def counting(block, lower, max_rows):
        offered.append((block, lower))
        return original(block, lower, max_rows)

    monkeypatch.setattr(tableaux, "_accept_block", counting)
    for family, bounds, digest in PINS:
        if family == "theorem1" and bounds["max_weight"] <= 7:
            offered.clear()
            assert pinned_digest(harness.verify(family, **bounds)) == digest
            assert all(min(block, default=lower + 1) > lower for block, lower in offered)
            if bounds == {"max_weight": 7, "max_parts": 4}:
                assert len(offered) < 29311 - 12674
