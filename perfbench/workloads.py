"""Workload definitions for the sweep benchmark.

A workload is a list of bound variants; the seed picks one.  A variant is a
list of ``kohnert verify`` sweeps, each given as its CLI arguments without
``--jobs``, ``--cache`` or ``--report``.  Variants of one workload are built
so that their costs match: closure swaps two composition ranges between
conj1 and the skyline half of kohnert, which enumerate the same skyline
closures; split swaps ranges so that a costlier theorem1 meets a cheaper
theorem4.  The reference outcomes differ per variant, so a claim can be
re-checked on inputs a change was not tuned on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Two composition ranges with the same case count (C(9, 4) = C(9, 5) = 126).
# conj1 and kohnert both cost about 2.8 times as much on the second; the
# variants' passes differ by about 3%.
_COMPS_A = ["--max-weight", "5", "--max-parts", "4"]
_COMPS_B = ["--max-weight", "4", "--max-parts", "5"]

# 1092 cases each: 126 + 126 skyline closures, 120 + 720 Rothe closures.
# conj2 over S_6 stays in every variant: it is the largest process, so the
# peak RSS does not depend on the variant.
CLOSURE_VARIANTS = [
    [["conj1", *c1], ["kohnert", *kk, "--n", "5"], ["conj2", "--n", "6"]]
    for c1, kk in [(_COMPS_A, _COMPS_B), (_COMPS_B, _COMPS_A)]
]

# Reading from the cache costs in proportion to the polynomials read, and
# omega polynomials of five-part compositions are much larger than key
# polynomials, so a swap would not balance the reads.  cache-warm therefore
# reads every closure sweep of both variants: one variant, 1464 cases.
CACHE_WARM_VARIANTS = [CLOSURE_VARIANTS[0] + CLOSURE_VARIANTS[1][:2]]

# theorem1 over one of two composition ranges of 330 cases each, theorem4
# over another range, and bjs over S_5; 702 and 780 cases.  theorem1 costs
# about 6% less on the second range, and theorem4 about a quarter more on
# (weight <= 7, <= 4 parts) than on (weight <= 5, <= 5 parts), so each
# variant pairs the costlier theorem1 with the cheaper theorem4 and the two
# passes cost the same to within about 1%.  theorem1 at weight <= 7 in <= 4
# parts is the sweep whose primary route enumerates Coxeter-Knuth classes
# by filtering reduced words; at weight <= 4 in <= 7 parts that share is
# small.  bjs stops at S_5: over S_6 its compatible pairs took ~90% of a
# pass and hid every other split layer.
_SPLIT_A = ["--max-weight", "7", "--max-parts", "4"]
_SPLIT_B = ["--max-weight", "4", "--max-parts", "7"]
_SPLIT_C = ["--max-weight", "5", "--max-parts", "5"]
SPLIT_VARIANTS = [
    [["theorem1", *t1], ["theorem4", *t4], ["bjs", "--n", "5"]]
    for t1, t4 in [(_SPLIT_A, _SPLIT_C), (_SPLIT_B, _SPLIT_A)]
]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its variants, and whether set-up fills a
    verify cache that the timed sweeps read."""

    name: str
    variants: list
    warm_cache: bool

    def variant(self, seed: int) -> int:
        return seed % len(self.variants)

    def sweeps(self, seed: int) -> list[list[str]]:
        return self.variants[self.variant(seed)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("closure", CLOSURE_VARIANTS, False),
        Workload("split", SPLIT_VARIANTS, False),
        Workload("cache-warm", CACHE_WARM_VARIANTS, True),
    ]
}

# Every sweep runs at --jobs 1: the calibration loop of refclock.py shares
# the timed process's CPU, and a worker pool would run more processes than
# that CPU.
JOBS = 1


def check_jobs(jobs: int) -> int:
    """Refuse a worker count the machine cannot run: at most the CPU count
    and at least one.  Raises ValueError; starts nothing."""
    cpus = os.cpu_count() or 1
    if jobs <= 0:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    if jobs > cpus:
        raise ValueError(f"--jobs {jobs} exceeds the {cpus} CPUs of this machine")
    return jobs


def verify_argv(
    sweep: list[str], jobs: int, report: str, cache: str | None = None
) -> list[str]:
    """The arguments after ``kohnert`` for one sweep, with the worker count
    checked before any process can start."""
    argv = ["verify", *sweep, "--jobs", str(check_jobs(jobs)), "--report", report]
    if cache is not None:
        argv += ["--cache", cache]
    return argv
