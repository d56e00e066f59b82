#!/usr/bin/env python3
"""Sweep benchmark for kohnert: end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-check [--seed N]
    python3 perfbench/run.py --regenerate

With ``--trace 0`` each workload's sweeps run as fresh ``python -m
kohnert.cli verify`` processes, one at a time, in a closed loop for
``--seconds``, next to the calibration loop of ``refclock.py``; the
end-to-end times are read on that reference clock, and are medians over
those iterations.
With ``--trace 1`` each sweep runs in a fresh process twice, once plain and
once with the span recorder (``inproc.py``), and the per-layer metrics come
from the spans.  Every case of every sweep is checked against the pinned
reference outcomes in ``reference/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--self-check`` proves the checks work: the worker-count refusal (without
starting a process), the restore of every traced attribute, that untraced
runs load no tracing code, and that an injected fault in one case per
workload is reported as exactly one more failed case.  ``--regenerate``
rewrites the reference outcomes from the code in ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import refclock  # noqa: E402  (the script's own directory)
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference"

FAULT_ENV = "KOHNERT_FAULT_INJECT"
CACHE_ENV = "KOHNERT_CACHE"

STARTED = time.monotonic()
HARD_LIMIT_S = 170.0  # a run must end within 180 s
MIN_ITERATIONS = 2
# The import is timed this many times before every timed pass, on the
# reference clock, and setup_s reports the median (plus, on cache-warm, the
# median cold fill).
IMPORTS_PER_PASS = 4
CACHE_FILLS = 3
STARTUP_PROBES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("cpu_ref_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("diagrams.closure_calls", "count"),
    ("diagrams.diagrams", "count"),
    ("diagrams.peak_closure", "count"),
    ("diagrams.closure_s", "s"),
    ("diagrams.diagrams_per_s", "1/s"),
    ("diagrams.accumulate_s", "s"),
    ("poly.add_calls", "count"),
    ("poly.add_terms_copied", "count"),
    ("poly.add_s", "s"),
    ("poly.operator_calls", "count"),
    ("poly.operator_s", "s"),
    ("poly.json_decode_s", "s"),
    ("bases.key_s", "s"),
    ("bases.omega_s", "s"),
    ("bases.schubert_s", "s"),
    ("bases.grothendieck_s", "s"),
    ("bases.split_extract_s", "s"),
    ("bases.schur_s", "s"),
    ("bases.key_split_s", "s"),
    ("bases.via_pairs_s", "s"),
    ("bases.pairs_sum_s", "s"),
    ("tableaux.pairs", "count"),
    ("tableaux.compatible_pairs_s", "s"),
    ("tableaux.ck_words", "count"),
    ("tableaux.ck_words_enumerated", "count"),
    ("tableaux.ck_useful_ratio", "ratio"),
    ("tableaux.ck_class_s", "s"),
    ("tableaux.insertions", "count"),
    ("tableaux.insertion_s", "s"),
    ("perms.reduced_words_calls", "count"),
    ("perms.words_enumerated", "count"),
    ("perms.reduced_words_s", "s"),
    ("harness.cache_hits", "count"),
    ("harness.cache_misses", "count"),
    ("harness.cache_objects", "count"),
    ("harness.cache_get_s", "s"),
    ("harness.cache_put_s", "s"),
    ("harness.cache_bytes_read", "bytes"),
    ("harness.cache_bytes_written", "bytes"),
    ("harness.cases", "count"),
    ("harness.case_p50_ms", "ms"),
    ("harness.case_p99_ms", "ms"),
    ("harness.self_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (missing sources, a hung child)."""


# ---------------------------------------------------------------------------
# child processes


def child_env(fault: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in (FAULT_ENV, CACHE_ENV)}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    if fault is not None:
        env[FAULT_ENV] = fault
    return env


class Child:
    """Wall time, CPU time and peak RSS of one finished child process.

    CPU and RSS come from ``os.wait4``: the same accounting that
    ``getrusage(RUSAGE_CHILDREN)`` sums, but for this child alone (its pool
    workers included), so set-up never leaks into the timed peak RSS.
    """

    def __init__(self, argv: list[str], env: dict, log: Path):
        remaining = HARD_LIMIT_S - (time.monotonic() - STARTED)
        if remaining <= 0:
            raise BenchmarkError("out of time before starting a child process")
        lock = threading.Lock()
        reaped = killed = False
        with open(log, "wb") as fh:
            self.start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT
            )

            def kill():
                nonlocal killed
                with lock:
                    if not reaped:
                        killed = True
                        proc.kill()

            watchdog = threading.Timer(remaining, kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                self.end = time.perf_counter()
                self.wall_s = self.end - self.start
                with lock:
                    reaped = True
            finally:
                watchdog.cancel()
                with lock:
                    if not reaped:
                        proc.kill()
                        proc.wait()
                        reaped = True
        if killed:
            raise BenchmarkError(f"{argv[1:5]} killed at the time limit")
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux


def python_child(args: list[str], log: Path, fault: str | None = None) -> Child:
    return Child([sys.executable, *args], child_env(fault), log)


# ---------------------------------------------------------------------------
# reference outcomes


def reference_path(name: str, variant: int) -> Path:
    return REFERENCE / f"{name}-{variant}.json"


def load_reference(workload: wl.Workload, variant: int) -> list[dict]:
    with open(reference_path(workload.name, variant)) as fh:
        ref = json.load(fh)
    if [s["argv"] for s in ref["sweeps"]] != workload.variants[variant]:
        raise BenchmarkError(
            f"{reference_path(workload.name, variant)} pins other sweeps; "
            "run perfbench/run.py --regenerate"
        )
    return ref["sweeps"]


def digest(detail) -> str | None:
    """SHA-256 of a case detail in canonical JSON; None for no detail."""
    if detail is None:
        return None
    return hashlib.sha256(json.dumps(detail, sort_keys=True).encode()).hexdigest()


def outcomes(report: dict) -> tuple[dict, list]:
    """The deterministic part of a report: its config without the code
    version, and its cases as sorted [family, param, status, detail digest]."""
    config = {k: v for k, v in report["config"].items() if k != "version"}
    cases = sorted(
        [c["family"], c["param"], c["status"], digest(c["detail"])]
        for c in report["cases"]
    )
    return config, cases


def check_sweep(report_path: Path, exit_code: int, ref: dict) -> tuple[int, int]:
    """(cases, failed cases) of one sweep against its pinned reference.

    A case fails when the sweep raised, or when its status or detail differs
    from the reference; a case pinned as skipped that now passes is fine.
    """
    expected = {(f, p): (s, d) for f, p, s, d in ref["cases"]}
    if exit_code not in (0, 1) or not report_path.is_file():
        return len(expected), len(expected)
    with open(report_path) as fh:
        config, cases = outcomes(json.load(fh))
    if config != ref["config"]:
        return len(expected), len(expected)
    failed = len(expected.keys() - {(f, p) for f, p, _, _ in cases})
    for family, param, status, detail in cases:
        pinned = expected.get((family, param))
        if pinned == (status, detail):
            continue
        if pinned is not None and pinned[0] == "skipped" and status == "pass":
            continue
        failed += 1
    return max(len(cases), len(expected)), failed


# ---------------------------------------------------------------------------
# one pass over a workload's sweeps


@dataclass
class Pass:
    """Totals of one closed-loop pass: every sweep once, one at a time."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    cases: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)  # (cpu_s, start, end) per child
    ref_s: float = 0.0  # CPU time on the reference clock, filled in later


def run_pass(
    sweeps: list[list[str]],
    refs: list[dict],
    tag: str,
    cache: Path | None = None,
    fault: str | None = None,
) -> Pass:
    totals = Pass()
    for i, (sweep, ref) in enumerate(zip(sweeps, refs)):
        report = OUT / f"{tag}-{i}.json"
        report.unlink(missing_ok=True)
        argv = wl.verify_argv(sweep, wl.JOBS, str(report), str(cache) if cache else None)
        child = python_child(["-m", "kohnert.cli", *argv], OUT / f"{tag}-{i}.log", fault)
        cases, failed = check_sweep(report, child.exit_code, ref)
        totals.wall_s += child.wall_s
        totals.cpu_s += child.cpu_s
        totals.rss_mb = max(totals.rss_mb, child.rss_mb)
        totals.cases += cases
        totals.failed += failed
        totals.spans.append((child.cpu_s, child.start, child.end))
    return totals


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def fill_cache(sweeps, refs, directory: Path, tag: str) -> Pass:
    return run_pass(sweeps, refs, tag, cache=fresh_dir(directory))


def median_child_wall(args: list[str], times: int, tag: str) -> float:
    return statistics.median(
        python_child(args, OUT / f"{tag}.log").wall_s for _ in range(times)
    )


# ---------------------------------------------------------------------------
# end-to-end run


def run_untraced(workload: wl.Workload, seed: int, seconds: int) -> dict:
    variant = workload.variant(seed)
    sweeps, refs = workload.sweeps(seed), load_reference(workload, variant)
    attempted = failed = 0

    python_child(["-c", "import kohnert"], OUT / "warm.log")  # writes .pyc once
    imports, fills, passes = [], [], []
    cache = None
    with refclock.RefClock(child_env()) as clock:
        if workload.warm_cache:
            for k in range(CACHE_FILLS):
                cache = OUT / f"cache-{k}"
                fills.append(fill_cache(sweeps, refs, cache, f"fill-{k}"))
        start = time.monotonic()
        # A pass starts only if it should end within --seconds.
        while len(passes) < MIN_ITERATIONS or (
            time.monotonic() - start + passes[-1].wall_s < seconds
        ):
            for _ in range(IMPORTS_PER_PASS):
                probe = python_child(["-c", "import kohnert"], OUT / "setup.log")
                imports.append((probe.cpu_s, probe.start, probe.end))
            passes.append(run_pass(sweeps, refs, "timed", cache))
    for p in fills + passes:
        p.ref_s = sum(clock.seconds(*span) for span in p.spans)
        attempted += p.cases
        failed += p.failed

    print(
        f"workload {workload.name}: variant {variant} of {len(workload.variants)}, "
        f"{len(passes)} passes of {len(sweeps)} verify processes at --jobs "
        f"{wl.JOBS}, {passes[0].cases} cases each"
    )
    print(
        f"reference clock: {clock.rounds} rounds, median "
        f"{statistics.median(clock.round_cpu(*span[1:]) for span in imports) * 1e3:.3f}"
        f" ms a round next to the import probes ({refclock.ROUND_S * 1e3} ms on "
        "the baseline machine)"
    )
    print("pass cpu_s:     " + " ".join(f"{p.cpu_s:.3f}" for p in passes))
    print("pass cpu_ref_s: " + " ".join(f"{p.ref_s:.3f}" for p in passes))
    # For reading only: the plain times follow the machine's speed, and the
    # wall time is that of a CPU shared with the calibration loop.
    for name, value, unit in [
        ("wall_s", statistics.median(p.wall_s for p in passes), "s"),
        ("cpu_s", statistics.median(p.cpu_s for p in passes), "s"),
        ("cases_per_s", statistics.median(p.cases / p.ref_s for p in passes), "1/s"),
    ]:
        print(f"{name} = {value:.6g} {unit}")
    fill_s = statistics.median(p.ref_s for p in fills) if fills else 0.0
    metrics = {
        "setup_s": statistics.median(clock.seconds(*span) for span in imports) + fill_s,
        "cpu_ref_s": statistics.median(p.ref_s for p in passes),
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }
    return result(attempted, failed, metrics, END_TO_END)


# ---------------------------------------------------------------------------
# traced run


def inproc(sweep, cache, tag: str, spans: Path | None):
    """One sweep at --jobs 1 inside a fresh ``inproc.py`` process."""
    report, out = OUT / f"{tag}.json", OUT / f"{tag}.result.json"
    report.unlink(missing_ok=True)
    out.unlink(missing_ok=True)
    args = [str(HERE / "inproc.py"), "--result", str(out)]
    if spans is not None:
        args += ["--spans", str(spans)]
    argv = wl.verify_argv(sweep, 1, str(report), str(cache) if cache else None)
    child = python_child([*args, "--", *argv], OUT / f"{tag}.log")
    if child.exit_code != 0 or not out.is_file():
        return None, report
    with open(out) as fh:
        return json.load(fh), report


def load_spans(path: Path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(span_files: list[Path]) -> dict:
    """Per-layer metrics of one traced pass, from its span files."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    size: dict[str, int] = {}
    peak_closure = hits = misses = ck_enumerated = 0
    case_ms: list[float] = []
    self_s = 0.0
    for path in span_files:
        spans = load_spans(path)
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, n in spans:
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            if n is not None:
                size[name] = size.get(name, 0) + n
            if parent is not None:
                covered[parent] += end - start
            if name == "diagrams.closure" and n is not None:
                peak_closure = max(peak_closure, n)
            elif name == "harness.cache_get":
                hits, misses = (hits + 1, misses) if n is not None else (hits, misses + 1)
            elif (
                name == "perms.reduced_words"
                and parent is not None
                and spans[parent][0] == "tableaux.ck_class"
            ):
                ck_enumerated += n or 0
        for i, (name, start, end, *_) in enumerate(spans):
            if name == "harness.case":
                case_ms.append((end - start) * 1000.0)
                self_s += (end - start) - covered[i]

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return busy.get(name, 0.0)

    def s(name):
        return size.get(name, 0)

    closure_s = t("diagrams.closure")
    return {
        "diagrams.closure_calls": c("diagrams.closure"),
        "diagrams.diagrams": s("diagrams.closure"),
        "diagrams.peak_closure": peak_closure,
        "diagrams.closure_s": closure_s,
        "diagrams.diagrams_per_s": s("diagrams.closure") / closure_s if closure_s else 0.0,
        "diagrams.accumulate_s": t("diagrams.accumulate"),
        "poly.add_calls": c("poly.add"),
        "poly.add_terms_copied": s("poly.add"),
        "poly.add_s": t("poly.add"),
        "poly.operator_calls": c("poly.operator"),
        "poly.operator_s": t("poly.operator"),
        "poly.json_decode_s": t("poly.json_decode"),
        "bases.key_s": t("bases.key"),
        "bases.omega_s": t("bases.omega"),
        "bases.schubert_s": t("bases.schubert"),
        "bases.grothendieck_s": t("bases.grothendieck"),
        "bases.split_extract_s": t("bases.split_extract"),
        "bases.schur_s": t("bases.schur"),
        "bases.key_split_s": t("bases.key_split"),
        "bases.via_pairs_s": t("bases.via_pairs"),
        "bases.pairs_sum_s": t("bases.pairs_sum"),
        "tableaux.pairs": s("tableaux.compatible_pairs"),
        "tableaux.compatible_pairs_s": t("tableaux.compatible_pairs"),
        "tableaux.ck_words": s("tableaux.ck_class"),
        "tableaux.ck_words_enumerated": ck_enumerated,
        "tableaux.ck_useful_ratio": (
            s("tableaux.ck_class") / ck_enumerated if ck_enumerated else 0.0
        ),
        "tableaux.ck_class_s": t("tableaux.ck_class"),
        "tableaux.insertions": c("tableaux.insertion"),
        "tableaux.insertion_s": t("tableaux.insertion"),
        "perms.reduced_words_calls": c("perms.reduced_words"),
        "perms.words_enumerated": s("perms.reduced_words"),
        "perms.reduced_words_s": t("perms.reduced_words"),
        "harness.cache_hits": hits,
        "harness.cache_misses": misses,
        "harness.cache_objects": c("harness.cache_init"),
        "harness.cache_get_s": t("harness.cache_get"),
        "harness.cache_put_s": t("harness.cache_put"),
        "harness.cache_bytes_read": s("harness.cache_get"),
        "harness.cache_bytes_written": s("harness.cache_put"),
        "harness.cases": len(case_ms),
        "harness.case_p50_ms": percentile(case_ms, 50),
        "harness.case_p99_ms": percentile(case_ms, 99),
        "harness.self_s": self_s,
    }


def run_traced(workload: wl.Workload, seed: int, seconds: int) -> dict:
    variant = workload.variant(seed)
    sweeps, refs = workload.sweeps(seed), load_reference(workload, variant)

    startup_s = median_child_wall(
        ["-m", "kohnert.cli", "--version"], STARTUP_PROBES, "startup"
    )
    trace_dir = fresh_dir(OUT / "spans")
    checked = [0, 0]

    def sweep_in_process(i, sweep, ref, cache, spans):
        res, report = inproc(sweep, cache, f"inproc-{i}", spans)
        cases, bad = check_sweep(report, res["exit_code"] if res else -1, ref)
        checked[0] += cases
        checked[1] += bad
        if res is None:
            raise BenchmarkError(f"in-process sweep {sweep} did not finish")
        if spans is not None and not res["restored"]:
            raise BenchmarkError("the span recorder left a wrapper behind")
        if spans is None and res["tracer_loaded"]:
            raise BenchmarkError("an untraced run loaded the tracing code")
        return res["wall_s"]

    cache = fill = None
    if workload.warm_cache:
        # The cold fill is traced too: it is the only pass that writes.
        cache = fresh_dir(OUT / "cache-0")
        fill_files = [trace_dir / f"fill-{i}.jsonl" for i in range(len(sweeps))]
        for i, (sweep, ref) in enumerate(zip(sweeps, refs)):
            sweep_in_process(i, sweep, ref, cache, fill_files[i])
        fill = layer_metrics(fill_files)

    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        plain_wall = traced_wall = 0.0
        span_files = [trace_dir / f"{workload.name}-{i}.jsonl" for i in range(len(sweeps))]
        for i, (sweep, ref) in enumerate(zip(sweeps, refs)):
            plain_wall += sweep_in_process(i, sweep, ref, cache, None)
            traced_wall += sweep_in_process(i, sweep, ref, cache, span_files[i])
        layers = layer_metrics(span_files)
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = plain_wall
        # Paired within a pass, so that machine drift between passes cancels.
        layers["trace.overhead_s"] = traced_wall - plain_wall
        passes.append(layers)

    print(
        f"workload {workload.name}: variant {variant} of {len(workload.variants)}, "
        f"{len(passes)} traced passes at --jobs 1; spans in {trace_dir}"
    )
    # median_low keeps counts whole when the number of passes is even.
    metrics = {
        name: statistics.median_low(p[name] for p in passes) for name in passes[0]
    }
    metrics["cli.startup_s"] = startup_s
    if fill is not None:
        for name in ("harness.cache_put_s", "harness.cache_bytes_written"):
            metrics[name] = fill[name]
    return result(checked[0], checked[1], metrics, PER_LAYER)


# ---------------------------------------------------------------------------
# output


def result(attempted: int, failed: int, metrics: dict, table) -> dict:
    print(f"cases_total = {attempted} count")
    print(f"cases_failed = {failed} count")
    out = {}
    for name, unit in table:
        print(f"{name} = {metrics[name]:.6g} {unit}")
        out[name] = {"value": metrics[name], "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


# ---------------------------------------------------------------------------
# self-check and reference regeneration


def fault_case(refs: list[dict]) -> str:
    """A passing case past the middle of the first sweep that no other sweep
    of the pass also runs."""
    runs = [f"{f}:{p}" for ref in refs for f, p, _, _ in ref["cases"]]
    cases = refs[0]["cases"]
    for family, param, status, _ in cases[len(cases) // 2 :]:
        if status == "pass" and runs.count(f"{family}:{param}") == 1:
            return f"{family}:{param}"
    raise BenchmarkError("no passing case to inject a fault into")


def self_check(seed: int) -> int:
    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {what}")

    # 1. The worker-count refusal happens before any process starts.
    cpus = os.cpu_count() or 1
    popen = subprocess.Popen

    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    subprocess.Popen = no_process
    try:
        for jobs in (0, -1, cpus + 1):
            try:
                wl.verify_argv(["conj2", "--n", "3"], jobs, "r.json")
                report(False, f"--jobs {jobs} refused")
            except ValueError:
                report(True, f"--jobs {jobs} refused")
        for jobs in (1, cpus):
            wl.verify_argv(["conj2", "--n", "3"], jobs, "r.json")
            report(True, f"--jobs {jobs} accepted")
    finally:
        subprocess.Popen = popen

    # 2. The span recorder puts back every attribute it wrapped, even when
    #    the traced code raises.
    sys.path.insert(0, str(SRC))
    import spans
    from kohnert.poly import Polynomial

    recorder = spans.SpanRecorder()
    targets = recorder.wrapped_attributes()
    originals = {(o, a): vars(o)[a] for o, a in targets}
    try:
        with recorder:
            wrapped = all(vars(o)[a] is not originals[(o, a)] for o, a in targets)
            Polynomial.monomial((1,)) + Polynomial.monomial((0, 1))
            raise KeyError("raised inside the traced block")
    except KeyError:
        pass
    restored = all(vars(o)[a] is originals[(o, a)] for o, a in targets)
    report(wrapped and bool(recorder.spans), f"{len(targets)} attributes wrapped")
    report(restored, f"{len(targets)} attributes restored after an exception")

    # 3. An untraced in-process run loads no tracing code.
    res, _ = inproc(["conj2", "--n", "3"], None, "selfcheck-plain", None)
    report(res is not None and not res["tracer_loaded"], "untraced run loads no tracer")

    # 4. One injected fault per workload is exactly one more failed case.
    for workload in wl.WORKLOADS.values():
        variant = workload.variant(seed)
        sweeps, refs = workload.sweeps(seed), load_reference(workload, variant)
        target = fault_case(refs)
        cache = None
        if workload.warm_cache:
            cache = OUT / "cache-selfcheck"
            clean = fill_cache(sweeps, refs, cache, "selfcheck-fill")
            report(clean.failed == 0, f"{workload.name}: cold fill has no failed case")
        faulty = run_pass(sweeps, refs, "selfcheck", cache, target)
        report(
            faulty.failed == 1,
            f"{workload.name} variant {variant}: fault in {target} gives "
            f"{faulty.failed} failed case(s) of {faulty.cases}, expected 1",
        )
    return 0 if ok else 1


def regenerate() -> int:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT
        ).returncode
    except OSError:
        commit, dirty = "", 0
    source = (commit or "unknown") + (" with uncommitted changes in src" if dirty else "")
    REFERENCE.mkdir(exist_ok=True)
    for workload in wl.WORKLOADS.values():
        for variant, sweeps in enumerate(workload.variants):
            pinned = []
            for i, sweep in enumerate(sweeps):
                path = OUT / f"regenerate-{i}.json"
                path.unlink(missing_ok=True)
                argv = wl.verify_argv(sweep, 1, str(path))
                child = python_child(
                    ["-m", "kohnert.cli", *argv], OUT / f"regenerate-{i}.log"
                )
                if child.exit_code not in (0, 1):
                    raise BenchmarkError(f"sweep {sweep} exited {child.exit_code}")
                with open(path) as fh:
                    config, cases = outcomes(json.load(fh))
                pinned.append({"argv": sweep, "config": config, "cases": cases})
                print(f"{workload.name}-{variant}: {sweep} {len(cases)} cases")
            with open(reference_path(workload.name, variant), "w") as fh:
                json.dump(
                    {
                        "source_commit": source,
                        "regenerate": "python3 perfbench/run.py --regenerate",
                        "sweeps": pinned,
                    },
                    fh,
                    separators=(",", ":"),
                )
                fh.write("\n")
    return 0


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-check", action="store_true")
    mode.add_argument("--regenerate", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_check or args.regenerate):
        parser.error("give --workload, --self-check or --regenerate")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kohnert" / "__init__.py").is_file():
        print(f"error: no kohnert sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.self_check:
            return self_check(args.seed)
        if args.regenerate:
            return regenerate()
        workload = wl.WORKLOADS[args.workload]
        run = run_traced if args.trace else run_untraced
        out = run(workload, args.seed, args.seconds)
    except (BenchmarkError, refclock.ClockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        for stale in OUT.glob("cache-*"):
            shutil.rmtree(stale, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
