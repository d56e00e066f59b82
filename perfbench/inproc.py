"""Run one ``kohnert verify`` sweep inside this process, traced or not.

    python3 perfbench/inproc.py --result R.json [--spans S.jsonl] -- verify ARGS...

The sweep runs through ``kohnert.cli.main`` in a fresh interpreter, so the
module memos start cold as they do for a CLI user.  With ``--spans`` the
entry points are wrapped by ``spans.SpanRecorder`` and the spans are written
to that file; without it the tracing module is never imported, and the
result says so.  The result file holds the wall time of ``main``, its exit
code, whether tracing code was loaded, and whether every wrapped attribute
was put back.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, SRC)
    from kohnert import cli

    restored = None
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if args.spans:
            import spans

            recorder = spans.SpanRecorder()
            originals = {
                (owner, attr): vars(owner)[attr]
                for owner, attr in recorder.wrapped_attributes()
            }
            with recorder:
                start = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - start
            restored = all(
                vars(owner)[attr] is original
                for (owner, attr), original in originals.items()
            )
            recorder.write(args.spans)
        else:
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "exit_code": code,
        "tracer_loaded": "spans" in sys.modules,
        "restored": restored,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
