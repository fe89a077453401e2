"""One pass of one workload, in an interpreter of its own.

    python3 perfbench/passes.py {timed,traced} WORKLOAD SEED [SPANS_OUT]

* ``timed``  -- no tracemalloc, no profiler, no wrappers: phase CPU
  times, resident-set growth, operation counts and the independent
  correctness checks;
* ``traced`` -- the instance with span wrappers on every measured layer;
  writes the spans to ``SPANS_OUT`` (JSON lines) and reports per-span
  totals.

Prints one JSON object as its last line.  :mod:`run` drives it.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the source path above)


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}", file=sys.stderr)
        return 2
    if mode == "timed":
        out = workloads.run_instance(name, seed)
    elif mode == "traced":
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
        out = workloads.run_instance(name, seed, check=False, spans=recorder)
        out["spans"] = recorder.totals()
        out["span_count"] = len(recorder.spans)
        out["counts"] = dict(recorder.counts)
        recorder.write(argv[3])
    else:
        print(f"unknown pass {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
