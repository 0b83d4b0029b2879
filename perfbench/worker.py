"""One timed pass of a workload, in a process of its own.

    python3 perfbench/worker.py SPEC_JSON

SPEC_JSON names the source tree to import lpcq from, the ``lpcq solve``
argument lists of the pass, the pass number and whether to trace.  The
process imports lpcq's CLI and the scipy solver lpcq calls (its set-up),
stamps the moment it is ready on the system-wide monotonic clock, runs every
invocation through ``lpcq.cli.main`` with standard output captured, and
prints one JSON object: the ready stamp, the pass time, each invocation's
exit code and output, the peak resident set, and, when traced, the spans.
Nothing is checked here, so the peak resident set is the program's alone.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    import contextlib
    import io
    import traceback

    import lpcq.cli as cli
    import scipy.optimize  # noqa: F401  lpcq's solver backend, imported lazily by lpcq

    if src not in Path(cli.__file__).resolve().parents:
        print(f"lpcq imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    ready = time.monotonic()
    outputs = []
    if tracer is not None:
        tracer.start_pass(spec["pass"])
    start = time.perf_counter()
    for argv in spec["invocations"]:
        buf = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:  # the CLI refused the arguments
            rc = None
            error = f"exited with {exc.code!r}"
        except Exception:  # a crashing invocation counts as failed, the pass goes on
            rc = None
            error = traceback.format_exc()
        outputs.append({"rc": rc, "stdout": buf.getvalue(), "error": error})
    pass_s = time.perf_counter() - start
    gc_stats = tracer.stop_pass() if tracer is not None else {}

    result = {"ready": ready, "pass_s": pass_s, "peak_rss_mb": peak_rss_mb(),
              "outputs": outputs}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, tracer.installed, pass_s, gc_stats)
        result["missing_targets"] = tracer.missing
        result["spans"] = [
            dict(span, id=i, start=span["start"] - start, end=span["end"] - start)
            for i, span in enumerate(tracer.spans)
        ]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
