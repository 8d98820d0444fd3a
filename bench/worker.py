"""One benchmark call in a fresh Python process.

Usage: python3 bench/worker.py SRC RESULT SPANS [VERIFY_ARG ...]

Times `import varseq.cli` from SRC (the set-up every CLI user pays), then,
when verify arguments are given, times one in-process
`varseq.cli.main(["verify", ...])` call. SPANS is a path to trace the call
and write its spans there at exit, or `-` for an untraced call. RESULT
receives the timings, exit code, peak RSS and versions as JSON. Only the
standard library is imported before the timed import.
"""

import sys
import time


def main() -> None:
    src, result_path, spans_path = sys.argv[1:4]
    verify_argv = sys.argv[4:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import varseq.cli

    setup_s = time.perf_counter() - t0

    import json
    import resource
    import traceback

    import numpy

    out = {
        "setup_s": setup_s,
        "module": varseq.cli.__file__,
        "numpy": numpy.__version__,
    }
    if verify_argv:
        tracer = None
        if spans_path != "-":
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        t1 = time.perf_counter()
        try:
            out["rc"] = varseq.cli.main(verify_argv)
        except Exception:
            out["error"] = traceback.format_exc()
        out["wall_s"] = time.perf_counter() - t1
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
