"""Traced stand-in for ``python -m cantorvis.cli``, used by the traced cli-cold run.

    python3 perfbench/cli_child.py SPANS_FILE SPAWN_TIME ARGS...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is system-wide, so the difference to this
script's first statement is the interpreter start-up time. The script times
the ``cantorvis.cli`` import, and inside it or later the first import of
numpy, wherever the program makes it. It then runs ``cantorvis.cli.main``
under the span recorder, with wrappers on the modules the import loaded,
and writes the spans and timings to SPANS_FILE, also when main raises.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    spans_file, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import tracing  # from this script's directory, sys.path[0]
    rec = tracing.Recorder()
    rec.request_id = 0
    tracing.time_first_import(rec, "numpy", "cli.import_numpy")
    idx = rec.open(rec.name_id("cli.import"))
    import cantorvis.cli as cli
    rec.close(idx)
    tracing.install(rec)
    idx = rec.open(rec.name_id("cli.main"))
    try:
        return cli.main(argv)
    finally:
        rec.close(idx)
        own, calls = rec.self_times()
        import json
        with open(spans_file, "w") as fh:
            json.dump({
                "interpreter_s": STARTED - spawned,
                "import_s": rec.total("cli.import"),
                "import_numpy_s": rec.total("cli.import_numpy"),
                "self_s": own,
                "calls": calls,
                "counters": dict(rec.counters),
                "maxima": dict(rec.maxima),
            }, fh)


if __name__ == "__main__":
    raise SystemExit(main())
