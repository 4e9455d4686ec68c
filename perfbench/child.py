"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: python3 child.py RESULT_JSON TRACE STEPS_JSON

Imports ``wordperim`` (found through PYTHONPATH), then calls
``wordperim.cli.main(argv)`` once per step of STEPS_JSON (a JSON list of argv
lists; empty for a set-up-only run).  The CLI's own output goes to this
process's stdout.  At the end it writes RESULT_JSON with monotonic-clock
timestamps, its rusage, the exit code of each step and, with TRACE=1, the
per-layer report of ``tracing.Tracer``.
"""

import json
import resource
import sys
import time

import wordperim.cli

T_READY = time.monotonic()


def main() -> None:
    result_path, trace, steps_json = sys.argv[1:4]
    steps = json.loads(steps_json)
    main_fn, tracer = wordperim.cli.main, None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli", wordperim.cli.main)
    codes = []
    for argv in steps:
        codes.append(main_fn(argv))
        sys.stdout.flush()
    t_end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc = {
        "t_ready": T_READY,
        "t_end": t_end,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "exit_codes": codes,
        "trace": tracer.report() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
