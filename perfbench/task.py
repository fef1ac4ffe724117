"""One timed task in a fresh interpreter: python3 perfbench/task.py SPEC RESULT.

SPEC is a JSON file written by run.py: the checkout's src directory, the
launch time on the shared monotonic clock, whether to trace, and a list of
operations, each an argv for tileforge.cli.main plus the output files to
digest.  Every operation runs before any output is digested, so the task's
span from its first call to its last output holds tileforge's work only.
RESULT gets the set-up time, the span, per-operation exit codes and digests
or errors, and the trace.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import tileforge
    import tileforge.cli

    if not os.path.abspath(tileforge.__file__).startswith(spec["src"] + os.sep):
        raise RuntimeError(f"imported tileforge from {tileforge.__file__}")
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod
        tracer = tracer_mod.install()

    ops = spec["ops"]
    outcomes = [None] * len(ops)
    ready = time.monotonic()
    for i, op in enumerate(ops):
        try:
            outcomes[i] = tileforge.cli.main(op["argv"])
        except Exception:
            outcomes[i] = traceback.format_exc(limit=4)
    end = time.monotonic()

    results = []
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, str):
            results.append({"error": outcome})
            continue
        digests = {}
        for path, key in op["outputs"].items():
            if os.path.exists(path):
                digests[key] = _sha256_file(path)
                os.remove(path)
        results.append({"exit": outcome, "digests": digests})

    payload = {"setup_s": ready - spec["launched"], "start": ready, "end": end,
               "ops": results,
               "trace": tracer.snapshot() if tracer is not None else None}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
