"""Run the doilyspace CLI with the benchmark's layer wrappers installed.

    PYTHONPATH=src python3 benchmarks/traced_cli.py SPANS_FILE ARG...

Runs ``doilyspace ARG...`` exactly as ``python -m doilyspace.cli ARG...``
would, then writes the recorded spans and the builder cache counts to
SPANS_FILE as JSON.  The exit status is the CLI's.
"""

import json
import sys

import tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import doilyspace.cli as cli

    t = tracer.Tracer()
    tracer.install(t)
    t.op = 0
    before = tracer.cache_counts()
    try:
        return cli.main(argv)
    finally:
        caches = tracer.cache_delta(before, tracer.cache_counts())
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": t.spans, "caches": caches}, fh)


if __name__ == "__main__":
    sys.exit(main())
