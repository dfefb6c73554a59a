"""A traced ``repro serve --rate 0`` for the serve-read traced run.

    python3 perfbench/serve_launcher.py --store DIR --spans FILE

Installs the :mod:`spans` wrappers, then calls ``repro.server.serve``
exactly as ``repro serve --port 0 --rate 0`` does.  When the server
drains (SIGTERM), every span is written to ``FILE`` as JSON lines and
the per-span-name totals to ``FILE.totals.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    recorder = spans.SpanRecorder()
    spans.install(recorder)
    from repro.server import serve

    asyncio.run(serve(args.store, port=0, rate=0))
    recorder.write(args.spans, recorder.originals["campaign:hash_of"])
    with open(args.spans + ".totals.json", "w", encoding="utf-8") as handle:
        json.dump(spans.span_totals(recorder.spans()), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
