"""``repro serve`` with the layer timing shims installed.

    python3 perfbench/traced_server.py SPANS.json serve --graph ... --port 0

Runs the ordinary CLI in-process after wrapping every layer (see
``layers.py``) and, once the server shuts down (SIGINT), writes the spans,
request outcomes and counters it kept in memory to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys

import layers


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    store = layers.SpanStore()
    layers.install(store, serve=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": store.dump(), "outcomes": store.outcomes, "counters": store.counters},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
