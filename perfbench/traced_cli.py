"""Run ``sefrag.cli.main`` with the layer wrappers installed, then write its spans.

The traced counterpart of ``python -m sefrag``; the calling benchmark
puts the package root on PYTHONPATH.

Usage: python3 perfbench/traced_cli.py SPANS_JSON SEFRAG_ARGS...
"""

import json
import sys
from pathlib import Path

import layers
from spans import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.installed(layers.boundaries()):
            return layers.cli.main(argv)
    finally:
        out.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
