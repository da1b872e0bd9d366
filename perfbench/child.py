"""Traced cold op: ``python perfbench/child.py SPANS_FILE ARGV...``.

Runs one ``qdblab`` command in this fresh interpreter with the span wrappers
installed, then writes the spans to SPANS_FILE.  Exits with the command's code.
"""

import sys
from pathlib import Path

from qdblab.cli import main
from tracing import Tracer, install

if __name__ == "__main__":
    tracer = Tracer()
    install(tracer)
    tracer.begin_op()
    try:
        code = main(sys.argv[2:])
    finally:
        tracer.end_op()
        tracer.dump(Path(sys.argv[1]))
    sys.exit(code)
