"""A traced cold `wellsolver` process: ``coldchild.py SPANS_FILE VERB ARGS...``.

Does what ``python -m wellsolver.cli VERB ARGS...`` does, with the layer
functions wrapped after the import; writes the spans, including one for
``import wellsolver.cli``, to SPANS_FILE and exits with the verb's code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import wellsolver.cli  # noqa: E402

t1 = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append([0, "import.wellsolver_cli", t0, t1, None, None])
    tracer.install()
    tracer.active = True
    try:
        return wellsolver.cli.main(argv)
    finally:
        tracer.active = False
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
