"""Run one ``rieszdml`` command under the span recorder.

    python3 perfbench/cli_op.py SPANS_PATH estimate --data ... --config ...

Behaves like the ``rieszdml`` entry point (same stdout, same exit code) and
also writes the spans of this process to SPANS_PATH, the first one being the
import of ``rieszdml.cli``.
"""

import os
import sys

from spans import Recorder, write_spans


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder(os.path.dirname(spans_path))
    with rec.timed("cli.import"):
        import rieszdml.cli
    rec.install()
    code = rieszdml.cli.run(argv)
    rec.uninstall()
    write_spans(spans_path, rec.drain())
    return code


if __name__ == "__main__":
    sys.exit(main())
