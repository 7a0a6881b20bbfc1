"""One qlambda command in a fresh interpreter, with a ready handshake.

    python3 perfbench/worker.py READY_FD TRACE_PATH [QLAMBDA_ARGV...]

Imports ``qlambda.cli`` from the checkout's ``src``, installs the tracing
wrappers when TRACE_PATH is not ``-``, writes one byte to READY_FD, then
runs ``cli.main(argv)`` as ``python -m qlambda`` would and exits with its
code.  With no qlambda argv it exits right after the handshake: the
benchmark uses that to time set-up alone.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    ready_fd, trace_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    from qlambda import cli

    tracer = None
    if trace_path != "-":
        import tracing

        tracer = tracing.install()
    os.write(ready_fd, b"R")
    os.close(ready_fd)
    if not argv:
        return 0
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit with code 2
        return exc.code
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
