"""One workload in one fresh, single-threaded process.

Started by run.py as

    python3 worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR

with the library's `src` directory on PYTHONPATH. The worker imports the
library and prints "ready"; the parent's set-up clock stops on that line, so
set-up covers interpreter start and these imports only. With SECONDS = 0 the
worker stops there (a set-up probe). Otherwise it hands over to `harness`,
which prints the results as one JSON line.
"""

import sys

if __name__ == "__main__":
    import braidnf

    if sys.argv[1] == "wide":
        import braidnf.cli
    print("ready", flush=True)
    if float(sys.argv[3]) > 0:
        import harness

        harness.main(sys.argv[1:])
