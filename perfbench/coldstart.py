"""Fresh-interpreter probe for the benchmark's set-up time.

    python3 perfbench/coldstart.py --workload eval_pencil
        import kubomeans, then make one cold call per operation class of the
        workload; the caller times the whole process.
    python3 perfbench/coldstart.py --import-only
        print the milliseconds ``import kubomeans`` takes in this process.

``run.py`` starts it with PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload")
    group.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)
    if args.import_only:
        start = time.perf_counter()
        import kubomeans  # noqa: F401

        print(f"{(time.perf_counter() - start) * 1e3!r}")
        return 0
    import workloads  # the script's own directory is on sys.path

    workloads.run_cold_calls(args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
