"""Record the reference outputs the benchmark compares against.

    python3 bench/record.py

Runs every workload's command for every input slot exactly as
``run.py --trace 0`` does and stores its CSV under
``bench/reference/<workload>/``.  Re-record only when a change declares that
it alters the output bytes.
"""

import sys

import run
from workloads import SLOTS, WORKLOADS


def main():
    for name, workload in sorted(WORKLOADS.items()):
        for slot in range(SLOTS):
            data_path, _ = run.prepare(workload, slot)
            op, got = run.run_command(workload, slot, data_path, reference=None)
            if got is None:
                print(f"{name} slot {slot}: {op.reason}", file=sys.stderr)
                return 1
            path = workload.reference_path(slot)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(got)
            print(f"{name} slot {slot}: {len(got)} bytes in {op.wall_s:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
