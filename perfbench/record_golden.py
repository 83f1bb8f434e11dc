"""Record every operation's virtual-time digest into ``golden.json``.

Run only on a commit whose virtual-time output is known to be right
(the digests are the benchmark's correctness oracle)::

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, spawn
from workloads import WORKLOADS


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        result = spawn(workload, 0, trace=False)
        if "error" in result:
            print(f"{workload}: {result['error']}", file=sys.stderr)
            return 1
        failed = [name for name, _, ok in result["ops"] if not ok]
        if failed or result["missed"]:
            print(f"{workload}: checks failed {failed} {result['missed']}", file=sys.stderr)
            return 1
        golden[workload] = {name: digest for name, digest, _ in result["ops"]}
        print(f"{workload}: {len(result['ops'])} ops recorded")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
