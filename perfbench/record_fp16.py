"""Re-record the expected compare_modes outcomes of the audit workload's q/k pool.

    python3 perfbench/record_fp16.py

The binary16 emulator is defined exactly, so the audit checks every outcome
bit for bit against this record. Re-record only when the emulator's defined
behaviour changes on purpose. The gradcheck known-failure list in the same
file is kept by hand and is left as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from visarch import fp16  # noqa: E402


def main() -> int:
    expected = workloads.load_expected()
    expected["fp16"] = {}
    for t in workloads.FP16_TOKENS:
        for mag in workloads.FP16_MAGS:
            for draw in range(workloads.FP16_DRAWS):
                q, k = workloads.fp16_instance(t, mag, draw)
                outcome = workloads.fp16_outcome(fp16.compare_modes(q, k))
                expected["fp16"][workloads.fp16_key(t, mag, draw)] = outcome
                print(workloads.fp16_key(t, mag, draw), outcome["overflow"])
    with open(workloads.EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
