"""Regenerate the stored reference outputs under ``reference/``.

Run from the root of a checkout, only when the program's results are
meant to change (and say so in the change that does it)::

    python3 perfbench/make_reference.py [workload ...]

Each reference is one pass over the workload's snapshot grid at
``checks.REFERENCE_SEED``.
"""

from __future__ import annotations

import json
import sys

from checks import REFERENCE_SEED, reference_path, reference_record
from run import _run_pass, _use_checkout_program
from workloads import WORKLOADS


def main(names) -> int:
    program = _use_checkout_program()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        scenario = program.build_scenario(workload, REFERENCE_SEED)
        outputs, _, _ = _run_pass(program, workload, scenario, 0)
        if outputs is None or (isinstance(outputs, list) and None in outputs):
            raise SystemExit(f"{name}: the reference pass raised")
        record = reference_record(workload, REFERENCE_SEED, outputs)
        reference_path(workload).write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {reference_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
