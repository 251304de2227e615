"""Record the golden outputs of the benchmark's fixed (no-reference) jobs.

Run from the root of a utmcont checkout, on the commit whose outputs are to
become the reference:

    python3 perfbench/record_golden.py

It rewrites ``perfbench/golden.json`` with the u_ac column of each built-in
solve, the table of the converge study, and the orders and coefficients of
every Taylor request the workloads (full and smoke size) make.
"""

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def fixed_ops():
    ops = [workloads.fixed_solve_op(name, tol, {})
           for name, tol in workloads.FIXED_SOLVES]
    ops.append(workloads.fixed_solve_op("sd_heat", 1e-10, {},
                                        command="converge"))
    for smoke in (False, True):
        ops += [op for op in workloads.continuation_ops(
            workloads.random.Random(0), {}, smoke) if op.command == "taylor"]
    return ops


def main():
    root = Path.cwd()
    program = run.import_program(root)
    ops = fixed_ops()
    workdir = root / run.RUN_DIR / "golden"
    run.prepare(ops, workdir, program)
    golden = {}
    for op in ops:
        def capture(values, key=op.name):
            golden[key] = values
            return []

        op.check = capture
        _, _, failure = run.run_op(op, *program)
        if failure:
            print(f"{op.name}: {failure}", file=sys.stderr)
            return 1
        print(f"{op.name}: {len(golden[op.name])} values")
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=0) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
