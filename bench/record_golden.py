"""Record the outputs of the default seed's inputs, one digest per input.

    python3 bench/record_golden.py [WORKLOAD ...]

Writes bench/golden/WORKLOAD.json.  Run it only at a commit whose outputs
are trusted; benchmark runs with the default seed then compare against it.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

import inputs
import ops


def record(workload: str) -> dict:
    sys.path.insert(0, str(run.SRC))
    outputs = {}
    for block in inputs.generate(workload, run.DEFAULT_SEED):
        for op in block:
            key = inputs.op_key(op)
            if key in outputs:
                continue
            if op[0] == "cli":
                res = subprocess.run([sys.executable, "-m", "skewsieve", *op[1:]], env=run.child_env(),
                                     capture_output=True, text=True, timeout=120)
                out = {"code": res.returncode, "stdout": res.stdout}
            else:
                out = ops.canonical(op, ops.prepare(op)())
            problem = ops.check(op, out)
            if problem is not None:
                raise SystemExit(f"{key}: {problem}")
            outputs[key] = ops.digest(out)
    return {"seed": run.DEFAULT_SEED, "outputs": outputs}


def main(names) -> None:
    out_dir = Path(__file__).resolve().parent / "golden"
    out_dir.mkdir(exist_ok=True)
    for name in names or inputs.WORKLOADS:
        data = record(name)
        with open(out_dir / f"{name}.json", "w") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(data['outputs'])} outputs")


if __name__ == "__main__":
    main(sys.argv[1:])
