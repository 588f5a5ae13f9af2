"""The file-based workflow: generate a problem, solve it, diagnose, verify bounds.

Everything here also works from a shell via the `semikrylov` entry point;
this script drives the same code through run_command so the whole pipeline
can be replayed programmatically.
"""

import json
import tempfile
from pathlib import Path

from semikrylov.cli import run_command

with tempfile.TemporaryDirectory(prefix="semikrylov-demo-") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}")

    spec = {
        "kind": "spsd",
        "dims": [24, 24],
        "spectrum": [1.0, 0.9, 0.7, 0.55, 0.4, 0.3, 0.22, 0.16, 0.12, 0.09, 0.07, 0.05,
                     0.03, 0.02, 0.015, 0.01] + [0.0] * 8,
        "seed": 31,
        "consistency_gap": 0.0,
        "x0_mode": "zero",
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2))

    print("\n$ semikrylov generate ...")
    code = run_command(["generate", "--spec", str(spec_path), "--out-dir", str(workdir / "prob")])
    print(f"exit code {code}")

    print("\n$ semikrylov solve --method cg ...")
    code = run_command([
        "solve", "--method", "cg",
        "--matrix", str(workdir / "prob" / "a.mtx"),
        "--rhs", str(workdir / "prob" / "b.mtx"),
        "--x0", "zero",
        "--out", str(workdir / "solve.json"),
        "--trace-csv", str(workdir / "trace.csv"),
    ])
    report = json.loads((workdir / "solve.json").read_text())
    print(f"exit code {code}: {report['stop_reason']} in {report['iterations']} iterations, "
          f"rank {report['rank']}, kappa {report['spectral_summary']['kappa']:.1f}")
    print(f"distance to oracle solution: {report['final_distances']['expected']:.2e}")

    print("\n$ semikrylov diagnose ...")
    code = run_command([
        "diagnose",
        "--matrix", str(workdir / "prob" / "a.mtx"),
        "--rhs", str(workdir / "prob" / "b.mtx"),
        "--iters", "12",
        "--out", str(workdir / "diagnose.json"),
    ])
    report = json.loads((workdir / "diagnose.json").read_text())
    print(f"exit code {code}: checks {report['checks']}")

    print("\n$ semikrylov verify-bounds --method cg ...")
    code = run_command([
        "verify-bounds", "--method", "cg", "--spec", str(spec_path),
        "--out", str(workdir / "bounds.json"),
    ])
    report = json.loads((workdir / "bounds.json").read_text())
    print(f"exit code {code}: contraction factor {report['contraction_factor']:.4f}, "
          f"bound {'holds' if report['passed'] else 'violated'}")

    print("\nfirst lines of the CSV trace:")
    for line in (workdir / "trace.csv").read_text().splitlines()[:4]:
        print(f"  {line}")
