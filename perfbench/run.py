"""PaC-IM benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root. Builds the program and the harness
(perfbench/build.py), then runs one workload in one JVM
(perfbench/src/perfbench/Main.scala). The last line of standard output is
the JSON result: `correct`, `attempted`, `failed` and `metrics` -- the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
Lines before it give the run's metadata (git sha, cores, JVM, R, k, alpha,
seed) and every metric with its unit and how it was measured.

`--workload all` runs every workload with `--trace 0` in turn and prints a
table of all end-to-end metrics; its last line combines the results, with
metric names prefixed by the workload.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["social-select", "road-compressed", "social-infuser"]
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseG1GC"]
RUN_TIMEOUT_S = 170


def git_sha(source_tag: str) -> str:
    """HEAD's sha, or the source hash when the tree is not a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"unknown (sources {source_tag})"


def run_one(classpath: str, workload: str, seed: int, seconds: float, trace: int, sha: str):
    """Runs one workload in its own JVM; returns (output lines, result) or raises."""
    cmd = ["java"] + JVM_OPTS + ["-cp", classpath, "perfbench.Main",
                                 "--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace), "--sha", sha]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        raise RuntimeError(f"{workload}: benchmark JVM exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    try:
        t0 = time.monotonic()
        classpath, source_tag = build.build(Path("."))
        print(f"[perfbench] build ready in {time.monotonic() - t0:.1f} s", file=sys.stderr)
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    sha = git_sha(source_tag)
    try:
        if a.workload != "all":
            lines, result = run_one(classpath, a.workload, a.seed, a.seconds, a.trace, sha)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            lines, result = run_one(classpath, w, a.seed, a.seconds, 0, sha)
            print(f"== {w}")
            print("\n".join(lines))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{w}.{name}"] = m
        print("== summary")
        for name, m in combined["metrics"].items():
            print(f"{name:<34} {m['value']:>16.6f} {m['unit']}")
        print(json.dumps(combined))
        return 0
    except RuntimeError as e:
        print(f"[perfbench] {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
