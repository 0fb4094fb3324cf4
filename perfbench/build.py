"""Build file of the benchmark package.

Compiles the program's sources (`src/main/scala`) together with the
benchmark harness (`perfbench/src`) with the Scala compiler that ships in
Spark's `jars/` directory -- the same Scala the program is built and run
against (`build.sbt` puts those jars on the classpath). Calling scalac
directly keeps the build offline, inside the checkout, and about ten
seconds long; sbt would add its own start-up and write outside the checkout.

Output goes to `.bench_build/classes-<hash>`, where the hash covers every
source file, so an unchanged tree is compiled once.

    python3 perfbench/build.py      # prints the runtime classpath
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = ".bench_build"
PROGRAM_SOURCES = "src/main/scala"
HARNESS_SOURCES = "perfbench/src"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """Spark's jar directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildError("cannot find Spark: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        raise BuildError(f"no jars directory under {home}")
    return jars


def _one(jars: Path, prefix: str) -> Path:
    found = sorted(jars.glob(prefix + "-2.13.*.jar"))
    if not found:
        raise BuildError(f"no {prefix} 2.13 jar in {jars}")
    return found[-1]


def _sources(root: Path) -> list:
    program = root / PROGRAM_SOURCES
    files = sorted(program.rglob("*.scala")) if program.is_dir() else []
    if not files:
        raise BuildError(f"no program sources under {PROGRAM_SOURCES}; run from the repository root")
    harness = sorted((root / HARNESS_SOURCES).rglob("*.scala"))
    if not harness:
        raise BuildError(f"no benchmark sources under {HARNESS_SOURCES}")
    return files + harness


def build(root: Path = Path(".")) -> tuple:
    """Compile if needed; return the classpath that runs `perfbench.Main`
    and the hash of the sources it was built from."""
    jars = spark_jars()
    compiler = [_one(jars, p) for p in ("scala-compiler", "scala-library", "scala-reflect")]
    sources = _sources(root)
    digest = hashlib.sha256()
    for c in compiler:
        digest.update(c.name.encode())
    for f in sources:
        digest.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() + b"\0")
    tag = digest.hexdigest()[:16]
    out_root = root / BUILD_DIR
    classes = out_root / f"classes-{tag}"
    runtime_cp = f"{classes}{os.pathsep}{jars / '*'}"
    if (classes / "BUILD_OK").exists():
        return runtime_cp, tag

    out_root.mkdir(exist_ok=True)
    for old in out_root.glob("classes-*"):
        shutil.rmtree(old, ignore_errors=True)
    tmp = out_root / f"tmp-{tag}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    compile_cp = os.pathsep.join(str(j) for j in sorted(jars.glob("*.jar")))
    cmd = ["java", "-Xmx1g", "-cp", os.pathsep.join(map(str, compiler)),
           "scala.tools.nsc.Main", "-nowarn", "-classpath", compile_cp,
           "-d", str(tmp)] + [str(f) for f in sources]
    print(f"[build] compiling {len(sources)} Scala files into {classes}", file=sys.stderr)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    except subprocess.TimeoutExpired:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("scalac timed out")
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    (tmp / "BUILD_OK").write_text(tag + "\n")
    tmp.rename(classes)
    return runtime_cp, tag


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"[build] error: {e}", file=sys.stderr)
        sys.exit(2)
