"""Builds the benchmark and the program it measures from source.

Compiles the program (`src/main/scala`) and the benchmark
(`perfbench/src`) with the Scala compiler that ships in the Spark
distribution, against the Spark jars the sbt build names, so the classpath
is the sbt build's. Output is one jar, `.bench_build/perfbench/classes.jar` (a jar, not
a directory, so the JVM can archive its classes); a digest of the sources
and compiler skips the compile when nothing changed.

    python3 perfbench/build.py      # from the repository root
"""

import hashlib
import os
import re
import subprocess
import sys

SCALA_VERSION = "2.13.17"
OUT_DIR = os.path.join(".bench_build", "perfbench")
SOURCE_DIRS = (os.path.join("src", "main", "scala"), os.path.join("perfbench", "src"))
JVM_FLAGS = ["-XX:-UsePerfData", "-Xss8m", "-Xmx1g"]


def spark_jars(root="."):
    """The jar directory the sbt build compiles against (`unmanagedBase` in
    build.sbt), else `$SPARK_HOME/jars`."""
    sbt = os.path.join(root, "build.sbt")
    if os.path.exists(sbt):
        with open(sbt) as fh:
            m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', fh.read())
        if m:
            return m.group(1)
    if "SPARK_HOME" in os.environ:
        return os.path.join(os.environ["SPARK_HOME"], "jars")
    raise SystemExit("perfbench: no Spark jars: build.sbt names no unmanagedBase and SPARK_HOME is unset")


def sources(root):
    found = []
    for d in SOURCE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            found += [os.path.join(dirpath, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def digest(root, files):
    h = hashlib.sha256(SCALA_VERSION.encode())
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(root="."):
    """Returns (classes jar, source digest); compiles if the digest changed."""
    files = sources(root)
    if not any(os.sep + "repro" + os.sep in f for f in files):
        raise SystemExit("perfbench: no program sources under src/main/scala; run from the repository root")
    out = os.path.join(root, OUT_DIR)
    classes = os.path.join(out, "classes.jar")
    stamp = os.path.join(out, "classes.digest")
    want = digest(root, files)
    if os.path.exists(classes) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == want:
                return classes, want
    jars = spark_jars(root)
    compiler = [os.path.join(jars, f"scala-{p}-{SCALA_VERSION}.jar") for p in ("compiler", "library", "reflect")]
    missing = [j for j in compiler if not os.path.exists(j)]
    if missing:
        raise SystemExit(f"perfbench: Scala compiler jars not found: {missing}")
    os.makedirs(out, exist_ok=True)
    tmp = os.path.join(out, "classes.tmp.jar")
    cmd = (["java"] + JVM_FLAGS + ["-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp, "-classpath", os.path.join(jars, "*")] + files)
    print(f"perfbench: compiling {len(files)} Scala files", file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    os.replace(tmp, classes)
    with open(stamp, "w") as fh:
        fh.write(want + "\n")
    return classes, want


if __name__ == "__main__":
    print(build()[0])
