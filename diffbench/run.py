#!/usr/bin/env python3
"""Build and run the differential-engine benchmark.

Run from the repository root:

    python3 diffbench/run.py --workload spsp-fleet --seed 1 --seconds 10 --trace 0

The engines (src/main/scala) and the driver (diffbench/src/main/scala) are
compiled with the Scala compiler shipped in the Spark distribution, into
diffbench/target/classes; the build is redone whenever a source changes.
The driver then runs in one JVM with a pinned, pre-touched heap. Its last
line of standard output is the JSON result; its log goes to
diffbench/target/logs/.
"""
import argparse
import glob
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSES = os.path.join(TARGET, "classes")
ENGINE_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "src", "main", "scala")
RUN_TIMEOUT_S = 170

# Fixed heap, pre-touched, fixed young generation and collector: a heap that
# grows or resizes during a run changes GC work from run to run. C2 alone
# (no tiered compilation): with tiers, which allocations escape analysis
# removes differed from one JVM to the next, moving allocation by 13%.
JVM_FLAGS = [
    "-Xms2g", "-Xmx2g", "-Xmn1g", "-XX:+AlwaysPreTouch",
    "-XX:+UseParallelGC", "-XX:+UseTransparentHugePages", "-XX:-UseAdaptiveSizePolicy",
    "-XX:ParallelGCThreads=2", "-XX:-TieredCompilation", "-Xss16m", "-XX:-UsePerfData",
]
# Spark 4 on JDK 17 needs the module opens spark-submit would add.
OPENS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def fail(msg):
    print("diffbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spark_jars():
    jars = os.path.join(os.environ.get("SPARK_HOME", "/opt/spark"), "jars")
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        fail("no Scala compiler under %s (set SPARK_HOME)" % jars)
    return jars


def sources():
    if not os.path.isdir(os.path.join(ENGINE_SRC, "repro")):
        fail("engine sources not found at %s: run from a full checkout" % ENGINE_SRC)
    found = sorted(glob.glob(os.path.join(ENGINE_SRC, "**", "*.scala"), recursive=True) +
                   glob.glob(os.path.join(BENCH_SRC, "**", "*.scala"), recursive=True))
    return found


def build(jars):
    srcs = sources()
    digest = hashlib.sha256()
    for path in srcs:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = os.path.join(CLASSES, ".stamp")
    if os.path.exists(stamp) and open(stamp).read() == digest.hexdigest():
        return
    compiler = glob.glob(os.path.join(jars, "scala-compiler-*.jar")) + \
        glob.glob(os.path.join(jars, "scala-library-*.jar")) + \
        glob.glob(os.path.join(jars, "scala-reflect-*.jar"))
    subprocess.run(["rm", "-rf", CLASSES], check=True)
    os.makedirs(CLASSES)
    print("diffbench: compiling %d sources" % len(srcs), file=sys.stderr)
    res = subprocess.run(
        ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
         "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", CLASSES,
         "-cp", os.path.join(jars, "*")] + srcs,
        stdout=sys.stderr, timeout=600)
    if res.returncode != 0:
        fail("compilation failed")
    with open(stamp, "w") as f:
        f.write(digest.hexdigest())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny fleet and stream, for checking the output schema")
    args = ap.parse_args()

    jars = spark_jars()
    build(jars)
    work = os.path.join(TARGET, "work")
    logs = os.path.join(TARGET, "logs")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    os.makedirs(logs, exist_ok=True)
    cmd = ["java"] + JVM_FLAGS + OPENS + [
        "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
        "-cp", CLASSES + os.pathsep + os.path.join(jars, "*"),
        "repro.bench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work,
    ] + (["--smoke"] if args.smoke else [])
    log_path = os.path.join(logs, "%s-seed%d-trace%s.log" % (args.workload, args.seed, args.trace))
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("run exceeded %d s; log in %s" % (RUN_TIMEOUT_S, log_path))
    if proc.returncode != 0:
        sys.stderr.write(out or "")
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("run failed with exit code %d" % proc.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
