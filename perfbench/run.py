"""PER query benchmark: per-query latency, throughput and set-up time of
ε-approximate pairwise effective resistance queries, with a traced run
that splits the same queries into the program's layers.

    python3 perfbench/run.py --workload geer-dblp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # every workload on a handful of queries
    python3 -m unittest discover -s perfbench   # self-tests, no JVM needed

Run from the repository root. The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line
before it (`facts {...}`) records the machine and run facts, and the full
record goes to `.bench_build/perfbench/results/`. See perfbench/README.md
for the workloads and the meaning of every metric.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# Workloads: dataset analog, ε, and warm-up seconds (long enough that
# latency has stopped falling; the Spark path of geer-dblp takes longest).
WORKLOADS = {
    "geer-dblp": {"dataset": "dblp-lite", "eps": 0.1, "warmup_s": 12.0},
    "geer-facebook": {"dataset": "facebook-lite", "eps": 0.05, "warmup_s": 5.0},
}
SETUP_REPS = 3
MIN_QUERIES = 100            # so that at least 10 measured latencies lie beyond p90
CROSSCHECK_PAIRS = 2         # CG references also checked against Smm.groundTruth
CROSSCHECK_TOL = 1e-6        # |CG − Smm.groundTruth| allowed on those pairs
FAILURE_ALPHA = 1e-6         # tail mass a correct (ε, δ) estimator may exceed
JVM_TIMEOUT_S = 165
JVM_HEAP = "2g"
SMOKE = {"seconds": 1.0, "warmup_seconds": 0.2, "setup_reps": 1, "min_queries": 1, "max_queries": 5,
         "crosscheck_pairs": 1}

# Spark on JDK 17 needs these packages opened (as spark-submit does).
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    h = (len(xs) - 1) * p / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def allowed_failures(n, delta, alpha=FAILURE_ALPHA):
    """Smallest k with P[Binomial(n, δ) > k] ≤ α: the most answers over ε
    that an estimator failing each query with probability δ shows, except
    with probability α."""
    if n == 0 or delta <= 0:
        return 0
    pmf = (1.0 - delta) ** n
    cdf = pmf
    k = 0
    while 1.0 - cdf > alpha and k < n:
        pmf *= (n - k) / (k + 1) * delta / (1.0 - delta)
        cdf += pmf
        k += 1
    return k


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    m = raw["measured"]
    lat = m["latency_ms"]
    return {
        "setup_s": statistics.median(s["total_s"] for s in raw["setup"]),
        "query_p50_ms": percentile(lat, 50),
        "query_p90_ms": percentile(lat, 90),
        "queries_per_s": m["queries"] / m["wall_s"],
    }


def accuracy(raw):
    errs = raw["check"]["err_over_eps"]
    failed = sum(1 for e in errs if e is None or e > 1.0)
    worst = max((e for e in errs if e is not None), default=0.0)
    return len(errs), failed, worst


def per_layer(raw):
    t = raw["trace"]
    L = t["layers"]
    q = L["queries"]
    ms = 1e-6
    _, failed, worst = accuracy(raw)
    return {
        "graph.build_s": statistics.median(s["graph_s"] for s in raw["setup"]),
        "graph.csr_mb": raw["csr_mb"],
        "spectral.lambda_s": statistics.median(s["lambda_s"] for s in raw["setup"]),
        "spectral.lambda": raw["lambda"],
        "ell.mean": ratio(L["ell_sum"], q),
        "smm.advances_per_query": ratio(L["smm_advances"], q),
        "smm.ms_per_query": ratio(L["smm_ns"] * ms, q),
        "smm.edge_ops_per_query": ratio(L["smm_edge_ops"], q),
        "smm.ns_per_edge_op": ratio(L["smm_ns"], L["smm_edge_ops"]),
        "geer.switch_ms_per_query": ratio(L["switch_ns"] * ms, q),
        "geer.ell_b_mean": ratio(L["smm_advances"], q),
        "amc.psi_mean": ratio(L["psi_sum"], L["amc_queries"]),
        "amc.ms_per_query": ratio(L["amc_self_ns"] * ms, q),
        "amc.batches_per_query": ratio(L["amc_batches"], q),
        "amc.walks_per_query": ratio(L["amc_walks"], q),
        "amc.walk_steps_per_query": ratio(L["amc_walk_steps"], q),
        "amc.useful_walk_share": ratio(L["amc_useful_walks"], L["amc_walks"]),
        "amc.tau_reached_share": ratio(L["amc_tau_reached"], L["amc_queries"]),
        "walks.local_batch_share": ratio(L["local_batches"], L["amc_batches"]),
        "walks.local_ms_per_query": ratio(L["local_ns"] * ms, q),
        "walks.local_steps_per_s": ratio(L["local_steps"], L["local_ns"] * 1e-9),
        "spark.jobs_per_query": ratio(L["spark_jobs"], q),
        "spark.tasks_per_job": ratio(L["spark_tasks"], L["spark_jobs"]),
        "spark.job_ms_per_query": ratio(L["spark_job_ms"], q),
        "spark.task_run_ms_per_query": ratio(L["spark_task_run_ms"], q),
        "spark.task_deser_ms_per_query": ratio(L["spark_task_deser_ms"], q),
        "spark.wait_ms_per_query": ratio(L["spark_wait_ms"], q),
        "spark.task_failures": L["spark_task_failures"],
        "spark.session_start_s": raw["session_start_s"],
        "jvm.gc_ms_per_query": ratio(raw["jvm"]["gc_ms"], raw["measured"]["queries"]),
        "jvm.driver_alloc_kb_per_query": ratio(raw["jvm"]["alloc_bytes"] / 1024.0, raw["measured"]["queries"]),
        "accuracy.fail_count": failed,
        "accuracy.max_err_over_eps": worst,
        "trace.overhead_pct": (t["traced_ns"] / t["untraced_ns"] - 1.0) * 100.0,
    }


def verdict(raw):
    """(correct, attempted, failed, reasons): every measured answer is
    checked against its CG reference; a query fails if it threw or missed
    by more than ε."""
    attempted, failed, _ = accuracy(raw)
    allowed = allowed_failures(attempted, raw["facts"]["delta"])
    reasons = []
    if failed > allowed:
        reasons.append(f"{failed} of {attempted} answers failed; at most {allowed} allowed")
    if raw["check"]["crosscheck_max_abs"] > CROSSCHECK_TOL:
        reasons.append(f"CG reference differs from Smm.groundTruth by {raw['check']['crosscheck_max_abs']}")
    if raw["trace"] is not None and raw["trace"]["guard"]["mismatch"] > 0:
        reasons.append(f"replay guard: {raw['trace']['guard']['mismatch']} traced queries differ from the program")
    return not reasons, attempted, failed, reasons


def declared_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(raw, spec, trace):
    """The final stdout object; its metrics are exactly the declared ones."""
    values = per_layer(raw) if trace else end_to_end(raw)
    units = declared_metrics(spec, trace)
    if set(values) != set(units):
        raise ValueError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    correct, attempted, failed, _ = verdict(raw)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def plan(name, seconds, smoke):
    """Run settings handed to the JVM."""
    if smoke:
        return dict(SMOKE)
    return {"seconds": seconds, "warmup_seconds": WORKLOADS[name]["warmup_s"], "setup_reps": SETUP_REPS,
            "min_queries": MIN_QUERIES, "max_queries": 2 ** 31 - 1, "crosscheck_pairs": CROSSCHECK_PAIRS}


def run_jvm(jar, name, seed, trace, p, jvm_flags=()):
    w = WORKLOADS[name]
    cores = max(1, min(4, os.cpu_count() or 1))
    out = os.path.abspath(os.path.join(build.OUT_DIR, "runs"))
    tmp = os.path.abspath(os.path.join(build.OUT_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    # JVM warnings go to stderr: stdout carries only the run record.
    cmd = (["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", "-XX:-UsePerfData", "-Xlog:disable",
            "-Xlog:all=warning:stderr", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j.configurationFile={os.path.abspath(os.path.join('perfbench', 'log4j2.properties'))}",
            "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
            "-Dspark.driver.bindAddress=127.0.0.1", f"-Dspark.local.dir={tmp}",
            f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}"]
           + ADD_OPENS + list(jvm_flags)
           + ["-cp", os.pathsep.join([jar, os.path.join(build.spark_jars(), "*")]), "perfbench.Main",
              "--name", name, "--dataset", w["dataset"], "--eps", str(w["eps"]),
              "--seed", str(seed), "--seconds", str(p["seconds"]), "--warmup-seconds", str(p["warmup_seconds"]),
              "--setup-reps", str(p["setup_reps"]), "--min-queries", str(p["min_queries"]),
              "--max-queries", str(p["max_queries"]), "--trace", "1" if trace else "0", "--cores", str(cores),
              "--crosscheck-pairs", str(p["crosscheck_pairs"]), "--out", out])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark JVM exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark JVM printed no run record")
    return json.loads(lines[-1])


def class_archive(jar, digest):
    """JVM flags to use a class-data-sharing archive of the classes a run
    loads, which roughly halves JVM and Spark start-up. The archive is made
    once per build by a smoke run; without it, runs start the slow way."""
    path = os.path.abspath(os.path.join(build.OUT_DIR, f"classes-{digest[:16]}.jsa"))
    if not os.path.exists(path):
        print("perfbench: writing the class-data-sharing archive", file=sys.stderr, flush=True)
        try:
            run_jvm(jar, "geer-facebook", 1, True, dict(SMOKE),
                    [f"-XX:ArchiveClassesAtExit={path}", "-Xlog:cds*=off:stderr"])
        except RuntimeError as e:
            print(f"perfbench: no class-data-sharing archive ({e})", file=sys.stderr)
    return [f"-XX:SharedArchiveFile={path}"] if os.path.exists(path) else []


def run(name, seed, seconds, trace, smoke=False):
    """Builds if needed, runs one workload, and returns (result line, record)."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    jar, source_digest = build.build(".")
    raw = run_jvm(jar, name, seed, trace, plan(name, seconds, smoke), class_archive(jar, source_digest))
    line = result_line(raw, spec, trace)
    facts = dict(raw["facts"], workload=name, seed=seed, seconds=seconds, trace=int(trace),
                 git_sha=git_sha(), source_digest=source_digest,
                 warmup_queries=raw["warmup"]["queries"], measured_queries=raw["measured"]["queries"],
                 traced_queries=raw["trace"]["queries"] if raw["trace"] else 0)
    record = {"facts": facts, "result": line, "verdict": verdict(raw)[3], "raw": raw}
    results = os.path.join(build.OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh)
    return line, record


def smoke():
    """Every workload end to end, traced, on a handful of queries."""
    ok = True
    for name in WORKLOADS:
        t0 = time.time()
        line, record = run(name, seed=1, seconds=SMOKE["seconds"], trace=True, smoke=True)
        problems = record["verdict"]
        ok = ok and not problems
        print(f"{name}: {line['attempted']} answers, {line['failed']} failed, "
              f"{time.time() - t0:.1f} s, {'; '.join(problems) or 'ok'}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload on a handful of queries")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
