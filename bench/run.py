#!/usr/bin/env python3
"""z2rep benchmark: seeded closed-loop workloads through the engine's public
entry points, with every verdict checked against the paper's closed forms.

One client in one process issues the next operation only when the previous
one has returned.  CLI verbs go through ``z2rep.cli.main(argv)`` in-process;
the oracle workload calls ``verma.representation_residual`` directly.

    python3 bench/run.py --workload classify-trunc --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --workload all --trace 1  # per-layer metrics instead
    python3 bench/run.py --smoke                   # the benchmark's self-check

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it replays the workload's fixed record prefix with every
engine function wrapped (see tracer.py) and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Runs from the root of a source checkout; it exits 2 when the
engine sources are not there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from oracle import CHECKS
from workloads import GENERATORS, WORKLOADS, rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100  # so that at least 10 ops lie above the 90th percentile
HARD_STOP_S = 120.0  # stop issuing ops here even short of MIN_OPS
SETUP_SPAWNS = 9
# Times are reported as if calibration_ms() took CAL_MS.  The host's speed
# swings by up to 1.7x within seconds (same input, same seed); scaling each
# op by the calibration run next to it keeps that swing out of the metrics.
CAL_MS = 1.25


def load_engine():
    """Import z2rep from this checkout's sources, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import z2rep.cli
    import z2rep.verma
    if Path(z2rep.__file__).resolve().parent != SRC / "z2rep":
        print(f"error: imported z2rep from {z2rep.__file__}", file=sys.stderr)
        sys.exit(2)
    return z2rep.cli, z2rep.verma


def measure_setup() -> tuple[float, float]:
    """Median time from a fresh interpreter until `import z2rep.cli` returns,
    scaled by the calibration loop run just before and after each spawn, and
    unscaled.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child, so the child
    reports the instant its import returned.  One spawn writes the bytecode
    cache and warms the file cache first, a cost users pay once, not per run.
    """
    code = "import time, z2rep.cli; print(repr(time.perf_counter()))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def once() -> tuple[float, float]:
        before = calibration_ms()
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        wall = float(done.stdout) - t0
        return wall, wall * CAL_MS / ((before + calibration_ms()) / 2)

    once()
    walls, scaled = zip(*(once() for _ in range(SETUP_SPAWNS)))
    return statistics.median(scaled), statistics.median(walls)


def make_runner(cli, verma):
    def call(op) -> int:
        if op.argv:
            try:
                return cli.main(list(op.argv))
            except SystemExit as exc:  # argparse refuses the argv
                return exc.code if isinstance(exc.code, int) else 2
        p = op.params
        vec = verma.VermaModule(p["kind"], p["r"], p["lam"]).basis_vector(*p["ket"])
        for g1 in GENERATORS:
            for g2 in GENERATORS:
                print(g1, g2, verma.representation_residual(g1, g2, vec))
        return 0

    def run_op(op) -> tuple[float, str, str | None]:
        """Wall time, stdout and failure reason (None when the oracle agrees)."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = call(op)
        except Exception as exc:  # an engine error fails this op, not the run
            return time.perf_counter() - t0, buf.getvalue(), \
                f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        return dt, buf.getvalue(), CHECKS[op.check](op.params, rc, buf.getvalue())

    return run_op


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def report_failure(op, reason: str) -> None:
    print(f"FAILED {' '.join(op.argv) or op.params}: {reason}", file=sys.stderr)


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop (Fraction arithmetic, a dict, a sort).

    It touches nothing of z2rep and runs with the collector off, after one
    untimed pass that warms the caches, so a change to the engine cannot
    change it; only the machine's speed does.
    """
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            table = {}
            for i in range(1, 200):
                table[(i % 50, i)] = Fraction(i % 97, i) * Fraction(i + 1, 7) + Fraction(1, i)
            sorted(table, key=table.__getitem__)
        return (time.perf_counter() - t0) * 1e3
    finally:
        gc.enable()


def timed_run(name: str, seed: int, seconds: float, run_op) -> dict:
    """Whole rounds until `seconds` have passed and MIN_OPS ops have run.

    The calibration loop runs before every op.  Each op's wall time, and its
    share of the timed phase (the op and its oracle check), are scaled by
    CAL_MS over the median of the five calibrations around it.
    """
    record_rounds = WORKLOADS[name].record_rounds
    lat: list[float] = []  # wall time of each op
    span: list[float] = []  # wall time of each op and its check
    cal: list[float] = []
    failed = 0
    digest = hashlib.sha256()
    rss = None
    t_start = time.perf_counter()
    for i, batch in enumerate(rounds(name, seed)):
        for op in batch:
            cal.append(calibration_ms())
            t0 = time.perf_counter()
            dt, out, reason = run_op(op)
            lat.append(dt)
            if reason is not None:
                failed += 1
                report_failure(op, reason)
            if i < record_rounds:
                digest.update(out.encode())
            span.append(time.perf_counter() - t0)
        if i + 1 == record_rounds:
            # memory after a fixed amount of work, not after a time-bound count
            rss, record_ops = peak_rss_mib(), len(lat)
        elapsed = time.perf_counter() - t_start
        if elapsed >= HARD_STOP_S or (rss is not None and elapsed >= seconds
                                     and len(lat) >= MIN_OPS):
            break
    if rss is None:
        rss, record_ops = peak_rss_mib(), len(lat)
    scale = [CAL_MS / statistics.median(cal[max(0, j - 2):j + 3]) for j in range(len(cal))]
    ranked = sorted(d * k for d, k in zip(lat, scale))
    p90 = nearest_rank(ranked, 0.9)
    wall = sorted(lat)
    return {"attempted": len(lat), "failed": failed, "digest": digest.hexdigest(),
            "record_ops": record_ops, "above_p90": sum(x > p90 for x in ranked),
            "metrics": {"op_p50_ms": nearest_rank(ranked, 0.5) * 1e3,
                        "op_p90_ms": p90 * 1e3,
                        "ops_per_s": len(lat) / sum(t * k for t, k in zip(span, scale)),
                        "peak_rss_mb": rss},
            "unscaled": {"calibration_ms": statistics.median(cal),
                         "op_p50_ms": nearest_rank(wall, 0.5) * 1e3,
                         "op_p90_ms": nearest_rank(wall, 0.9) * 1e3,
                         "ops_per_s": len(lat) / sum(span)}}


def layer_metrics(names: list[str], tracer, cache_info) -> dict[str, float]:
    stats, counts = tracer.stats, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(qual):  # 0 for a function a later engine no longer has
        return stats.get(qual, [0])[0]

    hits, misses, size = ((cache_info.hits, cache_info.misses, cache_info.currsize)
                          if cache_info else (0, 0, 0))
    special = {
        "cli.exit_nonzero": counts["cli.exit_nonzero"],
        "verma.ket_action.hits": hits,
        "verma.ket_action.misses": misses,
        "verma.ket_action.hit_ratio": ratio(hits, hits + misses),
        "verma.ket_action.size": size,
        "singular_solver.find_singular.hit_ratio":
            ratio(counts["singular_solver.find_singular.hits"],
                  calls("singular_solver.find_singular")),
        "submodule_quotient.span_builds_per_classify":
            ratio(calls("submodule_quotient.submodule_span_dims"),
                  calls("submodule_quotient.classify_module")),
        "linalg.rref.entries": counts["linalg.rref.entries"],
        "linalg.rational_roots.max_coeff_bits":
            counts["linalg.rational_roots.max_coeff_bits"],
        "cartan_modules.found_ratio": ratio(counts["cartan_modules.found"],
                                            counts["cartan_modules.constituents"]),
    }
    out = {}
    for name in names:
        qual, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        else:
            value = stats.get(qual, [0, 0.0, 0.0])[("calls", "ms", "self_ms").index(field)]
            out[name] = value if field == "calls" else value * 1e3
    return out


def traced_run(name: str, seed: int, seconds: float, run_op, verma,
               per_layer: list[dict]) -> dict:
    """Replay the record prefix traced and untraced, from a cold action cache
    each time, until `seconds` have passed; counters must repeat exactly."""
    from tracer import Tracer

    prefix = [op for batch in itertools.islice(rounds(name, seed),
                                               WORKLOADS[name].record_rounds)
              for op in batch]
    names = [m["name"] for m in per_layer if m["name"] != "trace.overhead_s"]
    timed = {m["name"] for m in per_layer if m["unit"] in ("ms", "s")}
    tracer = Tracer()
    # the generator-action lru_cache; zeros if a later engine drops it
    cache = getattr(verma, "_ket_action", None)
    if not hasattr(cache, "cache_info"):
        cache = None
    failed = attempted = 0

    def replay() -> tuple[float, str]:
        nonlocal failed, attempted
        if cache:
            cache.cache_clear()
        digest = hashlib.sha256()
        t0 = time.perf_counter()
        for op in prefix:
            _, out, reason = run_op(op)
            attempted += 1
            digest.update(out.encode())
            if reason is not None:
                failed += 1
                report_failure(op, reason)
        return time.perf_counter() - t0, digest.hexdigest()

    def traced_replay():
        tracer.reset()
        tracer.install()
        try:
            wall, digest = replay()
        finally:
            tracer.remove()
        layers = layer_metrics(names, tracer, cache.cache_info() if cache else None)
        return wall, digest, layers, {q: s[0] for q, s in tracer.stats.items()}

    passes = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        # alternate which replay goes first, so that order effects cancel
        if len(passes) % 2 == 0:
            traced, plain = traced_replay(), replay()
        else:
            plain, traced = replay(), traced_replay()
        (wall_traced, digest_traced, layers, calls), (wall_plain, digest_plain) = traced, plain
        passes.append((layers, calls, wall_traced - wall_plain,
                       {digest_traced, digest_plain}))
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > seconds:  # one more pass would not fit
            break

    first_layers, first_calls, _, first_digests = passes[0]
    exact = {k: v for k, v in first_layers.items() if k not in timed}
    repeat = all({k: v for k, v in p[0].items() if k not in timed} == exact
                 and p[1] == first_calls and p[3] == first_digests for p in passes)
    if not repeat:
        print("counters or stdout digests differ between passes", file=sys.stderr)
    metrics = {k: (statistics.median(p[0][k] for p in passes) if k in timed else v)
               for k, v in first_layers.items()}
    metrics["trace.overhead_s"] = statistics.median(p[2] for p in passes)
    predictions = {
        pred: sum(n for q, n in first_calls.items()
                  if q == pred or (pred.endswith(".") and q.startswith(pred)))
        for pred in WORKLOADS[name].zero_calls}
    return {"attempted": attempted, "failed": failed,
            "digest": next(iter(first_digests)) if len(first_digests) == 1 else None,
            "record_ops": len(prefix), "passes": len(passes), "repeat": repeat,
            "zero_call_predictions": predictions, "calls": first_calls,
            "metrics": metrics}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_one(args, spec) -> int:
    cli, verma = load_engine()
    run_op = make_runner(cli, verma)
    if args.trace:
        metric_specs = spec["per_layer"]
        res = traced_run(args.workload, args.seed, args.seconds, run_op, verma,
                         metric_specs)
        correct = res["failed"] == 0 and res["repeat"]
    else:
        metric_specs = spec["end_to_end"]
        setup_s, setup_wall = measure_setup()
        res = timed_run(args.workload, args.seed, args.seconds, run_op)
        res["metrics"]["setup_s"] = setup_s
        res["unscaled"]["setup_s"] = setup_wall
        correct = res["failed"] == 0
    units = {m["name"]: m["unit"] for m in metric_specs}
    metrics = {name: {"value": res["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ratio"
          f" ({failed} of {attempted} ops)")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "git_sha": git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "attempted": attempted, "failed": failed,
              "record_ops": res["record_ops"], "stdout_sha256": res["digest"]}
    if args.trace:
        record.update(passes=res["passes"], counters_repeat=res["repeat"],
                      zero_call_predictions=res["zero_call_predictions"],
                      calls={q: n for q, n in res["calls"].items() if n})
    else:
        record.update(above_p90=res["above_p90"], unscaled=res["unscaled"])
        if res["above_p90"] < 10:
            print(f"{args.workload} op_p90_ms has only {res['above_p90']} ops above it",
                  file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run one workload in a fresh interpreter; return its record and result."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {done.returncode}")
    record = next(json.loads(line[7:]) for line in lines if line.startswith("record "))
    return record, json.loads(lines[-1])


def run_all(args) -> int:
    ok = True
    for name in WORKLOADS:
        record, result = child(name, args.seed, args.seconds, args.trace)
        ok &= result["correct"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']} stdout_sha256={record['stdout_sha256']}")
        if args.trace:
            broken = {p: n for p, n in record["zero_call_predictions"].items() if n}
            print(f"== {name}: zero-call predictions "
                  + (f"broken {broken}" if broken else "hold"))
        rows = [(metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
        rows.append(("failed_frac", result["failed"] / result["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:16s} {metric:48s} {value:14.6g} {unit}")
    return 0 if ok else 1


def smoke() -> int:
    """Two traced runs of one pass per workload must agree exactly and pass the oracle."""
    problems = []
    for name in WORKLOADS:
        a = child(name, 7, 0, 1)
        b = child(name, 7, 0, 1)
        for record, result in (a, b):
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: failed {result['failed']} ops or not correct")
            for pred, calls in record["zero_call_predictions"].items():
                if calls:
                    problems.append(f"{name}: {pred} predicted 0 calls, made {calls}")
        exact = [{k: v["value"] for k, v in res["metrics"].items()
                  if v["unit"] not in ("ms", "s")} for _, res in (a, b)]
        if exact[0] != exact[1] or a[0]["stdout_sha256"] != b[0]["stdout_sha256"] \
                or a[0]["calls"] != b[0]["calls"]:
            problems.append(f"{name}: counters or stdout digest differ between runs")
        print(f"smoke {name}: {a[0]['record_ops']} ops, stdout_sha256"
              f" {a[0]['stdout_sha256']}")
    for p in problems:
        print("smoke problem: " + p)
    print("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short self-check: exact counters, digests, predictions")
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "z2rep" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a z2rep checkout (no {SRC / 'z2rep'} or {spec_path})",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
