"""The benchmark command.

    python3 bench/run.py --workload desk5x5 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

One run repeats whole rounds of a workload until --seconds have passed (at
least one round). Each round is a fresh child process (bench/workloads.py)
with OpenBLAS and OpenMP limited to one thread, so peak RSS belongs to one
workload. Set-up is also repeated alone, SETUP_MIN to SETUP_MAX times in all.
ingest_kmeans's corpus is written once per run, before the rounds, and is
not part of any figure: set-up rebuilds it in memory only (see README.md).
Every figure reported is the median over rounds. The last line of standard
output is one JSON object: with --trace 0 it holds the end-to-end metrics
BENCHMARK.json lists, with --trace 1 the per-layer metrics of a traced run.
A round that fails (a stage raises or exits nonzero, a check fails, or the
child crashes) ends the run: the JSON line is still printed, with correct
false, the failed operations counted and null for every metric no round
measured, and the exit code is 1.

--workload all runs every workload untraced and then traced, prints every
end-to-end metric each workload has (including the stage and quality
metrics BENCHMARK.json cannot gate because not every workload has them),
the per-layer report and the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("desk5x5", "bigbatch_fine", "ingest_kmeans")
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402
# set-up samples per run: at least SETUP_MIN, then more while the set-up-only
# samples have taken less than SETUP_BUDGET_S, up to SETUP_MAX
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 11, 4.0
DEADLINE_S = 170.0  # a run must end within 180 s


def _crashed(message: str) -> dict:
    """A round whose child process failed: one attempted, failed operation."""
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "errors": [message]}


def _median(rounds: list[dict], name: str) -> Optional[float]:
    """Median over the rounds that have the metric; None if none has it."""
    values = [r["metrics"][name] for r in rounds if name in r["metrics"]]
    return statistics.median(values) if values else None


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, trace: bool, setup_only: bool, deadline: float, mini: bool = False,
          inputs: Optional[Path] = None) -> dict:
    """Run one round (or one set-up) in a child process and return its result."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir()
    result = work / "result.json"
    log = work / "child.log"
    try:
        t0 = time.perf_counter()
        cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed),
               "--workdir", str(work), "--result", str(result), "--t0", repr(t0),
               "--trace", "1" if trace else "0"]
        if setup_only:
            cmd.append("--setup-only")
        if mini:
            cmd.append("--mini")
        if inputs is not None:
            cmd += ["--corpus", str(inputs)]
        with open(log, "wb") as fh:
            proc = subprocess.Popen(cmd, env=_env(), cwd=str(ROOT), stdout=fh, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return _crashed(f"{workload} round did not finish before the deadline")
        if code != 0 or not result.exists():
            tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
            return _crashed(f"{workload} child exited with code {code}:\n{tail}")
        out = json.loads(result.read_text(encoding="utf-8"))
        if "spans_path" in out:
            OUT.mkdir(exist_ok=True)
            kept = OUT / f"spans-{workload}-seed{seed}.json"
            shutil.copyfile(out["spans_path"], kept)
            out["spans_path"] = str(kept.relative_to(ROOT))
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, mini: bool = False) -> dict:
    """Whole rounds until `seconds` have passed, then set-up samples; medians."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    inputs = None
    if workload == "ingest_kmeans":
        WORK.mkdir(exist_ok=True)
        inputs = WORK / f"corpus-{os.getpid()}-{time.monotonic_ns()}"
        corpus.write_corpus(inputs, seed, corpus.MINI if mini else corpus.FULL)
    try:
        return _measure(workload, seed, seconds, trace, mini, inputs, deadline)
    finally:
        if inputs is not None:
            shutil.rmtree(inputs, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: bool, mini: bool, inputs: Optional[Path],
             deadline: float) -> dict:
    start = time.perf_counter()
    cutoff = deadline - 0.2 * DEADLINE_S  # no new round or sample after this
    rounds = []
    while True:
        rounds.append(spawn(workload, seed, trace, False, deadline, mini, inputs))
        now = time.perf_counter()
        if now - start >= seconds or now + (now - start) / len(rounds) > cutoff or not rounds[-1]["correct"]:
            break
    setups = [r["setup_s"] for r in rounds if "setup_s" in r]
    sampling = time.perf_counter()

    def more_setups() -> bool:
        now = time.perf_counter()
        if not setups or len(setups) >= SETUP_MAX or now > cutoff:
            return False
        return len(setups) < SETUP_MIN or now - sampling < SETUP_BUDGET_S

    while more_setups():
        sample = spawn(workload, seed, False, True, deadline, mini, inputs)
        if "setup_s" not in sample:
            rounds.append(sample)
            break
        setups.append(sample["setup_s"])

    names = {name for r in rounds for name in r["metrics"]}
    metrics = {name: _median(rounds, name) for name in names}
    metrics["setup_s"] = statistics.median(setups) if setups else None
    out = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "rounds": len(rounds),
        "setup_samples": len(setups),
        "errors": [e for r in rounds for e in r["errors"]],
    }
    if trace:
        traced = [r for r in rounds if r.get("layers")]
        out["layers"] = {
            name: (statistics.median(r["layers"][name][0] for r in traced), traced[0]["layers"][name][1])
            for name in (traced[0]["layers"] if traced else ())
        }
        out["spans"] = traced[0]["spans"] if traced else []
        out["spans_path"] = traced[-1]["spans_path"] if traced else None
    return out


# --- printing -----------------------------------------------------------------


def _units() -> dict:
    from spans import LAYER_METRICS

    units = {"setup_s": "s", "synth_s": "s", "ingest_s": "s", "labels_s": "s", "train_s": "s",
             "eval_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "i2t_r1": "fraction",
             "s2t_r1": "fraction", "t2i_r1": "fraction", "probe_acc": "fraction",
             "transfer_s2t_r1": "fraction"}
    units.update({name: spec[0] for name, spec in LAYER_METRICS.items()})
    return units


def print_end_to_end(workload: str, res: dict, units: dict) -> None:
    print(f"== {workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
          f"rounds={res['rounds']} setup_samples={res['setup_samples']}")
    for name, value in sorted(res["metrics"].items()):
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<18} {shown:>14} {units.get(name, '')}")
    for err in res["errors"]:
        print("  ERROR " + err, file=sys.stderr)


def print_layers(workload: str, res: dict, units: dict) -> None:
    from spans import LAYER_METRICS

    print(f"== {workload} per-layer (traced; spans in {res['spans_path']})")
    print(f"  {'metric':<26} {'value':>14} {'unit':<6} {'samples':>8}  should move")
    for name, (value, n) in res["layers"].items():
        print(f"  {name:<26} {value:>14.6g} {units[name]:<6} {n:>8}  {LAYER_METRICS[name][2]}")
    print(f"  {'span':<26} {'calls':>8} {'total_s':>12} {'self_s':>12}")
    for name, calls, total, own in sorted(res["spans"], key=lambda row: -row[2]):
        print(f"  {name:<26} {calls:>8} {total:>12.4f} {own:>12.4f}")


def _result_line(res: dict, names: list, units: dict, values: dict) -> str:
    return json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values.get(n), "unit": units[n]} for n in names},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mrcontrast" / "__init__.py").is_file():
        print(f"error: no mrcontrast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = _units()
    if args.workload != "all":
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            print_layers(args.workload, res, units)
            values = {n: v for n, (v, _) in res["layers"].items()}
            names = [m["name"] for m in spec["per_layer"]]
        else:
            print_end_to_end(args.workload, res, units)
            values = res["metrics"]
            names = [m["name"] for m in spec["end_to_end"]]
        print(_result_line(res, names, units, values))
        return 0 if res["correct"] else 1

    summary = {"correct": True, "attempted": 0, "failed": 0}
    values, names = {}, []
    for workload in WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, False)
        traced = run_workload(workload, args.seed, 0, True)
        print_end_to_end(workload, plain, units)
        print_layers(workload, traced, units)
        walls = (traced["metrics"].get("wall_s"), plain["metrics"].get("wall_s"))
        if None not in walls:
            overhead = walls[0] - walls[1]
            print(f"  tracing overhead: wall_s {walls[0]:.3f} s traced vs {walls[1]:.3f} s untraced "
                  f"({overhead:+.3f} s, {overhead / walls[1]:+.1%})")
        for res in (plain, traced):
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
        for name, value in plain["metrics"].items():
            key = f"{workload}.{name}"
            names.append(key)
            values[key] = value
            units[key] = units[name]
    print(_result_line(summary, names, units, values))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
