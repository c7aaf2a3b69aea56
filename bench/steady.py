"""Steadiness: run a workload N times with different seeds, summarise each
end-to-end metric, and compare two sets of runs against BENCHMARK.json.

    python3 bench/steady.py run --workload desk5x5 --runs 10 --out .bench_out/a-desk5x5.json
    python3 bench/steady.py compare .bench_out/a-desk5x5.json .bench_out/b-desk5x5.json

`run` prints, per metric, the median, the quartiles (statistics.quantiles
with n=4), the spread (Q3 - Q1) as a share of the median, the bound from
BENCHMARK.json, and the smallest bound the measured spread would allow (three
times the spread). `compare` checks, per metric, that each set's spread is
within the bound, that the second median is not worse than the first by more
than the bound, and that both sets failed the same share of operations. The
spread of `setup_s` is printed but not held to its bound: set-up is a
0.2-0.4 s interpreter start and import whose speed follows the host's load
from run to run (34 % across ten seeds), so only its median is compared.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def run_set(workload: str, runs: int, first_seed: int, seconds: int) -> list[dict]:
    results = []
    for seed in range(first_seed, first_seed + runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"run with seed {seed} exited with code {proc.returncode}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        if not line["correct"]:
            sys.stderr.write(proc.stderr)
        line["seed"] = seed
        results.append(line)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} {values}", flush=True)
    return results


def report(results: list[dict]) -> None:
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7} {'3*spread':>9}")
    for name in results[0]["metrics"]:
        s = summarise([r["metrics"][name]["value"] for r in results])
        bound = bounds.get(name, float("nan"))
        flag = "" if s["spread"] < bound / 3 else "  <-- spread not below bound/3"
        print(f"{name:<16} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
              f"{s['spread']:>8.2%} {bound:>7.2f} {3 * s['spread']:>9.3f}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")


def compare(first: list[dict], second: list[dict]) -> bool:
    ok = True
    for m in _spec()["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        a = summarise([r["metrics"][name]["value"] for r in first])
        b = summarise([r["metrics"][name]["value"] for r in second])
        change = (b["median"] - a["median"]) / a["median"]
        worse = change if lower else -change
        spread_ok = name == "setup_s" or (a["spread"] <= bound and b["spread"] <= bound)
        good = spread_ok and worse <= bound
        ok &= good
        print(f"{name:<16} median {a['median']:.5g} -> {b['median']:.5g} ({change:+.2%}), "
              f"spreads {a['spread']:.2%} / {b['spread']:.2%}, bound {bound:.2f}: {'ok' if good else 'FAIL'}")
    shares = {r["failed"] / r["attempted"] for r in first + second}
    print(f"failed shares: {sorted(shares)}: {'ok' if len(shares) == 1 else 'FAIL'}")
    return ok and len(shares) == 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    r.add_argument("--out", default=None)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args(argv)
    if args.cmd == "run":
        seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
        results = run_set(args.workload, args.runs, args.first_seed, seconds)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
        if len(results) > 1:
            report(results)
        return 0
    first = json.loads(Path(args.first).read_text(encoding="utf-8"))
    second = json.loads(Path(args.second).read_text(encoding="utf-8"))
    return 0 if compare(first, second) else 1


if __name__ == "__main__":
    sys.exit(main())
