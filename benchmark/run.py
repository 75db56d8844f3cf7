#!/usr/bin/env python3
"""End-to-end benchmark of vsim: builds the harness, runs a workload,
checks its outputs against benchmark/expected.json and prints the
metrics. See benchmark/README.md.

  run.py --workload W --seed N --seconds S --trace 0|1
      One benchmark run. The last line of stdout is the result JSON:
      end-to-end metrics with --trace 0, per-layer metrics with
      --trace 1 (a separate, traced run).
  run.py --check
      Validate BENCHMARK.json and smoke every workload, plain and
      traced, in well under 30 s once built.
  run.py --repeat N [--workload W] [--seconds S] [--out PATH]
      N runs per workload (seeds 0..N-1): median, quartiles and N of
      every end-to-end metric, saved for --compare.
  run.py --compare A.json B.json
      Verdict per (workload, metric) of B against A under the bounds.
  run.py --regen-expected
      Rewrite benchmark/expected.json after an intended model change.

Exits nonzero when an output is wrong or a step fails.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / ".bench_build"
BIN = BUILD / "cmake" / "vsim_bench"
OUT = BUILD / "out"
EXPECTED = BENCH / "expected.json"
LAYER_MAP = BENCH / "layer_map.json"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("fig3-cold", "spec-wide", "trace-sampled")
# All harness steps of one run end within this, so a run (build aside)
# finishes inside 180 s even when a step hangs.
STEPS_TIMEOUT_S = 150


class BenchError(Exception):
    """A step that could not run at all (no result is printed)."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """The simulator's libraries through the top-level build (the
    tier-1 CMakeLists and flags), then the harness against them."""
    if not (ROOT / "src" / "vsim").is_dir():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    tier1 = BUILD / "tier1"
    for cmd in (["cmake", "-S", str(ROOT), "-B", str(tier1),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(tier1), "-j", jobs,
                 "--target", "vsim_sim"],
                ["cmake", "-S", str(BENCH), "-B", str(BUILD / "cmake"),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 f"-DVSIM_TIER1_BUILD={tier1}"],
                ["cmake", "--build", str(BUILD / "cmake"), "-j", jobs,
                 "--target", "vsim_bench"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("building the harness failed: " + " ".join(cmd))


def harness(*args, deadline=None):
    """One harness step in a fresh process; its JSON line, or None.
    The step is killed at `deadline` (time.monotonic())."""
    if deadline is None:
        deadline = time.monotonic() + STEPS_TIMEOUT_S
    try:
        p = subprocess.run([str(BIN), *args], capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"vsim_bench {' '.join(args)}: timed out")
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(f"vsim_bench {' '.join(args)}: exit {p.returncode}\n{p.stderr}")
        return None
    return json.loads(lines[-1])


# ---- one run ------------------------------------------------------------

def measure(workload, seed, seconds, traced, smoke=False, warmup=False):
    """Setup child, an optional warm-up unit, then timed unit children
    until `seconds` have passed (at least one). A sweep's setup takes
    under a millisecond, so it is repeated between timed units and its
    median spans the whole run; the trace is recorded once.

    Returns (setups, units), the warm-up unit first in `units`; a
    failed unit is None, and setups is None when a setup failed. The
    work directory, trace included, is removed on exit."""
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    if smoke:
        common.append("--smoke")
    extra = []
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        extra = ["--traced", "--perfetto",
                 str(OUT / f"{workload}.perfetto.json")]
    kill_at = time.monotonic() + STEPS_TIMEOUT_S
    repeat_setup = workload != "trace-sampled"
    try:
        setups = [harness("setup", *common, deadline=kill_at)]
        units = []
        if warmup and setups[0] is not None:
            units.append(harness("unit", *common, *extra, deadline=kill_at))
        stop_at = time.monotonic() + seconds
        while setups[-1] is not None:
            units.append(harness("unit", *common, *extra, deadline=kill_at))
            if time.monotonic() >= stop_at:
                return setups, units
            if repeat_setup:
                setups.append(harness("setup", *common, deadline=kill_at))
        return None, []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_unit(workload, unit, exp):
    """(attempted, failed) cells of one unit against its oracle entry."""
    n = len(exp["cells"])
    if unit is None:
        return n, n
    got = unit["cells"]
    failed = sum(a != b for a, b in zip(got, exp["cells"]))
    failed += abs(len(got) - n)
    if failed == 0 and (unit["digest"] != exp["digest"] or (
            workload == "trace-sampled"
            and unit["sampled_cycles"] != exp["sampled_cycles"])):
        failed = n
    return n, failed


def end_to_end(setups, units):
    ok = [u for u in units if u is not None]
    return {
        "wall_s": median([u["wall_s"] for u in ok]),
        "sim_minst_per_s": median([u["minst"] / u["wall_s"] for u in ok]),
        "setup_s": median([t for s in setups for t in s["setup_s"]]),
        "peak_rss_mb": median([u["peak_rss_mb"] for u in ok]),
    }


def per_layer(workload, setups, units, exp, declared):
    """Median over setups or units of every declared layer metric; 0
    for layers the workload never calls."""
    ok = [u for u in units if u is not None]
    layers = {}
    for source in setups + ok:
        for name in source.get("layers", {}):
            if name not in declared:
                raise BenchError(f"harness reports undeclared layer {name}")
    for name in declared:
        values = ([s["layers"][name] for s in setups if name in s["layers"]]
                  or [u["layers"][name] for u in ok if name in u["layers"]])
        layers[name] = median(values) if values else 0.0
    if workload == "trace-sampled" and ok:
        mono = exp["monolithic_cycles"]
        layers["sample.cpi_err_pct"] = abs(
            ok[0]["sampled_cycles"] / mono - 1) * 100
    return layers


def run_once(workload, seed, seconds, trace, spec):
    """One contract run: returns (result dict, exit code)."""
    exp = load_json(EXPECTED)["full"][workload]
    setups, units = measure(workload, seed, seconds, traced=trace == 1,
                            warmup=True)
    if setups is None:
        raise BenchError(f"setup of {workload} failed")
    attempted = failed = 0
    for u in units:
        a, f = check_unit(workload, u, exp)
        attempted += a
        failed += f
    timed = units[1:]  # after the warm-up unit
    if all(u is None for u in timed):
        raise BenchError(f"every unit of {workload} failed")
    if trace == 1:
        declared = [m["name"] for m in spec["per_layer"]]
        values = per_layer(workload, setups, timed, exp, declared)
        metrics = spec["per_layer"]
        save_layers(workload, values)
    else:
        values = end_to_end(setups, timed)
        metrics = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    return result, 0 if failed == 0 else 1


def save_layers(workload, values):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "layers.json"
    data = load_json(path) if path.exists() else {}
    data[workload] = values
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---- --check --------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def validate_spec(spec, layer_map):
    """Problems with BENCHMARK.json and benchmark/layer_map.json."""
    bad = []

    def need(cond, what):
        if not cond:
            bad.append(what)

    need(SPEC.stat().st_size <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB")
    need(set(spec) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}, "top-level keys")
    cmd = spec.get("command", [])
    need(isinstance(cmd, list) and 1 <= len(cmd) <= 32
         and all(isinstance(c, str) and len(c) <= 200 for c in cmd),
         "command: 1-32 strings of at most 200 characters")
    need(all(not c.startswith("/") and ".." not in c.split("/") for c in cmd),
         "command: absolute path or '..'")
    paths = spec.get("paths", [])
    need(1 <= len(paths) <= 16 and all(
        PATH.fullmatch(p) and ".." not in p.split("/") for p in paths),
        "paths: 1-16 relative directories")
    rs = spec.get("run_seconds")
    need(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds: 1-60")
    names = []
    wl = spec.get("workloads", [])
    need(2 <= len(wl) <= 8, "workloads: 2-8")
    for w in wl:
        need(set(w) == {"name", "why"}, f"workload keys {w}")
        names.append(w.get("name", ""))
        why = w.get("why", "")
        need(0 < len(why) <= 200 and "\n" not in why,
             f"workload {w.get('name')}: why must be one line <= 200 chars")
    need([w.get("name") for w in wl] == list(WORKLOADS),
         f"workloads must be {WORKLOADS}")
    e2e = spec.get("end_to_end", [])
    need(1 <= len(e2e) <= 16, "end_to_end: 1-16 metrics")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"},
             f"end_to_end keys {m}")
        need(isinstance(m.get("bound"), (int, float))
             and 0 < m["bound"] <= 0.25, f"{m.get('name')}: bound in (0, 0.25]")
    need(any(m.get("name") == "setup_s" and m.get("unit") == "s"
             and m.get("better") == "lower" for m in e2e),
         "end_to_end needs setup_s (s, lower)")
    layers = spec.get("per_layer", [])
    need(1 <= len(layers) <= 128, "per_layer: 1-128 metrics")
    for m in layers:
        need(set(m) == {"name", "unit", "better"}, f"per_layer keys {m}")
    for m in e2e + layers:
        names.append(m.get("name", ""))
        need(UNIT.fullmatch(str(m.get("unit", ""))),
             f"{m.get('name')}: bad unit")
        need(m.get("better") in ("higher", "lower"),
             f"{m.get('name')}: better must be higher or lower")
    for n in names:
        need(NAME.fullmatch(n), f"bad name {n!r}")
    need(len(names) == len(set(names)), "names must be unique")
    e2e_names = {m.get("name") for m in e2e}
    need(set(layer_map) == {m.get("name") for m in layers},
         "layer_map.json must map exactly the per_layer metrics")
    for name, entry in layer_map.items():
        need(entry.get("moves") in e2e_names,
             f"{name}: 'moves' must name an end_to_end metric")
        need(entry.get("on") and set(entry["on"]) <= set(WORKLOADS),
             f"{name}: 'on' must list workloads")
    return bad


def check(spec):
    bad = ["BENCHMARK.json: " + b
           for b in validate_spec(spec, load_json(LAYER_MAP))]
    expected = load_json(EXPECTED)["smoke"]
    for workload in WORKLOADS:
        exp = expected[workload]
        t0 = time.monotonic()
        verdicts = []
        for traced in (False, True):
            setups, units = measure(workload, 1, 0, traced, smoke=True)
            unit = units[0] if units else None
            if setups is None or unit is None:
                verdicts.append("failed to run")
                continue
            _, failed = check_unit(workload, unit, exp)
            verdicts.append("ok" if failed == 0 else f"{failed} cells wrong")
            if traced:
                try:
                    per_layer(workload, setups, units, exp,
                              [m["name"] for m in spec["per_layer"]])
                except BenchError as e:  # a layer not in BENCHMARK.json
                    bad.append(f"{workload}: {e}")
        log(f"smoke {workload}: plain {verdicts[0]}, traced {verdicts[1]} "
            f"({time.monotonic() - t0:.1f} s)")
        bad += [f"{workload}: {v}" for v in verdicts if v != "ok"]
    for b in bad:
        log("problem:", b)
    print("check: " + ("ok" if not bad else f"{len(bad)} problem(s)"))
    return 0 if not bad else 1


# ---- --repeat / --compare ------------------------------------------------

def summary(values, better):
    """Median, quartiles, N, and the highest percentile that has at
    least ten samples beyond it (none below N = 11)."""
    q1, _, q3 = quantiles(values, n=4)
    med = median(values)
    out = {"n": len(values), "median": med, "q1": q1, "q3": q3,
           "iqr_share": (q3 - q1) / med, "values": values}
    if len(values) >= 11:
        ordered = sorted(values, reverse=(better == "lower"))
        out["tail"] = {"percentile": round(100 * (1 - 10 / len(values)), 1),
                       "value": ordered[10]}
    return out


def repeat(n, workloads, seconds, out_path, spec):
    report = {"seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in range(n):
            result, code = run_once(workload, seed, seconds, 0, spec)
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
            if code != 0:
                raise BenchError(f"{workload} seed {seed}: wrong output")
            runs.append(result["metrics"])
        report["workloads"][workload] = {
            m["name"]: summary([r[m["name"]]["value"] for r in runs],
                               m["better"])
            for m in spec["end_to_end"]}
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'workload':14} {'metric':16} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'iqr/med':>8} {'n':>3}")
    for workload, metrics in report["workloads"].items():
        for name, s in metrics.items():
            tail = (f"  p{s['tail']['percentile']}={s['tail']['value']:.4g}"
                    if "tail" in s else "")
            print(f"{workload:14} {name:16} {s['median']:10.4g} "
                  f"{s['q1']:10.4g} {s['q3']:10.4g} {s['iqr_share']:8.2%} "
                  f"{s['n']:3}{tail}")
    print(f"saved {out_path}")
    return 0


def compare(path_a, path_b, spec):
    """Verdict of B against A per (workload, metric): 'within bound',
    'worse', or 'unresolved' when either side's IQR exceeds the bound
    (unless every run of B beats every run of A)."""
    a, b = load_json(path_a), load_json(path_b)
    worse = 0
    for workload in a["workloads"]:
        for m in spec["end_to_end"]:
            sa = a["workloads"][workload][m["name"]]
            sb = b["workloads"].get(workload, {}).get(m["name"])
            if sb is None:
                continue
            lower = m["better"] == "lower"
            # Positive change = worse, in either direction of "better".
            change = (sb["median"] - sa["median"]) / sa["median"]
            change = change if lower else -change
            if (max(sb["values"]) < min(sa["values"]) if lower
                    else min(sb["values"]) > max(sa["values"])):
                verdict = "better"
            elif max(sa["iqr_share"], sb["iqr_share"]) > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "within bound"
            print(f"{workload:14} {m['name']:16} {sa['median']:10.4g} -> "
                  f"{sb['median']:10.4g}  worse by {change:+7.2%}  "
                  f"(bound {m['bound']:.0%})  {verdict}")
    return 1 if worse else 0


# ---- --regen-expected ----------------------------------------------------

def regen_expected():
    expected = {}
    for size, smoke in (("full", False), ("smoke", True)):
        expected[size] = {}
        for workload in WORKLOADS:
            setups, units = measure(workload, 1, 0, False, smoke=smoke)
            unit = units[0] if units else None
            if setups is None or unit is None:
                raise BenchError(f"{workload} ({size}) failed")
            entry = {"digest": unit["digest"], "cells": unit["cells"]}
            if workload == "trace-sampled":
                ref = harness("reference", "--workload", workload,
                              *(["--smoke"] if smoke else []))
                if ref is None:
                    raise BenchError("monolithic reference failed")
                entry["sampled_cycles"] = unit["sampled_cycles"]
                entry["monolithic_cycles"] = ref["monolithic_cycles"]
            expected[size][workload] = entry
            log(f"{size} {workload}: {entry['digest']}")
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--repeat", type=int, metavar="N")
    ap.add_argument("--out", type=Path, default=OUT / "repeat.json")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--regen-expected", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    spec = load_json(SPEC)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.compare:
        return compare(*args.compare, spec)
    build()
    if args.check:
        return check(spec)
    if args.regen_expected:
        return regen_expected()
    if args.repeat:
        if args.repeat < 2:
            ap.error("--repeat needs N >= 2")
        chosen = [args.workload] if args.workload else list(WORKLOADS)
        return repeat(args.repeat, chosen, seconds, args.out, spec)
    if not args.workload:
        ap.error("--workload is required")
    result, code = run_once(args.workload, args.seed, seconds, args.trace,
                            spec)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"run.py: {e}")
        sys.exit(2)
