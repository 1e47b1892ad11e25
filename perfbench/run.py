"""Benchmark for advalloc: runs one workload for a fixed time and reports.

    python3 perfbench/run.py --workload selfplay-n25 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The workload's command list runs
in-process through `advalloc.cli.run_cli`, pass after pass, in a closed loop
with one caller, until `--seconds` are used (at least one pass). Every
pass checks its outputs; failed commands and failed checks count as failed
operations. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`:

* `--trace 0`: the end-to-end metrics, means over the faster half of passes.
* `--trace 1`: the per-layer metrics. Untraced and traced passes alternate;
  per-layer numbers are means over the faster half of traced passes, and
  `trace.overhead_frac` compares the two kinds of pass.

A run record (`perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json`) keeps
the per-command numbers, artifact hashes, failures and the environment;
traced runs also write their spans beside it. `--quick` runs one small pass.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from bench_trace import CLI_SPAN, PER_LAYER, Tracer, iteration_ms, pass_metrics, \
    tail_stats, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7

# (name, unit) of the end-to-end metrics every workload reports
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _import_program():
    """Import advalloc from this checkout's src/, or return None."""
    if not (SRC / "advalloc" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import advalloc
    import advalloc.cli
    if Path(advalloc.__file__).resolve().parent != SRC / "advalloc":
        return None
    return advalloc.cli


def _setup_sample(workload, cfg_dir: Path) -> float:
    """Fresh-interpreter import of the CLI plus writing the experiment files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import advalloc.cli"], cwd=ROOT, env=env,
                   check=True)
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, text in workload.configs.items():
        (cfg_dir / name).write_text(text, encoding="utf-8")
    return time.perf_counter() - start


def faster_half(passes: list[dict]) -> list[dict]:
    """The faster half of the passes by wall time, at least one.

    Other load on a shared machine only ever slows a pass down; dropping the
    slower half removes most of it, and averaging the rest keeps the spread
    between runs well below that of the median pass.
    """
    return sorted(passes, key=lambda p: p["wall_s"])[: max(1, len(passes) // 2)]


def csv_hashes(out_dir: Path, label: str) -> dict[str, str]:
    """sha256 of every CSV artifact of one command (all are deterministic)."""
    return {f"{label}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.glob("*.csv"))}


def run_pass(workload, cli, cfg_dir: Path, run_dir: Path, tracer=None) -> dict:
    """Run every command once; time it, check its outputs, hash its CSVs."""
    ctx: dict = {}
    times: dict[str, float] = {}
    ops: list[tuple[str, str, bool, str]] = []
    hashes: dict[str, str] = {}
    started = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for cmd in workload.commands:
            out_dir = run_dir / cmd.label
            argv = [a.format(cfg=cfg_dir, run=run_dir) for a in cmd.argv]
            argv += ["--out-dir", str(out_dir)]
            buf = io.StringIO()
            code = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    if tracer is None:
                        code = cli.run_cli(argv)
                    else:
                        code = tracer.run(CLI_SPAN, cli.run_cli, argv)
            except Exception:  # a crash is one failed operation, not the end of the run
                traceback.print_exc()
            times[cmd.label] = time.perf_counter() - t0
            ops.append((cmd.label, "exit status", code == 0, f"exit {code}"))
            if code != 0:
                ops.append((cmd.label, "output checks", False, "command failed"))
                continue
            try:
                results = cmd.check(str(out_dir), buf.getvalue(), ctx)
            except Exception as exc:  # unreadable output fails the check
                results = [("output checks", False, repr(exc))]
            ops += [(cmd.label, name, ok, detail) for name, ok, detail in results]
            hashes.update(csv_hashes(out_dir, cmd.label))
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - started
    shutil.rmtree(run_dir, ignore_errors=True)
    seconds = {f"{phase}_s": sum(times[c.label] for c in workload.commands if c.phase == phase)
               for phase in ("solve", "check")}
    for cmd in workload.commands:
        seconds[cmd.metric] = seconds.get(cmd.metric, 0.0) + times[cmd.label]
    work = {cmd.metric: cmd.work for cmd in workload.commands if cmd.work is not None}
    named = {m: work[m] / t if m in work else t for m, t in seconds.items()}
    return {"traced": tracer is not None, "elapsed": elapsed, "wall_s": sum(times.values()),
            "times": times,
            "named": named, "ops": ops, "hashes": hashes,
            "spans": tracer.spans if tracer is not None else None,
            "missing": tracer.missing if tracer is not None else []}


def _blas_info() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None,
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "advalloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np
    return {"git_rev": _git_rev(), "source_sha256": _source_sha256(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas_info(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def _parse(argv):
    from bench_workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time; BENCHMARK.json run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one small pass per kind")
    return p.parse_args(argv)


def main(argv=None) -> int:
    cli = _import_program()
    if cli is None:
        print(f"error: no advalloc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    args = _parse(argv)
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        cfg_dir = work / "cfg"
        setup = [_setup_sample(workload, cfg_dir) for _ in range(SETUP_SAMPLES)]

        passes: list[dict] = []
        min_passes = 2 if args.trace else 1
        deadline = time.perf_counter() + args.seconds
        while True:
            # untraced, traced, traced, untraced, ...: both kinds see cold starts alike
            tracer = Tracer() if args.trace and len(passes) % 4 in (1, 2) else None
            passes.append(run_pass(workload, cli, cfg_dir, work / f"pass{len(passes)}",
                                   tracer))
            if len(passes) < min_passes:
                continue
            next_s = max(p["elapsed"] for p in passes[-2:])
            if args.quick or time.perf_counter() + next_s > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    reference = passes[0]["hashes"]
    for i, p in enumerate(passes[1:], start=1):
        differing = sorted(k for k in reference.keys() | p["hashes"].keys()
                           if reference.get(k) != p["hashes"].get(k))
        ops.append((f"pass{i}", "same-seed artifacts identical", not differing,
                    ", ".join(differing)))
    failures = [op for op in ops if not op[2]]

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    fast = faster_half(plain)
    if args.trace:
        fast_traced = faster_half(traced)
        per_pass = [pass_metrics(p["spans"]) for p in fast_traced]
        values = {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}
        values.update(tail_stats([ms for p in traced for ms in iteration_ms(p["spans"])]))
        values["trace.overhead_frac"] = (statistics.fmean(p["wall_s"] for p in fast_traced)
                                         / statistics.fmean(p["wall_s"] for p in fast) - 1.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.csv"
        write_spans(spans_path, [(i, span) for i, p in enumerate(passes) if p["traced"]
                                 for span in p["spans"]])
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.fmean(p["wall_s"] for p in fast),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    named = {name: statistics.fmean(p["named"][name] for p in fast) for name in fast[0]["named"]}
    ops_failed_frac = len(failures) / len(ops)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "quick": args.quick, "environment": environment(),
        "setup_samples_s": setup,
        "passes": [{k: p[k] for k in ("traced", "elapsed", "wall_s", "times", "named")}
                   for p in passes],
        "metrics": metrics, "command_metrics": named,
        "attempted": len(ops), "failed": len(failures), "ops_failed_frac": ops_failed_frac,
        "failures": [{"command": c, "check": n, "detail": d} for c, n, _, d in failures],
        "artifact_sha256": reference,
        "untraced_targets": sorted({m for p in traced for m in p["missing"]}),
    }
    record_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for c, n, _, d in failures:
        print(f"FAILED {c}: {n}: {d}")
    for target in record["untraced_targets"]:
        print(f"WARNING {target} no longer exists; its spans read zero")
    print(f"{args.workload} seed={args.seed} passes={len(plain)} untraced + "
          f"{len(traced)} traced, record {record_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in named.items():
        print(f"  {name} = {value:.6g} {'1/s' if name.endswith('_per_s') else 's'}")
    print(f"  ops_failed_frac = {ops_failed_frac:.6g} ratio "
          f"({len(failures)} of {len(ops)} attempted)")
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
