"""bhdimer benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the checkout's src/, never
from an installed copy. A run is a closed loop from one client: it starts
one harness.py process per workload operation, each after the previous one
has ended, until --seconds have passed (at least one operation).

--trace 0 reports the end-to-end metrics: medians over the operations of
the set-up, call and read-back times, each scaled by the host speed that a
gauge sampled while it ran, so that it follows the program and not the
shared host (see end_to_end); peak_rss_mb is the largest over the
operations. --trace 1 alternates untraced and traced operations until
--seconds have passed (at least one pair) and, for a sweep, adds one
operation with jobs=1. It reports the per-layer metrics (medians over the
traced operations, the times scaled in the same way), the tracing overhead
and the serial speed-up. Every child runs with OpenBLAS pinned to one
thread.

Each operation's output files are hashed; the hashes must agree across the
operations of a run and with the first run of the same sources in this
checkout (kept under .perfbench_out/hashes), or the cells fail. Earlier
lines of standard output list each metric with its unit and sample count,
the error rate, and where the provenance record and the spans went; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from argparse import ArgumentParser
from pathlib import Path

from gauge import scaled

ROOT = Path(__file__).resolve().parents[1]
HARNESS = Path(__file__).resolve().with_name("harness.py")
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOADS = ("rabi-n400", "selftrap-long", "sweep-matrix")
TIME_LIMIT_S = 170.0  # whole run


def _child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def harness(args: list[str], deadline: float) -> str:
    """Run harness.py to completion and return the last line of its output."""
    proc = subprocess.run(
        [sys.executable, str(HARNESS), *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"harness {' '.join(args)} exited with code {proc.returncode}")
    return proc.stdout.splitlines()[-1]


def _mark_hash_mismatch(op: dict, expected: dict, what: str) -> None:
    """Fail the cells whose output files differ from `expected`; a differing
    file that belongs to no single cell (the sweep table) fails them all."""
    for name in sorted(set(op["outputs_sha256"]) | set(expected)):
        if op["outputs_sha256"].get(name) == expected.get(name):
            continue
        owner = name.split(".")[0]
        for cell in [owner] if owner in op["cells"] else op["cells"]:
            op["failures"].setdefault(cell, []).append(f"{name} differs from {what}")


def check_determinism(ops: list[dict], store_dir: Path) -> None:
    first = ops[0]
    prov = first["provenance"]
    store = store_dir / (
        f"{prov['source_sha256'][:16]}-blas{prov['blas']['threads']}.json"
    )
    if store.exists():
        earlier = json.loads(store.read_text())
        for op in ops:
            _mark_hash_mismatch(op, earlier, f"an earlier run of the same sources ({store})")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_name(f"{store.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(first["outputs_sha256"], indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)
    for op in ops[1:]:
        _mark_hash_mismatch(op, first["outputs_sha256"], "the first operation of this run")


def _median_metric(values, unit: str) -> dict:
    return {"value": float(statistics.median(values)), "unit": unit}


def end_to_end(ops: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of one run, and how each was taken.

    The shared host runs each vCPU at one of two speeds, about 1.6x apart,
    and switches between them every few seconds, also in the middle of an
    operation. Every timed section of an operation (set-up, the call, the
    read-back) was sampled by a host-speed gauge while it ran; its time,
    less the samples, is scaled to a host where one sample takes
    REFERENCE_S (gauge.scaled). A cell's time is scaled by the factor of
    its operation's call. Each metric is the median over the operations.
    """
    factors = [scaled(op["wall_s"], op["gauge"]) / op["wall_s"] for op in ops]
    per_cell = {
        cell: statistics.median(op["cell_s"][i] * f for op, f in zip(ops, factors))
        for i, cell in enumerate(ops[0]["cells"])
    }
    metrics = {
        "setup_s": statistics.median(scaled(**op["setup"]) for op in ops),
        "wall_s": statistics.median(op["wall_s"] * f for op, f in zip(ops, factors)),
        "cell_p50_s": statistics.median(per_cell.values()),
        # The sweep's peak depends on how its two threads' allocations
        # overlap; the largest over the run is steadier than the median.
        "peak_rss_mb": max(op["peak_rss_mb"] for op in ops),
        "readback_s": statistics.median(scaled(**r) for op in ops for r in op["reads"]),
    }
    units = {"peak_rss_mb": "MB"}
    metrics = {name: {"value": float(v), "unit": units.get(name, "s")} for name, v in metrics.items()}

    def raw(seconds: list[float]) -> str:
        return f"{len(seconds)} samples, scaled; unscaled median {statistics.median(seconds):.6g} s"

    reads = [r["seconds"] for op in ops for r in op["reads"]]
    how = {
        "setup_s": f"median of {raw([op['setup']['seconds'] for op in ops])}",
        "wall_s": (
            f"median of {raw([op['wall_s'] for op in ops])};"
            f" {sum(op['gauge']['samples'] for op in ops)} gauge samples"
        ),
        "cell_p50_s": f"median over {len(per_cell)} cells of each cell's median of {len(ops)} operations, scaled",
        "peak_rss_mb": f"largest of {len(ops)} operations",
        "readback_s": f"read_series of every series file, median of {raw(reads)}",
    }
    return metrics, how


def per_layer(untraced: list[dict], traced: list[dict], serial: dict | None) -> tuple[dict, dict]:
    """Per-layer metrics: medians over the traced operations. Times and
    rates are scaled by their operation's gauge, as wall_s is."""

    def factor(op: dict) -> float:
        return scaled(op["wall_s"], op["gauge"]) / op["wall_s"]

    def value(op: dict, m: dict) -> float:
        if m["unit"] == "s":
            return m["value"] * factor(op)
        if m["unit"] == "GFLOP/s":
            return m["value"] / factor(op)
        return m["value"]

    metrics = {
        name: _median_metric([value(op, op["layers"][name]) for op in traced], m["unit"])
        for name, m in traced[0]["layers"].items()
    }
    how = {name: f"median of {len(traced)} traced operations" for name in metrics}
    untraced_wall = statistics.median(op["wall_s"] * factor(op) for op in untraced)
    traced_wall = statistics.median(op["wall_s"] * factor(op) for op in traced)
    # A single-scenario workload runs with jobs=1: it is its own serial run.
    speedup = serial["wall_s"] * factor(serial) / untraced_wall if serial else 1.0
    metrics["cli.sweep_serial_speedup"] = {"value": speedup, "unit": "1"}
    how["cli.sweep_serial_speedup"] = f"one jobs=1 operation over the median of {len(untraced)} untraced, scaled"
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    how["trace.overhead_s"] = f"median of {len(traced)} traced minus median of {len(untraced)} untraced, scaled"
    return metrics, how


def main(argv=None) -> int:
    p = ArgumentParser(description="bhdimer benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "bhdimer" / "__init__.py").is_file():
        print(f"error: no bhdimer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ops: list[dict] = []

    def op(mode: str) -> dict:
        out = run_dir / f"op{len(ops)}-{mode}"
        line = harness(
            ["--workload", args.workload, "--seed", str(args.seed), "--mode", mode, "--out", str(out)],
            deadline,
        )
        ops.append(json.loads(line))
        return ops[-1]

    try:
        measure_end = time.monotonic() + args.seconds
        if args.trace:
            # Untraced and traced operations alternate, so that slow spells
            # of a shared machine fall on both sides of the overhead.
            untraced, traced = [], []
            while not traced or time.monotonic() < measure_end:
                untraced.append(op("untraced"))
                traced.append(op("traced"))
            serial = op("serial") if untraced[0]["jobs"] > 1 else None
            metrics, how = per_layer(untraced, traced, serial)
        else:
            while not ops or time.monotonic() < measure_end:
                op("untraced")
            metrics, how = end_to_end(ops)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    check_determinism(ops, OUT_ROOT / "hashes" / args.workload)
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(len(op["failures"]) for op in ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **{k: v for k, v in ops[0]["provenance"].items() if k != "seed"},
        "ops": [{k: v for k, v in op.items() if k != "provenance"} for op in ops],
    }
    provenance_path = run_dir / "provenance.json"
    provenance_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for i, o in enumerate(ops):
        for cell, reasons in o["failures"].items():
            print(f"FAILED op{i}-{o['mode']} cell {cell}: {'; '.join(reasons)}")
    for name, m in metrics.items():
        note = f"  ({how[name]})" if name in how else ""
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'error_rate':<30} {failed / attempted:.6g} 1  ({failed} of {attempted} cells failed)")
    traced_ops = [o for o in ops if o["layer_table"]]
    if traced_ops:
        print(f"  per layer, unscaled, median of {len(traced_ops)} traced operations:")
        for layer in traced_ops[0]["layer_table"]:
            row = {
                key: statistics.median(o["layer_table"][layer][key] for o in traced_ops)
                for key in ("calls", "self_s", "rss_growth_mb")
            }
            print(f"    {layer:<12} calls {row['calls']:<6g} self {row['self_s']:.6g} s"
                  f"  own peak-RSS growth {row['rss_growth_mb']:.6g} MB")
    print(f"  provenance: {provenance_path}")
    for o in ops:
        if o["spans"]:
            print(f"  spans: {o['spans']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
