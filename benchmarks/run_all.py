"""Regenerate every table and figure of the paper's evaluation section.

Usage::

    python benchmarks/run_all.py [--div N] [--out DIR]

``--div`` is the extra prefix-slicing divisor on top of the library's 1:100
dataset scale (default: the ``REPRO_BENCH_DIV`` env var or 10). Results are
printed and written under ``bench_results/``: each target produces a
human-readable ``<name>.txt`` table plus a machine-readable
``BENCH_<name>.json`` record (timing, environment, git revision) so CI and
regression tooling can diff runs without parsing tables.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(__file__))

import bench_ablation_devices
import bench_ablation_sparsity
import bench_ablation_tiling
import bench_batch_throughput
import bench_fig4_query_scaling
import bench_fig5_minlen_scaling
import bench_fig6_seed_histogram
import bench_fig7_load_balancing
import bench_lock_contention
import bench_resource_tracker
import bench_sa_builders
import bench_serve
import bench_session_reuse
import bench_store_warmstart
import bench_table2_datasets
import bench_table3_index_build
import bench_table4_extraction

TARGETS = [
    ("table2_datasets", lambda div: bench_table2_datasets.generate_table()),
    ("table3_index_build", bench_table3_index_build.generate_table),
    ("table4_extraction", bench_table4_extraction.generate_table),
    ("fig4_query_scaling", bench_fig4_query_scaling.generate_series),
    ("fig5_minlen_scaling", bench_fig5_minlen_scaling.generate_series),
    ("fig6_seed_histogram", bench_fig6_seed_histogram.generate_series),
    ("fig7_load_balancing", bench_fig7_load_balancing.generate_series),
    ("ablation_sparsity", bench_ablation_sparsity.generate_series),
    ("ablation_tiling", bench_ablation_tiling.generate_series),
    ("sa_builders", bench_sa_builders.generate_series),
    ("ablation_devices", bench_ablation_devices.generate_series),
    ("session_reuse", bench_session_reuse.generate_series),
    ("store_warmstart", bench_store_warmstart.generate_series),
    ("batch_throughput", bench_batch_throughput.generate_series),
    ("obs_overhead", bench_batch_throughput.generate_obs_overhead_series),
    ("serve", bench_serve.generate_series),
    ("lock_contention", bench_lock_contention.generate_series),
    ("resource_tracker", bench_resource_tracker.generate_series),
]


def git_revision() -> str | None:
    """The checked-out commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_bench_json(out_dir: Path, name: str, *, seconds: float,
                     text: str, env: dict, rev: str | None,
                     div: int | None) -> Path:
    """Write the machine-readable ``BENCH_<name>.json`` telemetry record."""
    record = {
        "name": name,
        "seconds": round(seconds, 6),
        "div": div,
        "git_revision": rev,
        "environment": env,
        "text": text,
    }
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--div", type=int, default=None,
                        help="extra slicing divisor (default REPRO_BENCH_DIV or 10)")
    parser.add_argument("--out", default="bench_results")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of target names to run")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(exist_ok=True)
    from repro.bench.harness import environment_info

    env = environment_info(args.div)
    env_text = "\n".join(f"{k}: {v}" for k, v in env.items()) + "\n"
    print(env_text)
    (out_dir / "environment.txt").write_text(env_text)
    rev = git_revision()
    for name, fn in TARGETS:
        if args.only and name not in args.only:
            continue
        t0 = time.perf_counter()
        text = fn(args.div)
        took = time.perf_counter() - t0
        print(text)
        print(f"[{name} regenerated in {took:.1f}s]\n")
        (out_dir / f"{name}.txt").write_text(text)
        write_bench_json(out_dir, name, seconds=took, text=text,
                         env=env, rev=rev, div=args.div)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
