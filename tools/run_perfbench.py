#!/usr/bin/env python
"""Run the wall-clock perf-regression harness.

Record a new baseline (writes BENCH_PR<k>.json at the repo root):

    PYTHONPATH=src python tools/run_perfbench.py --pr 10

Gate a change against the committed baseline (exit 1 on >25 % slowdown):

    PYTHONPATH=src python tools/run_perfbench.py --check

Benchmark a pool execution backend, with stage overlap:

    PYTHONPATH=src python tools/run_perfbench.py --workers 4 \
        --backend thread --overlap --no-scaling

See src/repro/bench/perfbench.py for what is measured.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.perfbench import (  # noqa: E402
    DEFAULT_TOLERANCE,
    RERECORD_HINT,
    BaselineError,
    compare_reports,
    load_baseline,
    regressions,
    remeasure_into,
    run_perfbench,
    save_report,
    trace_benchmark,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pr", type=int, default=10,
        help="PR number k for the BENCH_PR<k>.json output name (default 10)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="explicit output path (overrides --pr)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=ROOT / "BENCH_PR10.json",
        help="baseline report to compare against (default BENCH_PR10.json)",
    )
    parser.add_argument(
        "--workers", default=None, metavar="N",
        help="execution backend for the end-to-end runs ('auto' = one "
        "per core; default: REPRO_WORKERS or serial); the scaling sweep "
        "always pins its own counts",
    )
    parser.add_argument(
        "--backend", choices=["serial", "thread"], default=None,
        help="execution backend for the end-to-end runs (default: "
        "REPRO_BACKEND or thread); the scaling sweep always uses threads",
    )
    parser.add_argument(
        "--overlap", action="store_true", default=None,
        help="arm the pipelined stage-overlap scheduler for the "
        "end-to-end and scaling runs (default: REPRO_OVERLAP or off)",
    )
    parser.add_argument(
        "--no-scaling", action="store_true",
        help="skip the worker-scaling sweep (three extra end-to-end runs)",
    )
    parser.add_argument(
        "--no-pipeline", action="store_true",
        help="skip the broadcast-schedule sweep (eight extra end-to-end "
        "runs over net x {sync,static} x workers)",
    )
    parser.add_argument(
        "--no-grid", action="store_true",
        help="skip the process-grid sweep (ten extra end-to-end runs "
        "over net x {2d,3d} x workers plus broadcast-only 3d cells)",
    )
    parser.add_argument(
        "--no-locality", action="store_true",
        help="skip the locality sweep and the delta-rerun pair (twelve "
        "reordering cells plus three islands-net runs)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the baseline and exit 1 on regression; "
        "baseline rows this run did not measure are named as warnings "
        "(writes no report unless --output is given)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="fractional slowdown that counts as a regression "
        f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="micro-benchmark repeats, best-of (default 5)",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=ROOT,
        help="where --check drops trace-<benchmark>.json timelines for "
        "confirmed regressions (default: repo root)",
    )
    args = parser.parse_args(argv)

    # Validate the baseline *before* spending minutes on benchmarks, so a
    # missing or stale file fails fast with a fix-it message.
    baseline = None
    if args.check:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    report = run_perfbench(
        repeats=args.repeats,
        log=print,
        workers=args.workers,
        scaling=not args.no_scaling,
        backend=args.backend,
        overlap=args.overlap,
        pipeline=not args.no_pipeline,
        grid_sweep=not args.no_grid,
        locality=not args.no_locality,
    )

    out = args.output
    if out is None and not args.check:
        out = ROOT / f"BENCH_PR{args.pr}.json"
    if out is not None:
        save_report(report, out)
        print(f"wrote {out}")

    if not args.check:
        return 0

    def warn(msg):
        print(f"warning: {msg}", file=sys.stderr)

    try:
        rows = compare_reports(report, baseline, warn=warn)
    except BaselineError as exc:
        # A malformed row names the offending entry and the report's
        # schema instead of surfacing a bare KeyError traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print(
            f"error: baseline {args.baseline} shares no benchmark names "
            f"with the current harness — {RERECORD_HINT}",
            file=sys.stderr,
        )
        return 2
    width = max(len(r.name) for r in rows)
    for r in rows:
        flag = " <-- REGRESSION" if r.regressed(args.tolerance) else ""
        print(
            f"{r.name:<{width}}  base {r.baseline * 1e3:9.1f}ms  "
            f"now {r.current * 1e3:9.1f}ms  x{r.ratio:5.2f}{flag}"
        )
    bad = regressions(report, baseline, args.tolerance)
    if bad:
        # Shared machines produce one-shot outliers; re-measure only the
        # apparent regressions and keep the better observation before
        # declaring a failure.
        print(f"re-measuring {len(bad)} apparent regression(s) ...")
        for c in bad:
            if remeasure_into(report, c.name, repeats=args.repeats,
                              workers=args.workers):
                cur = compare_reports(report, baseline)
                row = next(r for r in cur if r.name == c.name)
                print(
                    f"{c.name:<{width}}  base {row.baseline * 1e3:9.1f}ms  "
                    f"now {row.current * 1e3:9.1f}ms  x{row.ratio:5.2f}"
                    f"{' <-- REGRESSION' if row.regressed(args.tolerance) else ' (noise)'}"
                )
        bad = regressions(report, baseline, args.tolerance)
    if bad:
        # Ship evidence with the failure: re-run each confirmed
        # end-to-end/scaling regression under the observability tracer
        # and drop a Perfetto-loadable timeline next to the repo root.
        from repro.trace import write_chrome_trace

        for c in bad:
            tracer = trace_benchmark(c.name, workers=args.workers)
            if tracer is None:
                continue
            path = args.trace_dir / (
                "trace-" + c.name.replace("/", "-") + ".json"
            )
            n_events = write_chrome_trace(tracer, path)
            print(
                f"wrote {path} ({n_events} events) — load in Perfetto "
                "to see where the regressed run spends its time"
            )
        print(
            f"FAIL: {len(bad)} benchmark(s) regressed more than "
            f"{args.tolerance * 100:.0f}% vs {args.baseline.name}",
            file=sys.stderr,
        )
        return 1
    print(f"OK: no regression beyond {args.tolerance * 100:.0f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
