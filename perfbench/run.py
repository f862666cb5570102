"""mfbridge benchmark: seeded sweeps, the k0 corpus and the CLI, end to end.

    python3 perfbench/run.py --workload {subst,roundtrip,k0,cli} --seed N \\
        --seconds S --trace {0,1}

Runs whole rounds of the workload's operations until S seconds of operation
time have passed, checks every output, and prints one JSON line last:
`{"correct", "attempted", "failed", "metrics"}`.  With --trace 0 the metrics
are the end-to-end ones (setup_s, ops_per_s, peak_rss_mb) and no wrapper is
installed while rounds are timed; with --trace 1 each round runs once
untraced and once traced, and the metrics are the per-layer table and the
tracing overhead.  Details of the run go to perfbench/out/.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback

from source import OUT, ROOT, child_env, require_source
from workloads import WORKLOADS

SETUP_PROBES = 7
CLI_SUBCOMMANDS = ("parse", "translate", "classify", "eval", "check", "sigma", "rules")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of the workload's
    set-up, as seen by this process."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                           "--setup-probe"], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        dt = time.perf_counter() - t0
        p.stdout.read()
    if line.strip() != "ready" or p.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe for {workload} failed")
    return dt


def forked_round(wl, r: int):
    """Run round `r` in a forked copy of this process and return the round
    and the copy's peak resident set in MB, as the kernel reports it when the
    copy is reaped.  Every copy starts from this process's set-up state, so
    each round's peak is measured from the same memory.  The copy collects
    garbage before the round: that touches the inherited objects, so the
    copy-on-write faults fall before the round's timer, not inside it."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 1
        try:
            gc.collect()
            with os.fdopen(wfd, "wb") as f:
                pickle.dump(wl.run_round(r), f)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as f:
        data = f.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"perfbench: round {r} failed in its forked copy")
    return pickle.loads(data), usage.ru_maxrss / 1024


def measure(wl, seconds: float, tracer, probe=None):
    """Whole rounds until `seconds` of operation time.  Untraced runs of an
    in-process workload run each round in a forked copy (for its peak
    memory); with a tracer, each round runs in this process, untraced and
    traced, in alternating order.  `probe`, if given, is called SETUP_PROBES
    times between rounds, spread evenly over the operation time, and its
    results are returned."""
    plain, traced, peaks, probes = [], [], [], []
    r, elapsed = 0, 0.0
    while elapsed < seconds:
        while probe and len(probes) < SETUP_PROBES \
                and elapsed >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        if tracer is None:
            order = (None,)
        else:
            order = (None, tracer) if r % 2 == 0 else (tracer, None)
        for t in order:
            gc.collect()
            if tracer is None and wl.in_process:
                rd, peak = forked_round(wl, r)
                peaks.append(peak)
            else:
                if t is not None and wl.in_process:
                    t.install()
                try:
                    rd = wl.run_round(r, t)
                finally:
                    if t is not None and wl.in_process:
                        t.uninstall()
            (plain if t is None else traced).append(rd)
            elapsed += rd.seconds
        r += 1
    while probe and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return plain, traced, peaks, probes


def layer_metrics(tracer, plain, traced, setup_parts) -> dict[str, tuple[float, str]]:
    """Per-layer table: times and counts per operation of the traced rounds."""
    ops = sum(rd.ops for rd in traced)
    t, c, s = tracer.time, tracer.counts, tracer.self_time

    def per(x):
        return x / ops

    def share(a, b):
        return a / b if b else 0.0

    if tracer.processes:  # CLI: every child pays its own set-up
        def piece(k):
            vals = [p[k] for p in tracer.processes if p.get(k, 0.0) > 0]
            return statistics.median(vals) if vals else 0.0
    else:
        def piece(k):
            return setup_parts.get(k, 0.0)
    m = {
        "properties.gen_s": (per(t["properties.gen"]), "s"),
        "properties.self_s": (per(s["properties"]), "s"),
        "properties.regenerated": (per(c["properties.regenerated"]), "count"),
        "tilde.translate_s": (per(t["tilde.translate"]), "s"),
        "hat.translate_s": (per(t["hat.translate"]), "s"),
        "hat.self_s": (per(s["hat"]), "s"),
        "core.subst_s": (per(t["core.subst"]), "s"),
        "core.free_vars_s": (per(t["core.free_vars"]), "s"),
        "printer.print_s": (per(t["printer.print"]), "s"),
        "hf.sweep_s": (per(t["hf.sweep"]), "s"),
        "hf.sweep_calls": (per(c["hf.sweep_calls"]), "count"),
        "hf.cells": (per(c["hf.cells"]), "count"),
        "hf.cells_checked_share": (share(c["hf.cells_checked"], c["hf.cells"]), "share"),
        "hf.max_vars": (c["hf.max_vars"], "count"),
        "hf.claim_nodes": (per(c["hf.claim_nodes"]), "count"),
        "hf.claim_distinct_share": (share(c["hf.claim_distinct"], c["hf.claim_nodes"]), "share"),
        "hf.eval_s": (per(t["hf.eval"]), "s"),
        "hf.eval_calls": (per(tracer.calls["hf.eval"]), "count"),
        "hf.self_s": (per(s["hf"]), "s"),
        "hf.universe_s": (piece("hf.universe"), "s"),
        "delta0_k0.reconstruct_s": (per(t["delta0_k0.reconstruct"]), "s"),
        "delta0_k0.discharge_s": (per(t["delta0_k0.discharge"]), "s"),
        "delta0_k0.sigma_s": (per(t["delta0_k0.sigma"]), "s"),
        "delta0_k0.agreement_s": (per(t["delta0_k0.agreement"]), "s"),
        "delta0_k0.self_s": (per(s["delta0_k0"]), "s"),
        "sexp.loads_s": (per(t["sexp.loads"]), "s"),
        "parser.parse_s": (per(t["parser.parse"]), "s"),
        "rules.catalog_s": (piece("rules.catalog"), "s"),
        "cli.import_s": (piece("cli.import"), "s"),
    }
    for sub in CLI_SUBCOMMANDS:
        vals = [dt for rd in plain for name, dt in rd.timings if name == sub]
        m[f"cli.{sub}_ms"] = (1000 * statistics.median(vals) if vals else 0.0, "ms")
    plain_s, traced_s = sum(rd.seconds for rd in plain), sum(rd.seconds for rd in traced)
    m["trace.overhead_pct"] = (100 * (traced_s - plain_s) / plain_s, "%")
    m["trace.ops"] = (ops, "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set the workload up, print 'ready' and exit")
    args = ap.parse_args(argv)
    require_source()
    wl = WORKLOADS[args.workload](args.seed)

    if args.setup_probe:
        try:
            wl.setup()
            print("ready", flush=True)
        finally:
            wl.close()
        return 0

    try:
        setup_parts = wl.setup()
        tracer, probe = None, None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        else:
            def probe():
                return probe_setup(args.workload, args.seed)
        plain, traced, round_rss, setup_times = measure(wl, args.seconds, tracer, probe)
        if not wl.in_process:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        elif not round_rss:  # traced runs measure no memory
            peak_rss_mb = 0.0
        elif wl.peak_of_run:
            peak_rss_mb = max(round_rss)
        else:  # the mean of the middle half: rounds' peaks fall on a few levels
            mid = sorted(round_rss)[len(round_rss) // 4:len(round_rss) - len(round_rss) // 4]
            peak_rss_mb = statistics.fmean(mid)
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = plain + traced
        t0 = time.perf_counter()
        problems = [p for rd in rounds for p in rd.problems] + wl.verify(plain)
        verify_s = time.perf_counter() - t0
    finally:
        wl.close()

    if tracer is None:
        seconds = sum(rd.seconds for rd in plain)
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "ops_per_s": (sum(rd.ops for rd in plain) / seconds, "1/s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = layer_metrics(tracer, plain, traced, setup_parts)
        if tracer.missing:
            print(f"perfbench: not traced, reported as 0: {sorted(tracer.missing)}",
                  file=sys.stderr)
    line = {"correct": not problems,
            "attempted": sum(rd.ops for rd in rounds),
            "failed": sum(rd.failed for rd in rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    detail = {**line, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_probes_s": setup_times, "setup_parts_s": setup_parts,
              "round_rss_mb": round_rss, "maxrss_mb": maxrss_mb, "verify_s": verify_s,
              "rounds": [{"ops": rd.ops, "seconds": rd.seconds, "failed": rd.failed}
                         for rd in rounds], "problems": problems}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
