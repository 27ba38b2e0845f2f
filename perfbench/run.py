"""The parsicompact benchmark.

One operation is one in-process call of ``parsicompact.cli.main`` with
``--threads 1 --format json`` on one pinned instance written as FASTA.
A single caller runs operations back to back (a closed loop), in full
passes over the workload's instance pool, in an order drawn from
``--seed``.  Every output is checked against ``expected/<workload>.json``.
The timed run reports times in reference seconds, corrected for the
host's changing speed (see ``speed.py``).

    python3 perfbench/run.py --workload converged --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload converged --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --workload converged --check

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import Tracer, search_summary
from workloads import (
    ROOT,
    WORK_DIR,
    WORKLOADS,
    call_cli,
    cli_argv,
    evolved_rows,
    load_expected,
    mismatches,
    write_instances,
)

SRC = ROOT / "src"
SETUP_PER_PASS = 4
MAX_REPORTED_FAILURES = 5
OVERHEAD_SAMPLE = 5

# Run in a fresh interpreter: start, import the package, load one matrix.
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import parsicompact.cli as cli; "
    "fh = open(sys.argv[2], encoding='utf-8'); cli.parse_fasta(fh); fh.close(); "
    "print('ready', flush=True)"
)


def import_program():
    """Import parsicompact from this checkout's src/, and from nowhere else."""
    if not (SRC / "parsicompact" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {SRC / 'parsicompact'} is missing")
    sys.path.insert(0, str(SRC))
    import parsicompact.cli

    if Path(parsicompact.cli.__file__).resolve().parent != SRC / "parsicompact":
        raise SystemExit(f"error: parsicompact imported from {parsicompact.cli.__file__}")
    return parsicompact.cli


class Runner:
    """Runs and checks operations, counting the attempted and the failed.

    With a ``speed.SpeedMeter`` each operation is also timed in
    reference seconds; without one the reference time is the wall time.
    """

    def __init__(self, cli, workload, expected, paths, meter=None):
        self.cli = cli
        self.workload = workload
        self.expected = expected
        self.paths = paths
        self.meter = meter
        self.attempted = 0
        self.failed = 0

    def op(self, seed):
        """One operation on one instance: (wall seconds, reference seconds,
        JSON output or None if it failed)."""
        argv = cli_argv(self.workload.command, self.paths[seed])
        gc.collect()
        self.attempted += 1
        if self.meter:
            (code, out, err), elapsed, reference = self.meter.time(call_cli, self.cli, argv)
        else:
            t0 = time.perf_counter()
            code, out, err = call_cli(self.cli, argv)
            elapsed = reference = time.perf_counter() - t0
        problems = []
        output = None
        if code != 0:
            problems.append(f"exit {code!r}: {err.strip()}")
        else:
            try:
                output = json.loads(out)
            except ValueError as exc:
                problems.append(f"unparseable output: {exc}")
            else:
                problems = mismatches(self.workload.command, output, self.expected[seed])
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED instance {seed}: {'; '.join(problems)}", file=sys.stderr)
            output = None
        return elapsed, reference, output


def passes(rng, seeds):
    """An endless sequence of passes, each the pool in a fresh seeded order."""
    while True:
        order = list(seeds)
        rng.shuffle(order)
        yield order


def setup_probe(path):
    """Seconds from starting an interpreter to a loaded matrix."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(path)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return elapsed


def timed_run(runner, seeds, rng, seconds, min_passes, setup_path):
    """Full passes until the nearest pass boundary to ``seconds``.

    Returns each instance's operation times and the set-up probe times,
    both as (wall seconds, reference seconds) pairs.  SETUP_PER_PASS
    probes follow every pass, so that they sample the whole run rather
    than its first seconds.
    """
    times = {seed: [] for seed in seeds}
    setup = []
    start = time.perf_counter()
    for done, order in enumerate(passes(rng, seeds), 1):
        for seed in order:
            times[seed].append(runner.op(seed)[:2])
        for _ in range(SETUP_PER_PASS):
            setup.append(runner.meter.time(setup_probe, setup_path, sample=False)[1:])
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed + elapsed / done / 2 >= seconds:
            return times, setup


def end_to_end_metrics(times, setup, which):
    """Metrics over the pool's instances, each timed by the median of its
    repeats; ``which`` picks wall (0) or reference (1) seconds."""
    per_instance = sorted(
        1000 * statistics.median(pair[which] for pair in pairs) for pairs in times.values()
    )
    return {
        "solve_ms.p50": {"value": statistics.median(per_instance), "unit": "ms"},
        "solve_ms.tail": {"value": per_instance[-1], "unit": "ms"},
        "solves_per_s": {"value": 1000 * len(per_instance) / sum(per_instance), "unit": "1/s"},
        "setup_s": {"value": statistics.median(pair[which] for pair in setup), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


# -- traced run -----------------------------------------------------------------

# Wrappers that must fire in every traced pass, by subcommand.
MUST_FIRE = {
    "compact": (
        "contract.most_compact_pipeline",
        "enumeration.enumerate_cubic",
        "contract.contract_and_update",
        "contract.zero_min_cost_edges",
    ),
    "search-mixed": ("enumeration.enumerate_mixed",),
}
MUST_FIRE_ALL = (
    "cli.main",
    "parsimony.cost",
    "parsimony.score",
    "tree.canonical_key",
    "tree.grow",
    "tree.copy",
    "tree.write_newick",
    "tree.parse_newick",
)

# Per-layer metric -> unit.  Counts and times are per pass over the pool.
PER_LAYER_UNITS = {
    "parsimony.cost.calls": "count",
    "parsimony.cost.us_per_call": "us",
    "parsimony.cost.s": "s",
    "parsimony.score.calls": "count",
    "parsimony.score.us_per_call": "us",
    "parsimony.score.s": "s",
    "enumeration.visited": "count",
    "enumeration.pruned": "count",
    "enumeration.generated": "count",
    "enumeration.optimal_share": "ratio",
    "enumeration.self_s": "s",
    "enumeration.visited_pool2": "count",
    "enumeration.pruned_pool2": "count",
    "tree.canonical_key.calls": "count",
    "tree.canonical_key.us_per_call": "us",
    "tree.canonical_key.s": "s",
    "tree.grow.calls": "count",
    "tree.grow.s": "s",
    "tree.copy.calls": "count",
    "tree.write_newick.calls": "count",
    "tree.parse_newick.calls": "count",
    "tree.parse_newick.s": "s",
    "contract.contract_and_update.calls": "count",
    "contract.contract_and_update.us_per_call": "us",
    "contract.zero_min_cost_edges.s": "s",
    "contract.self_s": "s",
    "contract.states": "count",
    "contract.contractions": "count",
    "contract.raw_count": "count",
    "contract.sources": "count",
    "contract.memo_hit_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def pass_layer_values(tracer, outputs, searches):
    """Per-layer values of one traced pass, but for the overhead and pool counts."""
    st = tracer.stats
    values = {}
    for name in ("parsimony.cost", "parsimony.score", "tree.canonical_key"):
        values[f"{name}.calls"] = st[name].calls
        values[f"{name}.us_per_call"] = _ratio(st[name].total * 1e6, st[name].calls)
        values[f"{name}.s"] = st[name].total
    for key in ("visited", "pruned", "generated"):
        values[f"enumeration.{key}"] = sum(s[key] for s in searches)
    values["enumeration.optimal_share"] = _ratio(
        sum(s["mp_trees"] for s in searches), values["enumeration.generated"]
    )
    values["enumeration.self_s"] = (
        st["enumeration.enumerate_cubic"].self_time
        + st["enumeration.enumerate_mixed"].self_time
    )
    values["tree.grow.calls"] = st["tree.grow"].calls
    values["tree.grow.s"] = st["tree.grow"].total
    values["tree.copy.calls"] = st["tree.copy"].calls
    values["tree.write_newick.calls"] = st["tree.write_newick"].calls
    values["tree.parse_newick.calls"] = st["tree.parse_newick"].calls
    values["tree.parse_newick.s"] = st["tree.parse_newick"].total
    cau = st["contract.contract_and_update"]
    values["contract.contract_and_update.calls"] = cau.calls
    values["contract.contract_and_update.us_per_call"] = _ratio(cau.total * 1e6, cau.calls)
    values["contract.zero_min_cost_edges.s"] = st["contract.zero_min_cost_edges"].total
    values["contract.self_s"] = (
        st["contract.most_compact_pipeline"].self_time
        + cau.self_time
        + st["contract.zero_min_cost_edges"].self_time
    )
    for metric, field in (
        ("contract.states", "explored_states"),
        ("contract.contractions", "contractions"),
        ("contract.raw_count", "raw_arrivals"),
        ("contract.sources", "cubic_mp_trees"),
    ):
        values[metric] = sum(out.get(field, 0) for out in outputs)
    # Arrivals at a state: one per contraction plus one per source tree.
    arrivals = values["contract.contractions"] + values["contract.sources"]
    values["contract.memo_hit_ratio"] = (
        1 - values["contract.states"] / arrivals if arrivals else 0.0
    )
    values["cli.self_s"] = st["cli.main"].self_time
    return values


def traced_pass(runner, tracer, order):
    """Run one pass with the wrappers on, checking what they saw.

    Returns (per-layer values, seconds by seed, search summaries by seed,
    problems).  Outputs are checked against the pinned untraced values
    by ``Runner.op`` like any other operation.
    """
    tracer.reset()
    outputs = []
    times = {}
    problems = []
    by_seed = {}
    tracer.install()
    try:
        for seed in order:
            tracer.op_id += 1
            before = len(tracer.searches)
            times[seed], _, output = runner.op(seed)
            if output is None:
                continue
            outputs.append(output)
            new = tracer.searches[before:]
            if len(new) != 1:
                problems.append(f"instance {seed}: {len(new)} searches, expected 1")
                continue
            summary = search_summary(new[0])
            by_seed[seed] = summary
            visited = output.get("cubic_visited", output.get("visited"))
            if summary["visited"] != visited:
                problems.append(
                    f"instance {seed}: search visited {summary['visited']}, output says {visited}"
                )
    finally:
        tracer.uninstall()
    values = pass_layer_values(tracer, outputs, list(by_seed.values()))
    for name in MUST_FIRE_ALL + MUST_FIRE[runner.workload.command]:
        if tracer.stats[name].calls == 0:
            problems.append(f"wrapper {name} never fired")
    return values, times, by_seed, problems


def pool_counts(workload, paths, serial):
    """Visited/pruned of the operation's search on a 2-process pool.

    Counts only: the results must equal the serial search's, and no
    wall time is taken.
    """
    from parsicompact.charmatrix import parse_fasta
    from parsicompact.enumeration import enumerate_cubic, enumerate_mixed

    search = enumerate_cubic if workload.command == "compact" else enumerate_mixed
    visited = pruned = 0
    problems = []
    for seed in sorted(paths):
        with open(paths[seed], encoding="utf-8") as fh:
            matrix = parse_fasta(fh)
        record = search(matrix, threads=2)
        visited += record.visited
        pruned += record.pruned
        got = search_summary(record)
        want = serial.get(seed)
        if want is None or got["incumbents_digest"] != want["incumbents_digest"]:
            problems.append(f"instance {seed}: 2-process search found other trees")
    return visited, pruned, problems


def traced_run(runner, seeds, rng, seconds):
    """Traced passes until the nearest pass boundary to ``seconds``, then
    the 2-process search counts.

    trace.overhead_ratio compares the traced time of the pool's first
    OVERHEAD_SAMPLE instances with their untraced time; timing the whole
    pool untraced as well would double the run.
    """
    sample = seeds[:OVERHEAD_SAMPLE]
    untraced_s = sum(runner.op(seed)[0] for seed in sample)
    tracer = Tracer()
    per_pass = []
    problems = []
    serial = {}
    start = time.perf_counter()
    for done, order in enumerate(passes(rng, seeds), 1):
        values, times, by_seed, found = traced_pass(runner, tracer, order)
        values["trace.overhead_ratio"] = sum(times[s] for s in sample) / untraced_s
        problems += found
        serial.update(by_seed)
        if per_pass:
            for name, unit in PER_LAYER_UNITS.items():
                if unit == "count" and name in values and values[name] != per_pass[0][name]:
                    problems.append(f"{name} changed between passes")
        per_pass.append(values)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 >= seconds:
            break
    # Counts were checked equal across passes; times vary, so take their median.
    metrics = {
        name: value if PER_LAYER_UNITS[name] == "count"
        else statistics.median(r[name] for r in per_pass)
        for name, value in per_pass[0].items()
    }
    visited, pruned, found = pool_counts(runner.workload, runner.paths, serial)
    problems += found
    metrics["enumeration.visited_pool2"] = visited
    metrics["enumeration.pruned_pool2"] = pruned
    spans_path = WORK_DIR / f"spans-{runner.workload.name}.json"
    spans_path.write_text(json.dumps(tracer.spans))
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    return out, problems, len(per_pass), self_time_split(tracer)


def self_time_split(tracer):
    """Each wrapped name's self time as a share of the traced pass's time.

    Every wrapped call runs inside ``cli.main``, so the shares sum to 1.
    """
    total = tracer.stats["cli.main"].total
    shares = {name: stat.self_time / total for name, stat in tracer.stats.items()}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# -- check mode and machine facts ------------------------------------------------


def check_generator(workload, seeds):
    """The benchmark's copy of the generator still matches the program's."""
    from parsicompact.charmatrix import evolved_matrix

    bad = []
    for seed in seeds:
        mine = evolved_rows(workload.n, workload.m, workload.states, seed, workload.rate)
        theirs = evolved_matrix(workload.n, workload.m, workload.states, seed, workload.rate)
        if mine != theirs.rows():
            bad.append(seed)
    return bad


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="seeds the order of the instances")
    p.add_argument("--seconds", type=float, default=35.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer traced run instead of end-to-end timing")
    p.add_argument("--check", action="store_true",
                   help="untimed: run every instance once and check it")
    p.add_argument("--expected", type=Path,
                   help="expected file to use instead of expected/<workload>.json")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    cli = import_program()
    expected = load_expected(workload, args.expected)
    seeds = sorted(expected)
    subdir = None if args.expected is None else f"{workload.name}-{args.expected.stem}"
    paths = write_instances(workload, seeds, subdir)
    runner = Runner(cli, workload, expected, paths)
    rng = random.Random(args.seed)
    print("machine " + json.dumps(machine_facts(), sort_keys=True))

    if args.check:
        bad = check_generator(workload, seeds)
        if bad:
            print(f"FAILED: instance generator differs from the program's at {bad}",
                  file=sys.stderr)
        for seed in seeds:
            elapsed, _, output = runner.op(seed)
            print(f"{workload.name} instance {seed}: {'ok' if output else 'FAILED'} "
                  f"({elapsed * 1000:.0f} ms)")
        ok = not bad and runner.failed == 0
        print(f"check {'ok' if ok else 'FAILED'}: {runner.attempted - runner.failed}"
              f"/{runner.attempted} operations match {len(seeds)} pinned instances")
        return 0 if ok else 1

    if args.trace:
        runner.op(seeds[0])  # warm-up
        metrics, problems, done, split = traced_run(runner, seeds, rng, args.seconds)
        for problem in problems:
            print(f"TRACE CHECK FAILED: {problem}", file=sys.stderr)
        print(f"trace {workload.name}: {done} traced pass(es) over {len(seeds)} instances; "
              f"per-layer values are per pass")
        print("self-time split of the last traced pass: "
              + ", ".join(f"{name} {share:.1%}" for name, share in split.items() if share >= 0.001))
        correct = not problems and runner.failed == 0
    else:
        runner.meter = speed.SpeedMeter()
        runner.op(seeds[0])  # warm-up
        times, setup = timed_run(
            runner, seeds, rng, args.seconds, workload.min_passes, paths[seeds[0]]
        )
        metrics = end_to_end_metrics(times, setup, 1)
        wall = end_to_end_metrics(times, setup, 0)
        correct = runner.failed == 0
        repeats = sorted(len(ts) for ts in times.values())
        for label, values in (("", metrics), (" wall", wall)):
            summary = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in values.items())
            print(f"{workload.name}{label}: {summary}")
        print(f"failed_share={runner.failed / runner.attempted:.6g}; p50 and tail over "
              f"{len(seeds)} instances, each the median of {repeats[0]}-{repeats[-1]} "
              f"repeats; setup_s the median of {len(setup)} probes")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
