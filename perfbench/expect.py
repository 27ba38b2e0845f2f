"""Build the expected-output file of a workload.

    python3 perfbench/expect.py --workload converged --instances 0-11
    python3 perfbench/expect.py --workload diverged --instances 2000-2009 \\
        --commit HEAD~3 --out perfbench/.work/diverged-2000.json

Each instance is run once through the CLI, exactly as the benchmark runs
it, and the fields the benchmark checks are pinned.  Where the workload
names a cross route, the instance is also run through it and both routes
must emit the same tree set, cost and node count (``compact`` and
``search-mixed`` agree: the paper's exactness claim); otherwise nothing
is written.

With ``--commit`` the program is taken from that commit (``git archive``
into the work directory) instead of the checkout, so that expected
outputs for new instance seeds can be built from a named baseline and a
later claim re-checked on instances it was never tuned on.  Pass the
file to ``run.py --expected``.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

from workloads import (
    ROOT,
    WORK_DIR,
    WORKLOADS,
    call_cli,
    cli_argv,
    expected_path,
    generator_params,
    pinned_fields,
    write_instances,
)


def parse_instances(text):
    """'0-11' or '3,5,8' (or a mix) -> sorted instance seeds."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def program_from_commit(rev):
    """Extract src/ of ``rev`` into the work directory: (commit, src dir)."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest = WORK_DIR / f"src-{commit[:12]}"
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit, "src"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit, dest / "src"


def run_json(cli, command, path):
    code, out, err = call_cli(cli, cli_argv(command, path))
    if code != 0:
        raise SystemExit(f"error: {command} on {path} failed ({code}): {err.strip()}")
    return json.loads(out)


def cross_check(command, output, other_command, other):
    """Problems where the two routes disagree on one instance."""
    nodes = {"compact": "node_count", "search-mixed": "min_nodes"}
    problems = []
    if sorted(output["trees"]) != sorted(other["trees"]):
        problems.append("tree sets differ")
    if output["mp_cost"] != other["mp_cost"]:
        problems.append(f"mp_cost {output['mp_cost']} vs {other['mp_cost']}")
    if output[nodes[command]] != other[nodes[other_command]]:
        problems.append("node counts differ")
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--instances", required=True, help="instance seeds, e.g. 0-11 or 3,5,8")
    p.add_argument("--commit", help="build from this commit's src/ instead of the checkout's")
    p.add_argument("--out", type=Path, help="output file (default: the pinned file)")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seeds = parse_instances(args.instances)

    if args.commit:
        commit, src = program_from_commit(args.commit)
    else:
        commit, src = "checkout", ROOT / "src"
    sys.path.insert(0, str(src))
    import parsicompact.cli as cli

    paths = write_instances(workload, seeds, f"expect-{workload.name}")
    instances = {}
    for seed in seeds:
        output = run_json(cli, workload.command, paths[seed])
        instances[str(seed)] = pinned_fields(workload.command, output)
        if workload.cross_route:
            other = run_json(cli, workload.cross_route, paths[seed])
            problems = cross_check(workload.command, output, workload.cross_route, other)
            if problems:
                raise SystemExit(
                    f"error: instance {seed}: {workload.command} and "
                    f"{workload.cross_route} disagree: {'; '.join(problems)}"
                )
        print(f"{workload.name} instance {seed}: pinned", file=sys.stderr)

    data = generator_params(workload)
    data["built_from"] = commit
    data["cross_checked_with"] = workload.cross_route
    data["instances"] = instances
    out = args.out or expected_path(workload)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
