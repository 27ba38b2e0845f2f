"""Workload table, instance generation and output checking.

Each workload is a pool of pinned instances.  An instance is the FASTA
text of one seeded alignment; the program under test only ever sees
that file.  The pool's instance seeds and the expected outputs for each
instance live in ``expected/<workload>.json``; ``expect.py`` writes
those files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
EXPECTED_DIR = BENCH_DIR / "expected"

SYMBOLS = "ACGTBDEFHIJKLMOPQRSUVWYZ"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # parsicompact subcommand run by one operation
    n: int
    m: int
    states: int
    rate: float
    # The route that must give the same tree set, checked once when the
    # expected file is built (the paper's exactness claim); None where it
    # is too slow to run.
    cross_route: str | None
    # Fewest full passes over the pool in one timed run.  Each instance is
    # timed by its fastest repeat, so every instance needs a few repeats
    # spread over the run.
    min_passes: int


WORKLOADS = {
    w.name: w
    for w in (
        # High divergence: cubic branch-and-bound is nearly all the time,
        # contraction nearly none.
        Workload("diverged", "compact", 10, 30, 4, 0.15, None, 3),
        # Low divergence: contraction is nearly all the time; about a
        # quarter of the instances are identical-data alignments.
        Workload("converged", "compact", 6, 6, 2, 0.05, "search-mixed", 3),
        # The paper's baseline: exhaustive mixed-tree search.
        Workload("mixed-baseline", "search-mixed", 7, 30, 4, 0.15, "compact", 3),
    )
}

# Fields of the CLI's JSON output that every operation must reproduce.
# The *_ms timing fields are never compared.
PINNED = {
    "compact": (
        "mp_cost",
        "node_count",
        "trees_digest",
        "raw_arrivals",
        "explored_states",
        "contractions",
        "cubic_visited",
    ),
    "search-mixed": ("mp_cost", "min_nodes", "trees_digest", "visited", "pruned"),
}


def evolved_rows(n, m, states, seed, rate):
    """Rows of ``parsicompact.charmatrix.evolved_matrix(n, m, states, seed, rate)``.

    Kept here so that the benchmark's inputs do not depend on the code
    under test; ``run.py --check`` asserts the two still agree.
    """
    symbols = SYMBOLS[:states]
    rng = random.Random(seed)

    def mutate(seq):
        out = list(seq)
        for c in range(m):
            if rng.random() < rate:
                out[c] = rng.choice(symbols)
        return "".join(out)

    tips = ["".join(rng.choice(symbols) for _ in range(m))]
    while len(tips) < n:
        parent = tips.pop(rng.randrange(len(tips)))
        tips.append(mutate(parent))
        tips.append(mutate(parent))
    rng.shuffle(tips)
    return [(f"S{i + 1}", seq) for i, seq in enumerate(tips[:n])]


def fasta_text(rows):
    return "".join(f">{name}\n{seq}\n" for name, seq in rows)


def write_instances(workload: Workload, seeds, subdir: str | None = None) -> dict[int, Path]:
    """Write one FASTA file per instance seed under the work directory."""
    out_dir = WORK_DIR / (subdir or workload.name)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for seed in seeds:
        path = out_dir / f"{seed}.fasta"
        rows = evolved_rows(workload.n, workload.m, workload.states, seed, workload.rate)
        path.write_text(fasta_text(rows))
        paths[seed] = path
    return paths


def cli_argv(command: str, path: Path) -> list[str]:
    """Arguments of one operation: serial search, JSON output."""
    return [command, "--input", str(path), "--threads", "1", "--format", "json"]


def call_cli(cli, argv):
    """Run ``cli.main(argv)`` in-process: (exit code, stdout, stderr).

    An exception escaping the CLI stands in for the exit code as text.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a benchmark crash
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def trees_digest(trees) -> str:
    """Digest of the sorted Newick set an operation emitted."""
    return hashlib.sha256("\n".join(sorted(trees)).encode()).hexdigest()


def pinned_fields(command: str, output: dict) -> dict:
    """The fields of one JSON output that the expected file pins."""
    got = {"trees_digest": trees_digest(output["trees"])}
    for key in PINNED[command]:
        if key != "trees_digest":
            got[key] = output[key]
    return got


def mismatches(command: str, output: dict, expected: dict) -> list[str]:
    """Pinned fields where ``output`` differs from ``expected``."""
    try:
        got = pinned_fields(command, output)
    except KeyError as exc:
        return [f"missing field {exc}"]
    return [
        f"{key}: got {got[key]!r}, expected {expected[key]!r}"
        for key in PINNED[command]
        if got[key] != expected[key]
    ]


def expected_path(workload: Workload) -> Path:
    return EXPECTED_DIR / f"{workload.name}.json"


def generator_params(workload: Workload) -> dict:
    """What an expected file's instances were generated and run with."""
    return {
        "workload": workload.name,
        "command": workload.command,
        "n": workload.n,
        "m": workload.m,
        "states": workload.states,
        "rate": workload.rate,
    }


def load_expected(workload: Workload, path: Path | None = None) -> dict[int, dict]:
    """Instance seed -> pinned fields, from an expected file."""
    path = path or expected_path(workload)
    data = json.loads(path.read_text())
    for key, want in generator_params(workload).items():
        if data[key] != want:
            raise ValueError(f"{path}: {key} is {data[key]!r}, the workload has {want!r}")
    return {int(seed): fields for seed, fields in data["instances"].items()}
