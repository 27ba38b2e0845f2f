"""Command-line front end.

Subcommands: score (one tree against an alignment), count (tree-count
tables), search-cubic / search-mixed (exhaustive branch-and-bound),
compact (cubic search followed by contraction), bench (seeded trial
matrix comparing the two pipelines, emitted in a fixed column order).

Output goes to stdout in the format picked by --format.  score, search-*
and compact also offer `newick`: the trees are printed one per line and
a short human summary goes to stderr.  TSV and JSON outputs are
deterministic for a fixed config and seed, except for the *_ms timing
columns.

``main(argv)`` may be called any number of times in one process.  It
builds its parser on the first call and reuses it on every later one:
nothing else is kept between calls, so each call parses its own argv
from the parser's defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager

from .charmatrix import CharacterMatrix, parse_fasta, restrict_columns, subsample_species
from .contract import CompactSearcher, most_compact_pipeline
from .enumeration import (
    _log_closed_form,
    closed_form_estimate,
    count_cubic,
    count_mixed,
    count_total_mixed,
    enumerate_cubic,
    enumerate_mixed,
)
from .errors import AmbiguousSymbolError, ParsicompactError
from .parsimony import Scorer, brute_force_best_fit
from .tree import parse_newick

BENCH_COLUMNS = [
    "n",
    "mtea_time_ms",
    "cteeca_time_ms",
    "compact_mixed_mp_trees",
    "cubic_mp_trees",
    "contracted_cubic_mp_trees_raw",
    "contracted_cubic_mp_trees_dedup",
    "mean_contractions",
    "mp_cost",
]


def _read_text(path: str, flag: str) -> str:
    """A whole input file as text, less a leading byte-order mark.

    Bytes that are not UTF-8 are an input error, reported at their
    offset into the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParsicompactError(
            f"{flag} {path}: not UTF-8 text (byte {exc.start})"
        ) from None


def _load_matrix(args: argparse.Namespace) -> CharacterMatrix:
    if not args.input:
        raise ParsicompactError("this command needs --input FASTA")
    text = _read_text(args.input, "--input")
    try:
        matrix = parse_fasta(text, allow_ambiguity=args.allow_ambiguity)
    except AmbiguousSymbolError as exc:
        raise AmbiguousSymbolError(f"{exc} (flag: --allow-ambiguity)") from None
    if args.columns is not None:
        matrix = restrict_columns(matrix, args.columns)
    if args.subset is not None:
        if args.seed is None:
            raise ParsicompactError("--subset sampling requires --seed")
        matrix = subsample_species(matrix, args.subset, args.seed)
    return matrix


def _load_tree(args: argparse.Namespace):
    if not args.tree:
        raise ParsicompactError("score needs --tree (Newick file or literal)")
    text = args.tree
    if os.path.exists(text):
        text = _read_text(text, "--tree")
    elif "(" not in text and ";" not in text:
        raise ParsicompactError(f"--tree: no such file and not Newick text: {args.tree}")
    return parse_newick(text.strip())


def _emit_tsv(columns, rows):
    out = ["\t".join(columns)]
    for row in rows:
        out.append("\t".join(str(row[c]) for c in columns))
    sys.stdout.write("\n".join(out) + "\n")


def _emit_json(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit(args, row, extra, summary):
    """Write one command's result in the format picked by --format.

    ``row`` is the TSV row.  JSON is ``row`` updated with ``extra``: the
    trees and the unrounded figures.  With ``newick`` the trees in
    ``extra`` go to stdout, one per line, and ``summary`` to stderr.
    The result trees also go to --trees-out, before anything is printed.
    """
    trees = extra["trees"] if "trees" in extra else [extra["tree"]]
    if getattr(args, "trees_out", None):
        with open(args.trees_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trees) + "\n")
    if args.format == "newick":
        sys.stdout.write("\n".join(trees) + "\n")
        print(summary, file=sys.stderr)
    elif args.format == "json":
        _emit_json({**row, **extra})
    else:
        _emit_tsv(list(row), [row])


def _verified_newicks(texts, matrix, want_cost):
    """Canonical Newick texts, sorted, each re-checked before emit: it
    must re-parse to the same text and re-score to ``want_cost``."""
    scorer = Scorer(matrix)
    out = sorted(texts)
    for text in out:
        reparsed = parse_newick(text)
        if reparsed.write_newick() != text:
            raise ParsicompactError(f"serialization drift for {text}")
        # The full pass, not Scorer.cost: on search-mixed this is the only
        # call of Scorer.score, which the traced benchmark needs to fire.
        got = scorer.score(reparsed).mp_cost
        if got != want_cost:
            raise ParsicompactError(
                f"emitted tree rescored to {got}, expected {want_cost}: {text}"
            )
    return out


def _progress_printer(args):
    if not args.progress:
        return None

    def show(record):
        if isinstance(record, CompactSearcher):
            line = (f"... states={record.states} contractions={record.contractions} "
                    f"sources={record.sources}")
        else:
            line = (f"... visited={record.visited} pruned={record.pruned} "
                    f"generated={record.generated}")
        print(line, file=sys.stderr)

    return show


# -- commands --------------------------------------------------------------


def cmd_score(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args)
    tree = _load_tree(args)
    t0 = time.monotonic()
    result = Scorer(matrix).score(tree)
    elapsed = (time.monotonic() - t0) * 1000.0
    if args.oracle:
        oracle = brute_force_best_fit(tree, matrix)
        if oracle.mp_cost != result.mp_cost:
            raise ParsicompactError(
                f"scorer {result.mp_cost} != oracle {oracle.mp_cost}"
            )
    row = {
        "mp_cost": result.mp_cost,
        "n": matrix.n,
        "m": matrix.m,
        "tree_nodes": tree.num_nodes,
        "tree_unlabelled": tree.n_unlabelled,
        "time_ms": f"{elapsed:.1f}",
    }
    extra = {"tree": tree.write_newick(), "time_ms": elapsed}
    _emit(args, row, extra, f"mp_cost={result.mp_cost}")
    return 0


@contextmanager
def _long_int_text():
    """Lift the interpreter's cap on int-to-decimal conversion, if it has one.

    Exact tree counts pass the default cap of 4,300 digits near n = 1,290.
    They are computed here, not read from input, so printing them whole
    is safe.
    """
    get_cap = getattr(sys, "get_int_max_str_digits", None)
    if get_cap is None:
        yield
        return
    cap = get_cap()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def cmd_count(args: argparse.Namespace) -> int:
    if args.min_n < 1 or args.max_n < args.min_n:
        raise ParsicompactError(f"bad n range {args.min_n}..{args.max_n}")
    rows = []
    extras = []  # JSON's typed values: floats (null where not finite), a list of ints
    with _long_int_text():
        for n in range(args.min_n, args.max_n + 1):
            total = count_total_mixed(n)
            if n >= 2:
                estimate = closed_form_estimate(n)
                ratio = math.exp(_log_closed_form(n) - math.log(total))
            else:
                estimate = ratio = float("nan")
            by_m = [count_mixed(n, m) for m in range(max(n - 1, 1))]
            rows.append(
                {
                    "n": n,
                    "total_mixed": total,
                    "closed_form_estimate": f"{estimate:.6g}",
                    "estimate_over_exact": f"{ratio:.6g}",
                    "cubic_count": count_cubic(n),
                    "t_n_m": ",".join(map(str, by_m)),
                }
            )
            extras.append(
                {
                    "closed_form_estimate": estimate if math.isfinite(estimate) else None,
                    "estimate_over_exact": ratio if math.isfinite(ratio) else None,
                    "t_n_m": by_m,
                }
            )
        if args.format == "json":
            _emit_json([{**row, **extra} for row, extra in zip(rows, extras)])
        else:
            _emit_tsv(list(rows[0]), rows)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    matrix = _load_matrix(args)
    load_ms = (time.monotonic() - t0) * 1000.0
    runner = enumerate_cubic if args.kind == "cubic" else enumerate_mixed
    t0 = time.monotonic()
    record = runner(
        matrix,
        order=args.order,
        no_prune=args.no_prune,
        threads=args.threads,
        on_progress=_progress_printer(args),
    )
    elapsed = (time.monotonic() - t0) * 1000.0
    best = record.most_compact
    t0 = time.monotonic()
    texts = [k.as_text() for k in best]
    newicks = _verified_newicks(texts, matrix, record.incumbent_cost)
    emit_ms = (time.monotonic() - t0) * 1000.0
    row = {
        "n": matrix.n,
        "m": matrix.m,
        "mp_cost": record.incumbent_cost,
        "mp_trees": len(record.incumbents),
        "most_compact_trees": len(best),
        "min_nodes": record.min_nodes,
        "visited": record.visited,
        "pruned": record.pruned,
        "generated": record.generated,
        "time_ms": f"{elapsed:.1f}",
    }
    extra = {"trees": newicks, "sweeps": record.sweeps,
             "sweeps_by_depth": record.sweeps_by_depth, "time_ms": elapsed,
             "load_ms": load_ms, "emit_ms": emit_ms}
    summary = (f"mp_cost={record.incumbent_cost} trees={len(best)} "
               f"visited={record.visited}")
    _emit(args, row, extra, summary)
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    matrix = _load_matrix(args)
    load_ms = (time.monotonic() - t0) * 1000.0
    t0 = time.monotonic()
    result = most_compact_pipeline(
        matrix,
        order=args.order,
        threads=args.threads,
        on_progress=_progress_printer(args),
    )
    elapsed = (time.monotonic() - t0) * 1000.0
    t0 = time.monotonic()
    newicks = _verified_newicks([k.as_text() for k in result.trees], matrix, result.mp_cost)
    emit_ms = (time.monotonic() - t0) * 1000.0
    cubic = result.cubic_record
    row = {
        "n": matrix.n,
        "m": matrix.m,
        "mp_cost": result.mp_cost,
        "node_count": result.best_node_count,
        "compact_trees": result.dedup_count,
        "raw_arrivals": result.raw_count,
        "explored_states": result.explored_states,
        "contractions": result.contractions,
        "mean_contractions": f"{result.mean_contractions:.2f}",
        "cubic_mp_trees": len(cubic.incumbents),
        "cubic_visited": cubic.visited,
        "time_ms": f"{elapsed:.1f}",
    }
    extra = {
        "trees": newicks,
        "mean_contractions": result.mean_contractions,
        "memo_hits": result.memo_hits,
        "cubic_pruned": cubic.pruned,
        "cubic_sweeps": cubic.sweeps,
        "cubic_sweeps_by_depth": cubic.sweeps_by_depth,
        "time_ms": elapsed,
        "load_ms": load_ms,
        "cubic_ms": result.cubic_ms,
        "contract_ms": result.contract_ms,
        "emit_ms": emit_ms,
    }
    summary = (f"mp_cost={result.mp_cost} nodes={result.best_node_count} "
               f"trees={result.dedup_count}")
    _emit(args, row, extra, summary)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args)
    seed = args.seed if args.seed is not None else 0
    if args.min_n < 2 or args.max_n < args.min_n:
        raise ParsicompactError(f"bad n range {args.min_n}..{args.max_n}")
    if args.trials < 1:
        raise ParsicompactError(f"--trials must be >= 1, got {args.trials}")
    if args.max_n > matrix.n:
        raise ParsicompactError(
            f"--max-n {args.max_n} exceeds the {matrix.n} species available"
        )
    rows = []
    for n in range(args.min_n, args.max_n + 1):
        sums = {c: 0.0 for c in BENCH_COLUMNS[1:]}
        for trial in range(args.trials):
            sub = subsample_species(matrix, n, seed + trial)
            t0 = time.monotonic()
            mixed = enumerate_mixed(sub, order=args.order, threads=args.threads)
            t_mtea = (time.monotonic() - t0) * 1000.0
            t0 = time.monotonic()
            pipe = most_compact_pipeline(sub, order=args.order, threads=args.threads)
            t_cteeca = (time.monotonic() - t0) * 1000.0
            if mixed.incumbent_cost != pipe.mp_cost:
                raise ParsicompactError(
                    f"pipelines disagree at n={n} trial={trial}: "
                    f"{mixed.incumbent_cost} vs {pipe.mp_cost}"
                )
            if set(mixed.most_compact) != set(pipe.trees):
                raise ParsicompactError(
                    f"most compact tree sets disagree at n={n} trial={trial}"
                )
            sums["mtea_time_ms"] += t_mtea
            sums["cteeca_time_ms"] += t_cteeca
            sums["compact_mixed_mp_trees"] += len(mixed.most_compact)
            sums["cubic_mp_trees"] += len(pipe.cubic_record.incumbents)
            sums["contracted_cubic_mp_trees_raw"] += pipe.raw_count
            sums["contracted_cubic_mp_trees_dedup"] += pipe.dedup_count
            sums["mean_contractions"] += pipe.mean_contractions
            sums["mp_cost"] += pipe.mp_cost
            if args.progress:
                print(
                    f"... n={n} trial={trial} mtea={t_mtea:.0f}ms "
                    f"cteeca={t_cteeca:.0f}ms cost={pipe.mp_cost}",
                    file=sys.stderr,
                )
        row = {"n": n}
        for c, total in sums.items():
            row[c] = round(total / args.trials, 2 if c == "mean_contractions" else 1)
        rows.append(row)
        mtea, cteeca = sums["mtea_time_ms"], sums["cteeca_time_ms"]
        if cteeca:
            print(
                f"n={n}: contraction/search time ratio {cteeca / mtea:.3f} "
                f"(speedup {mtea / cteeca:.1f}x)",
                file=sys.stderr,
            )
    if args.format == "json":
        _emit_json(rows)
    else:
        _emit_tsv(BENCH_COLUMNS, rows)
    return 0


# -- argument parsing ---------------------------------------------------------


def _add_common(sub, *, matrix=True, search=False, trees=True):
    """Flags shared by several commands.

    ``trees`` marks a command whose result is trees: only those offer
    ``--format newick`` and, when they search, ``--trees-out``.
    """
    if matrix:
        sub.add_argument("--input", help="aligned FASTA file")
        sub.add_argument("--columns", type=int, help="keep only the first K characters")
        sub.add_argument("--subset", type=int, help="sample this many species (needs --seed)")
        sub.add_argument("--seed", type=int, help="seed for any randomized sampling")
        sub.add_argument(
            "--allow-ambiguity",
            action="store_true",
            help="treat gap/unknown symbols as ordinary states instead of erroring",
        )
    sub.add_argument(
        "--format",
        choices=["newick", "tsv", "json"] if trees else ["tsv", "json"],
        default="tsv",
        help="output format (default tsv)",
    )
    if search:
        sub.add_argument("--threads", type=int, default=1,
                         help="worker processes for the search (default 1)")
        sub.add_argument("--order", choices=["input", "diverse"], default="input",
                         help="species insertion order for the search")
        if trees:
            sub.add_argument("--trees-out",
                             help="also write the result trees to this Newick file")
        sub.add_argument("--progress", action="store_true",
                         help="print progress counters to stderr")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are the CLI's own: one ``error:``
    line from :func:`main` and exit status 1, not argparse's usage text
    and exit status 2.  Subcommand parsers are made of the same class."""

    def error(self, message):
        raise ParsicompactError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one.  Only a process that calls main() more than once gains (the
    tests, the benchmark's loop): a shell invocation builds it once either
    way.  Sharing it is safe: parsing leaves a parser unchanged, every
    default is immutable, and the commands it binds look up what they
    call at call time."""
    parser = _Parser(
        prog="parsicompact",
        description="Most compact maximum-parsimony trees over mixed-labelled topologies",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("score", help="MP-cost of one tree against an alignment")
    _add_common(p)
    p.add_argument("--tree", help="Newick file (or literal Newick text)")
    p.add_argument("--oracle-check", dest="oracle", action="store_true",
                   help="cross-check the cost against the exhaustive oracle")
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("count", help="tree-count table for a range of n")
    _add_common(p, matrix=False, trees=False)
    p.add_argument("--min-n", type=int, default=1)
    p.add_argument("--max-n", type=int, default=12)
    p.set_defaults(func=cmd_count)

    for kind, what in (("cubic", "cubic-topology"), ("mixed", "mixed-tree")):
        p = subs.add_parser(f"search-{kind}", help=f"exhaustive {what} MP search")
        _add_common(p, search=True)
        p.add_argument("--no-prune", action="store_true", help="disable the cost bound")
        p.set_defaults(func=cmd_search, kind=kind)

    p = subs.add_parser("compact", help="cubic MP search plus full contraction")
    _add_common(p, search=True)
    p.set_defaults(func=cmd_compact)

    p = subs.add_parser("bench", help="seeded search-vs-contraction benchmark table")
    _add_common(p, search=True, trees=False)
    p.add_argument("--min-n", type=int, default=4)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ParsicompactError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except (ParsicompactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
