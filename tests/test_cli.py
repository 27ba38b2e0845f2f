"""Command-line behavior: formats, determinism, failure modes."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parsicompact import (
    Scorer, count_cubic, count_total_mixed, evolved_matrix, parse_fasta, parse_newick,
    random_matrix, write_fasta,
)
from parsicompact.cli import BENCH_COLUMNS, main


@pytest.fixture(scope="module")
def fasta(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "six.fasta"
    path.write_text(write_fasta(evolved_matrix(6, 8, 4, seed=11)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text):
    lines = text.strip().split("\n")
    header = lines[0].split("\t")
    keep = [i for i, h in enumerate(header) if not h.endswith("_ms") and h != "speedup"]
    return ["\t".join(line.split("\t")[i] for i in keep) for line in lines]


def test_score_tsv(capsys, fasta):
    code, out, _ = run(capsys, "score", "--input", fasta,
                       "--tree", "((S1,S3),(S2,(S4,(S5,S6))));")
    assert code == 0
    header, row = out.strip().split("\n")
    got = dict(zip(header.split("\t"), row.split("\t")))
    assert got["mp_cost"] == "9" and got["n"] == "6" and got["m"] == "8"


def test_score_json_and_oracle(capsys, fasta, tmp_path):
    treefile = tmp_path / "t.nwk"
    treefile.write_text("((S1,S3),(S2,(S4,(S5,S6))));\n")
    code, out, _ = run(capsys, "score", "--input", fasta,
                       "--tree", str(treefile), "--oracle-check", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["mp_cost"] == 9
    assert parse_newick(data["tree"])


def test_score_newick_format_splits_streams(capsys, fasta):
    code, out, err = run(capsys, "score", "--input", fasta,
                         "--tree", "(S1,S2,S3,S4,S5,S6);", "--format", "newick")
    assert code == 0
    assert parse_newick(out.strip())
    assert "mp_cost=" in err and "mp_cost=" not in out


def test_count_values(capsys):
    code, out, _ = run(capsys, "count", "--min-n", "4", "--max-n", "6")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    header = rows[0]
    at = {h: i for i, h in enumerate(header)}
    totals = [int(r[at["total_mixed"]]) for r in rows[1:]]
    cubics = [int(r[at["cubic_count"]]) for r in rows[1:]]
    assert totals == [32, 396, 6692]
    assert cubics == [3, 15, 105]
    assert rows[1][at["t_n_m"]] == "16,13,3"
    # The JSON rows hold the TSV rows' values, under the same columns, as
    # numbers: the estimates unrounded, and t_n_m a list of ints.
    code, out, _ = run(capsys, "count", "--min-n", "4", "--max-n", "6", "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert [sorted(row) for row in got] == [sorted(header)] * 3
    for row, r in zip(got, rows[1:]):
        want = dict(zip(header, r))
        for h in ("n", "total_mixed", "cubic_count"):
            assert type(row[h]) is int and str(row[h]) == want[h]
        for h in ("closed_form_estimate", "estimate_over_exact"):
            assert type(row[h]) is float and f"{row[h]:.6g}" == want[h]
        assert all(type(c) is int for c in row["t_n_m"])
        assert ",".join(map(str, row["t_n_m"])) == want["t_n_m"]


@pytest.mark.parametrize("n, key", [(1, "closed_form_estimate"), (1, "estimate_over_exact"),
                                    (1500, "closed_form_estimate")])
def test_count_json_writes_null_where_a_value_is_not_finite(capsys, n, key):
    # TSV prints nan at n = 1 and inf where the estimate passes the float
    # range; JSON has neither, so the value is null there.
    code, out, _ = run(capsys, "count", "--min-n", str(n), "--max-n", str(n))
    assert code == 0
    header, row = (line.split("\t") for line in out.strip().split("\n"))
    assert dict(zip(header, row))[key] in ("nan", "inf")
    code, out, _ = run(capsys, "count", "--min-n", str(n), "--max-n", str(n), "--format", "json")
    assert code == 0
    assert f'"{key}": null' in out
    assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("n", [133, 1500])
def test_count_large_n(capsys, n):
    # At 133 the exact count no longer converts to a float.  At 1500 a
    # cold row lies deeper than the recursion limit, and the counts pass
    # the interpreter's 4,300-digit cap on int-to-str conversion.
    get_cap = getattr(sys, "get_int_max_str_digits", lambda: None)
    cap = get_cap()
    code, out, err = run(capsys, "count", "--min-n", str(n), "--max-n", str(n))
    assert (code, err) == (0, "")
    header, row = (line.split("\t") for line in out.strip().split("\n"))
    values = dict(zip(header, row))
    assert values["n"] == str(n)
    ratio = float(values["estimate_over_exact"])
    assert math.isfinite(ratio) and 0.9 < ratio < 1.1
    assert get_cap() == cap


def test_search_mixed_and_compact_agree(capsys, fasta):
    code, mixed_out, _ = run(capsys, "search-mixed", "--input", fasta,
                             "--threads", "1", "--format", "json")
    assert code == 0
    code, compact_out, _ = run(capsys, "compact", "--input", fasta,
                               "--threads", "1", "--format", "json")
    assert code == 0
    mixed = json.loads(mixed_out)
    compact = json.loads(compact_out)
    assert mixed["trees"] == compact["trees"]
    assert mixed["mp_cost"] == compact["mp_cost"]
    assert mixed["min_nodes"] == compact["node_count"]


def test_emitted_trees_rescore_to_reported_cost(capsys, fasta):
    code, out, _ = run(capsys, "compact", "--input", fasta,
                       "--threads", "1", "--format", "json")
    data = json.loads(out)
    matrix = parse_fasta(Path(fasta).read_text())
    for text in data["trees"]:
        assert Scorer(matrix).cost(parse_newick(text)) == data["mp_cost"]


# Every JSON field but the *_ms timings, as the output carried them
# before the stage timings were added.
JSON_FIELDS = {
    "compact": {"n", "m", "mp_cost", "node_count", "compact_trees", "raw_arrivals",
                "explored_states", "contractions", "mean_contractions",
                "cubic_mp_trees", "cubic_visited", "trees"},
    "search-cubic": {"n", "m", "mp_cost", "mp_trees", "most_compact_trees",
                     "min_nodes", "visited", "pruned", "generated", "trees"},
}
JSON_FIELDS["search-mixed"] = JSON_FIELDS["search-cubic"]
# Counters that the JSON carries and the TSV row leaves out.
JSON_ONLY = {
    "compact": {"memo_hits", "cubic_pruned", "cubic_sweeps", "cubic_sweeps_by_depth"},
    "search-cubic": {"sweeps", "sweeps_by_depth"},
    "search-mixed": {"sweeps", "sweeps_by_depth"},
}
STAGE_TIMES = {
    "compact": {"time_ms", "load_ms", "cubic_ms", "contract_ms", "emit_ms"},
    "search-cubic": {"time_ms", "load_ms", "emit_ms"},
    "search-mixed": {"time_ms", "load_ms", "emit_ms"},
}


@pytest.mark.parametrize("command", sorted(STAGE_TIMES))
def test_json_reports_stage_times_and_keeps_every_other_field(capsys, fasta, command):
    code, out, _ = run(capsys, command, "--input", fasta, "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert {k for k in got if k.endswith("_ms")} == STAGE_TIMES[command]
    only = JSON_ONLY.get(command, set())
    assert {k for k in got if not k.endswith("_ms")} == JSON_FIELDS[command] | only
    assert all(got[k] >= 0 for k in STAGE_TIMES[command])
    if command == "compact":
        assert got["cubic_ms"] + got["contract_ms"] <= got["time_ms"] + 1e-6
    # The TSV row carries the same values, and no stage time.
    code, tsv, _ = run(capsys, command, "--input", fasta)
    header, row = tsv.strip().split("\n")
    for key, text in zip(header.split("\t"), row.split("\t")):
        if key == "time_ms":
            continue
        want = got[key]
        assert text == (f"{want:.2f}" if key == "mean_contractions" else str(want)), key
    assert set(header.split("\t")) == (JSON_FIELDS[command] - {"trees"}) | {"time_ms"}
    if command == "compact":
        assert got["memo_hits"] == (got["contractions"] - got["explored_states"]
                                    + got["cubic_mp_trees"])
        assert 0 <= got["cubic_pruned"] <= got["cubic_visited"]
        assert 0 < got["cubic_sweeps"] < got["cubic_visited"]
        assert sum(got["cubic_sweeps_by_depth"]) == got["cubic_sweeps"]
        assert len(got["cubic_sweeps_by_depth"]) == got["n"]
    else:
        # Every swept tree has a child, and none is swept twice.
        assert 0 < got["sweeps"] <= got["visited"] - got["generated"] - got["pruned"]
        assert sum(got["sweeps_by_depth"]) == got["sweeps"]
        assert len(got["sweeps_by_depth"]) == got["n"]


@pytest.mark.parametrize("command", ["search-cubic", "search-mixed", "compact"])
def test_newick_format_prints_the_json_trees(capsys, fasta, command):
    code, out, err = run(capsys, command, "--input", fasta, "--format", "newick")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(parse_newick(line) for line in lines)
    assert "mp_cost=" in err and "mp_cost=" not in out and err.count("\n") == 1
    code, json_out, _ = run(capsys, command, "--input", fasta, "--format", "json")
    assert code == 0 and lines == json.loads(json_out)["trees"]


def test_trees_out_file(capsys, fasta, tmp_path):
    dest = tmp_path / "best.nwk"
    code, out, _ = run(capsys, "search-cubic", "--input", fasta,
                       "--threads", "1", "--trees-out", str(dest))
    assert code == 0
    lines = dest.read_text().strip().split("\n")
    assert lines and all(parse_newick(t) for t in lines)
    assert "mp_cost" in out  # tsv summary still on stdout


@pytest.mark.parametrize("command", ["search-cubic", "search-mixed", "compact"])
def test_allow_ambiguity_flag(capsys, tmp_path, command):
    gapped = tmp_path / "gapped.fasta"
    gapped.write_text(">a\nA-G\n>b\nACG\n>c\nTCG\n>d\nTCA\n")
    code, out, err = run(capsys, command, "--input", str(gapped))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith("(flag: --allow-ambiguity)\n")
    assert err.count("\n") == 1, err
    code, out, err = run(capsys, command, "--input", str(gapped), "--allow-ambiguity",
                         "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["mp_cost"] >= 0


@pytest.mark.parametrize("command, total, count", [
    ("search-mixed", 396, count_total_mixed), ("search-cubic", 15, count_cubic),
])
def test_no_prune_generates_every_tree(capsys, tmp_path, command, total, count):
    assert count(5) == total
    five = tmp_path / "five.fasta"
    five.write_text(write_fasta(evolved_matrix(5, 8, 4, seed=2)))
    code, out, _ = run(capsys, command, "--input", str(five), "--format", "json")
    assert code == 0
    pruned = json.loads(out)
    code, out, _ = run(capsys, command, "--input", str(five), "--format", "json",
                       "--no-prune")
    assert code == 0
    full = json.loads(out)
    assert full["generated"] == total and full["pruned"] == 0
    for key in ("mp_cost", "mp_trees", "min_nodes", "trees"):
        assert full[key] == pruned[key], key


@pytest.mark.parametrize("command", ["search-cubic", "search-mixed", "compact"])
def test_diverse_order_finds_the_same_trees(capsys, fasta, command):
    results = []
    for order in ("input", "diverse"):
        code, out, _ = run(capsys, command, "--input", fasta, "--format", "json",
                           "--order", order)
        assert code == 0
        results.append(json.loads(out))
    given_order, diverse = results
    assert diverse["mp_cost"] == given_order["mp_cost"]
    assert diverse["trees"] == given_order["trees"]
    # The two orders walk different search trees to the same answer.
    visited = "cubic_visited" if command == "compact" else "visited"
    assert diverse[visited] != given_order[visited]


def test_columns_and_subset(capsys, fasta):
    code, out, _ = run(capsys, "search-mixed", "--input", fasta, "--threads", "1",
                       "--columns", "3", "--subset", "4", "--seed", "5")
    assert code == 0
    row = dict(zip(*[l.split("\t") for l in out.strip().split("\n")]))
    assert row["n"] == "4" and row["m"] == "3"


def test_subset_requires_seed(capsys, fasta):
    code, _, err = run(capsys, "search-mixed", "--input", fasta,
                       "--threads", "1", "--subset", "4")
    assert code == 1 and "error:" in err and "--seed" in err


def test_missing_input_fails_cleanly(capsys):
    code, _, err = run(capsys, "score", "--input", "/no/such/file.fasta",
                       "--tree", "(a,b);")
    assert code == 1 and "error:" in err


def test_bad_newick_fails_cleanly(capsys, fasta):
    code, _, err = run(capsys, "score", "--input", fasta, "--tree", "((S1,S2);")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("which", ["--input", "--tree"])
def test_undecodable_input_fails_cleanly(capsys, fasta, tmp_path, which):
    bad = tmp_path / "bad.txt"
    if which == "--input":
        bad.write_bytes(b">a\nAC\xff\n>b\nAG\n")
        argv = ["compact", "--input", str(bad), "--threads", "1"]
    else:
        bad.write_bytes(b"((S1,S2),\xff);\n")
        argv = ["score", "--input", fasta, "--tree", str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {which} ") and "UTF-8" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("which", ["--input", "--tree"])
def test_byte_order_mark_is_dropped(capsys, fasta, tmp_path, which):
    bom = b"\xef\xbb\xbf"
    text = tmp_path / "bom.txt"
    if which == "--input":
        with open(fasta, "rb") as fh:
            text.write_bytes(bom + fh.read())
        argv, plain = ["compact", "--input", str(text)], ["compact", "--input", fasta]
    else:
        text.write_bytes(bom + b"((S1,S3),(S2,(S4,(S5,S6))));\n")
        argv = ["score", "--input", fasta, "--tree", str(text)]
        plain = ["score", "--input", fasta, "--tree", "((S1,S3),(S2,(S4,(S5,S6))));"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert strip_timing(out) == strip_timing(run(capsys, *plain)[1])
    # A bad byte after the mark is still reported at its offset in the file.
    text.write_bytes(bom + b">a\nAC\xff\n" if which == "--input" else bom + b"((S1,\xff);\n")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {which} {text}: not UTF-8 text (byte 8)\n"


def test_whitespace_inside_sequence_lines_is_dropped(capsys, fasta, tmp_path):
    spaced = tmp_path / "spaced.fasta"
    lines = Path(fasta).read_text().splitlines()
    spaced.write_text("".join(
        line + "\n" if line.startswith(">") else f"{line[:3]} {line[3:5]}\t{line[5:]} \n"
        for line in lines
    ))
    code, out, err = run(capsys, "compact", "--input", str(spaced))
    assert code == 0 and err == ""
    assert strip_timing(out) == strip_timing(run(capsys, "compact", "--input", fasta)[1])


def test_record_without_a_name_fails_cleanly(capsys, tmp_path):
    bare = tmp_path / "bare.fasta"
    bare.write_text(">\nA\n>b\nC\n>c\nC\n")
    code, out, err = run(capsys, "compact", "--input", str(bare))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_threads_fails_cleanly(capsys, fasta):
    for command in ("search-mixed", "search-cubic", "compact", "bench"):
        for value in ("0", "-2"):
            code, out, err = run(capsys, command, "--input", fasta, "--threads", value)
            assert code == 1 and out == ""
            assert err == f"error: --threads must be >= 1, got {value}\n"


def test_search_is_serial_by_default(capsys, fasta, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 8)

    def no_pool(*args, **kwargs):
        raise AssertionError("the default run started a process pool")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    for command in ("compact", "search-cubic", "search-mixed"):
        code, out, err = run(capsys, command, "--input", fasta)
        assert code == 0 and out and err == ""


@pytest.mark.parametrize("command", ["search-cubic", "search-mixed", "compact"])
def test_progress_goes_to_stderr_only(capsys, fasta, monkeypatch, command):
    monkeypatch.setattr("parsicompact.enumeration.PROGRESS_EVERY", 5)
    code, plain, err = run(capsys, command, "--input", fasta)
    assert code == 0 and err == ""
    code, out, err = run(capsys, command, "--input", fasta, "--progress")
    assert code == 0 and strip_timing(out) == strip_timing(plain)
    lines = err.splitlines()
    assert lines
    for line in lines:
        counts = re.fullmatch(r"\.\.\. visited=(\d+) pruned=\d+ generated=\d+", line)
        assert counts and int(counts[1]) % 5 == 0, line


def test_compact_progress_reports_contraction(capsys, fasta, monkeypatch):
    monkeypatch.setattr("parsicompact.contract.PROGRESS_EVERY", 5)
    code, plain, err = run(capsys, "compact", "--input", fasta, "--format", "json")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "compact", "--input", fasta, "--format", "json",
                         "--progress")
    assert code == 0
    got, want = json.loads(out), json.loads(plain)
    assert {k: v for k, v in got.items() if not k.endswith("_ms")} == {
        k: v for k, v in want.items() if not k.endswith("_ms")}
    reports = []
    for line in err.splitlines():
        counts = re.fullmatch(
            r"\.\.\. states=(\d+) contractions=(\d+) sources=(\d+)", line)
        if counts is None:
            assert re.fullmatch(r"\.\.\. visited=\d+ pruned=\d+ generated=\d+", line), line
            continue
        reports.append(tuple(int(c) for c in counts.groups()))
    assert len(reports) == want["explored_states"] // 5
    assert all(states % 5 == 0 for states, _, _ in reports)
    assert reports == sorted(reports)
    assert reports[-1][1] <= want["contractions"]
    assert reports[-1][2] <= want["cubic_mp_trees"]
    # Each report counts every contraction made before the state it
    # follows was built, that state's own included.
    assert reports == [(5, 4, 1), (10, 11, 1), (15, 20, 3), (20, 25, 3),
                       (25, 36, 4), (30, 45, 6)]


def test_deterministic_output_across_runs(capsys, fasta):
    argv = ["compact", "--input", fasta, "--threads", "1",
            "--columns", "5", "--subset", "5", "--seed", "3"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert strip_timing(first) == strip_timing(second)


def test_bench_table(capsys, fasta):
    argv = ["bench", "--input", fasta, "--threads", "1", "--min-n", "4",
            "--max-n", "5", "--trials", "2", "--seed", "1"]
    code, out, err = run(capsys, *argv, "--progress")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == BENCH_COLUMNS
    assert len(lines) == 3
    rows = [dict(zip(BENCH_COLUMNS, line.split("\t"))) for line in lines[1:]]
    for values in rows:
        assert float(values["mp_cost"]) > 0
        assert float(values["compact_mixed_mp_trees"]) >= 1
        assert (values["contracted_cubic_mp_trees_dedup"]
                == values["compact_mixed_mp_trees"])
    assert "trial" in err        # progress goes to stderr
    assert "speedup" in err      # time ratio reported per n
    # The JSON rows hold the TSV rows' values, but for the two timings.
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    timed = {"mtea_time_ms", "cteeca_time_ms"}
    got = json.loads(out)
    assert [sorted(row) for row in got] == [sorted(BENCH_COLUMNS)] * 2
    assert [{c: str(row[c]) for c in BENCH_COLUMNS if c not in timed} for row in got] == [
        {c: v for c, v in row.items() if c not in timed} for row in rows
    ]


def test_bench_rejects_oversized_range(capsys, fasta):
    code, _, err = run(capsys, "bench", "--input", fasta, "--threads", "1",
                       "--min-n", "4", "--max-n", "9", "--trials", "1")
    assert code == 1 and "exceeds" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_bench_rejects_trials_below_one(capsys, fasta, trials):
    code, out, err = run(capsys, "bench", "--input", fasta, "--threads", "1",
                         "--min-n", "4", "--max-n", "4", "--trials", trials)
    assert code == 1 and out == ""
    assert err == f"error: --trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize("argv, message", [
    (["compact"], "this command needs --input FASTA"),
    (["score", "--input", "{fasta}"], "score needs --tree"),
    (["score", "--input", "{fasta}", "--tree", "no-such-tree"],
     "--tree: no such file and not Newick text: no-such-tree"),
    (["count", "--min-n", "0"], "bad n range 0..12"),
    (["count", "--min-n", "5", "--max-n", "3"], "bad n range 5..3"),
    (["bench", "--input", "{fasta}", "--min-n", "1"], "bad n range 1..8"),
], ids=["no-input", "score-no-tree", "tree-neither", "count-min-0",
        "count-reversed", "bench-min-1"])
def test_argument_errors_fail_cleanly(capsys, fasta, argv, message):
    code, out, err = run(capsys, *(a.format(fasta=fasta) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


class _OffByOneScorer(Scorer):
    def score(self, tree, root=None):
        result = super().score(tree, root)
        result.mp_cost += 1
        return result


@pytest.mark.parametrize("command", ["compact", "search-mixed"])
@pytest.mark.parametrize("fault", ["serialization drift for ", "emitted tree rescored to "],
                         ids=["drift", "rescore"])
def test_emission_recheck_refuses_a_wrong_tree(capsys, fasta, monkeypatch, command, fault):
    # Each emitted tree is re-parsed and re-scored before it is printed;
    # a tree that reads back as another tree, or at another cost, is an
    # error, and nothing reaches stdout.
    if fault.startswith("serialization"):
        other = parse_newick("(S1,S2,S3);")
        monkeypatch.setattr("parsicompact.cli.parse_newick", lambda text: other)
    else:
        monkeypatch.setattr("parsicompact.cli.Scorer", _OffByOneScorer)
    code, out, err = run(capsys, command, "--input", fasta, "--format", "json")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {fault}") and err.count("\n") == 1, err


def test_deep_caterpillar_scores_cleanly(capsys, tmp_path):
    # 2,000 nested groups: far past the interpreter's recursion limit.
    matrix = random_matrix(2000, 3, 2, seed=5)
    path = tmp_path / "deep.fasta"
    path.write_text(write_fasta(matrix))
    text = "S1"
    for i in range(2, matrix.n + 1):
        text = f"({text},S{i})"
    text += ";"
    code, out, err = run(capsys, "score", "--input", str(path), "--tree", text,
                         "--format", "json")
    assert code == 0 and err == ""
    row = json.loads(out)
    assert row["tree_nodes"] == 2 * matrix.n - 1
    assert row["mp_cost"] == Scorer(matrix).cost(parse_newick(text))
    assert parse_newick(row["tree"]).canonical_key() == parse_newick(text).canonical_key()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "parsicompact.cli", "count", "--min-n", "4", "--max-n", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "32" in proc.stdout


def _assert_one_error_line(capsys, argv):
    """``main(argv)`` exits 1 with one ``error:`` line on stderr and
    nothing on stdout, as every other input error does."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_requires_subcommand(capsys):
    _assert_one_error_line(capsys, [])
    # Asking for help is not an error.
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


# A flag a command has no use for is rejected, not ignored: count and
# bench print tables, not trees, and score writes no tree file.  The
# contraction has no shadow-rescore mode; only score cross-checks a
# user's tree against the exhaustive oracle.
@pytest.mark.parametrize("argv", [
    ["count", "--format", "newick"],
    ["count", "--trees-out", "t.nwk"],
    ["bench", "--format", "newick"],
    ["bench", "--trees-out", "t.nwk"],
    ["score", "--trees-out", "t.nwk"],
    ["compact", "--oracle-check"],
    ["bench", "--oracle-check"],
    ["compact", "--bogus"],
    ["count", "--min-n", "x"],
], ids=["count-newick", "count-trees-out", "bench-newick", "bench-trees-out",
        "score-trees-out", "compact-oracle-check", "bench-oracle-check",
        "compact-bogus", "count-min-n-not-int"])
def test_table_commands_reject_tree_flags(capsys, argv):
    _assert_one_error_line(capsys, argv)


# Uniform bytes mostly stop at the UTF-8 check, so the strategies also
# draw near-valid inputs: well-formed records or trees over a small name
# set, and token soups that mix the syntax with whitespace, line breaks
# and bytes that are not UTF-8 or decode to odd code points.
_ODD = [b" ", b"\t", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x00",
        b"\xc2\x85", b"\xc2\xa0", b"\xe2\x80\xa8", b"\xc3\xa9", b"\xff"]
_NAMES = st.sampled_from([b"S1", b"S2", b"S3", b"S4", b"X", b"", b"'S 1'", b"S1 x"])
_SEQS = st.lists(st.sampled_from([b"A", b"C", b"G", b"T", b"-", b"?", b"N"] + _ODD),
                 max_size=6).map(b"".join)
_FASTA_RECORDS = st.lists(st.tuples(_NAMES, _SEQS), max_size=5).map(
    lambda recs: b"".join(b">" + name + b"\n" + seq + b"\n" for name, seq in recs))
_SUBTREES = st.recursive(
    _NAMES,
    lambda kids: st.tuples(st.lists(kids, min_size=1, max_size=3), _NAMES).map(
        lambda t: b"(" + b",".join(t[0]) + b")" + t[1]),
    max_leaves=8,
)
_NEWICK_TREES = st.tuples(_SUBTREES, st.sampled_from([b";", b";\n", b"", b" ;;"])).map(
    b"".join)
_FASTA_TOKENS = st.sampled_from([b">", b">S1", b">S2", b"\n", b"A", b"GT", b"-"] + _ODD)
_NEWICK_TOKENS = st.sampled_from(
    [b"(", b")", b",", b";", b":0.1", b"'", b"[", b"]", b"S1", b"S2", b"S3"] + _ODD)


def _fuzz_bytes(valid, tokens):
    return st.one_of(
        st.binary(max_size=48),
        valid,
        st.lists(tokens, max_size=24).map(b"".join),
    )


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_result_or_one_line_error(code, out, err):
    # An exception other than the handled ones propagates out of main()
    # and fails the test, so reaching here already means no traceback.
    if code == 0:
        assert isinstance(json.loads(out), dict)
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=150, deadline=None)
@given(data=_fuzz_bytes(_FASTA_RECORDS, _FASTA_TOKENS))
def test_compact_on_arbitrary_fasta_bytes(tmp_path_factory, data):
    # Five species at most keeps every accepted input a quick search.
    assume(data.count(b">") <= 5)
    path = tmp_path_factory.mktemp("fuzz") / "in.fasta"
    path.write_bytes(data)
    code, out, err = _run_quietly(
        ["compact", "--input", str(path), "--threads", "1", "--format", "json"])
    _assert_result_or_one_line_error(code, out, err)


@settings(max_examples=150, deadline=None)
@given(data=_fuzz_bytes(_NEWICK_TREES, _NEWICK_TOKENS))
def test_score_on_arbitrary_newick_bytes(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("fuzz")
    fasta = folder / "four.fasta"
    fasta.write_text(write_fasta(evolved_matrix(4, 5, 3, seed=2)))
    tree = folder / "in.nwk"
    tree.write_bytes(data)
    code, out, err = _run_quietly(
        ["score", "--input", str(fasta), "--tree", str(tree), "--format", "json"])
    _assert_result_or_one_line_error(code, out, err)
