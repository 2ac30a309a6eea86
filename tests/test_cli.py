"""Command-line interface: verdicts, streaming, conversion, exit codes."""

import argparse
import contextlib
import io
import json
import sys

import pytest

from omegastream import convert as conv
from omegastream import fixture_path, sst, twoway
from omegastream.cli import main
from omegastream.sst import check_bounded, check_copyless, eval_limit
from omegastream.words import parse_upword, up_equal


def run_cli(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as e:  # argparse errors
                code = e.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_check_normalize():
    code, out, _ = run_cli("check", fixture_path("normalize.json"))
    assert code == 1
    lines = out.splitlines()
    assert "trim: true" in lines
    assert "clean: true" in lines
    assert "unambiguous: true" in lines
    assert "productive: true" in lines
    assert lines[-1] == "continuous: false (witness u=0, u'=1)"


def test_check_replace_and_double():
    for name in ("replace.json", "double.json"):
        code, out, _ = run_cli("check", fixture_path(name))
        assert code == 0
        assert out.splitlines()[-1] == "continuous: true"


def test_check_json_format():
    code, out, _ = run_cli("check", fixture_path("normalize.json"),
                           "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["continuous"] is False
    assert doc["witness"]["u"] == "0" and doc["witness"]["u_loop"] == "1"
    assert set(doc["witness"]["words"]) == {"1(0)^w", "0(1)^w"}


def test_oracle():
    code, out, _ = run_cli("oracle", fixture_path("replace.json"), "(001)^w")
    assert (code, out) == (0, "(1)^w\n")
    code, out, _ = run_cli("oracle", fixture_path("replace.json"), "(0)^w")
    assert (code, out) == (1, "undefined\n")


def test_determinize_run_golden():
    code, out, _ = run_cli(
        "determinize", "run", fixture_path("double.json"),
        "--input", "(0)^w", "--letters", "20", "--theta-policy", "lcm",
    )
    assert code == 0
    assert out.strip() == "0" * 19
    assert len(out.strip()) >= 10


def test_run_emits_as_soon_as_certain():
    # the output keeps pace with a 0-run instead of waiting for it to end
    code, out, _ = run_cli("run", fixture_path("double.json"),
                           "--input", "(0)^w", "--letters", "300")
    assert (code, out.splitlines()[-1]) == (0, "0" * 299)


def test_run_alias_with_invariants():
    code, out, _ = run_cli(
        "run", fixture_path("replace.json"),
        "--input", "(001)^w", "--letters", "15", "--check-invariants",
    )
    assert (code, out.strip()) == (0, "1" * 15)


def test_run_stdin_live():
    code, out, _ = run_cli(
        "run", fixture_path("replace.json"), "--stdin", "--letters", "6",
        stdin="0\n0\n1\n0\n0\n1\n0\n0\n1\n0\n0\n1\n",
    )
    assert code == 0
    assert out.splitlines()[-1] == "111111"


def test_trace_lines_are_json():
    code, out, _ = run_cli(
        "run", fixture_path("replace.json"),
        "--input", "(001)^w", "--letters", "9", "--trace",
    )
    assert code == 0
    lines = out.splitlines()
    recs = [json.loads(line) for line in lines[:-1]]
    assert [r["i"] for r in recs] == list(range(len(recs)))
    assert all({"mode", "C", "lag", "max_lag", "emitted"} <= set(r) for r in recs)


def test_analyze():
    code, out, _ = run_cli("analyze", fixture_path("double.json"))
    assert code == 0
    lines = out.splitlines()
    assert "theta length: 2" in lines
    assert "compatible {q0}: not separable" in lines


def test_annotate():
    code, out, _ = run_cli(
        "annotate", fixture_path("double.json"),
        "--input", "(001)^w", "--letters", "4",
    )
    assert code == 0
    assert out.splitlines() == [
        "C0 {q0}",
        "0\t{q1,q2}",
        "0\t{q1,q2}",
        "1\t{q0}",
        "0\t{q1,q2}",
    ]


def test_convert_commands(tmp_path):
    out_sst = tmp_path / "from2dt.json"
    code, _, _ = run_cli(
        "convert", "--from", "2dt", "--to", "sst",
        fixture_path("replace_2dt.json"), str(out_sst),
    )
    assert code == 0
    S = sst.load(str(out_sst))
    assert check_bounded(S, 1)
    assert up_equal(eval_limit(S, parse_upword("(001)^w")),
                    parse_upword("(1)^w"))

    out_2dt = tmp_path / "fromsst.json"
    code, _, _ = run_cli(
        "convert", "--from", "sst", "--to", "2dt",
        fixture_path("replace_sst.json"), str(out_2dt),
    )
    assert code == 0
    T2 = twoway.load(str(out_2dt))
    r = twoway.eval_2dt(T2, parse_upword("(001)^w"), 9)
    assert (r.status, r.output) == ("ok", ("1",) * 9)

    out_cl = tmp_path / "copyless.json"
    code, _, _ = run_cli(
        "convert", "--from", "ksst", "--to", "copyless", "--k", "1",
        fixture_path("replace_sst.json"), str(out_cl),
    )
    assert code == 0
    assert check_copyless(sst.load(str(out_cl)))

    code, _, err = run_cli(
        "convert", "--from", "ksst", "--to", "copyless",
        fixture_path("replace_sst.json"), str(tmp_path / "x.json"),
    )
    assert code == 2 and "error" in err


def test_convert_state_budget(tmp_path, monkeypatch):
    # replace_sst.json with K = 1 needs 31 forest states
    monkeypatch.setattr(conv, "MAX_STATES", 4)
    out = tmp_path / "copyless.json"
    assert run_cli("convert", "--from", "ksst", "--to", "copyless", "--k", "1",
                   fixture_path("replace_sst.json"), str(out)) == (
        2, "", "error: state budget 4 exceeded\n")
    assert not out.exists()


def test_exit_codes():
    code, _, err = run_cli("check", "/nonexistent.json")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(
        "run", fixture_path("normalize.json"),
        "--input", "(01)^w", "--letters", "5",
    )
    assert code == 1 and "not continuous" in err


def test_budget_exceeded_exit_code(monkeypatch):
    from omegastream import cli
    from omegastream.analysis import BudgetExceeded

    def exhausted(*args, **kwargs):
        raise BudgetExceeded("continuity path search too large")

    monkeypatch.setattr(cli, "is_continuous", exhausted)
    code, out, err = run_cli("check", fixture_path("replace.json"))
    assert code == cli.EXIT_CONTRACT
    assert err == "error: continuity path search too large\n"


def test_analyze_and_annotate_reject_an_ambiguous_machine(tmp_path):
    from test_product_index import HASH_ORDER_MACHINE

    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(HASH_ORDER_MACHINE))
    for argv in (("analyze", str(path)),
                 ("annotate", str(path), "--input", "(b)^w", "--letters", "3")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: the machine is ambiguous\n"


def _stdin_letters(word: str) -> str:
    return "".join(f"{a}\n" for a in word)


def test_run_letters_zero_reads_no_letter():
    for mode in (("--input", "(1)^w"), ("--stdin",)):
        code, out, _ = run_cli("run", fixture_path("replace.json"), *mode,
                               "--letters", "0", stdin="1\n1\n1\n")
        assert (code, out) == (0, "\n")
    code, out, _ = run_cli("run", fixture_path("replace.json"), "--input",
                           "(1)^w", "--letters", "0", "--format", "json")
    assert json.loads(out) == {"steps": 0, "emitted": ""}


def test_run_rejects_negative_letters():
    for mode in (("--input", "(1)^w"), ("--stdin",)):
        code, out, err = run_cli("run", fixture_path("replace.json"), *mode,
                                 "--letters", "-3", stdin="1\n")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_live_trace_starts_with_init_record():
    for name, word in (("replace.json", "001"), ("double.json", "012")):
        code, live, _ = run_cli("run", fixture_path(name), "--stdin",
                                "--letters", "6", "--trace",
                                stdin=_stdin_letters(word * 6))
        assert code == 0
        code, batch, _ = run_cli("run", fixture_path(name), "--input",
                                 f"({word})^w", "--letters", "6", "--trace")
        assert code == 0
        live_recs = [json.loads(line) for line in live.splitlines()]
        assert live_recs[0]["i"] == 0 and live_recs[0]["letter"] is None
        # --input adds the final output line after the same records
        assert live_recs == [json.loads(line) for line in batch.splitlines()[:-1]]


def test_stdin_and_input_end_with_same_line():
    for name, word in (("replace.json", "001"), ("double.json", "012")):
        _, live, _ = run_cli("run", fixture_path(name), "--stdin",
                             "--letters", "12", stdin=_stdin_letters(word * 10))
        _, batch, _ = run_cli("run", fixture_path(name), "--input",
                              f"({word})^w", "--letters", "12")
        assert live.splitlines()[-1] == batch.splitlines()[-1] != ""


def test_trace_independent_of_hash_seed():
    import os
    import subprocess

    import omegastream

    root = os.path.dirname(os.path.dirname(os.path.abspath(omegastream.__file__)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (root, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "omegastream.cli", "run",
             fixture_path("double.json"), "--input", "(001)^w",
             "--letters", "2", "--trace"],
            capture_output=True, text=True, env=env, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_annotate_letters_stops_in_place():
    path = fixture_path("replace.json")
    for n, lines in ((0, ["C0 {q0}"]), (1, ["C0 {q0}", "0\t{q1}"])):
        code, out, _ = run_cli("annotate", path, "--input", "(001)^w",
                               "--letters", str(n))
        assert (code, out.splitlines()) == (0, lines)
    code, out, err = run_cli("annotate", path, "--input", "(001)^w",
                             "--letters", "-2")
    assert (code, out, err) == (2, "", "error: --letters must be >= 0\n")


def test_stdin_json_format():
    code, out, _ = run_cli("run", fixture_path("replace.json"), "--stdin",
                           "--format", "json", stdin=_stdin_letters("00101"))
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs[-1] == {"steps": 5, "emitted": "11111"}
    assert docs[:-1] == [{"i": i, "delta": "1"} for i in range(1, 6)]
    # text mode prints the same increments, bare
    _, text, _ = run_cli("run", fixture_path("replace.json"), "--stdin",
                         stdin=_stdin_letters("00101"))
    assert text.splitlines() == ["1"] * 5 + ["11111"]


def test_stdin_ending_inside_a_lookahead_ends_the_stream(tmp_path):
    path = fixture_path("replace.json")
    # the last 0 opens a 0-run whose cover waits for the closing letter
    code, out, err = run_cli("run", path, "--stdin",
                             stdin=_stdin_letters("0010"))
    assert (code, out.splitlines(), err) == (0, ["1", "1", "1", "111"], "")
    code, out, _ = run_cli("run", path, "--stdin", "--format", "json",
                           stdin=_stdin_letters("0010"))
    assert json.loads(out.splitlines()[-1]) == {"steps": 3, "emitted": "111"}
    # a stream that goes on without a compatible cover still diverges
    code, out, err = run_cli("run", path, "--stdin", "--max-lookahead", "2",
                             stdin=_stdin_letters("0010000"))
    assert code == 1 and err.startswith("error: no compatible cover")
    # C0 itself needs lookahead here: {p, q} has no common accepting run
    machine = tmp_path / "guess.json"
    machine.write_text(json.dumps({
        "input_alphabet": ["a", "b"], "output_alphabet": ["o"],
        "states": ["p", "q"], "initial": ["p", "q"], "final": ["p", "q"],
        "transitions": [{"from": "p", "letter": "a", "to": "p", "out": "o"},
                        {"from": "q", "letter": "b", "to": "q", "out": "o"}],
    }))
    code, out, _ = run_cli("run", str(machine), "--stdin", "--format", "json",
                           stdin="")
    assert (code, json.loads(out)) == (0, {"steps": 0, "emitted": ""})
    code, out, _ = run_cli("run", str(machine), "--stdin", stdin="b\nb\n")
    assert (code, out.splitlines()) == (0, ["o", "o", "oo"])
    assert run_cli("annotate", str(machine), "--stdin", stdin="") == (0, "", "")
    code, out, _ = run_cli("annotate", path, "--stdin",
                           stdin=_stdin_letters("0010"))
    assert (code, out.splitlines()) == (0, ["C0 {q0}", "0\t{q1}", "0\t{q1}",
                                            "1\t{q0}"])


def test_max_lookahead_and_k_ranges():
    replace = fixture_path("replace.json")
    for argv, message in (
        (("annotate", replace, "--input", "(001)^w", "--max-lookahead", "-1"),
         "--max-lookahead must be >= 0"),
        (("run", replace, "--input", "(001)^w", "--letters", "3",
          "--max-lookahead", "-1"), "--max-lookahead must be >= 0"),
        (("convert", "--from", "ksst", "--to", "copyless", "--k", "0",
          fixture_path("replace_sst.json"), "unused.json"), "--k must be >= 1"),
    ):
        assert run_cli(*argv) == (2, "", f"error: {message}\n")
    assert run_cli("annotate", replace, "--input", "(1)^w", "--letters",
                   "1", "--max-lookahead", "0")[:2] == (0, "C0 {q0}\n1\t{q0}\n")


def test_the_lookahead_has_no_default_cap():
    """A 0-run longer than 10 * |Q|^|Q| = 270 letters, on --input and on
    --stdin; on --input a word outside the domain is exit 1."""
    replace = fixture_path("replace.json")
    assert run_cli("run", replace, "--input", "0" * 300 + "1(1)^w",
                   "--letters", "5") == (0, "11111\n", "")
    code, out, err = run_cli("run", replace, "--input", "(0)^w",
                             "--letters", "5")
    assert (code, out) == (1, "")
    assert err.startswith("error: (0)^w is outside the domain")
    assert err.count("\n") == 1
    code, out, err = run_cli("run", replace, "--stdin",
                             stdin=_stdin_letters("0" * 400 + "1"))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "1" * 401


def test_input_outside_the_domain_with_a_stable_cover(tmp_path):
    """r -a/o-> r, r -b/o-> p, p -b/o-> p, F = {p}: the cover {r} stays
    compatible through the run that leaves on b, so on (a)^w, where no b
    ever comes, only the up-front domain check sees that the word is
    outside the domain."""
    machine = tmp_path / "late_exit.json"
    machine.write_text(json.dumps({
        "input_alphabet": ["a", "b"], "output_alphabet": ["o"],
        "states": ["r", "p"], "initial": ["r"], "final": ["p"],
        "transitions": [{"from": "r", "letter": "a", "to": "r", "out": "o"},
                        {"from": "r", "letter": "b", "to": "p", "out": "o"},
                        {"from": "p", "letter": "b", "to": "p", "out": "o"}],
    }))
    assert run_cli("oracle", str(machine), "(a)^w") == (1, "undefined\n", "")
    for command in (("run",), ("annotate",)):
        code, out, err = run_cli(*command, str(machine), "--input", "(a)^w",
                                 "--letters", "5")
        assert (code, out) == (1, "")
        assert err == ("error: (a)^w is outside the domain: it has no "
                       "accepting run with infinite output\n")
    assert run_cli("run", str(machine), "--input", "a(b)^w",
                   "--letters", "3") == (0, "ooo\n", "")


@pytest.mark.parametrize("kind, fixture, field, command", [
    ("transducer", "replace.json", "transitions", ("check",)),
    ("SST", "replace_sst.json", "out", ("convert", "--from", "sst", "--to", "2dt")),
    ("2DT", "replace_2dt.json", "initial", ("convert", "--from", "2dt", "--to", "sst")),
], ids=["transducer", "SST", "2DT"])
def test_machine_file_errors(tmp_path, kind, fixture, field, command):
    def argv(path):
        extra = (str(tmp_path / "out.json"),) if command[0] == "convert" else ()
        return (*command, str(path), *extra)

    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert run_cli(*argv(listed)) == (
        2, "", f"error: {kind} must be a JSON object, not list\n")
    with open(fixture_path(fixture)) as fh:
        doc = json.load(fh)
    partial = tmp_path / fixture
    partial.write_text(json.dumps({**doc, "states": 5}))
    assert run_cli(*argv(partial)) == (
        2, "", f"error: {kind} field 'states' must be a list of strings\n")
    del doc[field]
    partial.write_text(json.dumps(doc))
    assert run_cli(*argv(partial)) == (
        2, "", f"error: {kind} has no field {field!r}\n")


def test_transition_without_a_target(tmp_path):
    path = tmp_path / "no_target.json"
    path.write_text(json.dumps({
        "input_alphabet": ["a"], "output_alphabet": ["a"], "states": ["p"],
        "initial": ["p"], "final": ["p"],
        "transitions": [{"from": "p", "letter": "a", "out": "a"}]}))
    assert run_cli("check", str(path)) == (
        2, "", "error: transition has no field 'to'\n")


def test_machine_file_entry_errors(tmp_path):
    path = tmp_path / "machine.json"
    with open(fixture_path("replace.json")) as fh:
        doc = json.load(fh)
    doc["transitions"][0]["out"] = 5
    path.write_text(json.dumps(doc))
    assert run_cli("check", str(path)) == (
        2, "", "error: transition field 'out' must be a string\n")
    with open(fixture_path("replace_sst.json")) as fh:
        doc = json.load(fh)
    doc["updates"][0]["assign"]["out"] = 5
    path.write_text(json.dumps(doc))
    assert run_cli("convert", "--from", "sst", "--to", "2dt", str(path),
                   str(tmp_path / "out.json")) == (
        2, "", "error: update field 'assign' must be a JSON object of strings\n")
    path.write_text(json.dumps({
        "input_alphabet": ["a"], "output_alphabet": ["a"], "states": ["s"],
        "initial": "s",
        "transitions": [{"state": "s", "symbol": "^", "to": "s",
                         "move": "right"}],
        "lookbehind": {"states": ["p"], "initial": "p",
                       "delta": [{"state": "p", "letter": "a"}]}}))
    assert run_cli("convert", "--from", "2dt", "--to", "sst", str(path),
                   str(tmp_path / "out.json")) == (
        2, "", "error: lookbehind delta entry has no field 'to'\n")


def test_letter_outside_the_input_alphabet():
    path = fixture_path("replace.json")
    code, out, err = run_cli("run", path, "--input", "0(3)^w", "--letters", "5")
    assert (code, out, err) == (
        1, "", "error: letter '3' at index 1 is not in the input alphabet\n")
    code, out, err = run_cli("run", path, "--stdin", stdin=_stdin_letters("0031"))
    assert (code, out, err) == (
        1, "", "error: letter '3' at index 2 is not in the input alphabet\n")
    # increments flushed before the letter was read stay on stdout
    code, out, err = run_cli("run", path, "--stdin",
                             stdin=_stdin_letters("00103"))
    assert (code, out.splitlines()) == (1, ["1", "1", "1"])
    assert err == "error: letter '3' at index 4 is not in the input alphabet\n"
    code, out, err = run_cli("annotate", path, "--stdin",
                             stdin=_stdin_letters("0013"))
    assert (code, out.splitlines()) == (1, ["C0 {q0}", "0\t{q1}", "0\t{q1}",
                                            "1\t{q0}"])
    assert err == "error: letter '3' at index 3 is not in the input alphabet\n"


def _subcommand_parsers(parser):
    (subs,) = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def test_main_parser_help_matches_a_fresh_parser():
    from omegastream import cli

    shared, fresh = cli._parser(), cli.build_parser()
    assert shared is cli._parser() and fresh is not cli.build_parser()
    assert shared.format_help() == fresh.format_help()
    shared_subs, fresh_subs = _subcommand_parsers(shared), _subcommand_parsers(fresh)
    assert list(shared_subs) == list(fresh_subs) == [
        "check", "analyze", "annotate", "determinize", "run", "convert",
        "oracle"]
    for name, sub in fresh_subs.items():
        assert shared_subs[name].format_help() == sub.format_help()


def test_reused_parser_carries_no_value_between_calls():
    from omegastream import cli

    path = fixture_path("replace.json")
    calls = [
        (("run", path, "--letters", "x"), None),
        (("run", path, "--input", "(001)^w", "--letters", "3"), None),
        (("run", path, "--stdin"), _stdin_letters("001001")),
        (("check", path), None),
    ]
    first = []
    for argv, stdin in calls:
        cli._parser.cache_clear()  # each call is the first with its parser
        first.append(run_cli(*argv, stdin=stdin))
    assert first[0][:2] == (2, "")
    assert "argument --letters: invalid int value: 'x'" in first[0][2]
    assert first[1] == (0, "111\n", "")
    assert first[2] == (0, "1\n" * 6 + "111111\n", "")  # every letter read
    assert first[3][0] == 0
    assert [run_cli(*argv, stdin=stdin) for argv, stdin in calls] == first


def test_input_and_stdin_are_exclusive_and_required():
    path = fixture_path("replace.json")
    for source in ((), ("--input", "(1)^w", "--stdin")):
        for command in (("run", path, "--letters", "3"),
                        ("determinize", "run", path, "--letters", "3"),
                        ("annotate", path)):
            code, out, err = run_cli(*command, *source, stdin="1\n")
            assert (code, out) == (2, "")
            assert len([line for line in err.splitlines() if "error:" in line]) == 1


def _ring(tmp_path, n):
    """s_i --a/a--> s_(i+1 mod n), with s0 initial and final."""
    path = tmp_path / f"ring{n}.json"
    path.write_text(json.dumps({
        "input_alphabet": ["a"], "output_alphabet": ["a"],
        "states": [f"s{i}" for i in range(n)],
        "initial": ["s0"], "final": ["s0"],
        "transitions": [{"from": f"s{i}", "letter": "a",
                         "to": f"s{(i + 1) % n}", "out": "a"}
                        for i in range(n)],
    }))
    return str(path)


def test_long_simple_paths_get_a_verdict(tmp_path):
    path = _ring(tmp_path, 1500)
    code, out, err = run_cli("check", path)
    assert (code, out.splitlines()[-1], err) == (0, "continuous: true", "")
    assert run_cli("run", path, "--input", "(a)^w", "--letters", "5") == (
        0, "aaaaa\n", "")


def test_tuple_product_budget(monkeypatch, tmp_path):
    from test_lattice import replace_k

    from omegastream import nft
    from omegastream.analysis import AnalysisContext, BudgetExceeded

    T = replace_k(3)
    path = tmp_path / "replace_3.json"
    nft.save(T, str(path))
    monkeypatch.setattr(nft, "NODE_BUDGET", 2)
    with pytest.raises(BudgetExceeded, match="tuple-product search too large"):
        AnalysisContext(T).is_compatible({"q0", "q1"})
    code, out, err = run_cli("analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: tuple-product search too large\n"


def _child_env():
    """The environment of a child process that imports this omegastream."""
    import os

    import omegastream

    root = os.path.dirname(os.path.dirname(os.path.abspath(omegastream.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))


def test_closed_stdout_ends_quietly(tmp_path):
    """`run ... | head -n 2`: the reader closes the pipe early, and the
    command stops with exit 0 and nothing on stderr."""
    import os
    import subprocess

    env = _child_env()
    letters = tmp_path / "letters"
    letters.write_text(_stdin_letters("001" * 40000))
    # both write far more than a pipe buffer holds
    cases = [
        (["run", fixture_path("replace.json"), "--stdin"], letters),
        (["run", fixture_path("double.json"), "--input", "(001)^w",
          "--letters", "3000", "--trace"], os.devnull),
    ]
    for argv, stdin in cases:
        with open(stdin) as fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "omegastream.cli", *argv], stdin=fh,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.readline()
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")


def test_a_dead_branch_is_no_continuity_witness(tmp_path):
    """i --a/a--> i is the only accepting run; i --a/b--> d --a/b--> d is a
    dead branch, which the continuity search must not compare with it."""
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({
        "input_alphabet": ["a"], "output_alphabet": ["a", "b"],
        "states": ["i", "d"], "initial": ["i"], "final": ["i"],
        "transitions": [{"from": "i", "letter": "a", "to": "i", "out": "a"},
                        {"from": "i", "letter": "a", "to": "d", "out": "b"},
                        {"from": "d", "letter": "a", "to": "d", "out": "b"}],
    }))
    code, out, _ = run_cli("check", str(path))
    assert code == 0
    assert out.splitlines()[0] == "trim: false"
    assert out.splitlines()[-1] == "continuous: true"
    assert run_cli("oracle", str(path), "(a)^w") == (0, "(a)^w\n", "")
    assert run_cli("run", str(path), "--input", "(a)^w", "--letters", "5",
                   "--check-invariants") == (0, "aaaaa\n", "")


def test_a_silent_loop_with_an_escaping_run_is_not_continuous(tmp_path):
    """The inputs e^n c d^w converge to e^w, whose output is (xy)^w, but
    their outputs stay x(xy)^w.  On e^n, i's two runs reach (f, q), f
    looping with xy and q silently; q's runs must all output a prefix of
    (xy)^w, and only the c edge, with x, breaks that."""
    edges = [("i", "e", "f", ""), ("i", "e", "q", ""), ("f", "e", "f", "xy"),
             ("q", "e", "q", ""), ("q", "a", "s", ""), ("q", "b", "s", "xy"),
             ("q", "c", "s", "x"), ("s", "d", "s", "xy")]
    path = tmp_path / "silent.json"
    path.write_text(json.dumps({
        "input_alphabet": list("abcde"), "output_alphabet": ["x", "y"],
        "states": ["i", "f", "q", "s"], "initial": ["i"], "final": ["f", "s"],
        "transitions": [{"from": p, "letter": a, "to": q, "out": o}
                        for p, a, q, o in edges],
    }))
    code, out, _ = run_cli("check", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["witness"]["words"] == ["(xy)^w", "x(xy)^w"]
    code, out, err = run_cli("run", str(path), "--input", "eeec(d)^w",
                             "--letters", "6")
    assert (code, out) == (1, "")
    assert err.startswith("error: function is not continuous")
    assert len(err.splitlines()) == 1


def test_analyze_stops_on_a_non_continuous_machine(tmp_path):
    """A 7-state machine with 8,077 compatible subsets in normal form: on
    an a, q0 guesses q1..q4, whose loops output x and nothing (q1, r1),
    x (q2), nothing (q3, r3) and y (q4).  analyze rejects it as run does,
    before any Theta walk."""
    import subprocess
    import time

    transitions = []
    for i, (c, out) in enumerate(zip("bcde", ["yyy", "yyy", "yyy", "y"]),
                                 start=1):
        transitions += [("q0", c, "q0", c), ("q0", "a", f"q{i}", out),
                        (f"q{i}", c, "q0", c)]
    transitions += [("q1", "a", "r1", "x"), ("r1", "a", "q1", ""),
                    ("r1", "b", "q0", "b"), ("q2", "a", "q2", "x"),
                    ("q3", "a", "r3", ""), ("r3", "a", "q3", ""),
                    ("r3", "d", "q0", "d"), ("q4", "a", "q4", "y")]
    path = tmp_path / "branches.json"
    path.write_text(json.dumps({
        "input_alphabet": list("abcde"), "output_alphabet": list("xybcde"),
        "states": ["q0", "q1", "q2", "q3", "q4", "r1", "r3"],
        "initial": ["q0"], "final": ["q0", "q1", "r1"],
        "transitions": [{"from": p, "letter": a, "to": q, "out": o}
                        for p, a, q, o in transitions],
    }))
    assert run_cli("check", str(path))[0] == 1
    # a child process, so that a search that does not stop is killed
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "omegastream.cli", "analyze", str(path)],
        capture_output=True, text=True, timeout=5,
        env=_child_env())
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: function is not continuous")
    assert len(proc.stderr.splitlines()) == 1
