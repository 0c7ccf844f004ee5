import os
import subprocess
import sys
from pathlib import Path

import pytest

import hairpinlang
from hairpinlang.cli import run

INV = "a:a,b:c,c:b"

STEM_LOOP_TEXT = """\
alphabet a b c
state 0 initial label=Hr[1,H](a*bc)
state 1 final label=%e
state 2 label=Hr[1,H](%e)
state 3 label=Hr[1,H](c)
trans 0 a a 0
trans 0 b c 1
trans 0 b c 3
trans 3 c b 2
"""


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_parse_hairpin(capsys):
    assert run(["parse", "--expr", "Hr[1,H](a*bc)", "--map", INV]) == 0
    out, _ = out_of(capsys)
    assert out == (
        "expr: Hr[1,H](a*bc)\n"
        "kind: hairpin\n"
        "width: 3\n"
        "stars: 1\n"
        "size: 4\n"
        "index: 1\n"
        "nullable: false\n"
        "alphabet: a b c\n"
    )


def test_parse_regex(capsys):
    assert run(["parse", "--expr", "a*bc", "--map", "a:a"]) == 0
    out, _ = out_of(capsys)
    assert "kind: regex\n" in out
    assert "nullable: false\n" in out


def test_derive_couple(capsys):
    assert run(["derive", "--expr", "Hr[1,H](a*bc)", "--map", INV, "--couple", "(b,c)"]) == 0
    out, _ = out_of(capsys)
    assert out == "%e\nHr[1,H](c)\n"


def test_derive_couple_spellings(capsys):
    for spelling in ["(a,~)", "a,~", "a,"]:
        assert run(["derive", "--expr", "ab", "--map", "a:a", "--couple", spelling]) == 0
        out, _ = out_of(capsys)
        assert out == "b\n"


def test_derive_empty_couple_rejected(capsys):
    rc = run(["derive", "--expr", "ab", "--map", "a:a", "--couple", "~,~"])
    _, err = out_of(capsys)
    assert rc == 2
    assert "error:" in err


def test_dta_text(capsys):
    assert run(["dta", "--expr", "Hr[1,H](a*bc)", "--map", INV]) == 0
    out, _ = out_of(capsys)
    assert out == STEM_LOOP_TEXT


def test_dta_dot(capsys):
    assert run(["dta", "--expr", "Hr[1,H](a*bc)", "--map", INV, "--format", "dot"]) == 0
    out, _ = out_of(capsys)
    assert out.startswith("digraph")
    assert "doublecircle" in out


def test_dta_raw_mode_keeps_more_states(capsys):
    assert run(["dta", "--expr", "Hr[1,H](a*bc)", "--map", INV, "--reduce", "off"]) == 0
    out, _ = out_of(capsys)
    assert sum(line.startswith("state ") for line in out.splitlines()) == 5


def test_dta_refuses_k0(capsys):
    rc = run(["dta", "--expr", "Hr[0,H](a*bc)", "--map", INV])
    _, err = out_of(capsys)
    assert rc == 2
    assert "use effective_automaton" in err


def test_enum_routes_k0_through_effective_automaton(capsys):
    assert run(["enum", "--expr", "Hr[0,H](a*bc)", "--map", INV, "--max-len", "4"]) == 0
    out, _ = out_of(capsys)
    assert out == "bc\nabc\nbcc\naabc\nabca\nbcbc\n"


def test_effective_subcommand(capsys):
    assert run(["effective", "--expr", "Hr[0,H](a*bc)", "--map", INV]) == 0
    out, _ = out_of(capsys)
    assert sum(line.startswith("state ") for line in out.splitlines()) == 6


def test_effective_rejects_k1(capsys):
    rc = run(["effective", "--expr", "Hr[1,H](a*bc)", "--map", INV])
    _, err = out_of(capsys)
    assert rc == 2
    assert "k = 0" in err


def test_member_accept_and_reject(capsys):
    assert run(["member", "--expr", "Hr[1,H](a*bc)", "--map", INV, "--word", "abca"]) == 0
    out, _ = out_of(capsys)
    assert out == "true\n"
    assert run(["member", "--expr", "Hr[1,H](a*bc)", "--map", INV, "--word", "abc"]) == 1
    out, _ = out_of(capsys)
    assert out == "false\n"


def test_member_algorithms_agree(capsys):
    for algo in ["dp", "naive"]:
        assert (
            run(
                [
                    "member",
                    "--expr",
                    "Hr[0,H](a*bc)",
                    "--map",
                    INV,
                    "--word",
                    "abcca",
                    "--algo",
                    algo,
                ]
            )
            == 0
        )
        out, _ = out_of(capsys)
        assert out == "true\n"


def test_member_k0_inside_sum_rejected(capsys):
    rc = run(["member", "--expr", "Hr[0,H](ab)+cc", "--map", INV, "--word", "cc"])
    _, err = out_of(capsys)
    assert rc == 2
    assert "whole expression" in err


def test_enum_output(capsys):
    assert run(["enum", "--expr", "Hr[1,H](a*bc)", "--map", INV, "--max-len", "6"]) == 0
    out, _ = out_of(capsys)
    assert out == "bc\nabca\naabcaa\n"


def test_enum_epsilon_marker(capsys):
    assert run(["enum", "--expr", "%e", "--map", "a:a"]) == 0
    out, _ = out_of(capsys)
    assert out == "~\n"


def test_enum_empty_language(capsys):
    assert run(["enum", "--expr", "%0", "--map", "a:a"]) == 0
    out, _ = out_of(capsys)
    assert out == ""


def test_grammar_from_expression(capsys):
    assert run(["grammar", "--expr", "Hr[1,H](a*bc)", "--map", INV]) == 0
    out, _ = out_of(capsys)
    assert out == (
        "axiom S\n"
        "unit S A_0\n"
        "prod A_0 a A_0 a\n"
        "prod A_0 b A_1 c\n"
        "prod A_0 b A_3 c\n"
        "prod A_3 c A_2 b\n"
        "prod A_1 ~\n"
    )


def test_grammar_file_conversions(tmp_path, capsys):
    nfa_file = tmp_path / "loop.nfa"
    nfa_file.write_text(STEM_LOOP_TEXT)
    assert run(["grammar", "--nfa", str(nfa_file)]) == 0
    grammar_text, _ = out_of(capsys)
    assert grammar_text.startswith("axiom S\n")

    grammar_file = tmp_path / "loop.grammar"
    grammar_file.write_text(grammar_text)
    assert run(["grammar", "--grammar", str(grammar_file)]) == 0
    nfa_text, _ = out_of(capsys)
    assert "trans A_0 a a A_0" in nfa_text
    assert "state S initial" in nfa_text


def test_grammar_requires_exactly_one_source(capsys):
    rc = run(["grammar", "--expr", "ab", "--map", "a:a", "--nfa", "x.nfa"])
    _, err = out_of(capsys)
    assert rc == 2
    assert "error:" in err
    rc = run(["grammar"])
    _, err = out_of(capsys)
    assert rc == 2


def test_grammar_missing_file(capsys):
    rc = run(["grammar", "--nfa", "/nonexistent/loop.nfa"])
    _, err = out_of(capsys)
    assert rc == 2
    assert "error:" in err


def test_verify_bounds_regex(capsys):
    assert run(["verify-bounds", "--expr", "a*bc", "--map", INV]) == 0
    out, _ = out_of(capsys)
    assert out == (
        "left derived terms: 3 <= 3 ok\n"
        "right derived terms: 2 <= 3 ok\n"
        "two-sided derived terms: 9 <= 77 ok\n"
        "automaton states: 10 <= 78 ok\n"
    )


def test_verify_bounds_hairpin(capsys):
    assert run(["verify-bounds", "--expr", "Hr[1,H](a*bc)", "--map", INV]) == 0
    out, _ = out_of(capsys)
    assert out == (
        "two-sided derived terms: 4 <= 80 ok\n"
        "automaton states: 5 <= 81 ok\n"
    )


def test_verify_bounds_k0(capsys):
    assert run(["verify-bounds", "--expr", "Hr[0,H](a*bc)", "--map", INV]) == 0
    out, _ = out_of(capsys)
    assert out == "effective automaton states: 7 <= 7 ok\n"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "loop.txt"
    assert run(["dta", "--expr", "Hr[1,H](a*bc)", "--map", INV, "--out", str(target)]) == 0
    out, _ = out_of(capsys)
    assert out == ""
    assert target.read_text() == STEM_LOOP_TEXT


def test_map_file_flag(tmp_path, capsys):
    map_file = tmp_path / "inv.map"
    map_file.write_text("a -> a\nb -> c\nc -> b\n")
    assert (
        run(["enum", "--expr", "Hr[1,H](a*bc)", "--map-file", str(map_file), "--max-len", "4"]) == 0
    )
    out, _ = out_of(capsys)
    assert out == "bc\nabca\n"


def test_map_flags_are_exclusive(tmp_path, capsys):
    map_file = tmp_path / "inv.map"
    map_file.write_text("a -> a\n")
    rc = run(["enum", "--expr", "a", "--map", "a:a", "--map-file", str(map_file)])
    _, err = out_of(capsys)
    assert rc == 2
    assert "mutually exclusive" in err


def test_hairpin_needs_a_map(capsys):
    rc = run(["enum", "--expr", "Hr[1,H](ab)"])
    _, err = out_of(capsys)
    assert rc == 2
    assert "error:" in err


def test_parse_error_reported(capsys):
    rc = run(["parse", "--expr", "a+", "--map", "a:a"])
    _, err = out_of(capsys)
    assert rc == 2
    assert err.startswith("error: at position 2")


def test_bad_subcommand(capsys):
    assert run(["bogus"]) == 2


def test_missing_required_word(capsys):
    assert run(["member", "--expr", "ab", "--map", "a:a"]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out, _ = out_of(capsys)
    assert "usage: hairpin" in out


def test_runs_are_deterministic(capsys):
    args = ["dta", "--expr", "Hr[2,H](abcb)", "--map", INV]
    assert run(args) == 0
    first, _ = out_of(capsys)
    assert run(args) == 0
    second, _ = out_of(capsys)
    assert first == second


# Inputs that still exceed the recursion limit in some layer: the CLI
# reports them as errors (exit 2), not with a traceback.
TOO_DEEP = {
    "nested-parentheses": ["parse", "--expr", "(" * 300 + "a" + ")" * 300],
    "long-regex": ["parse", "--expr", "ab" * 600],
}


@pytest.mark.parametrize("argv", TOO_DEEP.values(), ids=TOO_DEEP.keys())
def test_too_deep_input_exits_2_with_a_message(argv, capsys):
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: input too deeply nested or too long\n"


def test_long_word_member_gets_the_right_answer(capsys):
    # 1000 letters, past the recursion limit: the query must not recurse per letter
    argv = ["member", "--expr", "Hr[2,H]((a+c+g+t)*acgt(a+t)*)",
            "--map", "a:t,t:a,c:g,g:c", "--word", "aa" + "c" * 992 + "acgttt"]
    assert run(argv) == 0
    assert out_of(capsys) == ("true\n", "")


@pytest.mark.parametrize("module", ["hairpinlang", "hairpinlang.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(hairpinlang.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    base = [sys.executable, "-m", module, "member", "--expr", "Hr[1,H](a*bc)", "--map", INV]
    yes = subprocess.run(base + ["--word", "aabcaa"], env=env, capture_output=True, text=True)
    assert (yes.returncode, yes.stdout) == (0, "true\n")
    no = subprocess.run(base + ["--word", "abcaa"], env=env, capture_output=True, text=True)
    assert (no.returncode, no.stdout) == (1, "false\n")
