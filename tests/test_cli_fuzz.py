"""Argv fuzzer: random command lines through cli.run, every subcommand and
every flag, the ones a subcommand does not take included. No exception may
escape, and the exit code is always 0, 1 or 2."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hairpinlang.cli import run

COMMANDS = ["parse", "derive", "dta", "effective", "member", "enum", "grammar", "verify-bounds"]
TOKENS = ["a", "b", "c", "(", ")", "+", "*", "%e", "%0", "Hr[1,H](", "Hl[0,H](", "Hp[2,H](",
          "Hr[0,H](", "Hr[", ",H](", "]", "~"]
# the flag each command requires besides --expr
REQUIRED = {"derive": "--couple", "member": "--word"}
GOOD_MAPS = ["a:a,b:c,c:b", "a:b,b:c,c:a", "a:b,b:a,c:c", "a:a,b:a,c:b"]
MAPS = GOOD_MAPS + ["a", "a:", ":", "a:a,a:b", "ab:c", ""]
FILES = {
    "map": "a -> a\nb -> c\nc -> b\n",
    "bad.map": "a -> \n",
    "loop.nfa": "alphabet a b c\nstate 0 initial\nstate 1 final\ntrans 0 b c 1\ntrans 0 a a 0\n",
    "bad.nfa": "alphabet a\nstate 0 initial\ntrans 0 a b 1\n",
    "loop.grammar": "axiom S\nunit S A\nprod A a A a\nprod A b B c\nprod B ~\n",
    "bad.grammar": "unit S A\n",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name, text in FILES.items():
        (root / name).write_text(text)
    return root


REGEXES = st.recursive(
    st.sampled_from(["a", "b", "c", "%e", "%0"]),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map("".join),
        st.tuples(sub, sub).map(lambda t: f"({t[0]}+{t[1]})"),
        sub.map(lambda r: f"({r})*"),
    ),
    max_leaves=4,
)
COMPLETIONS = st.tuples(st.sampled_from(["Hr", "Hl", "Hp"]), st.integers(0, 2), REGEXES).map(
    lambda t: f"{t[0]}[{t[1]},H]({t[2]})")
EXPRESSIONS = st.one_of(
    REGEXES,
    COMPLETIONS,
    st.tuples(COMPLETIONS, st.one_of(REGEXES, COMPLETIONS)).map("+".join),
    st.lists(st.sampled_from(TOKENS), max_size=8).map("".join),
)


def argvs(root):
    paths = st.sampled_from([str(root / name) for name in FILES] + [str(root / "missing")])
    values = {
        "--expr": EXPRESSIONS,
        "--map": st.sampled_from(MAPS),
        "--map-file": paths,
        "--max-len": st.sampled_from(["-1", "0", "3", "6", "x"]),
        "--reduce": st.sampled_from(["on", "off", "no"]),
        "--format": st.sampled_from(["text", "dot", "svg"]),
        "--out": st.sampled_from([str(root / "out.txt"), str(root / "missing" / "out.txt")]),
        "--word": st.text("abc", max_size=6),
        "--couple": st.sampled_from(["(a,a)", "(b,c)", "a,~", "(~,~)", "(a,b,c)", "x"]),
        "--algo": st.sampled_from(["dp", "naive", "fast"]),
        "--nfa": paths,
        "--grammar": paths,
    }

    def pair(flag):
        return values[flag].map(lambda value: [flag, value])

    def line(cmd):
        # most lines carry an expression, a good map and the flag their
        # command requires, so that most reach the command itself
        usual = [pair("--expr"), st.sampled_from(GOOD_MAPS).map(lambda m: ["--map", m])]
        if cmd in REQUIRED:
            usual.append(pair(REQUIRED[cmd]))
        return st.tuples(
            st.one_of(st.tuples(*usual), st.just(())),
            st.lists(st.sampled_from(sorted(values)).flatmap(pair), max_size=3),
            st.sampled_from([[]] * 8 + [["--expr"], ["-h"]]),
        ).map(lambda t: [cmd, *(token for p in (*t[0], *t[1]) for token in p), *t[2]])

    return st.sampled_from(COMMANDS).flatmap(line)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_random_command_lines_exit_0_1_or_2(files, data):
    argv = data.draw(argvs(files))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2), argv
