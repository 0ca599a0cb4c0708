"""Argv robustness: any argv built from the subcommand grammar, with valid
and invalid values, ends in exit 0, 1 or 2, lets no exception escape and
prints no traceback.

Sizes that set the requested work are capped (--n and --n-max at 12,
--budget and --samples at 64) and always given for the commands that take
them, so no example falls back to the larger defaults.  Each command runs
in a temporary working directory, where the example's config file is
c.json.  The file is written only for an argv that reads it, and only
when its content changes: a small write can take tens of milliseconds.
"""

import contextlib
import io
import json
import os

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from symcert.cli import run

NESTED = "[" * 5000

junk = st.sampled_from(
    ["", "x", "1.5", "1/0", "nan", "1e5000", "[", NESTED, "[]", "[0.5]", "[[1]]", '{"x": 1}']
)
rational = st.one_of(
    st.integers(-9, 9).map(str),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str),
    st.sampled_from(["0.25", "-1e3", "2e-2"]),
)
point = st.lists(rational | st.sampled_from(["1e5000", "1/0", "y"]), min_size=1, max_size=6).map(
    json.dumps
)


def ints(low, high):
    return st.integers(low, high).map(str)


size = ints(-1, 12)
work = ints(-2, 64)
index = ints(-2, 14)
seed = ints(-5, 5)

# subcommand -> (sizes, always given; inputs it needs, mostly given; the rest)
GRAMMAR = {
    "sigma": ({}, {"--x": point}, {}),
    "verify": (
        {},
        {
            "--ineq": st.sampled_from(
                ["newton", "gen-nm", "combo", "quantitative", "liu-ren", "remark", "special"]
            ),
            "--x": point,
            "--alpha": rational,
            "--k": index,
        },
        {"--coeffs": point, "--theta": rational, "--n": size},
    ),
    "chain": ({}, {"--x": point}, {"--alpha": rational}),
    "certificate": ({}, {"--n": size, "--k": index}, {}),
    "lemmas": ({"--n-max": size}, {}, {}),
    "reduce": ({}, {"--x": point, "--k": index}, {}),
    "theta": ({}, {"--n": size, "--k": index}, {}),
    "search conjecture15": ({"--budget": work}, {"--m": ints(-1, 8), "--n": size}, {"--seed": seed}),
    "search theta": ({"--samples": work}, {"--n": size, "--k": index}, {"--seed": seed}),
    "search scan": (
        {},
        {
            "--family": st.sampled_from(
                ["one-hot", "all-ones", "alternating-signs", "two-adjacent", "bogus"]
            ),
            "--n": size,
        },
        {"--grid": point},
    ),
    "report": (
        {"--n-max": size, "--samples": work},
        {},
        {"--seed": seed, "--out": st.sampled_from(["r.json", ".", "none/r.json"])},
    ),
}
COMMON = {"--format": st.sampled_from(["json", "text", "xml"]), "--config": st.just("c.json")}

config_value = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([1.5, 1e400, float("inf"), True, None, "7", "x", "text", [1]]),
)
configs = st.one_of(
    st.dictionaries(
        st.sampled_from(["seed", "budget", "samples", "n_max", "format"]), config_value, max_size=3
    ).map(json.dumps),
    st.sampled_from(["[1, 2]", "{", NESTED]),
)


@st.composite
def argvs(draw):
    """Most options are present and valid: a needed input is left out one
    time in eight, and a value is junk one time in eight."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([[], ["--version"], ["--help"], ["frobnicate"], ["search"]]))
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    sizes, needed, optional = GRAMMAR[command]
    argv = command.split()
    for options, eighths in ((sizes, 8), (needed, 7), (optional, 4), (COMMON, 2)):
        for flag, values in options.items():
            if draw(st.integers(1, 8)) <= eighths:
                argv += [flag, draw(junk) if draw(st.integers(1, 8)) == 8 else draw(values)]
    return argv


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """The examples' working directory, and what its c.json holds once written."""
    return {"path": tmp_path_factory.mktemp("argv"), "config": None}


@settings(max_examples=300)
@given(argvs(), configs)
@example(["lemmas", "--n-max", "6", "--config", "c.json"], '{"seed": Infinity}')
@example(["sigma", "--x", '["1"]', "--config", "c.json"], '{"n_max": 1e400}')
@example(["sigma", "--x", NESTED], "{}")
@example(["verify", "--ineq", "combo", "--x", '["1","2"]', "--coeffs", NESTED], "{}")
@example(["search", "scan", "--family", "one-hot", "--n", "3", "--grid", NESTED], "{}")
@example(["lemmas", "--n-max", "6", "--config", "c.json"], NESTED)
def test_any_argv_exits_cleanly(workdir, argv, config):
    tmp = workdir["path"]
    if "c.json" in argv and workdir["config"] != config:
        (tmp / "c.json").write_text(config)
        workdir["config"] = config
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)  # so every --out path, junk included, lands in tmp
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
