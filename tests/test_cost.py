"""Cost gates that do not depend on the machine's speed: what a command
holds at its peak, how many Python calls a load makes, and how a regex may
repeat.  Timings on a shared machine move by tens of percent between runs;
a tracemalloc peak, a profiler's call count and a pattern's parse tree are
the same on every run of the same code on the same input.

Each bound is the value measured after the last change that moved it, on
Python 3.11, plus a stated margin; a change that moves a bound says so and
gives the measurement behind the new value.
"""

import gc
import importlib
import os
import pkgutil
import re
import sys
import tracemalloc
from pathlib import Path
from re import _constants, _parser

import pytest

import oced_forge
from oced_forge import cli, parse_xes, queries, transform_log
from oced_forge.turtle_parser import parse_turtle

from conftest import turtle_text

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_turtle(cases: int) -> str:
    """The benchmark's seed-1 log at cases cases, converted to canonical Turtle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        from loggen import generate, to_xes

        return turtle_text(transform_log(parse_xes(to_xes(generate(1, cases)).encode()))[0])[0]


@pytest.fixture(scope="module")
def turtle_200(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cost") / "log.ttl"
    path.write_text(_bench_turtle(200), "utf-8")
    return path


# argv after the input path, and the bound on the traced peak as a multiple
# of the file's size (1.0 MB).  Measured, after one untraced run and a GC
# pass: ping-pong and teams 3.23 (4.23 while _parse_store held the input
# bytes through the parse), event-objects 5.29 (5.52), export-dot 5.73
# (5.87); each bound is about 0.4 above its measurement.
PEAK_BOUNDS = {
    "ping-pong": (["--analysis", "ping-pong", "-q"], 3.6),
    "teams": (["--analysis", "teams", "-q"], 3.6),
    "event-objects": (["--analysis", "event-objects", "-q"], 5.7),
    "export-dot": ([], 6.1),
}


@pytest.mark.parametrize("name", PEAK_BOUNDS)
def test_read_command_peak_is_bounded_by_the_input_size(name, turtle_200):
    args, bound = PEAK_BOUNDS[name]
    command = "export-dot" if name == "export-dot" else "analyze"
    argv = [command, str(turtle_200), *args, "-o", os.devnull]
    assert cli.main(argv) == 0  # loads the command's modules outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    ratio = peak / turtle_200.stat().st_size
    assert ratio < bound, f"{name} peaks at {ratio:.2f}x its input"


@pytest.fixture(scope="module")
def turtle_40() -> dict[str, str]:
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        from grouped import group_turtle

    canonical = _bench_turtle(40)
    return {"canonical": canonical, "grouped": group_turtle(canonical)}


def _calls(fn, *args) -> int:
    """The Python-level calls fn(*args) makes, itself included."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("layout", ["canonical", "grouped"])
def test_load_calls_python_per_distinct_token_not_per_statement(layout, turtle_40):
    """3,863 calls (canonical) and 3,860 (grouped) for 4,634 triples, about
    0.83 a triple: most are _FastTerms.__missing__, once per distinct token.
    A Python call per statement or per triple would pass 1.0."""
    text = turtle_40[layout]
    store = parse_turtle(text)
    triples = sum(len(store.pairs(predicate)) for predicate in store.predicates())
    assert triples == 4_634
    calls = _calls(parse_turtle, text, cli._keep_rule((queries.TEAM_TIMES, [])))
    assert calls < 0.9 * triples


def _package_patterns() -> dict[int, tuple[str, re.Pattern]]:
    """Every compiled pattern at module level in the package, also one held
    through a bound method such as `re.compile(...).fullmatch`, by identity."""
    found = {}
    for module in pkgutil.iter_modules(oced_forge.__path__):
        if module.name == "__main__":  # running it runs the CLI
            continue
        for name, value in vars(importlib.import_module(f"oced_forge.{module.name}")).items():
            pattern = value if isinstance(value, re.Pattern) else getattr(value, "__self__", None)
            if isinstance(pattern, re.Pattern):
                found.setdefault(id(pattern), (f"{module.name}.{name}", pattern))
    return found


def _subpatterns(av):
    """The subpatterns in a parse-tree node's argument: a group's body, an
    assertion's, a repeat's item or a branch's alternatives."""
    if isinstance(av, _parser.SubPattern):
        yield av
    elif isinstance(av, (tuple, list)):
        for part in av:
            yield from _subpatterns(part)


def _repeats(node):
    """(max, item) of every backtracking repeat (greedy or lazy) in a parsed
    pattern, nested ones included; a possessive repeat is walked, not yielded."""
    for op, av in node:
        if op in (_constants.MAX_REPEAT, _constants.MIN_REPEAT):
            yield av[1], av[2]
        for sub in _subpatterns(av):
            yield from _repeats(sub)


def _state_per_repeat(pattern: str, flags: int = 0) -> list[str]:
    """The backtracking repeats of pattern whose item can match more than one
    character: the engine keeps state for each of their repeats until the
    match ends, and may retry each at every shorter count."""
    return [
        str(item)
        for most, item in _repeats(_parser.parse(pattern, flags))
        if most > 1 and item.getwidth()[1] > 1
    ]


@pytest.mark.parametrize(
    "pattern, flagged",
    [
        (r"(?:#[^\n]*\n[ \t\r\n]*)*", True),
        (r"(?:#[^\n]*\n[ \t\r\n]*)*+", False),
        (r"x(?:ab|c)+?", True),
        (r"(?=(?:ab){2,})", True),
        (r"(?:ab)?[a-z]*[0-9]{2}", False),
        (r"(?>(?:ab)*)", True),
    ],
)
def test_repeat_walk_flags_backtracking_repeats_of_groups(pattern, flagged):
    assert bool(_state_per_repeat(pattern)) == flagged


def test_no_package_regex_repeats_a_group_without_a_possessive_repeat():
    """Every repeat of more than one character in the package's regexes is
    possessive, so no input, however long a run it holds, costs the engine
    state per repeat.  This reaches shapes no hostile-input test reads, such
    as timeutil's _ISO_RE and _CANONICAL_RE and the number shape."""
    patterns = _package_patterns()
    assert len(patterns) >= 13
    flagged = {
        name: found
        for name, pattern in patterns.values()
        if (found := _state_per_repeat(pattern.pattern, pattern.flags))
    }
    assert flagged == {}
