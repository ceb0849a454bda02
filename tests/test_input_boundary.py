"""The CLI's input boundary under Hypothesis: the parsers raise only their
format errors, and every subcommand ends with exit code 0, 1 or 2.

Documents are built from edge-list and DIMACS lines, small integers and
junk without digits, or are tree and 3-CNF files with such lines
appended.  Every count and index drawn is at most 64: plain ``vedom
reduce`` and ``vedom from-cnf`` allocate in proportion to a declared count
up to ``graph.MAX_VERTICES``, so a large one costs memory and finds no
fault (``tests/test_cli.py`` checks the counts over that limit).  Junk
leaves out Unicode digits (category Nd) because ``int`` parses them too.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vedom.cli import main
from vedom.constructions import CnfFormatError, expand_backbone, parse_dimacs_cnf
from vedom.freetrees import MAX_ENUMERATION_ORDER
from vedom.graph import GraphFormatError, parse_edge_list, serialize_edge_list

from tests.strategies import trees

_number = st.integers(-2, 64).map(str)
_junk = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=3)
_token = st.one_of(_number, st.sampled_from(["n", "p", "cnf", "c", "#", "0"]), _junk)
_index = st.integers(-1, 12).map(str)
_line = st.one_of(
    st.lists(_token, max_size=5).map(" ".join),
    st.tuples(_index, _index).map(" ".join),
    _number.map("n {}".format),
    st.tuples(_number, _number).map("p cnf {0[0]} {0[1]}".format),
    st.lists(st.integers(-6, 6).map(str), min_size=3, max_size=3).map(lambda c: " ".join(c) + " 0"),
)
_lines = st.lists(_line, max_size=12).map("\n".join)
_suffix = st.one_of(st.just(""), _lines)
_tree_files = st.tuples(
    st.one_of(trees(max_n=12), trees(min_n=2, max_n=4).map(lambda t: expand_backbone(t)[0])),
    _suffix,
).map(lambda case: serialize_edge_list(case[0]) + case[1])


@st.composite
def _cnf_files(draw):
    """A 3-CNF file over at most 8 variables, then maybe more lines."""
    variables = draw(st.integers(3, 8))
    clauses = draw(st.lists(st.permutations(range(1, variables + 1)), min_size=1, max_size=4))
    lines = [f"p cnf {variables} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(draw(st.sampled_from([x, -x]))) for x in clause[:3]) + " 0")
    return "\n".join(lines) + "\n" + draw(_suffix)


documents = st.one_of(_lines, _tree_files, _cnf_files())


@given(documents)
@settings(max_examples=300)
def test_parse_edge_list_raises_only_format_errors(text):
    try:
        parse_edge_list(text)
    except GraphFormatError:
        pass


@given(documents)
@settings(max_examples=300)
def test_parse_dimacs_cnf_raises_only_format_errors(text):
    try:
        parse_dimacs_cnf(text)
    except CnfFormatError:
        pass


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


_flags = {
    "analyze": ["--json"],
    "recognize": ["--json", "--verify"],
    "reduce": ["--json"],
    "expand": ["--json"],
    "decompose": ["--json"],
    "from-cnf": ["--json", "--decide"],
}
_guard = st.one_of(st.just([]), st.integers(-2, 64).map(lambda k: ["--max-vertices", str(k)]))


@st.composite
def _argv(draw, path):
    command = draw(st.sampled_from([*_flags, "enumerate"]))
    if command == "enumerate":
        # orders up to 7 run a sweep; above them only orders it refuses, as
        # a sweep of order 16-20 takes from seconds to minutes
        max_n = draw(st.integers(-2, 7) | st.integers(MAX_ENUMERATION_ORDER + 1, 64))
        flags = draw(st.lists(st.sampled_from(["--json", "--lemmas"]), unique=True))
        return ["enumerate", "--max-n", str(max_n), *flags]
    flags = draw(st.lists(st.sampled_from(_flags[command]), unique=True))
    if command in ("analyze", "recognize"):
        flags += draw(_guard)
    return [command, str(path), *flags]


@given(data=st.data(), text=documents)
@settings(max_examples=200, deadline=None)
def test_every_subcommand_exits_0_1_or_2(input_file, data, text):
    input_file.write_text(text, encoding="utf-8")
    argv = data.draw(_argv(input_file))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
