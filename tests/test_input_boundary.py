"""The CLI's input boundary under Hypothesis: the parsers raise only their
format errors, and every subcommand ends with exit code 0, 1 or 2.  The
DIMACS reader also matches the earlier two-pass reader in
``tests/reference.py``: the same instance or a format error on any
document, and the same message on a 3-CNF file with one fault put in.

Documents are built from edge-list and DIMACS lines, small integers and
junk without digits, or are tree and 3-CNF files with such lines
appended.  Every count and index drawn is at most 64: plain ``vedom
reduce`` and ``vedom from-cnf`` allocate in proportion to a declared count
up to ``graph.MAX_VERTICES``, so a large one costs memory and finds no
fault (``tests/test_cli.py`` checks the counts over that limit).  Junk
leaves out Unicode digits (category Nd) because ``int`` parses them too.
"""

import ast
import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vedom.cli import main
from vedom.constructions import CnfFormatError, CnfInstance, expand_backbone, parse_dimacs_cnf
from vedom.freetrees import MAX_ENUMERATION_ORDER
from vedom.graph import GraphFormatError, parse_edge_list, serialize_edge_list

from tests import reference
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
    """Only format errors, where the two-pass reference reader raises one
    too; otherwise the reference's instance."""
    got, want = _outcome(parse_dimacs_cnf, text), _outcome(reference.parse_dimacs_cnf, text)
    if isinstance(want, CnfInstance):
        assert got == want
    else:
        assert isinstance(got, CnfFormatError)


def _outcome(parse, text):
    """The instance parse reads from text, or the format error it raises."""
    try:
        return parse(text)
    except CnfFormatError as exc:
        return exc


_FAULTS = (
    "no header",
    "clause before header",
    "duplicate header",
    "malformed header",
    "non-integer token",
    "short clause",
    "long clause",
    "unterminated",
    "wrong count",
    "out of range",
    "repeated variable",
    "negation",
    "no variables",
    "no clauses",
)


@st.composite
def _one_fault_cnf_files(draw):
    """A 3-CNF file with comments, blank lines, and clauses split over lines
    or sharing one, into which at most one fault is put."""
    variables = draw(st.integers(3, 8))
    orders = draw(st.lists(st.permutations(range(1, variables + 1)), min_size=1, max_size=4))
    clauses = [[draw(st.sampled_from([x, -x])) for x in order[:3]] for order in orders]
    fault = draw(st.sampled_from((None, *_FAULTS)))
    clause = draw(st.sampled_from(clauses))
    declared = len(clauses)
    if fault == "short clause":
        del clause[draw(st.integers(0, 2))]
    elif fault == "long clause":
        variables = max(variables, 4)  # so some variable of 1-4 is not in the clause
        clause.append(draw(st.sampled_from(sorted({1, 2, 3, 4} - set(map(abs, clause))))))
    elif fault == "out of range":
        clause[draw(st.integers(0, 2))] = draw(st.sampled_from([1, -1])) * (variables + 1)
    elif fault == "repeated variable":
        clause[1] = clause[0]
    elif fault == "negation":
        clause[1] = -clause[0]
    elif fault == "wrong count":
        declared += draw(st.integers(-3, 3).filter(bool))
    elif fault == "no variables":
        variables = draw(st.integers(-2, 0))
    elif fault == "no clauses":
        clauses, declared = [], 0
    tokens = [str(lit) for clause in clauses for lit in [*clause, 0]]
    if fault == "unterminated":
        tokens.pop()
    elif fault == "non-integer token":
        junk = draw(st.sampled_from(["x", "1.5", "-", "0x1"]))
        tokens.insert(draw(st.integers(0, len(tokens))), junk)
    cuts = sorted(draw(st.sets(st.integers(1, max(len(tokens) - 1, 1)), max_size=6)))
    body = [" ".join(tokens[i:j]) for i, j in zip([0, *cuts], [*cuts, len(tokens)])]
    header = f"p cnf {variables} {declared}"
    if fault == "malformed header":
        header = draw(st.sampled_from(["p cnf {} {} 7", "p cnf {}", "p dnf {} {}", "p cnf x{} {}", "p"]))
        header = header.format(variables, declared)
    lines = [header, *(line for line in body if line)]
    if fault == "no header":
        lines = []
    elif fault == "clause before header":
        lines[0], lines[1] = lines[1], lines[0]
    elif fault == "duplicate header":
        lines.insert(draw(st.integers(1, len(lines))), header)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "c note", "  "])))
    return fault, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _tupled(message: str) -> str:
    """The earlier reader printed an arity fault's clause as a list."""
    return re.sub(r"^clause (\[.*\]) does", lambda m: f"clause {tuple(ast.literal_eval(m[1]))} does", message)


@given(_one_fault_cnf_files())
@example(("unterminated", "p cnf 3 1\n1 2 3\n"))  # an instance built first would have no clause
@settings(max_examples=300)
def test_parse_dimacs_cnf_gives_the_reference_message_for_one_fault(case):
    """A valid file gives the reference reader's instance; a file with one
    fault gives its message, with an arity fault's clause as a tuple."""
    fault, text = case
    got, want = _outcome(parse_dimacs_cnf, text), _outcome(reference.parse_dimacs_cnf, text)
    if fault is None:
        assert isinstance(want, CnfInstance) and got == want
    else:
        assert isinstance(got, CnfFormatError) and isinstance(want, CnfFormatError)
        assert str(got) == _tupled(str(want))


def test_parse_dimacs_cnf_reads_every_line_before_it_checks_a_clause():
    """With two faults, the reader's own faults (the last clause's 0, the
    clause count) now come before a clause's, and an instance fault (the
    variable count, literal range, repeats) before a later clause's arity;
    the reference reader reported an arity fault first."""
    cases = {
        "p cnf 3 1\n1 2 0\n1 2 3\n": "last clause is not 0-terminated",
        "p cnf 3 2\n1 2 0\n": "header declares 2 clauses but 1 were read",
        "p cnf 0 1\n1 2 0\n": "at least one variable is required",
        "p cnf 3 2\n1 2 4 0\n1 2 0\n": "literal 4 out of range in clause (1, 2, 4)",
        "p cnf 3 2\n1 1 2 0\n1 2 0\n": "clause (1, 1, 2) repeats a variable",
    }
    for text, message in cases.items():
        assert str(_outcome(parse_dimacs_cnf, text)) == message
        assert str(_outcome(reference.parse_dimacs_cnf, text)) == "clause [1, 2] does not have exactly 3 literals"


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
