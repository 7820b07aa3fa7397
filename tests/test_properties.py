"""Property tests: text round trips, parser robustness under mutation,
leveling on random or-DAGs, the sampled checker's per-sample streams and
the canonical form of compiled clause groups."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bdmc import BdmcError, compile_graph, emit_dimacs, formats, gen_random, propcheck  # noqa: E402
from bdmc.core import build_graph, enumerate_models, leaf_spec  # noqa: E402
from bdmc.cli import main  # noqa: E402
from bdmc.errors import ParseError  # noqa: E402
from bdmc.formats import parse_bdmc, parse_dimacs, serialize_bdmc  # noqa: E402
from bdmc.transform import is_layered, level, separator_cover, smooth  # noqa: E402

from conftest import TARGETS, g1  # noqa: E402
from oracles import (  # noqa: E402
    assert_assembled, check_separator_cover, non_canonical_clause, ref_merged,
    ref_separator_layers)
from test_level_reference import assert_substitution_matches  # noqa: E402

BASE_DIMACS = emit_dimacs(compile_graph(g1(), "pc"))[0]


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 5000), n=st.integers(2, 6), depth=st.integers(1, 3),
       leaf_class=st.sampled_from(["pc", "urc"]))
def test_bdmc_text_round_trip(seed, n, depth, leaf_class):
    try:
        graph = gen_random(n=n, max_depth=depth, leaf_class=leaf_class, seed=seed)
    except BdmcError:
        assume(False)
    text = serialize_bdmc(graph)
    assert serialize_bdmc(parse_bdmc(text)) == text


BASE_SENTENCE = serialize_bdmc(g1())


EDIT_CHARS = "0123456789 -\npcx\t"


def edit_lists(chars):
    """Lists of (position, substitute/insert/delete, character) edits of BASE_DIMACS."""
    return st.lists(
        st.tuples(st.integers(0, len(BASE_DIMACS)), st.sampled_from("sid"),
                  st.sampled_from(list(chars))),
        min_size=1, max_size=6,
    )


EDITS = edit_lists(EDIT_CHARS)


def mutate(edits):
    chars = list(BASE_DIMACS)
    for pos, op, ch in edits:
        pos = min(pos, len(chars) - 1)
        if op == "s":
            chars[pos] = ch
        elif op == "i":
            chars.insert(pos, ch)
        elif len(chars) > 1:
            del chars[pos]
    return "".join(chars)


@settings(max_examples=300, deadline=None, database=None)
@given(edits=EDITS)
def test_mutated_dimacs_raises_only_parse_error(edits):
    try:
        nvars, clauses = parse_dimacs(mutate(edits))
    except ParseError:
        return
    assert all(0 < abs(lit) <= nvars for clause in clauses for lit in clause)



def read_dimacs(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


# signs, underscores, comment starts and lone carriage returns: the spellings
# the bulk reader must read exactly as the line loop does, or give up
@settings(max_examples=300, deadline=None, database=None)
@given(edits=edit_lists(EDIT_CHARS + "+_c\r"))
def test_bulk_dimacs_reader_matches_the_line_loop(edits):
    text = mutate(edits)
    assert read_dimacs(parse_dimacs, text) == read_dimacs(formats._parse_dimacs_lines, text)


@pytest.mark.parametrize("text, expected", [
    pytest.param("c made by hand\nc\n\np cnf 3 2\n1 -2 0\n3 0\n", (3, [(1, -2), (3,)]),
                 id="leading-comment-block"),
    pytest.param("p cnf 3 2\n1 -2 0\nc 3 0 between\n  c indented\n3 0\n", (3, [(1, -2), (3,)]),
                 id="comment-between-clauses"),
    pytest.param("c x\r\np cnf 3 2\r\n1 -2 0\r\nc 1 0\r\n3 0\r\n", (3, [(1, -2), (3,)]),
                 id="crlf"),
    pytest.param("c x\rp cnf 2 2\rc 1 0\r1 0\r-2 0", (2, [(1,), (-2,)]),
                 id="lone-cr-ends-a-comment"),
    pytest.param("p\tcnf\t3 2 \n\t1\t-2\t0\n3\t0\t\n", (3, [(1, -2), (3,)]), id="tabs"),
    pytest.param("p cnf 3 3\n1 0 -2 +3 0 -3 -0\n", (3, [(1,), (-2, 3), (-3,)]),
                 id="clauses-sharing-a-line"),
    pytest.param("p cnf 3 1\n1\n-2\n\n3\n0\n", (3, [(1, -2, 3)]), id="clause-over-lines"),
    pytest.param("p cnf 2 3\n0\n1 2 0 0\n", (2, [(), (1, 2), ()]), id="empty-clauses"),
    pytest.param(BASE_DIMACS, parse_dimacs(BASE_DIMACS), id="compiler-output"),
])
def test_bulk_dimacs_reader_reads_canonical_text(monkeypatch, text, expected):
    assert read_dimacs(formats._parse_dimacs_lines, text) == expected

    def refuse(text):
        raise AssertionError("canonical text left to the line loop")

    monkeypatch.setattr(formats, "_parse_dimacs_lines", refuse)
    assert parse_dimacs(text) == expected


@pytest.mark.parametrize("text, expected", [
    pytest.param("p cnf 2 2\nc 1 0\x0c1 0\n2 0\n", (2, [(1,), (2,)]), id="form-feed-ends-a-comment"),
    pytest.param("p cnf 2 2\n1 0\x85c 2\n2 0\n", (2, [(1,), (2,)]), id="nel-ends-a-line"),
    pytest.param("p cnf 2 1\n1\xa02 0\n", (2, [(1, 2)]), id="no-break-space"),
    pytest.param("p cnf 2 1\n1_0 0\n",
                 "ParseError: expected an integer: '1_0' is not an ASCII decimal integer (line 2)",
                 id="underscore"),
    pytest.param("p cnf 2 1\n\u0661 0\n",
                 "ParseError: expected an integer: '\u0661' is not an ASCII decimal integer (line 2)",
                 id="arabic-indic-digit"),
    pytest.param("p cnf 2 1\n1 3 0\n", "ParseError: literal 3 out of range (line 2)", id="out-of-range"),
])
def test_bulk_dimacs_reader_gives_up_other_text(text, expected):
    assert read_dimacs(parse_dimacs, text) == read_dimacs(formats._parse_dimacs_lines, text) == expected


@settings(max_examples=300, deadline=None, database=None)
@given(edits=EDITS)
def test_verify_mutated_dimacs_exits_with_a_documented_code(edits):
    # 0 pass, 1 parse/input error, 3 verify failure, 4 budget: a header
    # declaring more variables (p cnf 113 38) puts the all-variable pc check
    # over the exhaustive budget
    with tempfile.TemporaryDirectory() as tmp:
        sentence, cnf = Path(tmp, "g1.bdmc"), Path(tmp, "g1.cnf")
        sentence.write_text(serialize_bdmc(g1()))
        cnf.write_text(mutate(edits))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--target", "pc", "--cnf", str(cnf), str(sentence)])
    assert code in (0, 1, 3, 4)


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(-2, 5), depth=st.integers(-1, 3), count=st.integers(-1, 2),
       max_vars=st.integers(-1, 60), leaf_class=st.sampled_from(["pc", "urc"]),
       seed=st.integers(0, 50))
def test_gen_numeric_flags_exit_with_a_documented_code(n, depth, count, max_vars, leaf_class, seed):
    # 0 generated, 1 input error (n < 1) or no graph within the size budget, 4 budget
    argv = ["gen", "--n", str(n), "--depth", str(depth), "--count", str(count),
            "--max-vars", str(max_vars), "--leaf-class", leaf_class, "--seed", str(seed)]
    assert run_quietly(argv) in (0, 1, 4)


@settings(max_examples=200, deadline=None, database=None)
@given(parts=st.lists(st.sampled_from(["x1", "x2", "=", ",", "0", "1", "2", "x1=1,", "x2=0,"]),
                      max_size=12))
def test_eval_assign_text_exits_with_a_documented_code(parts):
    # 0 evaluated, 1 malformed, unknown, repeated or missing input
    with tempfile.TemporaryDirectory() as tmp:
        sentence = Path(tmp, "g1.bdmc")
        sentence.write_text(BASE_SENTENCE)
        assert run_quietly(["eval", str(sentence), "--assign", "".join(parts)]) in (0, 1, 4)



# or(L1 over x1, and(L2 over x1, L3 over x2)): neither smooth nor leveled
UNBALANCED_SENTENCE = serialize_bdmc(build_graph(
    nodes=[("or", [1, 2]), ("leaf", 1), ("and", [3, 4]), ("leaf", 2), ("leaf", 3)],
    leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"), leaf_spec(inputs=[1], clauses=[[-1]]),
            leaf_spec(inputs=[2], clauses=[[-1]])],
    n=2,
))


def mutate_tokens(edits, base):
    """Apply (line, position, op, token) edits to the space-separated tokens
    of base: substitute, insert or delete a token, or repeat the line."""
    rows = [line.split(" ") for line in base.splitlines()]
    for line, pos, op, tok in edits:
        row = rows[line % len(rows)]
        pos %= len(row) + 1
        if op == "s" and pos < len(row):
            row[pos] = tok
        elif op == "i":
            row.insert(pos, tok)
        elif op == "d" and pos < len(row):
            del row[pos]
        elif op == "l":
            rows.insert(line % len(rows), list(row))
    return "\n".join(" ".join(row) for row in rows) + "\n"


SENTENCE_COMMANDS = [
    ["stats", "{f}", "--target", "cc"],
    ["stats", "{f}", "--target", "pc", "--auto-smooth", "--auto-level"],
    ["smooth", "{f}"],
    ["level", "{f}"],
    ["level", "{f}", "--with-smooth"],
    ["certify-leaf", "{f}"],
    ["certify-leaf", "{f}", "--leaf", "2"],
]
TOKENS = sorted({tok for text in (BASE_SENTENCE, UNBALANCED_SENTENCE) for tok in text.split()}
                | {"-x1", "-x2", "y1", "-y1", "3", "dc", "urc"})
SENTENCES = st.sampled_from([BASE_SENTENCE, UNBALANCED_SENTENCE])
TOKEN_EDIT = st.tuples(st.integers(0, 20), st.integers(0, 10), st.sampled_from("sidl"),
                      st.sampled_from(TOKENS))


@settings(max_examples=400, deadline=None, database=None)
@given(base=SENTENCES, edits=st.lists(TOKEN_EDIT, min_size=1, max_size=3),
       argv=st.sampled_from(SENTENCE_COMMANDS))
def test_sentence_commands_on_mutated_text_exit_with_a_documented_code(base, edits, argv):
    # 0 done, 1 parse/input error, 2 unmet precondition, 3 size bound
    # violation (stats), 4 budget
    with tempfile.TemporaryDirectory() as tmp:
        sentence = Path(tmp, "g.bdmc")
        sentence.write_text(mutate_tokens(edits, base))
        assert run_quietly([a.format(f=sentence) for a in argv]) in (0, 1, 2, 3, 4)


@settings(max_examples=300, deadline=None, database=None)
@given(base=SENTENCES, edit=TOKEN_EDIT,
       target=st.sampled_from(["cc", "dc", "urc", "urc-seq", "pc"]), auto=st.booleans())
def test_compile_mutated_sentence_exits_with_a_documented_code(base, edit, target, auto):
    # 0 written, 1 parse/input error, 2 unmet precondition, 3 size bound
    # violation; one token edit, because about one sentence in ten still
    # parses after it and so reaches the compiler, against one in a hundred
    # after two
    with tempfile.TemporaryDirectory() as tmp:
        sentence, cnf = Path(tmp, "g.bdmc"), Path(tmp, "g.cnf")
        sentence.write_text(mutate_tokens([edit], base))
        argv = ["compile", "--target", target, str(sentence), "-o", str(cnf)]
        code = run_quietly(argv + (["--auto-smooth", "--auto-level"] if auto else []))
        assert code in (0, 1, 2, 3)
        if code == 0:
            parse_dimacs(cnf.read_text())


@st.composite
def or_dags(draw):
    """A rooted DAG of or-nodes over literal leaves of x1: any shape of
    one-child nodes and edges that skip layers, always smooth and
    decomposable."""
    inner, leaves = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    total = inner + leaves
    kids = [{draw(st.integers(i + 1, total - 1))} for i in range(inner)]
    for j in range(1, total):  # every node below some earlier inner node
        kids[draw(st.integers(0, min(j, inner) - 1))].add(j)
    for i in range(inner):
        kids[i].update(draw(st.lists(st.integers(i + 1, total - 1), max_size=2)))
    return build_graph(
        nodes=[("or", sorted(k)) for k in kids] + [("leaf", j + 1) for j in range(leaves)],
        leaves=[leaf_spec(inputs=[1], clauses=[[draw(st.sampled_from([1, -1]))]], cls="pc")
                for _ in range(leaves)],
        n=1,
    )


@settings(max_examples=80, deadline=None, database=None)
@given(g=or_dags())
def test_level_on_random_or_dags(g):
    a = g.analysis
    long_edges = sum(a.starts[ch] > a.starts[nid] + 1 for nid in a.order
                     if len(g.nodes[nid].children) > 1 for ch in g.nodes[nid].children)
    gl = level(g)
    assert is_layered(gl) and level(gl) is gl
    assert gl.num_nodes == g.num_nodes + long_edges
    assert enumerate_models(gl) == enumerate_models(g)
    assert check_separator_cover(gl, ref_separator_layers(gl)).ok
    assert separator_cover(gl).merged == ref_merged(gl)
    assert_substitution_matches(g)
    for rewritten in (smooth(g), gl, level(smooth(g))):
        assert_assembled(rewritten)


G1_CC = compile_graph(g1(), "cc")
SAMPLED_CASES = {
    # g1's cc encoding holds the units 9, 10 and 13 and is not pc on all
    # variables; an empty scope draws only the empty alpha
    "base-units": (G1_CC.all_clauses(), G1_CC.num_vars, list(range(1, G1_CC.num_vars + 1)), "pc"),
    "empty-scope-fails": ([(1, 2), (-1, 2), (1, -2), (-1, -2)], 2, [], "urc"),
    "empty-scope-passes": (G1_CC.all_clauses(), G1_CC.num_vars, [], "pc"),
}
SAMPLED_N = 64


def run_range(case, seed, lo, hi):
    clauses, nvars, scope, style = SAMPLED_CASES[case]
    return propcheck._sampled_range(clauses, nvars, scope, style, seed, lo, hi)


def first_failure(results):
    """The (fail_at, counterexample, vacuous) of consecutive ranges run in order."""
    vacuous = 0
    for fail_at, cex, _, vac in results:
        vacuous += vac
        if fail_at is not None:
            return fail_at, cex, vacuous
    return None, None, vacuous


@settings(max_examples=60, deadline=None, database=None)
@given(case=st.sampled_from(sorted(SAMPLED_CASES)), seed=st.integers(0, 30),
       cuts=st.lists(st.integers(0, SAMPLED_N), max_size=6), j=st.integers(0, SAMPLED_N - 1))
def test_sampled_stream_is_partition_free(case, seed, cuts, j):
    # sample j reads its own (seed, j) stream: chunking [0, N) anywhere gives
    # the one-range first failure, counterexample and vacuous count
    whole = run_range(case, seed, 0, SAMPLED_N)
    bounds = sorted({0, SAMPLED_N, *cuts})
    chunks = [run_range(case, seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert first_failure(chunks) == first_failure([whole])
    # j alone has the outcome j has when a longer range reaches it
    lo = max(b for b in bounds if b <= j)
    before, alone = run_range(case, seed, lo, j), run_range(case, seed, j, j + 1)
    if before[0] is None:  # the range [lo, j+1) reaches j
        upto = run_range(case, seed, lo, j + 1)
        assert alone[:2] == upto[:2]
        assert alone[3] == upto[3] - before[3]


GRAPHS = st.one_of(
    or_dags(),
    st.builds(lambda seed, n, depth: gen_random(n=n, max_depth=depth, leaf_class="pc", seed=seed),
              st.integers(0, 5000), st.integers(2, 6), st.integers(1, 3)))


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_compiled_groups_are_canonical(data):
    try:
        g = data.draw(GRAPHS)
    except BdmcError:
        assume(False)
    for rewritten in (smooth(g), level(g), level(smooth(g))):
        assert_assembled(rewritten)
    for target in TARGETS:
        out = compile_graph(g, target, auto_smooth=True, auto_level=True)
        assert non_canonical_clause(out) is None, target
    assert non_canonical_clause(compile_graph(g, "cc", lean_cc=True)) is None
