"""Edge-list and npz serialization round trips."""

import io
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphFormatError
from repro.graph.generators import erdos_renyi, complete_graph
from repro.graph.io import load_npz, read_edge_list, save_npz, write_edge_list
from repro.ordering import core_ordering, directionalize

CORRUPT = Path(__file__).parent / "fixtures" / "corrupt"


def test_edge_list_roundtrip(tmp_path):
    g = erdos_renyi(40, 0.15, seed=3)
    path = tmp_path / "graph.el"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back == g


def test_read_edge_list_from_stream():
    g = read_edge_list(io.StringIO("# comment\n% konect header\n0 1\n1 2\n"))
    assert g.num_vertices == 3
    assert g.num_edges == 2


def test_read_edge_list_ignores_extra_fields():
    g = read_edge_list(io.StringIO("0 1 42 1999\n"))
    assert g.num_edges == 1


def test_read_edge_list_blank_lines():
    g = read_edge_list(io.StringIO("\n0 1\n\n"))
    assert g.num_edges == 1


def test_read_edge_list_bad_line():
    with pytest.raises(GraphFormatError, match="expected"):
        read_edge_list(io.StringIO("0\n"))


def test_read_edge_list_non_integer():
    with pytest.raises(GraphFormatError, match="non-integer"):
        read_edge_list(io.StringIO("a b\n"))


def test_read_edge_list_num_vertices():
    g = read_edge_list(io.StringIO("0 1\n"), num_vertices=5)
    assert g.num_vertices == 5


def test_read_edge_list_negative_id():
    with pytest.raises(GraphFormatError, match="line 2: negative"):
        read_edge_list(io.StringIO("0 1\n1 -2\n"))


def test_read_edge_list_overflow_id():
    with pytest.raises(GraphFormatError, match="line 1: .*int64"):
        read_edge_list(io.StringIO(f"0 {2**80}\n"))


def test_read_edge_list_nan_token():
    with pytest.raises(GraphFormatError, match="line 1: non-integer"):
        read_edge_list(io.StringIO("nan 1\n"))


@pytest.mark.parametrize(
    "fixture, match",
    [
        ("negative_id.el", "line 4: negative"),
        ("nan_token.el", "line 2: non-integer"),
        ("float_token.el", "line 2: non-integer"),
        ("overflow_id.el", "line 2: .*int64"),
        ("missing_field.el", "line 2: expected"),
    ],
)
def test_read_edge_list_corrupt_fixtures(fixture, match):
    """Every corrupt fixture fails with GraphFormatError naming the
    offending line — never an uncaught ValueError/OverflowError."""
    with pytest.raises(GraphFormatError, match=match):
        read_edge_list(CORRUPT / fixture)


def test_npz_roundtrip(tmp_path):
    g = erdos_renyi(30, 0.2, seed=4)
    path = tmp_path / "graph.npz"
    save_npz(g, path)
    assert load_npz(path) == g


def test_npz_roundtrip_dag(tmp_path):
    g = complete_graph(5)
    dag = directionalize(g, core_ordering(g))
    path = tmp_path / "dag.npz"
    save_npz(dag, path)
    back = load_npz(path)
    assert back.directed
    assert back == dag


def test_npz_missing_key(tmp_path):
    import numpy as np

    path = tmp_path / "bad.npz"
    np.savez_compressed(path, indptr=np.array([0]))
    with pytest.raises(GraphFormatError):
        load_npz(path)


def test_metis_roundtrip(tmp_path):
    from repro.graph.io import read_metis, write_metis

    g = erdos_renyi(40, 0.15, seed=6)
    path = tmp_path / "g.metis"
    write_metis(g, path)
    assert read_metis(path) == g


def test_metis_comments_and_stream():
    import io as _io

    from repro.graph.io import read_metis

    g = read_metis(_io.StringIO("% comment\n3 2\n2 3\n1\n1\n"))
    assert g.num_vertices == 3
    assert g.num_edges == 2


def test_metis_errors():
    import io as _io

    from repro.graph.io import read_metis

    with pytest.raises(GraphFormatError, match="empty"):
        read_metis(_io.StringIO("% only comments\n"))
    with pytest.raises(GraphFormatError, match="header"):
        read_metis(_io.StringIO("3\n"))
    with pytest.raises(GraphFormatError, match="adjacency lines"):
        read_metis(_io.StringIO("3 1\n2\n1\n"))
    with pytest.raises(GraphFormatError, match="out of range"):
        read_metis(_io.StringIO("2 1\n5\n1\n"))
    with pytest.raises(GraphFormatError, match="claims"):
        read_metis(_io.StringIO("3 9\n2\n1 3\n2\n"))
    with pytest.raises(GraphFormatError, match="non-integer"):
        read_metis(_io.StringIO("2 1\nx\n1\n"))


def test_metis_rejects_dag(tmp_path):
    from repro.graph.io import write_metis

    g = erdos_renyi(10, 0.3, seed=7)
    dag = directionalize(g, core_ordering(g))
    with pytest.raises(GraphFormatError):
        write_metis(dag, tmp_path / "d.metis")


# ------------------------------------- bulk parse vs the line-by-line loop
def _mostly(draw, common, rare, one_in=8):
    """Draw from ``rare`` about once in ``one_in`` draws, else
    ``common``: most inputs stay plain enough for the bulk path."""
    # Hypothesis favours the bounds of a range; test a middle value.
    pool = rare if draw(st.integers(0, one_in - 1)) == one_in // 2 else common
    return draw(st.sampled_from(pool))


_ODD_TOKENS = ["+5", "-0", "007", "1_000", "\u0661\u0662", "-3", "1.5",
               "1e3", "nan", "inf", str(2**63 - 1), str(2**63),
               str(-2**63), "x", "#c", "%c", "2#c", "3%", "0x1"]
_ODD_SEPS = ["\x0c", "\x0b", "\x85", "\xa0", "\u3000"]


@st.composite
def _edge_list_texts(draw):
    """Edge-list text mixing comment, blank and data lines with the
    tokens, separators and line ends the two parsers might disagree on."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = _mostly(draw, ["data"] * 5 + ["comment"],
                       ["blank", "space"], one_in=4)
        lead = _mostly(draw, ["", "", " ", "\t "], ["\xa0", "\x0c"],
                       one_in=30)
        if kind == "comment":
            body = lead + draw(st.sampled_from("#%")) + draw(
                st.sampled_from(["", " c", "1 2", "#"]))
        elif kind == "blank":
            body = ""
        elif kind == "space":
            body = _mostly(draw, [" ", "\t", " \t "], ["\x0c", "\xa0"],
                           one_in=4)
        else:
            fields = [
                _mostly(draw, [str(v) for v in range(41)], _ODD_TOKENS,
                        one_in=25)
                for _ in range(_mostly(draw, [2, 2, 3], [1, 4], one_in=20))
            ]
            seps = [_mostly(draw, [" ", "  ", "\t"], _ODD_SEPS, one_in=25)
                    for _ in fields[1:]]
            body = lead + fields[0] + "".join(
                sep + tok for sep, tok in zip(seps, fields[1:]))
            body += _mostly(draw, ["", "", " "], ["#c", " #c", " %c"],
                            one_in=15)
        lines.append(body + _mostly(draw, ["\n"], ["\r\n", "\r"],
                                    one_in=30))
    text = "".join(lines)
    if lines and draw(st.booleans()):
        text = text[:-1]  # no newline at the end
    if draw(st.integers(0, 19)) == 10:
        text = "\ufeff" + text
    return text


def _outcome(read):
    try:
        g = read()
    # An id near 2**63 overflows from_edge_array's edge keys after
    # either parser; that error must match too.
    except (GraphFormatError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", g.indptr.tobytes(), g.indices.tobytes())


@settings(max_examples=400, deadline=None)
@given(text=_edge_list_texts(),
       num_vertices=st.one_of(st.none(), st.integers(0, 45)))
def test_bulk_parse_matches_line_loop(text, num_vertices):
    """The bulk path accepts only what the line loop accepts, with the
    same array; ``read_edge_list`` gives the loop's CSR or its error."""
    from repro.graph.build import from_edge_array
    from repro.graph.io import _parse_lines, _parse_plain

    # Default-like filters, not errors: the bulk path must not rely on
    # the caller's filters to reject a field.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast = _parse_plain(text)
        got = _outcome(lambda: read_edge_list(io.StringIO(text),
                                              num_vertices))
    assert not caught
    assert got == _outcome(
        lambda: from_edge_array(_parse_lines(text), num_vertices))
    if fast is not None:
        want = _parse_lines(text)
        assert fast.dtype == want.dtype and np.array_equal(fast, want)


@pytest.mark.parametrize("text", ["", "\n\n", "# only\n% comments\n",
                                  "  # indented\n \t\n", "#"])
def test_empty_input_gives_empty_graph_without_warning(text, tmp_path):
    path = tmp_path / "empty.el"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on empty input
        assert read_edge_list(path) == read_edge_list(io.StringIO(""))
        g = read_edge_list(io.StringIO(text), num_vertices=3)
    assert g.num_vertices == 3 and g.num_edges == 0
    assert read_edge_list(path).num_vertices == 0


def test_file_line_endings_read_as_newlines(tmp_path):
    """A file is opened with universal newlines, so CR and CRLF end
    lines there, while in a stream a lone CR is only whitespace."""
    path = tmp_path / "crlf.el"
    path.write_bytes(b"# h\r\n0 1\r\n1 2\r2 3\n")
    assert read_edge_list(path).num_edges == 3
    assert read_edge_list(io.StringIO("0 1\r2 3\n")).num_edges == 1


_FLOAT_TEXTS = ["0 1\n1 2.5\n", "1.0 2\n", "1e3 2\n", "1 -0.5\n",
                "nan 1\n", "0 1\n-nan 2\n", "1 inf\n", "1. 2\n"]


@pytest.mark.parametrize("truncates", [False, True])
@pytest.mark.parametrize("text", _FLOAT_TEXTS)
def test_float_fields_raise_the_line_loop_error(text, truncates,
                                               monkeypatch):
    """A float field gives the line loop's error under any warning
    filters.  NumPy before the deprecation expired reads such a field
    into an int column by truncation, warning only with a
    DeprecationWarning; ``truncates`` emulates that."""
    from repro.graph.io import _parse_lines

    real = np.loadtxt

    def truncating_loadtxt(fname, dtype=float, **kwargs):
        try:
            return real(fname, dtype=dtype, **kwargs)
        except ValueError:
            fname.seek(0)
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning, stacklevel=2)
            with np.errstate(invalid="ignore"):
                return real(fname, dtype=np.float64, **kwargs).astype(dtype)

    if truncates:
        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    with pytest.raises(GraphFormatError) as want:
        _parse_lines(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(GraphFormatError) as got:
            read_edge_list(io.StringIO(text))
    assert str(got.value) == str(want.value)


def test_line_full_of_comment_marks_reads_in_linear_time():
    """Only the first '#'/'%' on a line decides whether it is a comment;
    a scan from every mark back to its line start takes seconds here."""
    import time

    n = 2 * 10**5
    text = ("0 1 " + "#" * n + "\n1 2 " + "%#" * n + "\n  # c\n2 3\n"
            + "% x " * n + "\n3 4 #")
    t0 = time.perf_counter()
    g = read_edge_list(io.StringIO(text))
    elapsed = time.perf_counter() - t0
    assert g.edge_array().tolist() == [[0, 1], [1, 2], [2, 3], [3, 4]]
    assert elapsed < 1.0
