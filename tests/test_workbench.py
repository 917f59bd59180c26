"""Edge-list IO, rank correlation, and the residualised correlation helper."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle
from hiercomp import workbench
from hiercomp.workbench import read_edgelist, residual_correlation, spearman, write_edgelist


def test_read_write_round_trip(tmp_path, sixnode):
    out = tmp_path / "copy.txt"
    write_edgelist(sixnode, out)
    again = read_edgelist(out)
    assert again.n == sixnode.n
    assert np.array_equal(again.edge_array(), sixnode.edge_array())
    # a second write of the re-read graph is byte-identical
    out2 = tmp_path / "copy2.txt"
    write_edgelist(again, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_write_header_records_counts(tmp_path, sixnode):
    out = tmp_path / "g.txt"
    write_edgelist(sixnode, out)
    assert out.read_text().splitlines()[0] == "# nodes: 6 edges: 6"


def test_comment_styles_ignored(tmp_path):
    p = tmp_path / "comments.txt"
    p.write_text("# hash comment\n% percent comment\n0 1\n\n1 2\n")
    g = read_edgelist(p)
    assert (g.n, g.m) == (3, 2)


def test_matrixmarket_banner_and_size_line(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% comment\n"
        "4 4 3\n"
        "1 2\n"
        "2 3 1.0\n"
        "3 4 1.0\n"
    )
    g = read_edgelist(p)
    assert (g.n, g.m) == (4, 3)


def test_nodes_hint_retains_isolated_nodes(tmp_path):
    p = tmp_path / "iso.txt"
    p.write_text("# nodes: 9 edges: 2\n0 1\n1 2\n")
    g = read_edgelist(p)
    assert g.n == 9
    assert g.m == 2


def test_labels_keep_first_appearance_order(tmp_path):
    p = tmp_path / "lab.txt"
    p.write_text("zebra apple\napple mango\n")
    g = read_edgelist(p)
    assert g.labels == ("zebra", "apple", "mango")
    assert g.m == 2


def test_malformed_line_reported_with_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\nnot-an-edge\n")
    with pytest.raises(ValueError, match="malformed line 2"):
        read_edgelist(p)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("% nothing here\n")
    with pytest.raises(ValueError, match="empty file"):
        read_edgelist(p)


_LABELS = st.sampled_from([
    "0", "1", "2", "3", "10", "a", "b", "node-7",
    "7", "007", "1234567", "12345678", "123456789", "12345678a", "abcdefgh", "abcdefgh\x00",
    "abcdefghijklmnop", "abcdefghijklmnopq", "naïve", "東京", "\U0001f600", "a#", "%b",
])
# every ASCII whitespace byte; the line breaks among them split the line
_SPACES = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"
_PAD = st.one_of(st.sampled_from(["", " ", "\t", "  "]), st.text(_SPACES, max_size=3))
_SEP = st.one_of(st.sampled_from([" ", "\t", "  ", " \t ", "\x1f"]), st.text(_SPACES, min_size=1, max_size=3))
_END = st.sampled_from(["\n", "\r\n", "\r"])
_LINE_KINDS = ["pair"] * 4 + ["triple"] * 2 + ["bad", "comment", "hint", "blank"]


@st.composite
def edge_list_files(draw):
    """Text of a file mixing every construct the reader knows: a MatrixMarket
    banner, size and value lines, '#'/'%' comments, '# nodes:' hints, blank
    lines, self-loops, duplicate and reversed pairs, and lines with the wrong
    number of tokens, over every ASCII separator and line end."""
    lines = []
    if draw(st.booleans()):
        lines.append(draw(_PAD) + "%%MatrixMarket matrix coordinate pattern symmetric")
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(_LINE_KINDS))
        if kind == "pair":
            tokens = [draw(_LABELS), draw(_LABELS)]
        elif kind == "triple":  # a size line or a value column
            tokens = [draw(_LABELS), draw(_LABELS), draw(st.sampled_from(["3", "1.0", "-2e-1"]))]
        elif kind == "bad":
            tokens = [draw(_LABELS) for _ in range(draw(st.sampled_from([1, 4, 5])))]
        elif kind == "comment":
            tokens = [draw(st.sampled_from(["#", "%", "%%", "#nodes"])), draw(_LABELS)]
        elif kind == "hint":
            mark = draw(st.sampled_from(["# nodes:", "#Nodes", "% nodes :", "# n nodes:"]))
            tokens = [mark, str(draw(st.integers(0, 12)))]
        else:
            tokens = []
        lines.append(draw(_PAD) + draw(_SEP).join(tokens) + draw(_PAD))
    text = "".join(line + draw(_END) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text


@given(edge_list_files())
@example("1 2 3\n1 2\n")  # a size line only counts in MatrixMarket
@example("%%MatrixMarket\n1 2\n2 3 1.0\n")  # no size line: 2 tokens first
@example("# nodes: 0\n")
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_reader_matches_line_by_line_oracle(tmp_path, text):
    path = tmp_path / "case.txt"
    path.write_text(text, encoding="utf-8", newline="")  # the line ends reach the reader
    try:
        labels, n, edges = oracle.read_edgelist_naive(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_edgelist(path)
        assert str(info.value) == str(exc)
        return
    g = read_edgelist(path)
    assert (g.labels, g.n, g.m) == (labels, n, len(edges))
    assert set(map(tuple, g.edge_array().tolist())) == edges


def test_unicode_only_spaces_belong_to_labels(tmp_path):
    """Only ASCII whitespace separates tokens: a no-break space, unlike in
    str.split(), is part of a label, so this line is one edge, not three tokens."""
    p = tmp_path / "nbsp.txt"
    p.write_text("a\u00a0b c\n", encoding="utf-8")
    g = read_edgelist(p)
    assert (g.labels, g.n, g.m) == (("a\u00a0b", "c"), 2, 1)
    with pytest.raises(ValueError, match="malformed line 1"):
        oracle.read_edgelist_naive(p)  # the str-based reference splits at U+00A0


def test_byte_classes_are_str_whitespace_and_line_breaks():
    """The reader's masks hold, for every byte below 0x80, what str.split()
    takes for a space and str.splitlines() for a line break, and no byte
    from 0x80 up."""
    every = np.arange(256, dtype=np.uint8)
    starts, lens = workbench._tokens(every)
    space = np.ones(256, dtype=bool)
    for at, size in zip(starts.tolist(), lens.tolist()):
        space[at : at + size] = False
    brk = np.zeros(256, dtype=bool)
    brk[workbench._line_breaks(every)] = True
    for b in range(128):
        assert space[b] == chr(b).isspace(), b
        assert brk[b] == (len(("a" + chr(b) + "a").splitlines()) == 2), b
    assert not space[128:].any() and not brk[128:].any()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_edge_lines_match_fstrings_at_digit_boundaries(dtype):
    digits = 10 if dtype == np.int32 else 19  # of the dtype's largest value
    ids = {0, 1, np.iinfo(dtype).max} | {10**j + d for j in range(1, digits) for d in (-1, 0)}
    ids = np.array(sorted(ids), dtype=dtype)
    u, v = np.repeat(ids, ids.size), np.tile(ids, ids.size)
    expected = "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))
    assert workbench._edge_lines(u, v).tobytes().decode() == expected
    assert workbench._edge_lines(u[:0], v[:0]).size == 0


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_reader_reads_a_pipe(tmp_path):
    """A pipe has no size up front; the reader still reads it whole."""
    text = "# nodes: 4\na b\nb c\n"
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(text)
    with os.fdopen(read_end, "rb"):
        g = read_edgelist(f"/dev/fd/{read_end}")
    path = tmp_path / "same.txt"
    path.write_text(text)
    h = read_edgelist(path)
    assert (g.labels, g.n, g.m) == (h.labels, h.n, h.m) == (("a", "b", "c"), 4, 2)


def test_non_utf8_file_rejected(tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes("caf\u00e9 tea\n".encode("latin-1"))
    with pytest.raises(UnicodeDecodeError):
        read_edgelist(p)


# ---------------------------------------------------------------------------
# rank correlation


def test_spearman_perfect_monotone():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    rho, p = spearman(x, [v * v for v in x])
    assert rho == 1.0 and p == 0.0
    rho, p = spearman(x, [-v for v in x])
    assert rho == -1.0 and p == 0.0


def test_spearman_ties_match_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(5, 15))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        rho, _ = spearman(x, y)
        assert rho == pytest.approx(oracle.spearman_naive(x.tolist(), y.tolist()), abs=1e-12)


def test_spearman_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(6, 40))
        x = rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        rho, p = spearman(x, y)
        ref = scipy_stats.spearmanr(x, y)
        assert rho == pytest.approx(float(ref.statistic), abs=1e-12)
        assert p == pytest.approx(float(ref.pvalue), rel=1e-9, abs=1e-12)


def test_import_leaves_scipy_unloaded():
    """Importing scipy takes about ten times as long as the package itself,
    so scipy.stats (spearman), scipy.spatial (the geometric top-m),
    scipy.special (BinomialDistribution) and scipy.sparse are imported
    inside the functions that use them."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import hiercomp, hiercomp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_spearman_validation():
    with pytest.raises(ValueError, match="equal-length"):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="at least 3"):
        spearman([1, 2], [2, 1])
    with pytest.raises(ValueError, match="constant input"):
        spearman([1, 1, 1], [1, 2, 3])


def test_spearman_rejects_nan():
    with pytest.raises(ValueError, match="x holds NaN"):
        spearman([1, 2, float("nan"), 4, 5], [1, 2, 3, 4, 5])
    hc, density, n_nodes = [1, 2, 3, 4], [0.1, 0.3, 0.2, 0.5], [10, 20, 30, 40]
    for name, args in (("hc", ([1, 2, float("nan"), 4], density, n_nodes)),
                       ("density", (hc, [0.1, float("nan"), 0.2, 0.5], n_nodes)),
                       ("n_nodes", (hc, density, [10, 20, float("nan"), 40]))):
        with pytest.raises(ValueError, match=f"^{name} holds NaN"):
            residual_correlation(*args)


@given(st.lists(st.integers(0, 6), min_size=4, max_size=12),
       st.lists(st.integers(0, 6), min_size=4, max_size=12))
@settings(max_examples=80, deadline=None)
def test_spearman_hypothesis_against_reference(xs, ys):
    n = min(len(xs), len(ys))
    x, y = xs[:n], ys[:n]
    if all(v == x[0] for v in x) or all(v == y[0] for v in y):
        return
    rho, _ = spearman(x, y)
    assert rho == pytest.approx(oracle.spearman_naive(x, y), abs=1e-12)
    assert -1.0 <= rho <= 1.0


# ---------------------------------------------------------------------------
# residualised correlation


def test_residual_correlation_validation():
    with pytest.raises(ValueError, match="at least 4"):
        residual_correlation([1, 2, 3], [1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError, match="node counts constant"):
        residual_correlation([1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4], [50, 50, 50, 50])
    with pytest.raises(ValueError, match="density is linear in n"):
        residual_correlation([1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4], [10, 20, 30, 40])
    with pytest.raises(ValueError, match="equal-length"):
        residual_correlation([1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3])


def test_residual_correlation_recovers_planted_signal():
    """Density trend in n is removed; a measure tracking the residual part
    of density should register strongly (power check at mild noise)."""
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(100):
        n = rng.uniform(50, 5000, size=30)
        resid_part = rng.uniform(-0.2, 0.2, size=30)
        density = 0.0001 * n + resid_part
        hc = resid_part + rng.normal(0, 0.05, size=30)
        rho, p = residual_correlation(hc, density, n)
        if rho > 0.5 and p < 0.01:
            hits += 1
    assert hits >= 90


def test_residual_correlation_near_zero_for_independent_measure():
    rng = np.random.default_rng(5)
    rhos = []
    for _ in range(40):
        n = rng.uniform(50, 5000, size=40)
        density = 0.0001 * n + rng.uniform(-0.1, 0.1, size=40)
        hc = rng.normal(size=40)
        rho, _ = residual_correlation(hc, density, n)
        rhos.append(rho)
    assert abs(float(np.mean(rhos))) < 0.15

