import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcodes.formats import (
    MTX_HEADER,
    MTX_MAX_DIM,
    FormatError,
    read_alist,
    read_mtx,
    write_alist,
    write_mtx,
)
from mmcodes.gf2 import BitMatrix

from conftest import (
    dense_read_alist,
    dense_read_mtx,
    dense_write_alist,
    dense_write_mtx,
    random_bitmatrix,
)


@st.composite
def bitmatrices(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 70))
    return BitMatrix(draw(st.lists(st.integers(0, 2**cols - 1), min_size=rows,
                                   max_size=rows)), cols)


@settings(max_examples=200, deadline=None)
@given(m=bitmatrices())
@pytest.mark.parametrize("write, read, dense_write, dense_read", [
    (write_alist, read_alist, dense_write_alist, dense_read_alist),
    (write_mtx, read_mtx, dense_write_mtx, dense_read_mtx),
], ids=["alist", "mtx"])
def test_matches_dense_reference(write, read, dense_write, dense_read, m):
    """The int-row writers and readers against dense ones, byte for byte;
    about 0.6 s each."""
    text = write(m)
    assert text == dense_write(m)
    assert read(text) == dense_read(text) == m


def test_identity_alist_body():
    body = write_alist(BitMatrix.identity(2))
    assert body.splitlines() == ["2 2", "1 1", "1 1", "1 1", "1", "2", "1", "2"]


def test_alist_round_trip(rng):
    for _ in range(25):
        m = random_bitmatrix(rng, int(rng.integers(1, 30)), int(rng.integers(1, 30)))
        assert read_alist(write_alist(m)) == m


def test_alist_zero_matrix():
    m = BitMatrix.zeros(3, 4)
    assert read_alist(write_alist(m)) == m


def test_alist_errors():
    with pytest.raises(FormatError):
        read_alist("2 2\n")
    good = write_alist(BitMatrix.identity(2))
    # corrupt a column list so it disagrees with the declared weight
    lines = good.splitlines()
    lines[4] = "1 2"
    with pytest.raises(FormatError):
        read_alist("\n".join(lines))


@pytest.mark.parametrize("text", [
    "2 2\n1 1\n1 1\n1 1\n3\n2\n1\n2\n",
    "2 2\n1 1\n1 1\n1 1\nx\n2\n1\n2\n",
    "2 2\n1 1\n1 1\n1 1\n-1\n2\n1\n2\n",
    "2 2\n2 1\n2 1\n1 1\n1 1\n2\n1\n2\n",
    "2 2\n9 9\n1 1\n1 7\n1\n2\n1\n2\n",
    "2 2\n9 9\n1 1\n1 1\n1\n2\n1\n2\n",
    "2 2\n1 1\n1 1\n1 7\n1\n2\n1\n2\n",
], ids=["index-past-rows", "non-integer-index", "negative-index", "repeated-index",
        "false-weights", "false-max-weights", "false-row-weight"])
def test_alist_rejects_bad_index(text):
    with pytest.raises(FormatError):
        read_alist(text)


@pytest.mark.parametrize("body", ["2 2 1\n1 y\n", "2 2 1\n1\n", "2 -2 0\n",
                                  "2 2 2\n1 1\n1 1\n"],
                         ids=["non-integer", "one-token", "negative-size", "repeated"])
def test_mtx_rejects_bad_entry(body):
    with pytest.raises(FormatError):
        read_mtx(f"{MTX_HEADER}\n{body}")


@settings(max_examples=300, deadline=None)
@given(m=bitmatrices(), data=st.data())
@pytest.mark.parametrize("write, read", [
    (write_alist, read_alist), (write_mtx, read_mtx),
], ids=["alist", "mtx"])
def test_single_token_edit(write, read, m, data):
    """Replacing one token of a written matrix yields a matrix or a
    ``FormatError``, and for an alist, where every entry is listed twice,
    the same matrix; about 1 s each."""
    parts = re.split(r"(\s+)", write(m))
    at = data.draw(st.sampled_from([i for i, p in enumerate(parts) if p.strip()]))
    parts[at] = data.draw(st.one_of(st.integers(-3, 80).map(str),
                                    st.sampled_from(["", "x", "1.5", "-0", "%"])))
    try:
        got = read("".join(parts))
    except FormatError:
        return
    assert isinstance(got, BitMatrix)
    if read is read_alist:
        assert got == m


@pytest.mark.parametrize("size", ["100000000000 1 0", f"{MTX_MAX_DIM + 1} 1 0",
                                  f"1 {MTX_MAX_DIM + 1} 0"])
def test_mtx_rejects_oversized_size_before_allocating(size):
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            read_mtx(f"{MTX_HEADER}\n{size}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mtx_header_and_round_trip(rng):
    m = random_bitmatrix(rng, 7, 11)
    text = write_mtx(m)
    assert text.splitlines()[0] == MTX_HEADER
    assert read_mtx(text) == m


def test_mtx_round_trip_many(rng):
    for _ in range(25):
        m = random_bitmatrix(rng, int(rng.integers(1, 25)), int(rng.integers(1, 25)))
        assert read_mtx(write_mtx(m)) == m


def test_mtx_errors():
    with pytest.raises(FormatError):
        read_mtx("")
    with pytest.raises(FormatError):
        read_mtx("1 1 1\n1 1\n")  # missing banner
    with pytest.raises(FormatError):
        read_mtx(MTX_HEADER + "\n2 2 1\n3 1\n")  # out of range
    with pytest.raises(FormatError):
        read_mtx(MTX_HEADER + "\n2 2 2\n1 1\n")  # wrong entry count


def test_round_trip_preserves_bytes(rng):
    m = random_bitmatrix(rng, 13, 70)
    assert read_alist(write_alist(m)).tobytes() == m.tobytes()
    assert read_mtx(write_mtx(m)).tobytes() == m.tobytes()
