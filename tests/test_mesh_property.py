"""Property test: the bulk mesh reader agrees with the line-at-a-time
reference on mutated mesh files."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from ptgfv.mesh import read_mesh

from test_mesh import SQUARE, _outcome, _reference_read_mesh

# characters that numerals, separators, line ends and comments are made of,
# and ones that Python's str.split or numpy's reader treat apart
MUTATION_ALPHABET = "0123456789+-.eE \t\r\x0b\x0c\x1c\x1d\x1e\x1f\xa0#_\0\n"
HEADER, SQUARE_BODY = SQUARE.split("\n", 1)


@given(st.lists(
    st.tuples(
        st.integers(0, len(SQUARE_BODY)), st.sampled_from(MUTATION_ALPHABET), st.booleans()
    ),
    min_size=1, max_size=4,
))
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
def test_read_mesh_matches_one_line_at_a_time_on_mutated_text(edits):
    # each edit inserts or overwrites one character after the header line
    body = SQUARE_BODY
    for position, char, insert in edits:
        body = body[:position] + char + body[position + (not insert):]
    text = f"{HEADER}\n{body}"
    assert _outcome(read_mesh, text) == _outcome(_reference_read_mesh, text)
