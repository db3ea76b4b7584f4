"""The spacer layout that the bit-plane kernels share.

A kernel run lays one or more words side by side, each followed by a spacer
cell, and keeps each cell property as a plane: an int whose bit i is cell i
of the layout.  A cell reads its left neighbour's plane as ``x << 1`` and its
right neighbour's as ``x >> 1``.  No plane holds a bit on a spacer, so a
spacer reads as the border to both words beside it once a read is masked to
the cells.  The first and last cells of the words are the planes ``firsts``
and ``lasts``.  Each word's verdict bit is its spacer's, read by one add that
carries into the spacer exactly when a test holds on the word's cells:
:meth:`SpacedWords.every` and :meth:`SpacedWords.some`.
"""

from __future__ import annotations

import array
import functools
import itertools
from typing import Optional


def spaced_text(words: list, spacer: str) -> str:
    """The words (strings or tuples of one-character symbols) joined by
    ``spacer`` and reversed, so that ``int(s, 2)`` of a translation reads the
    first word's first cell as bit 0."""
    return spacer.join([w if isinstance(w, str) else "".join(w) for w in words])[::-1]


def lowest(bits: int) -> Optional[int]:
    """The position of the lowest set bit, or None for no bits."""
    return (bits & -bits).bit_length() - 1 if bits else None


class SpacedWords:
    """The layout of one kernel run: ``words`` side by side, their cells the
    set bits of ``cells``, each word followed by a spacer bit.

    ``spacers`` holds every word's spacer, the last word's too, and ``ends``
    their positions in word order.
    """

    def __init__(self, words: list, cells: int):
        self.words, self.cells = words, cells
        self.spacers = ((2 << cells.bit_length()) - 1) ^ cells
        self.firsts = cells & ~(cells << 1)
        self.lasts = cells & ~(cells >> 1)

    @functools.cached_property
    def ends(self) -> array.array:
        # an array, not a list of ints: a batch may hold thousands of words
        return array.array("q", itertools.accumulate(
            map((1).__add__, map(len, self.words)), initial=-1))[1:]

    def every(self, plane: int) -> int:
        """The spacer bits of the words whose every cell is in ``plane``, a
        plane of cells: adding ``firsts`` carries through a word's cells into
        its spacer exactly when all of them are set."""
        return (plane + self.firsts) & self.spacers

    def some(self, plane: int) -> int:
        """The spacer bits of the words with some cell in ``plane``, a plane of
        cells: adding ``cells`` carries into a word's spacer exactly when one
        of its cells is set."""
        return (plane + self.cells) & self.spacers
