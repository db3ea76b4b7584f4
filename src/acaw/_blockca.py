"""Block-structured machines behind the counter and identity-matrix acceptors.

Words over {0,1,#} are read as blocks of bits between separators.  The
machines here verify, with radius-1 signals only, that consecutive blocks
are equal in length and stand in a fixed relation (shifted one cell right,
or incremented as a binary counter), plus first-block and last-block shape
checks.  Everything is event-driven; no cell ever counts past a fixed bound.

The moving parts, all living in per-cell registers:

* a conveyor ``ls`` carrying every symbol leftward one cell per step, so a
  separator watches the whole block to its right stream past;
* each separator re-emits that stream rightward as a chain ``rf`` (the
  leftmost block cell plays the same role through a two-step delay line
  ``hold``, standing in for a separator just off the border), ends it with
  a head mark ``H`` when the conveyor shows the next separator or the
  border, then switches to forwarding the chain coming from its left;
  heads are downgraded to inert ``X`` when forwarded past a separator, so
  each block sees exactly one head: the one its own left separator emitted;
* the head's arrival at a block's first cell launches a half-speed verifier
  ``v`` that walks the block; the stream alignment makes the value under
  its nose at cell c exactly the previous block's cell c-1 (its par-0
  step) or cell c (par-1), which yields the shifted comparison and the
  increment comparison without any position arithmetic;
* a separator emitting while its left neighbor already carries chain
  traffic has a left block strictly shorter than its right one (a clash);
  a verifier reading an empty chain slot has it strictly longer: both kill
  the acceptance of that spot, which is what enforces equal block lengths;
* cells and separators turn ``ok`` when their own check passes; acceptance
  is the step when every cell is ok, which lands at 3b+3 steps or earlier
  for members with block length b.

A cell that is ``dead`` and not ``ok`` never accepts again, as ``dead`` is
never cleared and ``ok`` changes only under ``not dead``, in both flavours:
the ``doomed`` face, at which untraced runs stop.  A counter word's last cell
also turns dead when its visit passes without accepting (a single block, or
a last block that is not all ones or not an increment), since no visit
comes back to it.

The decider variant adds a census that makes rejection timely without a
single extra signal: each block's first cell gets a marker at step 1; every
sixth step the markers hop one cell right, soiling when they leave a 1.  At
census steps every cell shows a rejecting face unless it holds a clean
marker on a 1, so the word survives round r only if some block's first 1
sits at position r-1.  Members are served through round b and accept before
round b+1; any word surviving r rounds has pairwise-distinct blocks of
lengths 1..r and is therefore quadratically long, which bounds rejection by
roughly 6*sqrt(2n) steps.  The census reads only the markers and the
symbols, so each word's reject step is fixed by the word alone: a doomed
decider word can only reject, there, and an untraced run of one ends with
that step instead of stepping on to it.

The rule builds its states positionally, for speed, so ``BCell``'s field
order is part of the trace contract: a trace's configurations are these tuples.

Runs do not call the rule: each machine's ``kernel`` is ``_BlockPlanes``,
which steps every cell at once on bit-planes, in the spacer layout of
:mod:`acaw._planes`: one or more words side by side, each followed by a
spacer cell that reads as the border to both words beside it.  A left read
is cut at a spacer by the masked plane it meets, and the conveyor's right
shift is masked to the words' cells.  ``sym``, ``lnb`` and ``rnb`` never
change and are built once per run.  Each other field has one plane per
value (ls ``0``/``1``/``#``, hold ``0``/``1``/``#``/``q``, rf
``0``/``1``/``H``/``X``, marker ``C``/``S``) or per flag (emit; the verifier's presence, mode ``C``,
par 1, fsm ``p`` and ones; ok; dead), and the remaining value (ls ``q``,
hold and rf ``.``, no verifier, marker ``-``) is a cell with none of its
field's bits set.  ``age`` and ``phase`` are the same in every cell, so
they are two ints.  Only the counter comparison changes a visit's fsm or
ones flag, so the shift machines keep the fsm ``p`` plane clear and the
ones plane equal to the presence plane, and step neither.  A step is 35 to
96 big-int operations on the shift machines and 45 to 135 on the counter,
whatever the words' lengths; the more while chains are still emitting or
visits start.  It reads the run's masks from one tuple built with the run,
and takes no complement with ``~`` (see :mod:`acaw._planes`).  Each word's
verdicts are read at its spacer bit: every cell ok (accept), some clean
marker on a 1 (no census rejection) and some doomed cell.  A decider run
reads every word's census reject step up front, from its step-1 markers, at
under ten big-int operations per round (``census``).  ``states``
decodes a one-word configuration to the same
``BCell`` tuples the rule builds, so traces are unchanged; ``_BlockRule``
stays the reference the kernel is tested against, and the rule memo steps
these machines for ``core.global_step`` and the other object-level helpers.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional

from ._planes import SpacedWords, lowest, spaced_text
from .core import Automaton, _Inactive

_new = tuple.__new__  # a BCell from its fields, skipping the Python-level BCell.__new__

SHIFT = "shift"  # identity-matrix rows: next block = previous shifted right
INCREMENT = "increment"  # counter blocks: next block = previous plus one


class BCell(NamedTuple):
    sym: str  # '0', '1' or '#'
    lnb: str  # left neighbor at step 0: 'q', '#' or 'b'
    rnb: str
    age: int  # 0 right after initialization, 1 afterwards
    ls: str  # conveyor value: '0', '1', '#' or 'q'
    hold: str  # delay register of the border-side emitter, '.' when unused
    rf: str  # chain value: '.', '0', '1', 'H' (head) or 'X' (spent head)
    emit: bool  # still emitting its own chain
    v: Optional[tuple]  # verifier (mode, parity, fsm, all_ones) or None
    ok: bool
    dead: bool
    phase: int  # step count mod 6 for deciders, constant 0 for acceptors
    marker: str  # census marker: '-', 'C' (clean) or 'S' (soiled)

    def __str__(self):
        # compact trace rendering: the input symbol plus the one most
        # telling flag, so configuration rows stay one glyph pair per cell
        if self.dead:
            return "X"
        if self.ok:
            return f"{self.sym}*"
        if self.rf != ".":
            return f"{self.sym}{self.rf}"
        if self.marker != "-":
            return f"{self.sym}{self.marker}"
        return self.sym


def _kind(neighbor) -> str:
    if isinstance(neighbor, _Inactive):
        return "q"
    sym = neighbor.sym if isinstance(neighbor, BCell) else neighbor
    return "#" if sym == "#" else "b"


def _init_cell(left, sym: str, right, decider: bool) -> BCell:
    lnb = _kind(left)
    rnb = _kind(right)
    dead = sym == "#" and not (lnb == "b" and rnb == "b")
    marker = "C" if (decider and sym != "#" and lnb in ("q", "#")) else "-"
    emit = sym == "#" or lnb == "q"
    return _new(BCell, (sym, lnb, rnb, 0, sym, ".", ".", emit, None, False, dead,
                        1 if decider else 0, marker))


def _hop_marker(sym: str, lnb: str, left) -> str:
    if sym == "#" or lnb != "b" or not isinstance(left, BCell):
        return "-"
    if left.marker not in ("C", "S"):
        return "-"
    return "S" if (left.marker == "S" or left.sym == "1") else "C"


def _enter(ok, mode, fsm, ones, sym, rf, lnb, rnb, shift):
    """Start a verifier visit on a live block cell: its ``(ok, dead, v)``."""
    if mode == "F":
        passed = sym == ("1" if (shift and lnb == "q") else "0")
    elif shift:
        passed = (sym == "0") if lnb == "#" else (sym == rf)
    else:
        passed = True  # counter comparison reads on the next step
    if not passed:
        return ok, True, None
    if rnb == "q":
        if shift:
            return (True, False, None) if sym == "1" else (ok, True, None)
        if mode == "C":
            return ok, False, (mode, 0, fsm, ones)  # completes at its par-1 step
        return ok, True, None  # counter first-scan on a single block: nothing to accept
    return ok or mode == "F" or shift, False, (mode, 0, fsm, ones)


class _BlockRule:
    """The local rule; one instance per machine flavor."""

    def __init__(self, compare: str, decider: bool):
        self.shift = compare == SHIFT
        self.decider = decider

    def __call__(self, left, center, right):
        if not isinstance(center, BCell):
            return _init_cell(left, center, right, self.decider)
        sym, lnb, rnb, age, ls, hold, _, emit, cv, ok, dead, phase, marker = center
        new_ls = right.ls if isinstance(right, BCell) else "q"
        left_cell = isinstance(left, BCell)
        left_rf = left.rf if left_cell else "."

        if sym == "#":
            if emit:
                # Chain traffic already at the left while still emitting means
                # the left block is strictly shorter than the right one.
                if left_rf != ".":
                    dead = True
                if new_ls in ("0", "1"):
                    rf = new_ls
                else:
                    rf, emit = "H", False
            else:
                rf = "X" if left_rf == "H" else left_rf
        elif emit:
            # Leftmost block cell: emits the conveyor two steps delayed, so
            # its chain lines up exactly like one from a separator next door.
            if hold in ("#", "q"):
                rf, emit = "H", False
            else:
                rf = hold
            hold = ls
        else:
            rf = left_rf
            hold = "."

        v = None
        shift = self.shift
        left_v = left.v if left_cell and left.sym != "#" else None
        if left_v is not None and left_v[1] != 1:
            left_v = None  # only a visit at its par-1 step moves right

        if sym == "#":
            if left_v is not None and not dead:
                mode, _, fsm, _ = left_v
                if shift or mode == "F" or fsm == "p":
                    ok = True
        elif not dead:
            if cv is not None:
                mode, par, fsm, ones = cv
                if par == 0:
                    if not shift and mode == "C":
                        # Counter comparison: this cell's stream slot is the
                        # previous block's same-index bit.
                        if fsm == "e" and sym == rf:
                            pass
                        elif fsm == "e" and sym == "1" and rf == "0":
                            fsm = "p"
                        elif fsm == "p" and sym == "0" and rf == "1":
                            pass
                        else:
                            dead = True
                        ones = ones and sym == "1"
                        if not dead:
                            if rnb == "q":
                                # The word's last cell: its block must be all
                                # ones, one more than the block before, and no
                                # later visit comes back here.
                                if fsm == "p" and ones:
                                    ok = True
                                else:
                                    dead = True
                            else:
                                ok = True
                                v = (mode, 1, fsm, ones)
                    else:
                        v = (mode, 1, fsm, ones)
                # par == 1: the visit ends; the right neighbor picks it up.
            elif left_v is not None:
                ok, dead, v = _enter(ok, left_v[0], left_v[2], left_v[3], sym, rf, lnb, rnb, shift)
            elif age == 0 and lnb == "q":
                ok, dead, v = _enter(ok, "F", "e", True, sym, rf, lnb, rnb, shift)
            elif lnb == "#" and rf == "H":
                ok, dead, v = _enter(ok, "C", "e", True, sym, rf, lnb, rnb, shift)

        if self.decider:
            phase = (phase + 1) % 6
            if phase == 1:
                marker = _hop_marker(sym, lnb, left)
        else:
            phase = 0
            marker = "-"

        return _new(BCell, (sym, lnb, rnb, 1, new_ls, hold, rf, emit, v, ok, dead, phase, marker))


def _accepting_acceptor(state) -> bool:
    return isinstance(state, BCell) and state.ok


def _accepting_decider(state) -> bool:
    return isinstance(state, BCell) and state.ok and state.phase != 1


def _doomed(state) -> bool:
    return isinstance(state, BCell) and state.dead and not state.ok


def _rejecting_decider(state) -> bool:
    return (
        isinstance(state, BCell)
        and state.phase == 1
        and not (state.marker == "C" and state.sym == "1")
    )


# Positions of three planes in a _BlockPlanes configuration.
_OK, _DEAD, _MC = 17, 18, 19
# The words' planes and neighbour kinds, by C-level string operations; '.'
# is the spacer after each word.
_IS0 = str.maketrans("01#.", "1000")
_IS1 = str.maketrans("01#.", "0100")
_CELL = str.maketrans("01#.", "1110")
_KIND = str.maketrans("01", "bb")
# Trace decoding: one cell's bits of a field's planes, as a string, to its value.
_LS = {"100": "0", "010": "1", "001": "#", "000": "q"}
_HOLD = {"1000": "0", "0100": "1", "0010": "#", "0001": "q", "0000": "."}
_RF = {"1000": "0", "0100": "1", "0010": "H", "0001": "X", "0000": "."}
_BOOL = {"0": False, "1": True}
_MARKER = {"00": "-", "10": "C", "01": "S"}
_V = {"00000": None}
_V.update(
    ("1" + c + p + f + o, ("FC"[c == "1"], int(p), "ep"[f == "1"], o == "1"))
    for c, p, f, o in itertools.product("01", repeat=4)
)


class _BlockPlanes(SpacedWords):
    """A run of a block machine on bit-planes, stepping as ``_BlockRule`` does,
    over one or more words side by side, each followed by a spacer cell.

    A configuration is a tuple of 21 planes (ls 0/1/#, hold 0/1/#/q, rf
    0/1/H/X, emit, verifier present/mode C/par 1/fsm p/ones, ok, dead,
    marker C/S) and then age and phase; equal states give equal
    configurations.  A shift run's fsm-p plane stays 0 and its ones plane
    equals the presence plane, as no shift visit leaves fsm ``e`` or clears
    ones.  The step-0 configuration is ``()``.  Each word's verdict bit is
    its spacer's.
    """

    def __init__(self, shift: bool, decider: bool, words: list):
        self.decider = decider
        text = spaced_text(words, ".")
        super().__init__(words, int(text.translate(_CELL), 2))
        cells, firsts, lasts = self.cells, self.firsts, self.lasts
        s0, s1 = int(text.translate(_IS0), 2), int(text.translate(_IS1), 2)
        self.s1 = s1
        b = s0 | s1
        sh = cells ^ b
        past_sh = (sh << 1) & cells  # block cells just right of a separator
        lb = (b << 1) & cells
        # Step 1: every cell initialised from its symbol and its neighbours';
        # a separator without a block cell on each side is dead at once.
        self.one = (s0, s1, sh, 0, 0, 0, 0, 0, 0, 0, 0, sh | firsts, 0, 0, 0, 0, 0, 0,
                    sh ^ (sh & lb & (b >> 1)), b & (firsts | past_sh) if decider else 0, 0, 0,
                    1 if decider else 0)
        # Later steps' constants: where an F visit passes (a 1 in a word's
        # first cell, a 0 elsewhere), where a C visit passes at once (a 0
        # just right of a separator) and where it compares instead, and the
        # block cells a census marker can hop into.  ``step`` reads them all
        # from this one tuple.
        f_pass = (firsts & s1) | (s0 ^ (s0 & firsts))
        self.hop = b & lb
        self.constants = (cells, b, sh, s0, s1, firsts, lasts, past_sh, past_sh & s0,
                          cells ^ past_sh, f_pass, self.hop, shift, decider)
        self.start = ()

    def step(self, config: tuple) -> tuple:
        if not config:
            return self.one
        (ls0, ls1, lsh, hd0, hd1, hdh, hdq, rf0, rf1, rfh, rfx, emit, vp, vc, v1, vfp,
         vones, ok, dead, mc, ms, age, phase) = config
        (cells, b, sh, s0, s1, firsts, lasts, past_sh, past_sh0, not_past_sh, f_pass, hop,
         shift, decider) = self.constants

        # The chain, read from the left (a spacer reads '.'), and the conveyor,
        # read from the right (a spacer reads 'q').  A left read keeps a bit on
        # the spacer until it meets a masked plane; a right read is masked to
        # the cells at once, so no spacer ever holds a bit.
        l0, l1, lh, lx = rf0 << 1, rf1 << 1, rfh << 1, rfx << 1
        n0, n1 = (ls0 >> 1) & cells, (ls1 >> 1) & cells
        if emit:
            idle = cells ^ emit
            she, be = sh & emit, b & emit
            dead |= she & (l0 | l1 | lh | lx)  # a clash: the left block is shorter
            # cells emitting their head: a separator the conveyor shows no
            # bit, a border-side emitter holding '#' or 'q'
            stop = (she ^ (she & (n0 | n1))) | (be & (hdh | hdq))
            rf0 = (idle & l0) | (she & n0) | (be & hd0)
            rf1 = (idle & l1) | (she & n1) | (be & hd1)
            idle_lh = idle & lh
            rfh = (b & idle_lh) | stop
            rfx = (idle & lx) | (sh & idle_lh)
            hd0, hd1, hdh = be & ls0, be & ls1, be & lsh
            hdq = be ^ (hd0 | hd1 | hdh)  # ls values are one-hot, 'q' has no bit
            emit ^= stop
        else:  # every head is out: each cell forwards the chain, none holds
            rf0, rf1, rfh, rfx = l0 & cells, l1 & cells, b & lh, (lx & cells) | (sh & lh)
            hd0 = hd1 = hdh = hdq = 0
        ls0, ls1, lsh = n0, n1, (lsh >> 1) & cells

        # Visits at their par-1 step move right, out of block cells only.  Shift
        # runs do not step the fsm-p and ones planes (see the class docstring).
        lv = v1 << 1  # par 1 implies a visit, and visits are on block cells
        lvc = (vc << 1) & lv
        undead = cells ^ dead
        live = b & undead
        visited = live & vp
        fresh = live ^ visited
        par0 = visited ^ (visited & v1)
        if shift:
            ok |= sh & lv & undead
            nvp, nvc, nv1 = par0, vc & par0, par0
        else:
            lvp, lvo = (vfp << 1) & lv, (vones << 1) & lv
            ok |= sh & undead & ((lv ^ lvc) | lvp)
            counter = par0 & vc
            moved = par0 ^ counter
            nvp, nvc, nv1, nvfp, nvo = moved, vc & moved, moved, vfp & moved, vones & moved
            if counter:
                # The stream slot is the previous block's same-index bit.
                same = (s0 & rf0) | (s1 & rf1)  # cells whose symbol is the chain's value
                pending = counter & vfp
                unset = counter ^ pending
                carry = unset & s1 & rf0
                passed = (unset & same) | carry | (pending & s0 & rf1)
                dead |= counter ^ passed
                fsm, ones = (vfp | carry) & passed, vones & s1 & passed
                done = passed & lasts
                going = passed ^ done
                accepted = done & fsm & ones
                ok |= going | accepted
                dead |= done ^ accepted
                nvp |= going
                nvc |= going
                nv1 |= going
                nvfp |= fsm & going
                nvo |= ones & going

        # A visit starts from the left, at a word's first cell on step 1, or at
        # a block's first cell when the head arrives.
        from_left = fresh & lv
        first = (fresh & firsts) if age == 0 else 0
        comparing = (fresh ^ from_left) & past_sh & rfh
        entering = from_left | first | comparing
        if entering:
            mode_c = (from_left & lvc) | comparing
            mode_f = entering ^ mode_c
            if shift:
                same = (s0 & rf0) | (s1 & rf1)
                passed = (mode_f & f_pass) | (mode_c & (past_sh0 | (not_past_sh & same)))
            else:
                passed = (mode_f & s0) | mode_c
            dead |= entering ^ passed
            last = passed & lasts
            going = passed ^ last
            if shift:
                ok |= going | (last & s1)
                dead |= last & s0
            else:
                ok |= going & mode_f
                dead |= last & mode_f  # a single block: nothing to accept
                going |= last & mode_c
                nvfp |= going & from_left & lvp
                nvo |= going & ((from_left & lvo) | first | comparing)
            nvp |= going
            nvc |= going & mode_c
        if shift:
            nvfp, nvo = 0, nvp

        if decider:
            phase = phase + 1 if phase < 5 else 0
            if phase == 1:  # census: markers hop right, soiling when they leave a 1
                m1 = mc & s1
                mc, ms = hop & ((mc ^ m1) << 1), hop & ((ms | m1) << 1)
        return (ls0, ls1, lsh, hd0, hd1, hdh, hdq, rf0, rf1, rfh, rfx, emit, nvp, nvc, nv1,
                nvfp, nvo, ok, dead, mc, ms, 1, phase)

    def finality(self, config: tuple) -> tuple[int, int]:
        """The verdict bits of the words that accept (every cell ok) and of
        those that reject (no cell holds the clean marker on a 1 that spares
        a word a census)."""
        if not config:
            return 0, 0
        if config[-1] != 1 or not self.decider:
            return (config[_OK] + self.firsts) & self.spacers, 0  # self.every, inlined
        return 0, self.spacers ^ self.some(config[_MC] & self.s1)

    @functools.cached_property
    def census(self) -> list[tuple[int, int]]:
        """A decider run's census rejections, read from the markers alone:
        ``(step, bits)`` pairs in step order, the verdict bits of the words
        whose census first finds no clean marker on a 1 at that step.

        ``finality`` rejects a word on its ``mc`` and symbols only, and
        ``step`` moves the markers on ``mc`` and ``hop`` only, so each word's
        reject step is fixed by the word, whatever else the run does.  Each
        round drops the clean markers on 1s, which soil, and hops the rest one
        cell right; ``hop`` drops a marker at its block's end, so every word
        is listed.
        """
        hop, s1, some = self.hop, self.s1, self.some
        mc, open_, steps, rounds = self.one[_MC], self.spacers, 1, []
        while open_:
            m1 = mc & s1
            rejected = open_ ^ (open_ & some(m1))
            if rejected:
                rounds.append((steps, rejected))
                open_ ^= rejected
            mc, steps = hop & ((mc ^ m1) << 1), steps + 6
        return rounds

    def doomed(self, config: tuple) -> int:
        """The verdict bits of the words with a doomed cell."""
        if not config:
            return 0
        dead = config[_DEAD]
        return self.some(dead ^ (dead & config[_OK]))

    def leftmost_open(self, config: tuple) -> tuple[Optional[int], Optional[int]]:
        """A one-word run's leftmost cell that does not accept and leftmost
        that does not reject, each None when every cell does."""
        if not config:
            return 0, 0
        if config[-1] == 1 and self.decider:
            return 0, lowest(config[_MC] & self.s1)
        return lowest(self.cells ^ config[_OK]), 0

    def states(self, config: tuple) -> tuple:
        """A one-word run's cells, as the rule builds them."""
        word = "".join(self.words[0])
        if not config:
            return tuple(word)
        bits = [format(x, f"0{len(word)}b")[::-1] for x in config[:-2]]
        ls, hold, rf = (map("".join, zip(*bits[i:j])) for i, j in ((0, 3), (3, 7), (7, 11)))
        return tuple(map(_new, itertools.repeat(BCell), zip(
            word, "q" + word[:-1].translate(_KIND), word[1:].translate(_KIND) + "q",
            itertools.repeat(config[-2]),
            map(_LS.__getitem__, ls), map(_HOLD.__getitem__, hold),
            map(_RF.__getitem__, rf), map(_BOOL.__getitem__, bits[11]),
            map(_V.__getitem__, map("".join, zip(*bits[12:17]))),
            map(_BOOL.__getitem__, bits[17]), map(_BOOL.__getitem__, bits[18]),
            itertools.repeat(config[-1]), map(_MARKER.__getitem__, map("".join, zip(*bits[19:]))),
        )))


def block_automaton(name: str, compare: str, decider: bool) -> Automaton:
    rule = _BlockRule(compare, decider)
    return Automaton(
        name=name,
        input_alphabet=("0", "1", "#"),
        rule=rule,
        accepting=_accepting_decider if decider else _accepting_acceptor,
        rejecting=_rejecting_decider if decider else None,
        states=None,
        doomed=_doomed,
        kernel=functools.partial(_BlockPlanes, compare == SHIFT, decider),
    )
