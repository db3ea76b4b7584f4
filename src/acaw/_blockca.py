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
never cleared and ``ok`` changes only under ``not dead``: the acceptors'
``doomed`` face, at which untraced runs stop.

The decider variant adds a census that makes rejection timely without a
single extra signal: each block's first cell gets a marker at step 1; every
sixth step the markers hop one cell right, soiling when they leave a 1.  At
census steps every cell shows a rejecting face unless it holds a clean
marker on a 1, so the word survives round r only if some block's first 1
sits at position r-1.  Members are served through round b and accept before
round b+1; any word surviving r rounds has pairwise-distinct blocks of
lengths 1..r and is therefore quadratically long, which bounds rejection by
roughly 6*sqrt(2n) steps.

The rule builds its states positionally, for speed, so ``BCell``'s field
order is part of the trace contract: a trace's configurations are these tuples.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

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
        return ok, False, None  # counter first-scan on a single block: nothing to accept
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
                                if fsm == "p" and ones:
                                    ok = True
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


def _doomed_acceptor(state) -> bool:
    return isinstance(state, BCell) and state.dead and not state.ok


def _rejecting_decider(state) -> bool:
    return (
        isinstance(state, BCell)
        and state.phase == 1
        and not (state.marker == "C" and state.sym == "1")
    )


def block_automaton(name: str, compare: str, decider: bool) -> Automaton:
    rule = _BlockRule(compare, decider)
    return Automaton(
        name=name,
        input_alphabet=("0", "1", "#"),
        rule=rule,
        accepting=_accepting_decider if decider else _accepting_acceptor,
        rejecting=_rejecting_decider if decider else None,
        states=None,
        doomed=None if decider else _doomed_acceptor,
    )
