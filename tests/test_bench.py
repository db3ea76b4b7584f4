"""Timing curves, bound fitting, CSV serialization, equivalence checking."""

import dataclasses
import itertools
import math
import tracemalloc

import pytest

from acaw import (
    ACCEPT,
    REJECT,
    TIMEOUT,
    BenchRow,
    FAMILIES,
    ModeError,
    ParameterError,
    fit_bound,
    measure_time_curve,
    read_rows,
    run_acceptor,
    run_decider,
    verify_equivalence,
    write_rows,
    zoo_automaton,
)
from acaw import bench, zoo


def test_csv_round_trip(tmp_path):
    rows = [
        BenchRow("idmat", 3, 11, ACCEPT, 12),
        BenchRow("idmat", 4, 19, TIMEOUT, None),
        BenchRow("someone", 1, 1, REJECT, 1),
    ]
    path = tmp_path / "curve.csv"
    write_rows(path, rows)
    assert read_rows(path) == rows
    first = path.read_text().splitlines()[0]
    assert first == "family,k,n,verdict,steps"


@pytest.mark.parametrize(
    "content",
    [
        "",  # empty file
        "family,k,n,steps,verdict\n",  # scrambled header
        "family,k,n,verdict,steps\nidmat,1,1,maybe,3\n",  # bad verdict
        "family,k,n,verdict,steps\nidmat,one,1,accept,3\n",  # non-integer k
        "family,k,n,verdict,steps\nidmat,1,1,accept\n",  # missing field
        "family,k,n,verdict,steps\nidmat,1,2,timeout,5\n",  # steps on a timeout
        "family,k,n,verdict,steps\nidmat,2,5,accept,\n",  # no steps on a verdict
        "family,k,n,verdict,steps\nidmat,1,0,accept,3\n",  # no word has length 0
        "family,k,n,verdict,steps\nidmat,1,-4,accept,3\n",  # negative length
        "family,k,n,verdict,steps\nidmat,1,4,accept,-3\n",  # negative steps
    ],
)
def test_read_rows_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    # every error names the file, and an error in a row also its line
    where = r"bad\.csv:2: " if content.count("\n") == 2 else r"bad\.csv: "
    with pytest.raises(ParameterError, match=where):
        read_rows(path)


def test_measure_acceptor_curve():
    rows = measure_time_curve(FAMILIES["zeros"], range(1, 6))
    assert len(rows) == 5
    for k, row in zip(range(1, 6), rows):
        assert (row.family, row.k, row.n) == ("zeros", k, k)
        assert (row.verdict, row.steps) == (ACCEPT, 0)


def test_measure_decider_curve_adds_corruptions():
    rows = measure_time_curve(FAMILIES["someone"], range(2, 6), mode="decider")
    # per k: the member, plus the single corruption that leaves the language
    # (zeroing the lone 1; turning any 0 into a 1 keeps the word a member)
    assert len(rows) == 8
    members = [r for r in rows if r.verdict == ACCEPT]
    rejects = [r for r in rows if r.verdict == REJECT]
    assert len(members) == len(rejects) == 4
    assert all(r.steps <= 2 for r in members)
    assert all(r.steps == 1 for r in rejects)
    bare = measure_time_curve(
        FAMILIES["someone"], range(2, 6), mode="decider", perturb=False
    )
    assert len(bare) == 4
    assert all(r.verdict == ACCEPT for r in bare)


def test_measure_mode_errors():
    with pytest.raises(ModeError):
        measure_time_curve(FAMILIES["zeros"], [1], mode="decider")
    with pytest.raises(ModeError):
        measure_time_curve(FAMILIES["someone"], [1], mode="acceptor")
    with pytest.raises(ParameterError):
        measure_time_curve(FAMILIES["zeros"], [1], mode="oracle")


def unbuildable(family):
    """The family with a ``generate`` that fails the test if it is called."""
    def generate(k):
        pytest.fail(f"built the k={k} member")
    return dataclasses.replace(family, generate=generate)


def test_measure_refuses_an_over_long_member_before_building_any():
    """bin's k = 30 member would have 31 * 2^30 - 1 symbols; the refusal
    names that length and the budget.  In a range, the first member over the
    budget is refused before any member is built."""
    with pytest.raises(ParameterError, match=r"^bin k=30: its member has 33285996543 symbols,"
                                             r" over the budget of 100000$"):
        measure_time_curve(unbuildable(FAMILIES["bin"]), [30])
    with pytest.raises(ParameterError, match=r"^bin k=13: its member has 114687 symbols,"):
        measure_time_curve(unbuildable(FAMILIES["bin"]), range(1, 31))
    with pytest.raises(ParameterError, match=r"^idmat k=3: .* 11 symbols, over the budget of 10$"):
        measure_time_curve(unbuildable(FAMILIES["idmat"]), iter([1, 2, 3]), max_length=10)
    rows = measure_time_curve(FAMILIES["idmat"], iter([1, 2, 3]), max_length=11)
    assert [row.n for row in rows] == [1, 5, 11]


def test_fit_bound_constant_and_divergence():
    rows = [BenchRow("fake", n, n, ACCEPT, n) for n in range(1, 9)]
    report = fit_bound(rows, "log", ceiling=10)
    ratios = [n / math.log2(max(n, 2)) for n in range(1, 9)]
    assert report.constant == pytest.approx(max(ratios))
    assert report.divergence == pytest.approx(min(ratios[-2:]))  # top quartile
    assert report.rows_used == 8
    assert report.passed
    linear = fit_bound(rows, "linear", ceiling=1.0)
    assert linear.constant == pytest.approx(1.0)
    assert linear.passed


def test_fit_bound_detects_divergence():
    rows = [BenchRow("fake", n, n, ACCEPT, 5 * n) for n in range(1, 33)]
    report = fit_bound(rows, "const", ceiling=10)
    assert not report.passed
    assert report.divergence > report.ceiling  # genuinely outgrows the bound


def test_fit_bound_errors():
    rows = [BenchRow("fake", 1, 1, ACCEPT, 1)]
    with pytest.raises(ParameterError):
        fit_bound(rows, "cubic", 1)
    with pytest.raises(ParameterError):
        fit_bound([], "const", 1)
    with pytest.raises(ParameterError):
        fit_bound([BenchRow("fake", 1, 1, TIMEOUT, None)], "const", 1)


def test_fit_bound_on_real_curves():
    idmat = measure_time_curve(FAMILIES["idmat"], range(1, 13))
    assert fit_bound(idmat, "sqrt", ceiling=6).passed
    someone = measure_time_curve(FAMILIES["someone"], range(1, 51), mode="decider")
    report = fit_bound(someone, "const", ceiling=2)
    assert report.passed
    assert report.constant == pytest.approx(2.0)
    bins = measure_time_curve(FAMILIES["bin"], range(1, 7))
    assert fit_bound(bins, "log", ceiling=30).passed


def test_verify_equivalence_acceptor():
    report = verify_equivalence(
        zoo_automaton("pair01"), lambda w: w == "01" * (len(w) // 2), 6
    )
    assert report.ok
    assert report.words_checked == sum(2**i for i in range(1, 7))
    lying = verify_equivalence(zoo_automaton("pair01"), lambda w: True, 4)
    assert not lying.ok
    assert ("0", TIMEOUT, True) in lying.mismatches


def test_verify_equivalence_decider():
    dec = zoo_automaton("someone", decider=True)
    report = verify_equivalence(dec, lambda w: "1" in w, 7, mode="decider")
    assert report.ok
    # a starved decider times out, and decider mode treats that as a mismatch
    starved = verify_equivalence(dec, lambda w: "1" in w, 3, mode="decider", max_steps=0)
    assert len(starved.mismatches) == starved.words_checked


def test_verify_equivalence_errors():
    dec = zoo_automaton("someone", decider=True)
    acc = zoo_automaton("pair01")
    with pytest.raises(ModeError):
        verify_equivalence(dec, lambda w: True, 3, mode="acceptor")
    with pytest.raises(ModeError):
        verify_equivalence(acc, lambda w: True, 3, mode="decider")
    with pytest.raises(ParameterError):
        verify_equivalence(acc, lambda w: True, 0)
    with pytest.raises(ParameterError):
        verify_equivalence(acc, lambda w: True, 3, mode="oracle")


def test_verify_equivalence_refuses_more_words_than_its_budget(monkeypatch):
    """The word count |Σ| + ... + |Σ|^max_len is checked before anything
    runs, so even a length no run could reach is refused at once."""
    machine = zoo_automaton("pair01")
    oracle = zoo.ORACLES["pair01"]
    assert verify_equivalence(machine, oracle, 3, max_words=14).words_checked == 14
    monkeypatch.setattr(bench, "run_many", None)  # a refused verify never runs a word
    with pytest.raises(ParameterError, match=r"pair01: 14 words to length 3, over the"
                                             r" budget of 13 words"):
        verify_equivalence(machine, oracle, 3, max_words=13)
    with pytest.raises(ParameterError, match=r"8,388,606 words to length 22 already, of"
                                             r" max_len 1000000000, over the budget of 5,000,000"):
        verify_equivalence(machine, oracle, 10**9)
    # the default admits every ternary word to length 13, the idmat sweep's size
    assert sum(3**n for n in range(1, 14)) <= bench.MAX_VERIFY_WORDS


def test_verify_equivalence_names_the_pair01_oracle():
    report = verify_equivalence(zoo_automaton("pair01"), zoo.ORACLES["pair01"], 8)
    assert report.ok and report.oracle == "is_member_pair01"


@pytest.mark.parametrize("choice", ["square", "halfexp"])
def test_verify_equivalence_names_the_witness_oracles(choice):
    oracle = zoo.ORACLES[f"witness-{choice}"]
    assert FAMILIES[f"witness-{choice}"].is_member is oracle
    report = verify_equivalence(zoo_automaton("bin"), oracle, 3)
    assert report.oracle == f"is_member_witness_{choice}"


def test_lex_chunks_pack_consecutive_lengths(monkeypatch):
    """Chunks are full but for the last, and short words share one with
    longer ones, in length and then lexicographic order."""
    monkeypatch.setattr(bench, "VERIFY_CHUNK", 5)
    chunks = list(bench._lex_chunks(("1", "0"), 3))
    assert list(map(len, chunks)) == [5, 5, 4]
    words = ["".join(w) for n in range(1, 4) for w in itertools.product("01", repeat=n)]
    assert list(itertools.chain.from_iterable(chunks)) == words


def test_lex_chunks_hold_a_chunk_not_a_whole_length(monkeypatch):
    """The chunker keeps a chunk, the lengths of at most a chunk's words and
    one length's prefixes, not a whole length: ternary length 9 alone is
    19,683 words, over a megabyte, and the traced peak stays under 256 kB.
    Its words are the words of every length in length and then
    lexicographic order, with lengths 7 to 9 built from prefixes and a
    suffix block."""
    monkeypatch.setattr(bench, "VERIFY_CHUNK", 27)
    tracemalloc.start()
    try:
        sizes = [len(chunk) for chunk in bench._lex_chunks(("2", "0", "1"), 9)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    words = ["".join(w) for n in range(1, 10) for w in itertools.product("012", repeat=n)]
    assert sizes == [27] * (len(words) // 27) + [len(words) % 27]
    chunks = bench._lex_chunks(("2", "0", "1"), 9)
    assert list(itertools.chain.from_iterable(chunks)) == words


@pytest.mark.parametrize("kernel", [True, False])
def test_verify_equivalence_reports_a_word_by_word_loops_mismatches(kernel, monkeypatch):
    """A wrong pairing, the zeros machine against the someone oracle, gives
    the mismatches of a word-by-word loop in the same order, with or
    without a kernel, when one length spans several chunks and one chunk
    several lengths."""
    monkeypatch.setattr(bench, "VERIFY_CHUNK", 7)
    machine = zoo_automaton("zeros")
    if not kernel:
        machine = dataclasses.replace(machine, kernel=None)
    oracle = zoo.is_member_someone
    words = ["".join(w) for n in range(1, 9) for w in itertools.product("01", repeat=n)]
    want = []
    for word in words:
        kind = run_acceptor(machine, word).kind
        if (kind == ACCEPT) != oracle(word):
            want.append((word, kind, oracle(word)))
    report = verify_equivalence(machine, oracle, 8)
    assert report.words_checked == len(words)
    assert report.mismatches == want
    assert len(want) > 100
    decider = zoo_automaton("someone", decider=True)
    if not kernel:
        decider = dataclasses.replace(decider, kernel=None)
    flipped = lambda w: "1" not in w
    want = [(w, run_decider(decider, w).kind, flipped(w)) for w in words]
    assert verify_equivalence(decider, flipped, 8, mode="decider").mismatches == want
