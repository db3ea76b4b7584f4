"""From window tests to machines and back: a tour of the compilers.

A language is locally testable when membership only depends on which length-k
windows a word shows at its ends and interior.  The tour builds such tests,
compiles them to cellular machines that settle in a constant number of steps,
combines them, and finally classifies languages given as DFAs, where local
testability is decidable from the syntactic semigroup.
"""

from acaw import (
    Dfa,
    Scanner,
    compile_lt_to_daca,
    compile_slt_union_to_aca,
    daca_complement,
    is_locally_testable,
    lt_not,
    lt_scanner,
    run_acceptor,
    run_decider,
    syntactic_semigroup,
    verify_equivalence,
)

BITS = ("0", "1")


def main():
    # one window test: words that look like 01 repeated
    pair01 = Scanner(
        k=2, alphabet=BITS,
        pi=frozenset({"01"}), sigma=frozenset({"01"}), mu=frozenset({"01", "10"}),
        name="pair01",
    )
    acceptor = compile_slt_union_to_aca([pair01])
    print(f"compiled acceptor settles within {acceptor.time_bound} steps")
    for word in ("01", "010101", "0110"):
        verdict = run_acceptor(acceptor, word)
        print(f"  {word}: {verdict.kind}")

    # negation needs the decider compiler: one checkpoint per set of leaves,
    # 2^m in all for m distinct leaves
    all0 = Scanner(
        k=1, alphabet=BITS,
        pi=frozenset({"0"}), sigma=frozenset({"0"}), mu=frozenset({"0"}),
        name="all0",
    )
    someone = compile_lt_to_daca(lt_not(lt_scanner(all0)))
    print(f"\nsomeone decider settles within {someone.time_bound} steps")
    for word in ("0000", "0100"):
        verdict = run_decider(someone, word)
        print(f"  {word}: {verdict.kind} at step {verdict.steps}")

    # complementing a decider is just swapping its two verdict faces
    nobody = daca_complement(someone)
    report = verify_equivalence(
        nobody, lambda w: set(w) == {"0"}, 10, mode="decider"
    )
    print(f"\ncomplement agrees with the all-zero predicate: {report.ok}"
          f" ({report.words_checked} words)")

    # the algebraic test: parity of 1s is regular but not locally testable
    parity = Dfa(
        "parity", BITS, ("e", "o"), "e", frozenset({"o"}),
        {("e", "0"): "e", ("e", "1"): "o", ("o", "0"): "o", ("o", "1"): "e"},
    )
    semigroup = syntactic_semigroup(parity)
    ok, witness = is_locally_testable(parity)
    print(f"\nparity syntactic semigroup has {len(semigroup)} elements")
    print(f"locally testable: {ok}, witness {witness}")
    # the witness reads: around the idempotent word e, the word x acts
    # non-idempotently (or x and y fail to commute), so no window test
    # of any width can capture the language


if __name__ == "__main__":
    main()
