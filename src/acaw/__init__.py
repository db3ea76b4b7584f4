"""Cellular automata that accept by unanimity, and tooling around them.

The engine runs radius-1 automata whose input is accepted at the first
configuration where every active cell holds an accept state (and, for
deciders, rejected at the first all-reject configuration).  On top of it:
a zoo of reference machines, compilers from sliding-window language tests,
an algebraic decision procedure for local testability, word-surgery tools
that preserve short-range structure, and a benchmarking harness for
certifying growth bounds on decision times.
"""

from .core import (
    ACCEPT,
    INACTIVE,
    REJECT,
    TIMEOUT,
    AcawError,
    AlphabetError,
    Automaton,
    BudgetError,
    EmptyInputError,
    ModeError,
    ParameterError,
    Trace,
    Verdict,
    classify,
    configurations,
    default_max_steps,
    global_step,
    initial_configuration,
    leftmost_open,
    render_configuration,
    run_acceptor,
    run_decider,
    run_many,
    set_automaton,
    validate,
)
from .rulefile import (
    RuleFileError,
    load_rule_table,
    parse_rule_table,
    save_rule_table,
    serialize_rules,
)
from .words import (
    ContractionReport,
    Profile,
    critical_contract,
    debruijn_contract,
    infix_set,
    lemma1_hypothesis,
    lemma7_hypothesis,
    prefix_of,
    profile,
    suffix_of,
)
from .zoo import (
    FAMILIES,
    ORACLES,
    TABLE_SOURCES,
    WordFamily,
    ZOO,
    witness_word,
    zoo_automaton,
)
from .localtests import (
    LTExpression,
    ProfileTable,
    Scanner,
    aca_to_daca,
    aca_union,
    compile_lt_to_daca,
    compile_slt_union_to_aca,
    daca_complement,
    load_lt_expression,
    load_scanner,
    lt_and,
    lt_eval,
    lt_not,
    lt_or,
    lt_profile_table,
    lt_scanner,
    parse_lt_expression,
    parse_scanner,
    scanner_accepts,
    tabulate_by_observation,
)
from .semigroups import (
    Dfa,
    Semigroup,
    dfa_accepts,
    idempotents,
    is_locally_semilattice,
    is_locally_testable,
    load_dfa,
    minimize,
    parse_dfa,
    syntactic_semigroup,
)
from .bench import (
    BenchRow,
    FitReport,
    VerifyReport,
    fit_bound,
    measure_time_curve,
    read_rows,
    verify_equivalence,
    write_rows,
)

__version__ = "0.1.0"
