"""Nominal rewriting toolkit.

Terms with atoms, unknowns and suspensions; alpha-equivalence and freshness
under freshness contexts; nominal matching; general and closed rewriting;
and an equality decision procedure for convergent closed theories.
"""

from .terms import (
    Abstraction,
    App,
    Atom,
    AtomTerm,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    Term,
    Unknown,
    act,
    atoms_of,
    substitute,
    subterms,
    swap,
    term_depth,
    term_size,
    unknowns_of,
    var,
    ID,
    EMPTY_SUBST,
    NominalError,
    SignatureError,
)
from .alpha import (
    Derivation,
    FreshnessContext,
    EMPTY_CTX,
    alpha_holds,
    alpha_key,
    check_alpha,
    check_fresh,
    fresh_holds,
    verify_derivation,
)
from .matching import (
    MatchProblem,
    MatchProblemError,
    MatchSolution,
    is_solution,
    solve_match,
)
from .rewrite import (
    MAX_SUPPORT,
    NormalizeResult,
    ReachableSet,
    RewriteRule,
    RewriteStep,
    RuleError,
    SearchResult,
    StepResults,
    Theory,
    normalize_general,
    path_str,
    replay_step,
    rewrite_closure_reachable,
    rewrite_step_general,
    symmetric_search,
)
from .closed import (
    ClosednessResult,
    Decision,
    NotClosedError,
    PAIR_FORMER,
    closed_normalize,
    closed_reachable,
    closed_rewrite_step,
    decide_equal,
    freshen_rule,
    is_closed,
    is_closed_rule,
    scrub,
)
