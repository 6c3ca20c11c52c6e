"""String rewriting toolkit for monoid presentations.

Parsing and validation of presentations, rewriting and normal forms,
zigzag path algebra, critical branchings and convergence certification,
Knuth-Bendix completion, decomposition of closed paths over the basis of
generating-confluence loops, and transport of generating families between
presentations of the same monoid.
"""

from .errors import (
    BoundaryError,
    DisjointnessError,
    FuelError,
    MatchError,
    NotConvergentError,
    NotTerminatingError,
    ParseError,
    RewritingError,
    TranslationError,
    UnorientableError,
)
from .presentation import (
    EMPTY,
    EQUAL,
    GREATER,
    LESS,
    OrderSpec,
    Presentation,
    Rule,
    Word,
    compare_words,
    format_word,
    parse_presentation,
    parse_word,
    print_presentation,
)
from .rewrite import (
    DEFAULT_FUEL,
    Path,
    Redex,
    RewriteStep,
    TerminationCertificate,
    apply_step,
    check_termination,
    find_redexes,
    normal_form,
    normal_path,
    normalize,
)
from .track import (
    compose,
    conjugate,
    exchange_swap,
    format_path,
    free_reduce,
    invert,
    parse_path,
    whisker,
)
from .critical import (
    BranchingFailure,
    BruteForceReport,
    ConvergenceCertificate,
    CriticalBranching,
    GeneratingConfluence,
    LocalConfluenceReport,
    brute_force_confluence,
    critical_branchings,
    generating_confluence,
    is_convergent,
    is_locally_confluent,
    words_equal,
    words_up_to,
)
from .completion import (
    CompletionEvent,
    CongruenceReport,
    DEFAULT_RULE_FUEL,
    knuth_bendix,
    same_congruence,
)
from .abelian import (
    BasisLoop,
    CertificateEntry,
    CertificateReport,
    DecompositionCertificate,
    Footprint,
    PiElement,
    act_footprint,
    basis_loops,
    context_act,
    decompose_loop,
    decompose_step,
    footprint,
    pi_footprint,
    verify_certificate,
)
from .transport import (
    TranslationMap,
    TranslationReport,
    check_translation,
    comparison_loop,
    comparison_path,
    functor_image,
    parse_translation_map,
    rule_comparison_loop,
    translate_word,
    transported_generators,
)

__version__ = "0.1.0"
