"""bdmc: compile backdoor decomposable monotone circuits into CNF encodings
with selectable propagation strength, and certify the result by brute force."""

from .core import (
    BdmcGraph,
    LeafEncoding,
    Node,
    build_graph,
    compute_scopes,
    enumerate_models,
    evaluate,
    leaf_spec,
    make_clause,
    validate,
)
from .dualrail import dual_rail, extended_dual_rail, meta_block
from .encoder import (
    EncodingOutput,
    SizeStats,
    circuit_clauses,
    compile_graph,
    leaf_clauses,
    separator_clauses,
    size_report,
)
from .engine import brute_sat
from .errors import (
    BdmcError,
    BudgetExceededError,
    InputError,
    ParseError,
    PreconditionError,
    StructureError,
)
from .formats import emit_dimacs, parse_bdmc, parse_dimacs, serialize_bdmc
from .propcheck import (
    LeafCertificate,
    StrengthVerdict,
    certify_formula,
    certify_leaf,
    check_encoding,
    check_strength,
    gen_random,
)
from .transform import (
    SeparatorCover,
    is_layered,
    level,
    separator_cover,
    smooth,
)

__version__ = "0.1.0"
