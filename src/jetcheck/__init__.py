"""jetcheck: exact jet arithmetic and a verifier for derivative identities.

The package evaluates both sides of a family of higher-order derivative
identities for user-supplied functions, orders, and points, using exact
rational truncated-Taylor (jet) arithmetic.  The test suite cross-checks the
jets against an independent symbolic-differentiation route
(``tests/oracles.py``).
"""

from .numeric import (
    DomainError,
    ModeError,
    MultiIndex,
    Scalar,
    compositions,
    generalized_binomial,
    multinomial,
)
from .jets import Jet
from .exprs import (
    Add,
    Apply,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    PowInt,
    PowReal,
    Sub,
    Var,
    X,
    eval_jet,
    eval_scalar,
    to_text,
)
from .parsing import ParseError, parse
from .identities import (
    IDENTITIES,
    SweepConfig,
    SweepSummary,
    TheoremInstance,
    VerificationReport,
    baran_verify,
    corollary2_verify,
    exp_family_check,
    leibniz_product_verify,
    power_family_check,
    sweep,
    symmetric_pair_verify,
    theorem1_verify,
    zero_power_lemma_check,
)

__version__ = "0.1.0"

__all__ = [
    "Add", "Apply", "Const", "Div", "DomainError", "Expr", "IDENTITIES",
    "Jet", "ModeError", "Mul", "MultiIndex", "Neg", "ParseError", "PowInt",
    "PowReal", "Scalar", "Sub", "SweepConfig", "SweepSummary",
    "TheoremInstance", "Var", "VerificationReport", "X",
    "baran_verify", "compositions", "corollary2_verify", "eval_jet",
    "eval_scalar", "exp_family_check", "generalized_binomial",
    "leibniz_product_verify", "multinomial", "parse",
    "power_family_check", "sweep", "symmetric_pair_verify",
    "theorem1_verify", "to_text", "zero_power_lemma_check",
]
