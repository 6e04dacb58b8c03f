"""Exact on-line (most-significant-digit-first) multiplication and division
in redundant real and complex positional numeration systems."""

from .errors import (
    CertificateError,
    CriterionInapplicableError,
    DomainError,
    FieldMismatchError,
    OlnumError,
    ParseError,
)
from .field import ComplexQuad, RationalInterval, RealQuad
from .numeration import (
    DigitString,
    NumerationSystem,
    ZeroRepVerdict,
    encode_value,
    eval_digits,
    format_digits,
    parse_digits,
    zero_has_nontrivial_rep,
)
from .online_div import DivResult, div_run
from .online_mul import InvariantViolation, mul_run
from .params import ParamSet, div_params, eisenstein_params, mult_params
from .preprocess import (
    PreprocessSpec,
    RewriteRule,
    dmin_lower_bound,
    expand_rules,
    preprocess_divisor,
    verify_rules,
)
from .presets import Preset, load_preset
from .region import (
    ConvexPolygon,
    OLCertificate,
    ParallelogramWitness,
    VerifyResult,
    complex_parallelogram_certificate,
    digit_select,
    real_interval_certificate,
    verify_certificate,
)
from .select import (
    SelectTable,
    Window,
    select_d,
    select_m,
    synthesize_table,
    truncate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
