"""Exact linear algebra for two-dimensional complex tori.

Computes endomorphism rings with structure constants, classifies
endomorphism algebras, computes Neron-Severi lattices of hermitian
forms, and searches for polarizations, all over declared algebraic
number fields with certified interval embeddings.
"""

from .errors import *  # noqa: F401,F403
from .exactfield import (  # noqa: F401
    ComplexBox,
    FieldElement,
    GeneratorSpec,
    NumberField,
    embed,
    exact_sign,
    sqrt_element,
    union_field,
)
