"""Desk-scale commutative unital C*-algebras, computably.

Two concrete models (functions on a finite space, the algebra generated by
one normal matrix), their characters and Gelfand transform, spectral
calculus through honest truncated series, the contravariant functors to
and from finite spaces with verified naturality, and the ideal/quotient
correspondence with its Zariski topology.
"""

from .algebra import (
    AlgebraElement,
    CommutativeAlgebra,
    FunctionAlgebra,
    NormalGeneratorAlgebra,
    StarHomomorphism,
    make_function_algebra,
    make_normal_generator_algebra,
    make_star_homomorphism,
    restriction_homomorphism,
)
from .duality import (
    CheckRecord,
    EquivalenceReport,
    functor_F_morphism,
    functor_F_object,
    functor_G_morphism,
    functor_G_object,
    mu,
    tau,
    verify_equivalence,
    verify_naturality_mu,
    verify_naturality_tau,
)
from .errors import (
    AlgebraMismatch,
    CstarError,
    DecompositionFailure,
    DomainError,
    DualityViolation,
    ImproperIdeal,
    InvalidDocument,
    InvalidPointMap,
    InvalidSpace,
    InvalidSubset,
    NonFinite,
    NormTooLarge,
    NotACharacter,
    NotContained,
    NotInvertible,
    NotNormal,
    Overflow,
    PerturbationTooLarge,
    SpaceMismatch,
    SpectrumHit,
    Unconverged,
)
from .gelfand import (
    Character,
    CharacterSpace,
    characters,
    evaluate_character,
    gelfand_inverse,
    gelfand_transform,
    transform_target,
)
from .ideals import (
    Ideal,
    MaximalIdeal,
    QuotientAlgebra,
    closed_set_from_ideal,
    factor_through_quotient,
    ideal_from_closed_set,
    kernel_ideal,
    max_ideals,
    quotient,
    unit_ideal,
    zariski_V,
    zero_ideal,
)
from .interchange import dump_element, load_document, load_path
from .spaces import ContinuousMap, FiniteSpace
from .spectra import SpectrumSet, dedup_points, hausdorff_distance
from .spectral import (
    ClassificationReport,
    NeumannReport,
    RadiusEstimate,
    apply_function,
    apply_polynomial,
    classify_element,
    inversion_delta,
    invert,
    invertibility_tolerance,
    is_invertible,
    neumann_inverse,
    operator_norm,
    perturbation_inverse,
    resolvent,
    spectral_radius_exact,
    spectral_radius_limit,
    spectrum,
)

__version__ = "0.1.0"
