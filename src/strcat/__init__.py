"""Exact computations in the stable module categories of three families of
symmetric string algebras: string combinatorics, syzygies, stable Hom,
Auslander-Reiten quivers, and universal deformation ring classification."""

from .arquiver import ArQuiver, build_ar_quiver, omega_orbit, to_dot
from .deformation import (
    Tower,
    UdrDescriptor,
    UdrReport,
    build_tower,
    check_tower,
    classify,
    tangent_dim,
)
from .errors import (
    AlgebraMismatch,
    CapTooSmall,
    DimensionBoundExceeded,
    IndexOutOfRange,
    NonTerminating,
    NotAString,
    StrcatError,
    UnknownArrow,
    ZeroModule,
)
from .homology import (
    CanonicalHom,
    ModuleMap,
    Representation,
    canonical_homs,
    ext1_dim,
    hom_basis,
    hom_dim,
    image_of,
    is_isomorphic,
    kernel_of,
    omega_power,
    projective_cover,
    realize_canonical,
    stable_hom_dim,
    syzygy,
)
from .quiver_core import (
    Algebra,
    Arrow,
    Path,
    Quiver,
    RewriteRule,
    ae1,
    ae2,
    ae3,
    build_family,
    complete_rewriting,
    indecomposable_projective,
    load_algebra_spec,
    make_path,
    make_quiver,
    trivial_path,
)
from .strings import (
    Letter,
    StringWord,
    canonical,
    empty_word,
    enumerate_strings,
    is_string,
    named_string,
    parse_string_literal,
    string_module,
    word_vertices,
)

__version__ = "0.1.0"
