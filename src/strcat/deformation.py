"""Stable endomorphism fields, tangent spaces, and deformation ring reports.

The classification runs in three layers, on a weakly symmetric algebra
(each P(v) is also the injective hull of S(v); ``weakly_symmetric``
certifies it):

1. find the strings whose stable endomorphism ring is the ground field,
   counting stable Hom from canonical homomorphisms and Omega along the
   nodes (``_counted_stable_hom``), with no linear system;
2. count each tangent dimension Ext^1(V, V) = stHom(Omega V, V) the same
   way; ``cli.run_verification`` checks both counts against the linear
   route of ``strcat.homology``;
3. modules with tangent zero get the trivial ring; a tangent-one orbit is
   certified once through a tower of monomorphism/epimorphism pairs whose
   twist maps have prescribed kernels and iterated images, and the
   resulting power-series quotient transports along the syzygy orbit.

Tower hypotheses are rank- and isomorphism-checked, exactly at every
prime.  Each inclusion and projection between strings of the tower is a
canonical map that ``strcat.homology`` finds (``full_cut``) and realizes;
which windows of a word may carry a cut is decided there alone.  Every
tower map, a canonical map or the projective step of
``ae1``, has at most one nonzero entry per row, so the check reads the
maps as index maps: ranks, composites, powers, kernels and images take
no dense product or elimination, and only the closing Hom and Ext^1 of
the top module solve linear systems.  Maximality of the tower is
assumed, not machine-checked, and the trail says so.  Reports are data;
``strcat.cli`` renders them as a table, JSON or CSV.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import arquiver, families, homology, linalg, strings
from .errors import StrcatError
from .quiver_core import Algebra, indecomposable_projective, memoized
# build_family is unused here but stays importable from this module:
# perfbench's tracer test checks that this alias is rebound
from .quiver_core import build_family  # noqa: F401


@dataclass(frozen=True)
class UdrDescriptor:
    """Either the ground field k, or k[[x]] / <x^exponent>, or unresolved."""

    kind: str  # "k" | "power_series_quotient" | "unresolved"
    exponent: int | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.kind == "k":
            return "k"
        if self.kind == "power_series_quotient":
            return f"k[[x]]/(x^{self.exponent})"
        return f"unresolved: {self.reason}"


def trivial_ring() -> UdrDescriptor:
    return UdrDescriptor("k")


def power_series_quotient(exponent: int) -> UdrDescriptor:
    if exponent < 1:
        raise StrcatError("the quotient exponent must be >= 1")
    if exponent == 1:
        return trivial_ring()
    return UdrDescriptor("power_series_quotient", exponent)


def unresolved(reason: str) -> UdrDescriptor:
    return UdrDescriptor("unresolved", reason=reason)


@dataclass
class Tower:
    """Modules V_0 .. V_N with inclusion/surjection pairs between steps."""

    modules: list[homology.Representation]
    inclusions: list[homology.ModuleMap]   # V_{l-1} -> V_l
    surjections: list[homology.ModuleMap]  # V_l -> V_{l-1}
    labels: list[str] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.inclusions)


def check_tower(tower: Tower, module: homology.Representation) -> UdrDescriptor:
    """Verify the tower hypotheses for ``module`` and report the ring.

    Each inclusion must be injective and each surjection surjective; the
    twist map of step l (surject then include) must have kernel the base
    module, and its l-th power must have image the base module.  The last
    module must map to the base through a one dimensional Hom with no
    self-extending room.  Failures come back as data, not exceptions.
    """
    base = tower.modules[0]
    if not homology.is_isomorphic(module, base):
        return unresolved("module is not isomorphic to the tower base")
    for l in range(1, len(tower.modules)):
        inc = tower.inclusions[l - 1]
        sur = tower.surjections[l - 1]
        if not inc.is_injective():
            return unresolved(f"step {l}: inclusion is not injective")
        if not sur.is_surjective():
            return unresolved(f"step {l}: surjection is not surjective")
        try:
            twist = sur.then(inc)
            kernel_ok = homology.is_isomorphic(homology.kernel_of(twist), base)
            image_ok = homology.is_isomorphic(homology.image_of(twist.power(l)), base)
        except StrcatError as exc:
            return unresolved(f"step {l}: {exc}")
        if not kernel_ok:
            return unresolved(f"step {l}: twist kernel is not the base module")
        if not image_ok:
            return unresolved(f"step {l}: iterated twist image is not the base module")
    last = tower.modules[-1]
    if homology.hom_dim(last, base) != 1:
        return unresolved("Hom(top module, base) is not one dimensional")
    if homology.ext1_dim(last, base) != 0:
        return unresolved("Ext^1(top module, base) does not vanish")
    return power_series_quotient(tower.steps + 1)


def build_tower(family: str, m: int, algebra: Algebra) -> Tower:
    """The certification tower for the family's tangent-one representative.

    The family's record names the ladder of strings, joined by canonical
    inclusion/projection pairs (``homology.full_cut``, each the one cut
    that is the whole of the smaller word) and closed by a projective step
    where the record has one.
    """
    fam = families.get(family)
    labels = fam.tower(m)
    words = [strings.named_string(family, m, n) for n in labels]
    modules = [strings.string_module(algebra, w) for w in words]
    inclusions = []
    surjections = []
    for small, big in zip(words, words[1:]):
        inclusions.append(homology.realize_canonical(
            homology.full_cut(algebra, small, big, injective=True)))
        surjections.append(homology.realize_canonical(
            homology.full_cut(algebra, big, small, injective=False)))
    if fam.projective_cap is not None:
        label, inc, sur = fam.projective_cap(algebra, modules[-1])
        modules.append(inc.target)
        inclusions.append(inc)
        surjections.append(sur)
        labels = labels + [label]
    return Tower(modules, inclusions, surjections, labels)


# -- classification ---------------------------------------------------------------


@dataclass(frozen=True)
class UdrReport:
    module: str
    string: str
    stable_endo_dim: int
    ext1_dim: int
    udr: UdrDescriptor
    trail: tuple[str, ...]


@memoized
def weakly_symmetric(algebra: Algebra) -> bool:
    """Certify that every P(v) is also the injective hull I(v) of S(v):
    True, or a StrcatError naming the first vertex where it fails.

    soc P(v) = S(v) embeds P(v) in I(v) = D(A e_v), whose dimension is the
    number of basis paths ending at v, so the two are equal when
    additionally dim P(v), the number of basis paths starting at v, is that
    number.  The socle at each vertex w is the kernel of P(v)_w under all
    the arrows out of w, so its dimension is one rank."""
    quiver = algebra.quiver
    ending = Counter(q.target for q in algebra.basis)
    for v in quiver.vertices:
        P = indecomposable_projective(algebra, v)
        socle = {}
        for w in quiver.vertices:
            out = [P.mats[a.name] for a in quiver.arrows if a.source == w]
            socle[w] = P.dims[w] - (linalg.rank(np.hstack(out), algebra.p) if out else 0)
        if socle != {w: int(w == v) for w in quiver.vertices}:
            raise StrcatError(f"the algebra is not weakly symmetric: soc P({v}) is not S({v})")
        if P.total_dim != ending[v]:
            raise StrcatError(f"the algebra is not weakly symmetric: dim P({v}) = "
                              f"{P.total_dim}, but {ending[v]} basis paths end at {v}")
    return True


def _counted_stable_hom(algebra: Algebra, S: strings.StringWord, T: strings.StringWord,
                        omega_T: strings.StringWord) -> int:
    """dim stHom(M[S], M[T]) over a weakly symmetric algebra, where M[T]
    has syzygy M[omega_T], counted with no linear system and no module.

    Canonical homomorphisms form a basis of Hom between string modules
    (Crawley-Boevey, J. Algebra 126, 1989), and Hom(M, P(v)) = Hom(M,
    I(v)) has dimension dim M_v.  So the exact sequence 0 -> Hom(M, Omega
    N) -> Hom(M, P_N) -> Hom(M, N), whose image is the maps that factor
    through a projective, gives #canon(S, T) - sum of dim M[S]_v over the
    peaks of T at v (``strings.word_peaks``, the top of N = M[T]) +
    #canon(S, omega_T), with dim M[S]_v read off the word S."""
    count = len(homology.canonical_homs(algebra, S, T))
    if not count:
        return 0
    quiver = algebra.quiver
    dims = dict(zip(quiver.vertices, strings.word_dim_vector(quiver, S)))
    verts = strings.word_vertices(quiver, T)
    return (count - sum(dims[verts[i]] for i in strings.word_peaks(T))
            + len(homology.canonical_homs(algebra, S, omega_T)))


@memoized
def classify(algebra: Algebra, family: str, m: int) -> tuple[UdrReport, ...]:
    """Per-module verdicts for every string with stable endomorphism field.

    The algebra must be weakly symmetric (``weakly_symmetric``); then the
    stable endomorphism ring and the tangent Ext^1(V, V) = stHom(Omega V,
    V) of each string are counted by ``_counted_stable_hom``, with Omega
    along the nodes (``arquiver.omega_node``).  Tangent-zero modules get
    the trivial ring outright.  For the tangent-one modules, the family's
    tower certifies one representative and the ring transports along its
    syzygy orbit, which is recorded in the trail; a tower that fails its
    check is named there with the reason it fails.  Every verdict is
    exact: the isomorphism tests take no seed.  The reports live in the
    algebra's memo, so a second call with the same family and m returns
    the same tuple.
    """
    fam = families.get(family)
    named = strings.family_node_names(family, m, algebra.quiver)
    name_of = {w: n for n, w in named}
    nodes = strings.enumerate_strings(algebra)
    if set(nodes) != set(name_of):
        raise StrcatError("named strings disagree with the enumeration")
    weakly_symmetric(algebra)

    omega = {w: nodes[arquiver.omega_node(algebra, i)] for i, w in enumerate(nodes)}
    kept = [(name, w) for name, w in named
            if _counted_stable_hom(algebra, w, w, omega[w]) == 1]
    exts = {name: _counted_stable_hom(algebra, omega[w], w, omega[w]) for name, w in kept}
    tangent_one = [name for name, _ in kept if exts[name] == 1]

    orbit_names: list[str] = []
    tower_desc = None
    tower_label = None
    if tangent_one:
        rep_name = fam.tower(m)[0]
        if rep_name not in tangent_one:
            raise StrcatError(
                f"certification representative {rep_name} has tangent != 1")
        tower = build_tower(family, m, algebra)
        rep_word = strings.named_string(family, m, rep_name)
        tower_desc = check_tower(tower, strings.string_module(algebra, rep_word))
        tower_label = f"tower {' < '.join(tower.labels)} " + (
            f"not certified for {rep_name}: {tower_desc.reason}"
            if tower_desc.kind == "unresolved" else
            f"certified for {rep_name}; maximality assumed, not machine-checked")
        orbit = arquiver.omega_orbit(algebra, rep_word)
        orbit_names = [name_of[w] for w in orbit]

    reports = []
    for name, w in kept:  # the stable endomorphism ring of each is k
        ext = exts[name]
        trail = ["stable_endo_dim=1", f"ext1_dim={ext}"]
        if ext == 0:
            udr = trivial_ring()
            trail.append("tangent space is zero, so the ring is the ground field")
        elif name in orbit_names:
            udr = tower_desc
            trail.append(tower_label)
            if name != orbit_names[0]:
                k = orbit_names.index(name)
                trail.append(
                    f"transported along the syzygy orbit: {name} = Omega^{k} of "
                    f"{orbit_names[0]}, and syzygy preserves the ring")
        else:
            udr = unresolved("tangent-one module outside the certified orbit")
            trail.append("no certification path reached this module")
        trail += fam.notes(m, name)
        reports.append(UdrReport(name, w.literal(), 1, ext, udr, tuple(trail)))
    return tuple(reports)


def expected_classification(family: str, m: int) -> dict[str, tuple[int, UdrDescriptor]]:
    """The closed-form table the computed classification must reproduce."""
    return {name: (ext1, power_series_quotient(exponent))
            for name, (ext1, exponent) in families.get(family).expected(m).items()}


def verify_classification(reports: tuple[UdrReport, ...], family: str, m: int) -> list[str]:
    """Mismatches between computed reports and the closed-form table."""
    expected = expected_classification(family, m)
    got = {r.module: (r.ext1_dim, r.udr) for r in reports}
    problems = []
    if set(got) != set(expected):
        problems.append(f"module set {sorted(got)} != expected {sorted(expected)}")
    for name in sorted(set(got) & set(expected)):
        if got[name] != expected[name]:
            problems.append(f"{name}: computed {got[name]}, expected {expected[name]}")
    return problems
