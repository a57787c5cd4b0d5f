"""Stable endomorphism fields, tangent spaces, and deformation ring reports.

The classification runs in three layers:

1. find the strings whose stable endomorphism ring is the ground field;
2. compute each tangent dimension as a self-extension dimension;
3. modules with tangent zero get the trivial ring; a tangent-one orbit is
   certified once through a tower of monomorphism/epimorphism pairs whose
   twist maps have prescribed kernels and iterated images, and the
   resulting power-series quotient transports along the syzygy orbit.

Tower hypotheses are rank- and isomorphism-checked; maximality of the
tower is assumed, not machine-checked, and the trail says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import arquiver, families, homology, strings
from .errors import NoSequenceFound, StrcatError
from .quiver_core import Algebra, build_family, indecomposable_projective


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

    def to_json(self) -> dict:
        if self.kind == "power_series_quotient":
            return {"kind": self.kind, "exponent": self.exponent}
        if self.kind == "unresolved":
            return {"kind": self.kind, "reason": self.reason}
        return {"kind": "k"}


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


def check_tower(tower: Tower, module: homology.Representation,
                seed: int = 0) -> UdrDescriptor:
    """Verify the tower hypotheses for ``module`` and report the ring.

    Each inclusion must be injective and each surjection surjective; the
    twist map of step l (surject then include) must have kernel the base
    module, and its l-th power must have image the base module.  The last
    module must map to the base through a one dimensional Hom with no
    self-extending room.  Failures come back as data, not exceptions.
    """
    base = tower.modules[0]
    if not homology.is_isomorphic(module, base, seed=seed):
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
            kernel_ok = homology.is_isomorphic(homology.kernel_of(twist), base,
                                               seed=seed + l)
            image_ok = homology.is_isomorphic(
                homology.image_of(twist.power(l)), base, seed=seed + 100 + l)
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


def _natural_inclusion(algebra: Algebra, small: strings.StringWord,
                       big: strings.StringWord) -> homology.ModuleMap:
    """The unique injective canonical homomorphism M[small] -> M[big]."""
    maps = [homology.realize_canonical(ch)
            for ch in homology.canonical_homs(algebra, small, big)]
    injective = [f for f in maps if f.is_injective()]
    if len(injective) != 1:
        raise StrcatError(
            f"expected one canonical inclusion {small} -> {big}, found {len(injective)}")
    return injective[0]


def _natural_surjection(algebra: Algebra, big: strings.StringWord,
                        small: strings.StringWord) -> homology.ModuleMap:
    maps = [homology.realize_canonical(ch)
            for ch in homology.canonical_homs(algebra, big, small)]
    surjective = [f for f in maps if f.is_surjective()]
    if len(surjective) != 1:
        raise StrcatError(
            f"expected one canonical projection {big} -> {small}, found {len(surjective)}")
    return surjective[0]


def build_tower(family: str, m: int, mode: str = "explicit",
                algebra: Algebra | None = None, seed: int = 0) -> Tower:
    """The certification tower for the family's tangent-one representative.

    Explicit mode lays down the ladder of the family's record, closed by a
    projective step where the record has one.  Auto mode greedily
    extends by one base-dimension at a time through strings (canonical
    inclusion/projection pairs) and projectives (generic rank search),
    keeping only steps whose twist maps pass the kernel and image tests.
    """
    fam = families.get(family)
    if algebra is None:
        algebra = build_family(family, m)
    if mode == "explicit":
        labels = fam.tower(m)
        words = [strings.named_string(family, m, n) for n in labels]
        modules = [strings.string_module(algebra, w) for w in words]
        inclusions = []
        surjections = []
        for small, big in zip(words, words[1:]):
            inclusions.append(_natural_inclusion(algebra, small, big))
            surjections.append(_natural_surjection(algebra, big, small))
        if fam.projective_cap is not None:
            label, inc, sur = fam.projective_cap(algebra, modules[-1])
            modules.append(inc.target)
            inclusions.append(inc)
            surjections.append(sur)
            labels = labels + [label]
        return Tower(modules, inclusions, surjections, labels)
    if mode != "auto":
        raise StrcatError("mode must be 'explicit' or 'auto'")
    start = strings.named_string(family, m, fam.tower(m)[0])
    return auto_tower(algebra, start, seed=seed)


def _generic_map_of_rank(maps: list[homology.ModuleMap], want_rank: int,
                         p: int, seed: int, tries: int = 30):
    if not maps:
        return None
    rng = np.random.default_rng(seed)
    for f in maps:
        if f.rank() == want_rank:
            return f
    src, tgt = maps[0].source, maps[0].target
    for _ in range(tries):
        coeffs = rng.integers(0, p, size=len(maps))
        blocks = {v: sum(int(c) * f.blocks[v] for c, f in zip(coeffs, maps)) % p
                  for v in src.dims}
        cand = homology.ModuleMap(src, tgt, blocks, check=False)
        if cand.rank() == want_rank:
            return cand
    return None


def auto_tower(algebra: Algebra, base_word: strings.StringWord,
               seed: int = 0) -> Tower:
    """Greedy tower search from a base string; raises NoSequenceFound."""
    quiver = algebra.quiver
    base_word = strings.canonical(base_word, quiver)
    base = strings.string_module(algebra, base_word)
    step = base.total_dim
    nodes = strings.enumerate_strings(algebra)
    string_pool = [(w.literal(), strings.string_module(algebra, w), w)
                   for w in nodes]
    proj_pool = [(f"P({v})", indecomposable_projective(algebra, v), None)
                 for v in quiver.vertices]
    modules = [base]
    labels = [base_word.literal()]
    words: list[strings.StringWord | None] = [base_word]
    inclusions: list[homology.ModuleMap] = []
    surjections: list[homology.ModuleMap] = []
    while True:
        current = modules[-1]
        l = len(modules)
        found = None
        for label, cand, word in string_pool + proj_pool:
            if cand.total_dim != current.total_dim + step:
                continue
            prev_word = words[-1]
            if word is not None and prev_word is not None:
                try:
                    inc = _natural_inclusion(algebra, prev_word, word)
                    sur = _natural_surjection(algebra, word, prev_word)
                except StrcatError:
                    continue
            else:
                p = algebra.p
                inc = _generic_map_of_rank(homology.hom_basis(current, cand),
                                           current.total_dim, p, seed + 7 * l)
                sur = _generic_map_of_rank(homology.hom_basis(cand, current),
                                           current.total_dim, p, seed + 7 * l + 3)
                if inc is None or sur is None:
                    continue
            twist = sur.then(inc)
            if not homology.is_isomorphic(homology.kernel_of(twist), base,
                                          seed=seed + l):
                continue
            if not homology.is_isomorphic(homology.image_of(twist.power(l)), base,
                                          seed=seed + 50 + l):
                continue
            found = (label, cand, word, inc, sur)
            break
        if found is None:
            break
        label, cand, word, inc, sur = found
        modules.append(cand)
        labels.append(label)
        words.append(word)
        inclusions.append(inc)
        surjections.append(sur)
    tower = Tower(modules, inclusions, surjections, labels)
    if homology.hom_dim(modules[-1], base) != 1 or homology.ext1_dim(modules[-1], base) != 0:
        raise NoSequenceFound(
            "greedy search stalled before the closing Hom/Ext conditions held")
    return tower


# -- classification ---------------------------------------------------------------


@dataclass
class UdrReport:
    module: str
    string: str
    stable_endo_dim: int
    ext1_dim: int
    udr: UdrDescriptor
    trail: list[str]

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "string": self.string,
            "stable_endo_dim": self.stable_endo_dim,
            "ext1_dim": self.ext1_dim,
            "udr": self.udr.to_json(),
            "trail": list(self.trail),
        }


def stable_endo_field_modules(algebra: Algebra,
                              length_cap: int | None = None) -> list[strings.StringWord]:
    """Strings whose stable endomorphism ring is one dimensional."""
    out = []
    for w in strings.enumerate_strings(algebra, length_cap):
        rep = strings.string_module(algebra, w)
        if homology.stable_hom_dim(rep, rep) == 1:
            out.append(w)
    return out


def tangent_dim(algebra: Algebra, M: homology.Representation) -> int:
    """Dimension of the deformation tangent space: self-extensions."""
    return homology.ext1_dim(M, M)


def classify(algebra: Algebra, family: str, m: int, seed: int = 0) -> list[UdrReport]:
    """Per-module verdicts for every string with stable endomorphism field.

    Tangent-zero modules get the trivial ring outright.  For the
    tangent-one modules, the family's tower certifies one representative
    and the ring transports along its syzygy orbit, which is recorded in
    the trail.
    """
    fam = families.get(family)
    named = strings.family_node_names(family, m, algebra.quiver)
    name_of = {w: n for n, w in named}
    enumerated = set(strings.enumerate_strings(algebra))
    if enumerated != set(name_of):
        raise StrcatError("named strings disagree with the enumeration")

    kept: list[tuple[str, strings.StringWord, homology.Representation, int]] = []
    for name, w in named:
        rep = strings.string_module(algebra, w)
        sed = homology.stable_hom_dim(rep, rep)
        if sed == 1:
            kept.append((name, w, rep, sed))

    exts = {name: tangent_dim(algebra, rep) for name, _, rep, _ in kept}
    tangent_one = [name for name, _, _, _ in kept if exts[name] == 1]

    orbit_names: list[str] = []
    tower_desc = None
    tower_label = None
    if tangent_one:
        rep_name = fam.tower(m)[0]
        if rep_name not in tangent_one:
            raise StrcatError(
                f"certification representative {rep_name} has tangent != 1")
        tower = build_tower(family, m, "explicit", algebra=algebra, seed=seed)
        rep_word = strings.named_string(family, m, rep_name)
        tower_desc = check_tower(tower, strings.string_module(algebra, rep_word),
                                 seed=seed)
        tower_label = (f"tower {' < '.join(tower.labels)} certified for {rep_name}; "
                       "maximality assumed, not machine-checked")
        orbit = arquiver.omega_orbit(algebra, rep_word, seed=seed)
        orbit_names = [name_of[w] for w in orbit]

    reports = []
    for name, w, rep, sed in kept:
        ext = exts[name]
        trail = [f"stable_endo_dim={sed}", f"ext1_dim={ext}"]
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
        reports.append(UdrReport(name, w.literal(), sed, ext, udr, trail))
    return reports


def expected_classification(family: str, m: int) -> dict[str, tuple[int, UdrDescriptor]]:
    """The closed-form table the computed classification must reproduce."""
    return {name: (ext1, power_series_quotient(exponent))
            for name, (ext1, exponent) in families.get(family).expected(m).items()}


def verify_classification(reports: list[UdrReport], family: str, m: int) -> list[str]:
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


def reports_to_json(reports: list[UdrReport]) -> list[dict]:
    return [r.to_json() for r in reports]


CSV_COLUMNS = ["module", "string", "stable_endo_dim", "ext1_dim",
               "udr_kind", "udr_exponent", "trail"]


def report_csv_row(r: UdrReport) -> list:
    return [r.module, r.string, r.stable_endo_dim, r.ext1_dim,
            r.udr.kind, "" if r.udr.exponent is None else r.udr.exponent,
            "; ".join(r.trail)]
