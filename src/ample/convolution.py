"""Exact-rational convolution algebra of a finite groupoid.

Coefficients are fractions.Fraction throughout: every identity checked
here is exact, and a tolerance would only mask bugs.  The algebra of a
finite groupoid is already unital (the indicator of the unit space), so
the adjoined unit of the tightness identity is modeled by that indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .bitsets import iter_bits
from .errors import CheckFailed, EmptySpectrum, GroupoidMismatch
from .germs import GermGroupoidModel, build_germ_model
from .groupoids import FiniteGroupoid
from .semigroups import FiniteInverseSemigroup, idempotent_semilattice

# Largest cover --audit-covers adds to the minimal ones.
AUDIT_COVER_SIZE = 4


class AlgebraElement:
    """A finitely supported rational function on arrows under convolution."""

    __slots__ = ("groupoid", "coeffs")

    def __init__(self, groupoid: FiniteGroupoid, coeffs=None):
        data: dict[int, Fraction] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for arrow, value in items:
                v = Fraction(value)
                if v:
                    acc = data.get(arrow, 0) + v
                    if acc:
                        data[arrow] = acc
                    else:
                        data.pop(arrow, None)
        self.groupoid = groupoid
        self.coeffs = data

    @classmethod
    def zero(cls, groupoid: FiniteGroupoid) -> "AlgebraElement":
        return cls(groupoid)

    @classmethod
    def indicator(cls, groupoid: FiniteGroupoid, mask: int) -> "AlgebraElement":
        return cls(groupoid, {a: Fraction(1) for a in iter_bits(mask)})

    @classmethod
    def unit(cls, groupoid: FiniteGroupoid) -> "AlgebraElement":
        """Indicator of the whole unit space: the algebra unit."""
        return cls.indicator(groupoid, groupoid.units_mask)

    def _check_same(self, other: "AlgebraElement") -> None:
        if self.groupoid is not other.groupoid:
            raise GroupoidMismatch("operands live over different groupoids")

    def support_mask(self) -> int:
        mask = 0
        for a in self.coeffs:
            mask |= 1 << a
        return mask

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            acc = out.get(a, 0) + v
            if acc:
                out[a] = acc
            else:
                out.pop(a, None)
        res = AlgebraElement(self.groupoid)
        res.coeffs = out
        return res

    def __neg__(self) -> "AlgebraElement":
        res = AlgebraElement(self.groupoid)
        res.coeffs = {a: -v for a, v in self.coeffs.items()}
        return res

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution: (f g)(gamma) = sum of f(alpha) g(beta) over alpha beta = gamma."""
        self._check_same(other)
        compose = self.groupoid.compose
        out: dict[int, Fraction] = {}
        if len(self.coeffs) * len(other.coeffs) <= len(compose):
            for a, fa in self.coeffs.items():
                for b, gb in other.coeffs.items():
                    c = compose.get((a, b))
                    if c is not None:
                        out[c] = out.get(c, 0) + fa * gb
        else:
            for (a, b), c in compose.items():
                fa = self.coeffs.get(a)
                if fa:
                    gb = other.coeffs.get(b)
                    if gb:
                        out[c] = out.get(c, 0) + fa * gb
        res = AlgebraElement(self.groupoid)
        res.coeffs = {a: v for a, v in out.items() if v}
        return res

    def star(self) -> "AlgebraElement":
        """f*(gamma) = f(gamma^{-1}); coefficients are rational, so no conjugation."""
        res = AlgebraElement(self.groupoid)
        res.coeffs = {self.groupoid.inverse[a]: v for a, v in self.coeffs.items()}
        return res

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.groupoid is other.groupoid and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(
            (id(self.groupoid), frozenset(self.coeffs.items()))
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "AlgebraElement(0)"
        terms = " + ".join(
            f"{v}*[{self.groupoid.arrows[a]}]" for a, v in sorted(self.coeffs.items())
        )
        return f"AlgebraElement({terms})"


def rho(G: FiniteGroupoid, mask: int) -> AlgebraElement:
    """The indicator representation: a bisection to its characteristic function."""
    return AlgebraElement.indicator(G, mask)


def sup(p: AlgebraElement, q: AlgebraElement) -> AlgebraElement:
    """Join of commuting idempotents: p + q - pq."""
    return p + q - p * q


def sup_all(groupoid: FiniteGroupoid, items: Iterable[AlgebraElement]) -> AlgebraElement:
    acc = AlgebraElement.zero(groupoid)
    for item in items:
        acc = sup(acc, item)
    return acc


def _minimal_covers(isect: Sequence[int], fplus: int) -> tuple[int, ...]:
    """Minimal Z inside F+ meeting every member of F+, as position masks.

    Branches on the lowest uncovered member, so every minimal cover is
    reached; non-minimal byproducts are filtered afterwards, smallest first,
    against the covers already kept (a non-minimal cover contains a
    minimal one, which has fewer members).
    """
    if fplus == 0:
        return (0,)
    found: set[int] = set()

    def rec(zmask: int, uncovered: int) -> None:
        if not uncovered:
            found.add(zmask)
            return
        f = (uncovered & -uncovered).bit_length() - 1
        for z in iter_bits(isect[f] & fplus):
            rec(zmask | 1 << z, uncovered & ~isect[z])

    rec(0, fplus)
    kept: list[int] = []
    for z in sorted(found, key=int.bit_count):
        if not any(o & z == o for o in kept):
            kept.append(z)
    return tuple(sorted(kept))


def _all_covers_upto(isect: Sequence[int], fplus: int, max_size: int) -> list[int]:
    """Every cover of F+ of at most max_size members (audit mode)."""
    members = list(iter_bits(fplus))
    out = []
    for k in range(0, min(max_size, len(members)) + 1):
        for combo in combinations(members, k):
            zmask = 0
            for z in combo:
                zmask |= 1 << z
            if all(isect[f] & zmask for f in members):
                out.append(zmask)
    return out


@dataclass
class TightRepresentationReport:
    """Representation laws plus the cover-sup identity, with witnesses."""

    multiplicativity: bool
    star_compatible: bool
    zero_preserved: bool
    tightness_witnesses: list[tuple[str | None, tuple[str, ...], tuple[str, ...]]]
    instances_checked: int = 0
    covers_checked: int = 0
    failure_witness: str | None = None

    @property
    def passed(self) -> bool:
        return (
            self.multiplicativity
            and self.star_compatible
            and self.zero_preserved
            and not self.tightness_witnesses
        )

    def lines(self) -> list[str]:
        out = [
            f"multiplicativity: {'pass' if self.multiplicativity else 'fail'}",
            f"star: {'pass' if self.star_compatible else 'fail'}",
            f"zero: {'pass' if self.zero_preserved else 'fail'}",
            f"tightness: {'pass' if not self.tightness_witnesses else 'fail'}"
            f" (instances={self.instances_checked} covers={self.covers_checked})",
        ]
        for x, ys, zs in self.tightness_witnesses:
            out.append(
                f"  violated at X={{{x or ''}}} Y={{{','.join(ys)}}} Z={{{','.join(zs)}}}"
            )
        if self.failure_witness:
            out.append(f"  witness: {self.failure_witness}")
        return out

    def require(self) -> None:
        if not self.passed:
            raise CheckFailed(self.failure_witness or "representation check failed")


def check_tight_representation(
    pi: Mapping[int, AlgebraElement] | Sequence[AlgebraElement],
    S: FiniteInverseSemigroup,
    audit_covers: bool = False,
) -> TightRepresentationReport:
    """Verify that pi is a tight representation of S.

    pi maps every element index to an element of the convolution algebra
    of one groupoid, whose unit serves as the adjoined unit.
    Multiplicativity, star-compatibility and pi(0) = 0 are checked first;
    images of idempotents must be commuting idempotents (violations raise
    CheckFailed since the cover-sup identity is not even well posed
    without them).

    The identity itself is checked with X reduced to one idempotent or
    nothing, Y over antichains of nonzero idempotents, and Z over minimal
    covers of E^{X,Y}: multiplicativity collapses the general X and Y to
    these, and monotonicity of the projection join does the same for
    non-minimal covers.  ``audit_covers`` additionally checks every cover
    of at most AUDIT_COVER_SIZE members.
    """
    values = {s: pi[s] for s in range(len(S))}
    unit = AlgebraElement.unit(values[S.zero].groupoid)
    zero_val = unit - unit

    mult_ok = True
    star_ok = True
    witness = None
    for a in range(len(S)):
        for b in range(len(S)):
            if values[S.table[a][b]] != values[a] * values[b]:
                mult_ok = False
                witness = f"pi({S.elements[a]} {S.elements[b]}) != pi({S.elements[a]}) pi({S.elements[b]})"
                break
        if not mult_ok:
            break
    for a in range(len(S)):
        if values[S.star[a]] != values[a].star():
            star_ok = False
            witness = witness or f"pi({S.elements[a]}*) != pi({S.elements[a]})*"
            break
    zero_ok = values[S.zero] == zero_val
    if not zero_ok:
        witness = witness or "pi(0) != 0"

    E = idempotent_semilattice(S)
    for e in E.carrier:
        ve = values[e]
        if ve * ve != ve:
            raise CheckFailed(f"pi({S.elements[e]}) is not idempotent")
    for e in E.carrier:
        for f in E.carrier:
            if values[e] * values[f] != values[f] * values[e]:
                raise CheckFailed(
                    f"pi({S.elements[e]}) and pi({S.elements[f]}) do not commute"
                )

    m = len(E)
    val = [values[e] for e in E.carrier]
    one_minus = [unit - v for v in val]
    down = E.down_masks
    orth = E.orth_masks
    isect = E.intersect_masks
    nonzero = E.nonzero_mask
    full = E.full_mask

    witnesses: list[tuple[str | None, tuple[str, ...], tuple[str, ...]]] = []
    counters = {"instances": 0, "covers": 0}
    cover_cache: dict[int, tuple[int, ...]] = {}
    sup_cache: dict[int, AlgebraElement] = {0: zero_val}

    def sup_of(zmask: int) -> AlgebraElement:
        cached = sup_cache.get(zmask)
        if cached is None:
            low = zmask & -zmask
            p = low.bit_length() - 1
            rest = sup_of(zmask ^ low)
            cached = sup(val[p], rest)
            sup_cache[zmask] = cached
        return cached

    def names_of(mask: int) -> tuple[str, ...]:
        return tuple(S.elements[E.carrier[p]] for p in iter_bits(mask))

    def check_instance(x: int | None, y_mask: int, exy: int, rhs: AlgebraElement):
        counters["instances"] += 1
        fplus = exy & nonzero
        covers = cover_cache.get(fplus)
        if covers is None:
            covers = _minimal_covers(isect, fplus)
            cover_cache[fplus] = covers
        if audit_covers:
            covers = tuple(
                sorted(set(covers) | set(_all_covers_upto(isect, fplus, AUDIT_COVER_SIZE)))
            )
        x_name = None if x is None else S.elements[E.carrier[x]]
        for zmask in covers:
            counters["covers"] += 1
            if sup_of(zmask) != rhs:
                witnesses.append((x_name, names_of(y_mask), names_of(zmask)))

    candidates = [q for q in range(m) if q != E.zero_pos]

    def scan(start: int, y_mask: int, exy: int, blocked: int, rhs: AlgebraElement, x):
        check_instance(x, y_mask, exy, rhs)
        for j in range(start, len(candidates)):
            q = candidates[j]
            if blocked >> q & 1:
                continue
            scan(
                j + 1,
                y_mask | 1 << q,
                exy & orth[q],
                blocked | down[q] | E.up_masks[q],
                rhs * one_minus[q],
                x,
            )

    for x in [None, *range(m)]:
        base = full if x is None else down[x]
        rhs0 = unit if x is None else val[x]
        scan(0, 0, base, 0, rhs0, x)

    if witnesses and witness is None:
        x, ys, zs = witnesses[0]
        witness = f"cover-sup identity fails at X={{{x or ''}}} Y={{{','.join(ys)}}}"
    return TightRepresentationReport(
        multiplicativity=mult_ok,
        star_compatible=star_ok,
        zero_preserved=zero_ok,
        tightness_witnesses=witnesses,
        instances_checked=counters["instances"],
        covers_checked=counters["covers"],
        failure_witness=witness,
    )


def unit_cover(source: FiniteInverseSemigroup | GermGroupoidModel) -> list[int]:
    """Shortest list of idempotents whose basic sets exhaust the spectrum.

    Returns ambient element indices, and certifies the matching algebra
    identity: the projection join of the germ slices of the chosen
    idempotents is the unit of the germ groupoid algebra.
    """
    model = source if isinstance(source, GermGroupoidModel) else build_germ_model(source)
    E = model.semilattice
    spec = model.spectrum
    if not spec.points:
        raise EmptySpectrum("no tight characters, nothing to cover")
    n_pts = len(spec.points)
    full = (1 << n_pts) - 1
    coverage = []
    for p in range(len(E)):
        mask = 0
        for i, bits in enumerate(spec.points):
            if bits >> p & 1:
                mask |= 1 << i
        coverage.append(mask)
    candidates = [p for p in range(len(E)) if coverage[p]]
    chosen: tuple[int, ...] | None = None
    for k in range(1, len(candidates) + 1):
        for combo in combinations(candidates, k):
            got = 0
            for p in combo:
                got |= coverage[p]
            if got == full:
                chosen = combo
                break
        if chosen is not None:
            break
    assert chosen is not None, "the basic sets of all idempotents cover the spectrum"
    ambient = [E.carrier[p] for p in chosen]
    H = model.groupoid
    joined = sup_all(H, (rho(H, model.slice_of(e)) for e in ambient))
    assert joined == AlgebraElement.unit(H), "unit-cover join must be the unit"
    return ambient
