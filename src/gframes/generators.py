"""Seeded scenario generators.

Four flavors, all driven by counter-based streams so equal specs give
byte-identical scenarios:

* ``generic``: independent complex-normal point operators, identity controls.
  No structural guarantee beyond validity.
* ``commuting``: every gram term is diagonal in one shared random basis and
  the controls are diagonal in that basis with eigenvalues drawn from
  ``spectrum_range``, so all certificate commutators vanish to machine
  precision.  Singular values land on a cyclic slot layout; with at least as
  many points as the module rank every coordinate is covered and the family
  is a frame.
* ``parseval``: the commuting construction with identity controls,
  renormalized by the inverse square root of its frame operator so the frame
  operator is the identity.
* ``bessel_only``: the commuting construction with the last shared-basis
  coordinate zeroed in every point, so the frame operator has an exact kernel
  direction and the lower bound is zero.

``generate_pair`` builds a second family on the same skeleton (basis, slot
layout, per-point codomain unitaries, weights, controls) with fresh singular
values, which is the structure the two-family bounds require.

Streams of a seed: 0 draws the measure (codomain ranks, then weights) and,
for the structured flavors, the basis's normal matrix and the two control
spectra; 1+w draws point w's codomain unitary and singular values (generic:
its action); ``_TWIN_BASE``+w (2**32+w) the twin's point w, which shares
the unitaries, only its singular values (generic: its action).  The
verifier's sample vectors use ``_CHECK_STREAM``+k (3 * 2**32+k).

A batch of specs is generated in one sweep.  Every stream is drawn from one
Philox re-keyed per stream, which draws what a new generator would.  Every
unitary of the batch, bases and codomain unitaries alike, comes from one
stacked QR per size.  Each spec's families and controls are assembled only
when its pair is read, and generic actions and twin singular values are
drawn then, so the batch holds only small draws and views into the size
stacks.  ``generate`` and ``generate_pair`` are the one-spec case, and
``generate`` builds no twin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import _hermitian_part, _per_shape
from .controlled import ControlPair, ControlledScenario
from .errors import InvalidSpec
from .frames import GFrameFamily, MeasurePoint, frame_operator
from .operators import ModuleOperator, identity_control, make_positive_invertible
from .rng import _rekey, complex_normal, stream

FLAVORS = ("generic", "commuting", "parseval", "bessel_only")

# Stream of the twin's point 0; the layout is in the module docstring.
_TWIN_BASE = 1 << 32

_SING_LO, _SING_HI = 0.5, 1.5

# Largest upper end of ``spectrum_range``: the controls' product and every
# controlled operator scale with its square, which stays under 1e300 here.
SPECTRUM_CEILING = 1e150
# Smallest lower end, the ceiling's reciprocal: the transferred frame bounds
# scale with the square of a control's inverse norm, at most 1e300 here.
SPECTRUM_FLOOR = 1e-150


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for one scenario."""

    seed: int
    n: int
    d: int
    m: int
    dw_range: tuple = (1, 3)
    spectrum_range: tuple = (0.5, 2.0)
    flavor: str = "generic"

    def __post_init__(self):
        if not _is_int(self.seed) or not 0 <= self.seed < (1 << 64):
            raise InvalidSpec(f"seed must be a 64-bit nonnegative integer, got {self.seed}")
        for name in ("n", "d", "m"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise InvalidSpec(f"{name} must be a positive integer, got {v}")
        try:
            raw = (self.dw_range[0], self.dw_range[1])
            lo, hi = (int(v) for v in raw)
        except (TypeError, ValueError, IndexError, OverflowError):
            raise InvalidSpec(f"dw_range must be a pair of ints, got {self.dw_range}") from None
        # an entry is kept only when int() changes no value: 2.0, not 1.9
        if any(isinstance(v, (bool, np.bool_)) or v != i for v, i in zip(raw, (lo, hi))):
            raise InvalidSpec(f"dw_range must be a pair of ints, got {self.dw_range}")
        if not 1 <= lo <= hi:
            raise InvalidSpec(f"dw_range must satisfy 1 <= lo <= hi, got {self.dw_range}")
        object.__setattr__(self, "dw_range", (lo, hi))
        try:
            raw = (self.spectrum_range[0], self.spectrum_range[1])
            # float() also reads a bool or a numeric string; neither is a real
            if any(isinstance(v, (bool, np.bool_, str, bytes)) for v in raw):
                raise TypeError
            slo, shi = (float(v) for v in raw)
        except (TypeError, ValueError, IndexError, OverflowError):
            raise InvalidSpec(f"spectrum_range must be a pair of reals, got {self.spectrum_range}") from None
        if not (np.isfinite(slo) and np.isfinite(shi) and 0 < slo <= shi):
            raise InvalidSpec(f"spectrum_range must be a positive ordered interval, got {self.spectrum_range}")
        if shi > SPECTRUM_CEILING:
            raise InvalidSpec(f"spectrum_range upper end must be at most "
                              f"{SPECTRUM_CEILING:g}, got {self.spectrum_range}")
        if slo < SPECTRUM_FLOOR:
            raise InvalidSpec(f"spectrum_range lower end must be at least "
                              f"{SPECTRUM_FLOOR:g}, got {self.spectrum_range}")
        object.__setattr__(self, "spectrum_range", (slo, shi))
        if self.flavor not in FLAVORS:
            raise InvalidSpec(f"unknown flavor {self.flavor!r}, expected one of {FLAVORS}")
        if self.flavor == "parseval" and self.m < self.d:
            raise InvalidSpec(
                "parseval flavor needs m >= d so the frame operator is invertible")


@dataclass(eq=False)
class _Drawn:
    """One spec's draws from the batch sweep.  ``unitaries`` holds the
    basis's and then each point's codomain unitary; ``_draw`` leaves there
    the complex normal matrices they are the QR factors of.  A generic spec
    draws only its measure here."""

    spec: GeneratorSpec
    dws: list
    weights: list
    eigs: tuple | None = None       # control eigenvalues c, cp
    sings: list | None = None       # per point: primary singular values
    unitaries: list | tuple = ()


def _draw(rng: np.random.Generator, spec: GeneratorSpec) -> _Drawn:
    """Every draw a spec's unitaries need, stream 0 to its end first."""
    seed, n = spec.seed, spec.n
    _rekey(rng, seed, 0)
    lo, hi = spec.dw_range
    dws = rng.integers(lo, hi + 1, size=spec.m).tolist()
    weights = rng.uniform(0.5, 1.5, size=spec.m).tolist()
    if spec.flavor == "generic":
        return _Drawn(spec, dws, weights)
    dn = spec.d * n
    normals = [complex_normal(rng, (dn, dn))]
    eigs = (rng.uniform(*spec.spectrum_range, size=dn),
            rng.uniform(*spec.spectrum_range, size=dn))
    sings = []
    for w, dw in enumerate(dws):
        _rekey(rng, seed, 1 + w)
        normals.append(complex_normal(rng, (dw * n, dw * n)))
        sings.append(rng.uniform(_SING_LO, _SING_HI, size=min(dn, dw * n)))
    return _Drawn(spec, dws, weights, eigs, sings, normals)


def _unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-ish unitary of each matrix of a stack: its QR factor Q, with the
    phases that make R's diagonal positive."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)[..., None, :]
    return q


def _generic_family(rng: np.random.Generator, drawn: _Drawn,
                    base: int) -> GFrameFamily:
    """Independent complex normal point actions, point w from stream
    ``base + w``."""
    spec = drawn.spec
    n, d = spec.n, spec.d
    return GFrameFamily(n, d, tuple(
        MeasurePoint(weight, ModuleOperator(
            n, d, dw, complex_normal(_rekey(rng, spec.seed, base + w),
                                     (d * n, dw * n))))
        for w, (dw, weight) in enumerate(zip(drawn.dws, drawn.weights))))


def _structured_family(drawn: _Drawn, sings) -> GFrameFamily:
    """Point w acts as basis @ slot-diagonal(sings[w]) @ codomain unitary.

    Cyclic slot layout: point w covers min(dn, dw*n) consecutive coordinates
    starting where the previous point stopped, so m >= d covers everything.
    """
    spec = drawn.spec
    n, d = spec.n, spec.d
    dn = d * n
    basis, *qs = drawn.unitaries
    points = []
    offset = 0
    for dw, weight, q, sing in zip(drawn.dws, drawn.weights, qs, sings):
        k = sing.size
        rect = np.zeros((dn, dw * n), dtype=np.complex128)
        rect[(offset + np.arange(k)) % dn, np.arange(k)] = sing
        if spec.flavor == "bessel_only":
            rect[dn - 1] = 0.0
        offset = (offset + k) % dn
        points.append(MeasurePoint(weight,
                                   ModuleOperator(n, d, dw, basis @ rect @ q)))
    family = GFrameFamily(n, d, tuple(points))
    if spec.flavor == "parseval":
        s = frame_operator(family)
        wv, vv = np.linalg.eigh(_hermitian_part(s.action))
        inv_root = (vv * (1.0 / np.sqrt(wv))) @ vv.conj().T
        family = GFrameFamily(n, d, tuple(
            MeasurePoint(p.weight, ModuleOperator(n, d, p.codomain_rank,
                                                  inv_root @ p.lam.action))
            for p in family.points))
    return family


def _assemble(rng: np.random.Generator, drawn: _Drawn,
              twin: bool) -> tuple[ControlledScenario, GFrameFamily | None]:
    """A spec's scenario, and its twin family when ``twin``, from its draws;
    generic actions and twin singular values are drawn here."""
    spec = drawn.spec
    n, d = spec.n, spec.d
    if spec.flavor == "generic":
        family = _generic_family(rng, drawn, 1)
        other = _generic_family(rng, drawn, _TWIN_BASE) if twin else None
    else:
        family = _structured_family(drawn, drawn.sings)
        other = _structured_family(drawn, [
            _rekey(rng, spec.seed, _TWIN_BASE + w).uniform(
                _SING_LO, _SING_HI, size=sing.size)
            for w, sing in enumerate(drawn.sings)]) if twin else None
    if spec.flavor in ("generic", "parseval"):
        eye = identity_control(n, d)
        pair = ControlPair(eye, eye)
    else:
        b = drawn.unitaries[0]
        bh = b.conj().T
        pair = ControlPair(*(make_positive_invertible(
            ModuleOperator(n, d, d, (b * eigs) @ bh)) for eigs in drawn.eigs))
    return ControlledScenario(family, pair), other


def _generate_batch(specs, twins: bool):
    """``(scenario, twin)`` of each spec in order, ``twin`` None unless
    ``twins``.  Every spec is drawn first, from the batch's one Philox; its
    unitaries come from one QR per size for the whole batch and stay as
    views into those size stacks, and its normals go once they are
    factored.  Each pair is built when it is read, and then the batch lets
    go of that spec's draws; a size stack goes with the last view into it."""
    rng = stream(0)
    drawn = [_draw(rng, spec) for spec in specs]
    qs = _per_shape(_unitaries, [z for dr in drawn for z in dr.unitaries])[::-1]
    # popped in a comprehension: no name of a paused generator keeps a view
    drawn = [replace(dr, unitaries=[qs.pop() for _ in dr.unitaries]) for dr in drawn]
    drawn.reverse()
    while drawn:
        yield _assemble(rng, drawn.pop(), twins)


def generate(spec: GeneratorSpec) -> ControlledScenario:
    """Build the scenario a spec describes; equal specs give equal bytes."""
    scenario, _ = next(_generate_batch([spec], twins=False))
    return scenario


def generate_pair(spec: GeneratorSpec) -> tuple[ControlledScenario, GFrameFamily]:
    """The spec's scenario plus a twin family on the same skeleton with fresh
    singular values (generic flavor: fresh normal actions), for two-family
    checks that need shared measure and commutation structure."""
    return next(_generate_batch([spec], twins=True))
