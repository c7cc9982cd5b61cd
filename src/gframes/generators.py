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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import ControlPair, ControlledScenario
from .errors import InvalidSpec
from .frames import GFrameFamily, MeasurePoint, frame_operator
from .operators import (ModuleOperator, PositiveInvertibleOperator,
                        identity_control, make_positive_invertible)
from .rng import complex_normal, random_unitary, stream

FLAVORS = ("generic", "commuting", "parseval", "bessel_only")

# Stream layout per seed: 0 is family-level, 1+w is point w of the primary
# family, _TWIN_BASE+w is point w of the twin family.
_TWIN_BASE = 1 << 32

_SING_LO, _SING_HI = 0.5, 1.5

# Largest upper end of ``spectrum_range``: the controls' product and every
# controlled operator scale with its square, which stays under 1e300 here.
SPECTRUM_CEILING = 1e150


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
        if not isinstance(self.seed, int) or not 0 <= self.seed < (1 << 64):
            raise InvalidSpec(f"seed must be a 64-bit nonnegative integer, got {self.seed}")
        for name in ("n", "d", "m"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise InvalidSpec(f"{name} must be a positive integer, got {v}")
        try:
            lo, hi = (int(self.dw_range[0]), int(self.dw_range[1]))
        except (TypeError, ValueError, IndexError):
            raise InvalidSpec(f"dw_range must be a pair of ints, got {self.dw_range}") from None
        if not 1 <= lo <= hi:
            raise InvalidSpec(f"dw_range must satisfy 1 <= lo <= hi, got {self.dw_range}")
        object.__setattr__(self, "dw_range", (lo, hi))
        try:
            slo, shi = (float(self.spectrum_range[0]), float(self.spectrum_range[1]))
        except (TypeError, ValueError, IndexError):
            raise InvalidSpec(f"spectrum_range must be a pair of reals, got {self.spectrum_range}") from None
        if not (np.isfinite(slo) and np.isfinite(shi) and 0 < slo <= shi):
            raise InvalidSpec(f"spectrum_range must be a positive ordered interval, got {self.spectrum_range}")
        if shi > SPECTRUM_CEILING:
            raise InvalidSpec(f"spectrum_range upper end must be at most "
                              f"{SPECTRUM_CEILING:g}, got {self.spectrum_range}")
        object.__setattr__(self, "spectrum_range", (slo, shi))
        if self.flavor not in FLAVORS:
            raise InvalidSpec(f"unknown flavor {self.flavor!r}, expected one of {FLAVORS}")
        if self.flavor == "parseval" and self.m < self.d:
            raise InvalidSpec(
                "parseval flavor needs m >= d so the frame operator is invertible")


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """Family-level structure shared by a scenario and its twin."""

    dws: tuple
    weights: tuple
    basis: np.ndarray | None      # shared unitary, None for generic
    slots: tuple | None           # per point: coordinate indices hit
    qs: tuple | None              # per point: codomain unitary
    sings: tuple | None           # per point: primary singular values
    c_eigs: np.ndarray | None
    cp_eigs: np.ndarray | None


def _draw_skeleton(spec: GeneratorSpec) -> _Skeleton:
    rng = stream(spec.seed, 0)
    lo, hi = spec.dw_range
    dws = tuple(int(v) for v in rng.integers(lo, hi + 1, size=spec.m))
    weights = tuple(float(v) for v in rng.uniform(0.5, 1.5, size=spec.m))
    if spec.flavor == "generic":
        return _Skeleton(dws, weights, None, None, None, None, None, None)
    dn = spec.d * spec.n
    basis = random_unitary(rng, dn)
    c_eigs = rng.uniform(*spec.spectrum_range, size=dn)
    cp_eigs = rng.uniform(*spec.spectrum_range, size=dn)
    # Cyclic slot layout: point w covers min(dn, dw*n) consecutive coordinates
    # starting where the previous point stopped, so m >= d covers everything.
    slots, qs, sings = [], [], []
    offset = 0
    for w, dw in enumerate(dws):
        k = min(dn, dw * spec.n)
        slots.append(tuple((offset + j) % dn for j in range(k)))
        offset = (offset + k) % dn
        rng_w = stream(spec.seed, 1 + w)
        qs.append(random_unitary(rng_w, dw * spec.n))
        sings.append(rng_w.uniform(_SING_LO, _SING_HI, size=k))
    return _Skeleton(dws, weights, basis, tuple(slots), tuple(qs), tuple(sings),
                     c_eigs, cp_eigs)


def _structured_point(spec: GeneratorSpec, skel: _Skeleton, w: int,
                      sing: np.ndarray) -> np.ndarray:
    """Action of one structured point: basis @ slot-diagonal @ codomain unitary."""
    dn = spec.d * spec.n
    dwn = skel.dws[w] * spec.n
    rect = np.zeros((dn, dwn), dtype=np.complex128)
    slots = np.array(skel.slots[w])
    sing = np.array(sing, dtype=np.float64)
    if spec.flavor == "bessel_only":
        sing[slots == dn - 1] = 0.0
    rect[slots, np.arange(slots.size)] = sing
    return skel.basis @ rect @ skel.qs[w]


def _build_family(spec: GeneratorSpec, skel: _Skeleton, twin: bool) -> GFrameFamily:
    n, d = spec.n, spec.d
    points = []
    if spec.flavor == "generic":
        for w, dw in enumerate(skel.dws):
            rng = stream(spec.seed, (_TWIN_BASE if twin else 1) + w)
            act = complex_normal(rng, (d * n, dw * n))
            points.append(MeasurePoint(skel.weights[w], ModuleOperator(n, d, dw, act)))
        return GFrameFamily(n, d, tuple(points))
    for w in range(spec.m):
        if twin:
            sing = stream(spec.seed, _TWIN_BASE + w).uniform(
                _SING_LO, _SING_HI, size=len(skel.slots[w]))
        else:
            sing = skel.sings[w]
        act = _structured_point(spec, skel, w, sing)
        points.append(MeasurePoint(skel.weights[w],
                                   ModuleOperator(n, d, skel.dws[w], act)))
    family = GFrameFamily(n, d, tuple(points))
    if spec.flavor == "parseval":
        s = frame_operator(family)
        wv, vv = np.linalg.eigh(0.5 * (s.action + s.action.conj().T))
        inv_root = (vv * (1.0 / np.sqrt(wv))) @ vv.conj().T
        renorm = [MeasurePoint(p.weight,
                               ModuleOperator(n, d, p.codomain_rank,
                                              inv_root @ p.lam.action))
                  for p in family.points]
        family = GFrameFamily(n, d, tuple(renorm))
    return family


def _controls(spec: GeneratorSpec, skel: _Skeleton
              ) -> tuple[PositiveInvertibleOperator, PositiveInvertibleOperator]:
    if spec.flavor in ("generic", "parseval"):
        eye = identity_control(spec.n, spec.d)
        return eye, eye
    b, bh = skel.basis, skel.basis.conj().T
    c = make_positive_invertible(
        ModuleOperator(spec.n, spec.d, spec.d, (b * skel.c_eigs) @ bh))
    cp = make_positive_invertible(
        ModuleOperator(spec.n, spec.d, spec.d, (b * skel.cp_eigs) @ bh))
    return c, cp


def _scenario(spec: GeneratorSpec, skel: _Skeleton) -> ControlledScenario:
    """The spec's family and controls on a drawn skeleton; ``_controls``
    draws nothing, so building the twin after them moves no bit."""
    family = _build_family(spec, skel, twin=False)
    return ControlledScenario(family, ControlPair(*_controls(spec, skel)))


def generate(spec: GeneratorSpec) -> ControlledScenario:
    """Build the scenario a spec describes; equal specs give equal bytes."""
    return _scenario(spec, _draw_skeleton(spec))


def generate_pair(spec: GeneratorSpec) -> tuple[ControlledScenario, GFrameFamily]:
    """The spec's scenario plus a twin family on the same skeleton with fresh
    singular values (generic flavor: fresh normal actions), for two-family
    checks that need shared measure and commutation structure."""
    skel = _draw_skeleton(spec)
    return _scenario(spec, skel), _build_family(spec, skel, twin=True)
