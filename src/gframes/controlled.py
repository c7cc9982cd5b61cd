"""Controlled frame machinery: two positive invertible controls bracket the
family, giving the controlled operator ``sum_w weight * c (gram_w) c'`` with
the first control applied before each point operator and the second after
each adjoint.

Everything here is gated on a commutation certificate: the controls must
commute with each other and with every gram term ``adjoint(lam_w) o lam_w``.
Under that certificate the controlled operator is Hermitian, equals the
plain frame operator conjugated by ``sqrt(c c')``, which is how it is built
from the frame operator the family keeps, and factors through the synthesis
and analysis maps below.

Weighting convention: the coefficient space stacks one block-vector per
point; its inner product carries the point weights, so the stacked matrix
representation of synthesis scales each block row by ``sqrt(weight)``.  The
per-point ``synthesis`` / ``analysis`` APIs work with unweighted coefficient
lists and put the weights into the sums, matching the defining formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .algebra import (DEFAULT_TOL, _check_tol, _hmin, _psd_sqrt, _rel,
                      spectral_norm)
from .errors import (CommutationViolated, MeasureMismatch, NotAFrame,
                     PreconditionViolated)
from .frames import (FRAME, FrameBounds, FrameVerdict, GFrameFamily,
                     _check_bounds, _extremes, _verdict_from, frame_operator)
from .module_space import ModuleVector, vec_norm
from .operators import (ModuleOperator, PositiveInvertibleOperator,
                        SURJECTIVITY_TOL, _clears_floor, op_adjoint, op_norm)


@dataclass(frozen=True, eq=False)
class CommutationReport:
    """Commutator norms backing the certificate: controls against each other
    and each control against every gram term, relative to the factor norms."""

    cc_commutator: float
    per_point: tuple
    tol: float
    passed: bool


@dataclass(frozen=True, eq=False)
class ControlPair:
    """Two positive invertible controls on one space and the tolerance, a
    nonnegative number defaulting to ``DEFAULT_TOL``, of their commutation
    certificates.

    Commuting with a family's gram terms is a property of the pair on that
    family, so the pair keeps, per family, the verdict of ``passed_on`` and
    the commutator norms of ``report_on``, each computed on first use; a
    report settles the verdict too.  ``product_sqrt`` is taken on first use
    as well, and is only meaningful where the certificate passed.  Everything
    kept is derived from ``c``, ``cp`` and ``tol``, and ``dataclasses.replace``
    starts with none of it.
    """

    c: PositiveInvertibleOperator
    cp: PositiveInvertibleOperator
    tol: float = DEFAULT_TOL
    _reports: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _verdicts: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.c.base.action.shape != self.cp.base.action.shape:
            raise ValueError("controls must act on the same space")
        _check_tol(self.tol)
        # norms multiplying past 1e300 overflow c o cp and every controlled
        # operator; a relative 1e-12 above it is the SVD roundoff of controls
        # whose spectra end at the generators' ceiling, 1e150
        product = self.c.norm * self.cp.norm
        if product > 1e300 * (1 + 1e-12):
            raise ValueError(f"the controls' norms multiply to {product:.3e}, "
                             f"above 1e300: their product overflows")

    def report_on(self, family: GFrameFamily) -> CommutationReport:
        """Certificate of the controls against ``family`` at ``tol``, with
        every commutator norm, computed on first use and then kept."""
        report = self._reports.get(family)
        if report is None:
            report = validate_commutation(family, self.c, self.cp, self.tol)
            self._reports[family] = report
            self._verdicts[family] = report.passed
        return report

    def passed_on(self, family: GFrameFamily) -> bool:
        """Whether the certificate against ``family`` passes, from
        ``decide_commutation`` unless a report settled it, computed on first
        use and then kept."""
        passed = self._verdicts.get(family)
        if passed is None:
            passed = decide_commutation(family, self.c, self.cp, self.tol)
            self._verdicts[family] = passed
        return passed

    @cached_property
    def product_sqrt(self) -> ModuleOperator:
        """Positive square root of ``c o cp``; ``c`` itself when ``cp is c``."""
        c = self.c.base
        if self.cp is self.c:
            return c
        product = self.cp.base.action @ c.action  # right-action matrix of c o cp
        return ModuleOperator(c.algebra_dim, c.domain_rank, c.domain_rank,
                              _psd_sqrt(product))


@dataclass(frozen=True, eq=False)
class ControlledScenario:
    """A family together with a control pair, certified against this family
    on first controlled use; ``ControlledScenario(other, pair)`` is safe.
    The scenario keeps its controlled operator and that operator's extreme
    eigenvalues, each taken on first use."""

    family: GFrameFamily
    pair: ControlPair

    def __post_init__(self):
        f, c = self.family, self.pair.c.base
        if c.algebra_dim != f.algebra_dim or c.domain_rank != f.module_rank:
            raise ValueError("control shape does not match the family")

    @cached_property
    def _controlled_operator(self) -> ModuleOperator:
        """``R S R``, or ``S`` for two identity controls, taken on the first
        use that finds the certificate passed; read it through
        ``controlled_frame_operator``."""
        _require_certificate(self.family, self.pair)
        s = frame_operator(self.family)
        pair = self.pair
        if pair.c.is_identity and pair.cp.is_identity:
            return s
        r = pair.product_sqrt.action
        return ModuleOperator(s.algebra_dim, s.domain_rank, s.domain_rank,
                              r @ s.action @ r)

    @cached_property
    def _controlled_spectrum(self) -> tuple[float, float]:
        """The extreme eigenvalues of the controlled operator, taken on
        first use."""
        return _extremes((self._controlled_operator,))[0]


# A Frobenius norm below this may have lost squares to underflow, so it
# bounds nothing.
_FROBENIUS_FLOOR = 1e-150


def _frobenius_passes(c: PositiveInvertibleOperator, x: np.ndarray,
                      lo_b: float, tol: float) -> bool:
    """Whether ``x``, the commutator of ``c`` with a matrix of norm at least
    ``lo_b``, passes at ``tol`` by its Frobenius norm alone; False when that
    norm cannot tell.

    The Frobenius norm bounds the spectral norm from above.  It is held to
    half of what the exact check allows, which absorbs the roundoff between
    it and LAPACK's largest singular value.
    """
    # x^H x summed by BLAS, which raises no floating-point error; an
    # overflowed sum is inf or NaN and decides nothing
    fro = math.sqrt(np.vdot(x, x).real)
    if fro == 0.0:
        return not x.any()
    return (_FROBENIUS_FLOOR <= fro <= 0.5 * tol * _rel(c.norm * lo_b)
            and fro < math.inf)


def _relative_commutators(family: GFrameFamily, c: PositiveInvertibleOperator,
                          cp: PositiveInvertibleOperator,
                          tol: float = 0.0) -> Iterator[float]:
    """Yield every relative commutator the controlled formulas rely on, in
    report order: ``[c, cp]``, then ``[c, gram_w]`` and ``[cp, gram_w]`` for
    each point ``w``, each ``norm([k, b]) / _rel(norm(k) * norm(b))``.

    A commutator that ``_frobenius_passes`` at ``tol`` yields 0.0 and takes
    no SVD (the lower bound there is ``norm(cp)`` for ``[c, cp]`` and a gram
    term's largest diagonal entry); any other takes its spectral norm.
    The default ``tol`` of 0 passes only exact zeros, such as every
    commutator of an identity control and ``[c, c]``, so every value is
    exact.  Two identity controls form no commutator, a same-control pair
    yields each ``[c, gram_w]`` twice, and a gram term's norm is taken once,
    when a commutator first reads it.

    Work is done only as values are read, so a consumer that stops early
    takes no further norm.  Raises ``LinAlgError`` when a commutator has
    overflowed and its SVD does not converge.
    """
    if c.is_identity and cp.is_identity:
        yield from [0.0] * (1 + 2 * family.size)
        return
    ca, cpa = c.base.action, cp.base.action
    x = ca @ cpa - cpa @ ca
    yield (0.0 if _frobenius_passes(c, x, cp.norm, tol)
           else spectral_norm(x) / _rel(c.norm * cp.norm))
    for p in family.points:
        l = p.lam.action
        gram = l @ l.conj().T
        g_lo = float(gram.diagonal().real.max())
        ng = None
        for k in (c, cp):
            a = k.base.action
            x = a @ gram - gram @ a
            r = 0.0
            if not _frobenius_passes(k, x, g_lo, tol):
                if ng is None:
                    ng = spectral_norm(gram)
                r = spectral_norm(x) / _rel(k.norm * ng)
            yield r


def validate_commutation(family: GFrameFamily, c: PositiveInvertibleOperator,
                         cp: PositiveInvertibleOperator,
                         tol: float = DEFAULT_TOL) -> CommutationReport:
    """Every relative commutator of ``_relative_commutators``, each exact,
    and the verdict that all are at most ``tol``."""
    _check_tol(tol)
    entries = list(_relative_commutators(family, c, cp))
    rows = tuple(zip(entries[1::2], entries[2::2]))
    return CommutationReport(entries[0], rows, tol,
                             all(e <= tol for e in entries))


def decide_commutation(family: GFrameFamily, c: PositiveInvertibleOperator,
                       cp: PositiveInvertibleOperator,
                       tol: float = DEFAULT_TOL) -> bool:
    """``validate_commutation(family, c, cp, tol).passed``, with a spectral
    norm only where the Frobenius bound does not decide; stops at the first
    failing commutator."""
    _check_tol(tol)
    return all(v <= tol for v in _relative_commutators(family, c, cp, tol))


def _require_certificate(family: GFrameFamily, pair: ControlPair,
                         role: str = "") -> None:
    """Raise ``CommutationViolated`` unless ``pair`` passes its certificate on
    ``family``, with the worst exact relative commutator in the message and,
    for a two-family operation, the ``role`` ("first" or "second") of the
    family that failed; the exact walk runs only on failure."""
    if not pair.passed_on(family):
        report = pair.report_on(family)
        worst = max([report.cc_commutator]
                    + [r for row in report.per_point for r in row])
        where = f" on the {role} family" if role else ""
        raise CommutationViolated(
            f"commutation certificate failed{where} (worst relative commutator "
            f"{worst:.3e} > tol {report.tol:.3e})")


def controlled_frame_operator(scenario: ControlledScenario) -> ModuleOperator:
    """``sum_w weight * c (gram_w) c'`` once the certificate passes, built as
    ``R S R`` for ``R = sqrt(c c')`` and ``S``, the family's frame operator;
    ``S`` itself for two identity controls; built once per scenario and
    then kept, as are its extreme eigenvalues."""
    return scenario._controlled_operator


def controlled_classify(scenario: ControlledScenario,
                        tol: float = DEFAULT_TOL) -> FrameVerdict:
    """Frame / Bessel-only verdict for the controlled operator, with the
    relative threshold of ``classify`` and its default ``DEFAULT_TOL``.

    Witnesses carry the controlled extremes plus the plain family's upper
    spectral edge, which the family keeps, so both Bessel bounds are
    reported side by side.
    """
    _check_tol(tol)
    verdict = _verdict_from(*scenario._controlled_spectrum, tol)
    verdict.witnesses["uncontrolled_bessel_bound"] = scenario.family._frame_spectrum[1]
    return verdict


def _analyze(scenario: ControlledScenario, x: ModuleVector) -> list[np.ndarray]:
    """``analysis`` of ``x`` as flattened coefficients, one per point."""
    f = scenario.family
    if x.algebra_dim != f.algebra_dim or x.rank != f.module_rank:
        raise ValueError("vector does not live in the family's module")
    xp = x.flat @ scenario.pair.product_sqrt.action
    return [xp @ p.lam.action for p in f.points]


def _synthesize(scenario: ControlledScenario, ys) -> np.ndarray:
    """``synthesis`` of flattened coefficients ``ys``, one per point, as the
    flattened module vector."""
    f = scenario.family
    p_act = scenario.pair.product_sqrt.action
    n, d = f.algebra_dim, f.module_rank
    acc = np.zeros((n, d * n), dtype=np.complex128)
    for p, y in zip(f.points, ys):
        acc = acc + p.weight * (y @ (p.lam.action.conj().T @ p_act))
    return acc


def synthesis(scenario: ControlledScenario,
              coefficients: Sequence[ModuleVector]) -> ModuleVector:
    """Weighted sum ``sum_w weight * sqrt(c c') adjoint(lam_w) y_w`` mapping a
    coefficient list back into the module."""
    _require_certificate(scenario.family, scenario.pair)
    f = scenario.family
    if len(coefficients) != f.size:
        raise ValueError(f"expected {f.size} coefficient vectors, got {len(coefficients)}")
    n = f.algebra_dim
    for p, y in zip(f.points, coefficients):
        if y.algebra_dim != n or y.rank != p.codomain_rank:
            raise ValueError(
                f"coefficient shape ({y.algebra_dim}, {y.rank}) does not match "
                f"point codomain ({n}, {p.codomain_rank})")
    return ModuleVector(n, f.module_rank,
                        _synthesize(scenario, [y.flat for y in coefficients]))


def analysis(scenario: ControlledScenario, x: ModuleVector) -> list[ModuleVector]:
    """Coefficient list ``[lam_w (sqrt(c c') x)]`` of a module vector."""
    _require_certificate(scenario.family, scenario.pair)
    f = scenario.family
    return [ModuleVector(f.algebra_dim, p.codomain_rank, y)
            for p, y in zip(f.points, _analyze(scenario, x))]


def synthesis_operator(scenario: ControlledScenario) -> ModuleOperator:
    """Synthesis as one stacked operator from the weighted coefficient space.

    Block row w is ``sqrt(weight_w) * adjoint(lam_w).action @ product_sqrt``;
    with the sqrt-weight convention its Gram ``t* t`` reproduces the
    controlled frame operator and its norm is the true synthesis norm.
    """
    _require_certificate(scenario.family, scenario.pair)
    f = scenario.family
    l = f.synthesis_matrix
    return ModuleOperator(f.algebra_dim, l.shape[1] // f.algebra_dim, f.module_rank,
                          l.conj().T @ scenario.pair.product_sqrt.action)


# Relative slack of the synthesis and cross-operator norm bounds.
NORM_BOUND_TOL = 1e-8


def _norm_bound(norm: float, *uppers: float,
                tol: float = NORM_BOUND_TOL) -> tuple[bool, float]:
    """Whether ``norm <= root`` holds within ``tol``, relative, ``root`` the
    product of the square roots of ``uppers``, so that no product of bounds
    underflows, and the residual it is decided by: ``max(0, norm - root) /
    _rel(root)``."""
    root = math.prod(math.sqrt(max(u, 0.0)) for u in uppers)
    excess = max(0.0, norm - root) / _rel(root)
    return excess <= tol, excess


def synthesis_norm_check(scenario: ControlledScenario,
                         tol: float = NORM_BOUND_TOL) -> bool:
    """Check the synthesis norm against the controlled upper bound:
    ``op_norm(synthesis) <= sqrt(lambda_max)`` within ``tol``, relative."""
    _check_tol(tol)
    hi = scenario._controlled_spectrum[1]
    return _norm_bound(op_norm(synthesis_operator(scenario)), hi, tol=tol)[0]


# Largest relative residual at which the adjoint matches a closed form.
ADJOINT_TOL = 1e-10


@dataclass(frozen=True)
class CrossAdjointDiagnostic:
    """Relative residuals of the true adjoint against the two printed
    closed forms (controls swapped between them), the adjoint's norm, which
    scales them and equals the cross operator's norm, and the adjoint's
    smallest singular value."""

    statement_residual: float
    proof_residual: float
    matches_statement: bool
    matches_proof: bool
    adjoint_norm: float
    adjoint_min_singular: float


def _check_same_measure(lam: GFrameFamily, gam: GFrameFamily) -> None:
    if lam.algebra_dim != gam.algebra_dim or lam.module_rank != gam.module_rank:
        raise MeasureMismatch("families live over different modules")
    if lam.size != gam.size:
        raise MeasureMismatch(f"point counts differ: {lam.size} vs {gam.size}")
    for i, (p, q) in enumerate(zip(lam.points, gam.points)):
        if p.weight != q.weight:
            raise MeasureMismatch(f"weights differ at point {i}")
        if p.codomain_rank != q.codomain_rank:
            raise MeasureMismatch(f"codomain ranks differ at point {i}")


def cross_operator(lam: GFrameFamily, gam: GFrameFamily,
                   pair: ControlPair) -> ModuleOperator:
    """Mixed operator ``sum_w weight * c adjoint(gam_w) lam_w c'`` of two
    families sharing the same weighted points, as ``c (L_lam L_gam^H) c'``."""
    _check_same_measure(lam, gam)
    _require_certificate(lam, pair, "first")
    _require_certificate(gam, pair, "second")
    mixed = lam.synthesis_matrix @ gam.synthesis_matrix.conj().T
    n, d = lam.algebra_dim, lam.module_rank
    return ModuleOperator(n, d, d, pair.c.base.action @ mixed @ pair.cp.base.action)


def cross_adjoint_resolve(lam: GFrameFamily, gam: GFrameFamily,
                          pair: ControlPair, tol: float = ADJOINT_TOL
                          ) -> tuple[ModuleOperator, CrossAdjointDiagnostic]:
    """True adjoint of the cross operator plus residuals against both closed
    forms in circulation: controls in original order around the swapped
    family product, and controls swapped.

    The swapped-controls form is the conjugate transpose term by term, so its
    residual is roundoff; the original-order form only matches when the
    controls also commute with the mixed products, which the certificate does
    not guarantee.  Both residuals are reported rather than picking one.
    """
    _check_tol(tol)
    cross = cross_operator(lam, gam, pair)
    return op_adjoint(cross), _adjoint_diagnostics([(cross, lam, gam, pair)], tol)[0]


def _adjoint_diagnostics(cases, tol: float = ADJOINT_TOL) -> list:
    """``cross_adjoint_resolve``'s diagnostic of each ``(cross, lam, gam,
    pair)``, ``cross`` the cross operator of ``lam`` against ``gam`` under
    ``pair``, all over one module: the adjoints' extreme singular values and
    both differences' norms, from one stacked SVD."""
    a = np.stack([cross.action for cross, *_ in cases]).conj().swapaxes(-1, -2)
    mixed = np.stack([gam.synthesis_matrix @ lam.synthesis_matrix.conj().T
                      for _, lam, gam, _ in cases])
    ca = np.stack([pair.c.base.action for *_, pair in cases])
    cpa = np.stack([pair.cp.base.action for *_, pair in cases])
    s = np.linalg.svd(np.stack((a, a - ca @ mixed @ cpa, a - cpa @ mixed @ ca),
                               axis=1), compute_uv=False)
    out = []
    for (norm, d_stmt, d_proof), low in zip(s[:, :, 0].tolist(),
                                            s[:, 0, -1].tolist()):
        r_stmt, r_proof = (d / _rel(norm) for d in (d_stmt, d_proof))
        out.append(CrossAdjointDiagnostic(r_stmt, r_proof, r_stmt <= tol,
                                          r_proof <= tol, norm, low))
    return out


def bounds_plain_from_cc(lower: float, upper: float,
                         c: PositiveInvertibleOperator) -> FrameBounds:
    """Transfer bounds of a same-control controlled frame to the plain family:
    ``(lower / norm(c)^2, upper * norm(c^-1)^2)``.  Valid, not tight."""
    _check_bounds(lower, upper)
    nc, ninv = c.norm, c.inverse_norm
    return FrameBounds(lower / (nc * nc), upper * (ninv * ninv))


def bounds_cc_from_plain(lower: float, upper: float,
                         c: PositiveInvertibleOperator) -> FrameBounds:
    """Transfer plain frame bounds to the same-control controlled family:
    ``(lower / norm(c^-1)^2, upper * norm(c)^2)``.  Valid, not tight."""
    _check_bounds(lower, upper)
    nc, ninv = c.norm, c.inverse_norm
    return FrameBounds(lower / (ninv * ninv), upper * (nc * nc))


@dataclass(frozen=True)
class TransferResult:
    surjective: bool
    gamma_lower_bound: float | None


def surjectivity_transfer(lam: GFrameFamily, gam: GFrameFamily,
                          pair: ControlPair,
                          tol: float = SURJECTIVITY_TOL) -> TransferResult:
    """If the mixed operator of a controlled frame (first family) against a
    second family is surjective, produce an explicit lower bound for the
    second family's controlled operator.

    The bound is ``m = 1 / norm(inverse of (k k*))`` for the second family's
    stacked synthesis ``k``; the sandwich ``m * id <= controlled operator`` is
    verified before returning, and ``ArithmeticError`` is raised when it
    fails.  Raises ``PreconditionViolated`` naming the failing hypothesis,
    or ``CommutationViolated`` from the certificate.
    """
    _check_tol(tol)
    diag, = _adjoint_diagnostics([(cross_operator(lam, gam, pair), lam, gam, pair)])
    scen_lam, scen_gam = ControlledScenario(lam, pair), ControlledScenario(gam, pair)
    if _verdict_from(*scen_lam._controlled_spectrum, DEFAULT_TOL).kind != FRAME:
        raise PreconditionViolated("first family is not a controlled frame")
    lo_gam = scen_gam._controlled_spectrum[0]
    res, excess = _transfer(diag, scen_gam, lo_gam, tol)
    if excess > tol:
        raise ArithmeticError(f"derived bound {res.gamma_lower_bound:.6e} "
                              f"exceeds the spectral floor {lo_gam:.6e}")
    return res


def _transfer(diag: CrossAdjointDiagnostic, scen_gam: ControlledScenario,
              lo_gam: float, tol: float) -> tuple[TransferResult, float]:
    """Transfer from a known controlled frame to the second scenario, with
    controlled floor ``lo_gam``, when ``diag``'s cross adjoint is bounded
    below at ``tol`` by the rule of ``is_bounded_below``, and the relative
    excess of the derived bound over that floor, ``max(0, bound - lo_gam) /
    _rel(bound)``: the bound stays at the floor when it is at most ``tol``.
    A transfer with no bound has excess 0."""
    if not _clears_floor(diag.adjoint_min_singular, diag.adjoint_norm, tol):
        return TransferResult(False, None), 0.0
    k = synthesis_operator(scen_gam).action
    m = max(float(_hmin(k.conj().T @ k)), 0.0)
    return TransferResult(True, m), max(0.0, m - lo_gam) / _rel(m)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Reconstructed vector, its norm error, and ``upper / lower`` of the
    controlled frame bounds."""

    xhat: ModuleVector
    error: float
    condition_number: float


def reconstruct(scenario: ControlledScenario,
                x: ModuleVector) -> ReconstructionResult:
    """Round-trip a vector through analysis, synthesis, and the inverse of the
    controlled operator; returns the reconstruction, its norm error, and the
    condition number of the controlled operator.

    Raises ``NotAFrame`` when the controlled verdict is not a frame.
    """
    verdict = _verdict_from(*scenario._controlled_spectrum, DEFAULT_TOL)
    if verdict.kind != FRAME:
        raise NotAFrame("reconstruction requires a controlled frame")
    # the round trip on flattened arrays: analysis, then synthesis
    y = _synthesize(scenario, _analyze(scenario, x))
    # LAPACK's solve gives non-finite values on subnormal entries, so a
    # largest entry below 1/2 is lifted into [1/2, 1), and y with it, by one
    # power of two: that scaling is exact and moves no bit of the solution
    s = controlled_frame_operator(scenario).action
    k = max(0, -int(np.frexp(np.abs(s).max())[1]))
    if k:
        s, y = (np.ldexp(a.view(np.float64), k).view(np.complex128) for a in (s, y))
    # y @ inverse(s), via a solve against the transposed action
    xhat_flat = np.linalg.solve(s.T, y.T).T
    xhat = ModuleVector(x.algebra_dim, x.rank, xhat_flat)
    return ReconstructionResult(xhat, vec_norm(x - xhat),
                                verdict.bounds.upper / verdict.bounds.lower)
