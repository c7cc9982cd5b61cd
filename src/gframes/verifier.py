"""Falsification harness: every normative claim the library realizes becomes
a named check evaluated over generated scenario batches.

Failures are data, never exceptions: each check aggregates scenario outcomes
into a ``CheckResult`` with reproducer seeds.  The one deliberately
non-normative entry is ``bound_product_probe``, whose claimed lower bound is
known to fail off the diagonal; its status is permanently ``empirical`` and
its pass fraction is information, not a verdict.

Scenarios are evaluated in groups that share (n, d): each check makes one
stacked call per group for its decompositions, sample draws and products.
A group is evaluated as soon as the synthesis matrices of its families and
twins reach ``_GROUP_BYTES``, so a scenario that large is evaluated alone.
Grouping moves no report byte.  Samples are keyed by seed, and numpy's
stacked ``svd``, ``eigvalsh`` and ``matmul`` run on each slice alone, so
every value has the bits it has when its scenario is evaluated alone.
Outcomes are folded in batch order and failure lists sorted stably by (seed,
detail), and each scenario is certified as it is read, before any grouped
work, so a failing certificate raises as in a one-at-a-time run.  Results
are ordered by check id, so reports are byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, _hmin, _scale, _top_singular
from .controlled import (ControlledScenario, _adjoint_diagnostics,
                         _check_same_measure, _norm_bound,
                         _require_certificate, _same_control, _transfer,
                         bounds_cc_from_plain, bounds_plain_from_cc,
                         controlled_frame_operator, cross_operator,
                         synthesis_operator)
from .frames import (FRAME, GFrameFamily, _energies, _point_grams,
                     _point_stacks, _verdicts, frame_operator)
from .generators import GeneratorSpec, _generate_batch
from .operators import SURJECTIVITY_TOL, op_adjoint
from .rng import _rekey, stream

# One entry per verified statement; the suite emits exactly these ids.
CHECKS = {
    "op_energy_bound": "inner(Tx, Tx) <= op_norm(T)^2 * inner(x, x) for point operators",
    "gram_sandwich": "two-sided spectral bound on t t* for the surjective stacked synthesis",
    "plain_frame_sandwich": "pointwise-summed energy sits between the optimal bounds times inner(x, x)",
    "controlled_frame_sandwich": "controlled operator is Hermitian and its energy obeys the classifier bounds",
    "norm_characterization": "scalar form: lower * |x|^2 <= norm(controlled energy) <= upper * |x|^2",
    "cc_equivalence_bounds": "same-control verdict matches the plain verdict and transferred bounds stay valid",
    "synthesis_norm_bound": "synthesis norm is at most the square root of the controlled upper bound",
    "cross_operator_norm_bound": "mixed-family operator norm is at most sqrt of the product of upper bounds",
    "cross_adjoint_identity": "true cross adjoint matches the printed closed forms",
    "surjectivity_transfer": "surjective mixed operator forces a controlled lower bound on the second family",
    "bound_product_probe": "claimed controlled bounds scaled by control norms (empirical, known to fail below)",
}

EMPIRICAL_CHECKS = frozenset({"bound_product_probe"})

# Fixed scalar-tightness tolerance from the acceptance contract; ``tol``
# passed to run_suite governs the semidefinite-order margins.
SCALAR_TIGHT_TOL = 1e-12

_CHECK_STREAM = 3 << 32
_SAMPLES = 6


@dataclass(frozen=True)
class CheckFailure:
    seed: int
    residual: float
    detail: str


@dataclass
class CheckResult:
    check_id: str
    scenarios_run: int = 0
    passes: int = 0
    failures: list = field(default_factory=list)
    status: str = "pass"


def _order_violations(a: np.ndarray, b: np.ndarray) -> list:
    """How far ``a <= b`` fails in the semidefinite order, relative, for
    each index of the leading axis: the largest violation over the matrices
    of ``a[i]`` and ``b[i]``, two equal-shape stacks.

    A finite slice of ``b - a`` with no negative eigenvalue gives 0.0 whatever
    the scale, so the scale ``max(1, norm(a_s), norm(b_s))`` is taken only
    for the others, the norms of all of them from one stacked SVD.  A slice
    whose difference is not finite, or whose smallest eigenvalue is NaN,
    cannot show the order and gives inf; it still reaches that SVD, which
    raises ``LinAlgError`` on NaN.  The violation is a maximum, so neither
    the order of the slices nor slices of exact zeros change it.
    """
    diff = b - a
    h = _hmin(diff)
    finite = np.isfinite(diff).all(axis=(-2, -1)) & ~np.isnan(h)
    bad = ~((h >= 0) & finite)
    viol = [0.0] * len(a)
    if not bad.any():
        return viol
    norms_a, norms_b = _top_singular(np.stack((a[bad], b[bad])))
    for i, hb, fb, na, nb in zip(np.nonzero(bad)[0].tolist(), h[bad].tolist(),
                                 finite[bad].tolist(), norms_a, norms_b):
        viol[i] = max(viol[i], -hb / _scale(na, nb) if fb else math.inf)
    return viol


def _sample_vectors(rng: np.random.Generator, seeds, n: int, d: int,
                    offset: int, count: int) -> np.ndarray:
    """``count`` vectors of each seed's stream ``_CHECK_STREAM + offset``,
    drawn from ``rng`` re-keyed to it, as one (len(seeds), count, n, d * n)
    stack: per seed, one draw that fills each vector's real and then
    imaginary part in the order of ``count`` successive ``complex_normal``
    draws."""
    z = np.stack([_rekey(rng, seed, _CHECK_STREAM + offset).standard_normal(
        (count, 2, n, d * n)) for seed in seeds])
    return (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)


def _norms(mats) -> list:
    """``spectral_norm`` of each matrix, in order, from one stacked SVD per
    shape."""
    by_shape: dict[tuple, list] = {}
    for i, m in enumerate(mats):
        by_shape.setdefault(m.shape, []).append(i)
    norms = [0.0] * len(mats)
    for idx in by_shape.values():
        for i, v in zip(idx, _top_singular(np.stack([mats[i] for i in idx]))):
            norms[i] = v
    return norms


def _gram(x: np.ndarray) -> np.ndarray:
    """``x x^H`` for each matrix in a stack."""
    return x @ x.conj().swapaxes(-1, -2)


def _sandwich(lo, hi, xx: np.ndarray, val: np.ndarray) -> list:
    """Violation of ``lo * xx <= val <= hi * xx`` for each case, the leading
    axis of ``val``: the largest over its slices.  A bound holds one value
    per case, or per case and slice, and broadcasts over the leading axes of
    ``val``, as ``xx`` does.  A ``lo`` of None checks the upper side only; a
    None entry of ``lo`` leaves its case's lower side exact zeros."""

    def spread(a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape + (1,) * (val.ndim - a.ndim))

    upper = spread(np.asarray(hi, dtype=float)) * xx
    if lo is None:
        return _order_violations(val, upper)
    has_lo = np.not_equal(lo, None)
    lo_xx = spread(np.where(has_lo, lo, 0.0).astype(float)) * xx
    return _order_violations(
        np.stack((lo_xx, val), axis=1),
        np.stack((np.where(spread(has_lo), val, 0.0), upper), axis=1))


@dataclass
class _Outcome:
    """One check's outcome; ``detail`` is read only on failure."""

    ok: bool
    residual: float
    detail: str


def _certify(scenario: ControlledScenario, twin: GFrameFamily) -> None:
    """Raise what evaluating this scenario alone raises first, if anything:
    ``CommutationViolated`` for a pair failing its certificate on the
    family, then a twin's shape, certificate or measure error.  The
    verdicts stay on the pair, so the checks take no certificate again."""
    pair = scenario.pair
    _require_certificate(scenario.family, pair)
    _require_certificate(ControlledScenario(twin, pair).family, pair)
    _check_same_measure(scenario.family, twin)


# A shape group is evaluated as soon as the synthesis matrices of its
# families and twins hold this many bytes, so a scenario that large is
# evaluated alone.  Without the cap, the tracemalloc peak of ``run_suite``
# over the eight verify-ladder specs rises from 6.9 to 21.0 MB.
_GROUP_BYTES = 512 * 1024


def _evaluate(cases, tol: float) -> list:
    """Every check that applies to each ``(scenario, twin, seed)`` of
    ``cases``, as a dict by check id, in input order; a check that does not
    apply has no entry.

    Each case is certified as it is read, so a twin over another measure
    raises ``MeasureMismatch`` and a pair failing its certificate on either
    family ``CommutationViolated``, from the first such case; a family is a
    valid twin of itself.  Certified cases wait in groups of one (n, d)
    until a group reaches ``_GROUP_BYTES`` or the cases end, and each
    group's checks are evaluated together.  Samples are keyed by seed and
    every stacked call works slice by slice, so no outcome depends on the
    other cases.
    """
    out: list = []
    groups: dict = {}

    def flush(key):
        positions, group, _ = groups.pop(key)
        for pos, o in zip(positions, _evaluate_group(group, tol)):
            out[pos] = o

    for case in cases:
        scenario, twin, _ = case
        _certify(scenario, twin)
        family = scenario.family
        key = family.algebra_dim, family.module_rank
        # the bytes of both synthesis matrices, before either is built
        size = sum(p.lam.action.nbytes for f in (family, twin) for p in f.points)
        group = groups.setdefault(key, [[], [], 0])
        group[0].append(len(out))
        group[1].append(case)
        group[2] += size
        out.append(None)
        if group[2] >= _GROUP_BYTES:
            flush(key)
    for key in list(groups):
        flush(key)
    return out


def _evaluate_scenario(scenario: ControlledScenario, twin: GFrameFamily,
                       seed: int, tol: float) -> dict:
    """``_evaluate`` of the one case ``(scenario, twin, seed)``."""
    return _evaluate([(scenario, twin, seed)], tol)[0]


def _evaluate_group(cases: list, tol: float) -> list:
    """Every check on certified cases ``(scenario, twin, seed)`` of one
    (n, d), by check id per case.  Each check takes one stacked call for
    the group per decomposition, sample stack and product shape."""
    k = len(cases)
    scenarios = [sc for sc, _, _ in cases]
    families = [sc.family for sc in scenarios]
    pairs = [sc.pair for sc in scenarios]
    scen_twins = [ControlledScenario(tw, p) for (_, tw, _), p in zip(cases, pairs)]
    n, d = families[0].algebra_dim, families[0].module_rank
    out = [{} for _ in cases]
    rng = stream(0, _CHECK_STREAM)  # re-keyed for every draw

    def samples(offset: int, idx) -> np.ndarray:
        return _sample_vectors(rng, [cases[i][2] for i in idx], n, d, offset,
                               _SAMPLES)

    # The plain, controlled, same-control and twin operators, with every
    # scenario's four verdicts from one stacked spectrum.
    ops = [(frame_operator(sc.family), controlled_frame_operator(sc),
            controlled_frame_operator(ControlledScenario(
                sc.family, _same_control(sc.pair))),
            controlled_frame_operator(st)) for sc, st in zip(scenarios, scen_twins)]
    verdicts = _verdicts([op for quad in ops for op in quad])
    plain, ctrl, same, twin_v = (verdicts[j::4] for j in range(4))
    frames = [i for i, v in enumerate(ctrl) if v.kind == FRAME]
    lo_c = [v.witnesses["lambda_min"] for v in ctrl]
    hi_c = [v.witnesses["lambda_max"] for v in ctrl]
    ts = [synthesis_operator(sc).action for sc in scenarios]
    sigma = _norms(ts)
    stacks = _point_stacks([f.points for f in families])
    ca = np.stack([p.c.base.action for p in pairs])[:, None]
    cpa = np.stack([p.cp.base.action for p in pairs])[:, None]

    # op_energy_bound: every point operator against sampled vectors.
    xs = samples(0, range(k))
    grams = _point_grams(stacks, xs, xs)
    sq = np.zeros((k, len(grams)))
    for ii, jj, _, acts in stacks:
        sq[ii, jj] = [v ** 2 for v in _top_singular(acts)]
    for o, viol in zip(out, _sandwich(None, sq, _gram(xs)[:, None],
                                      grams.swapaxes(0, 1))):
        o["op_energy_bound"] = _Outcome(viol <= tol, viol, "energy bound violated")

    # gram_sandwich: needs a surjective operator; the stacked synthesis of a
    # controlled frame is one.
    if frames:
        gram = np.stack([ts[i].conj().T @ ts[i] for i in frames])
        viols = _sandwich(_hmin(gram), [sigma[i] ** 2 for i in frames],
                          np.eye(gram.shape[-1]), gram)
        for i, viol in zip(frames, viols):
            out[i]["gram_sandwich"] = _Outcome(viol <= tol, viol,
                                               "gram sandwich violated")

    # plain_frame_sandwich: pointwise sums against the classifier bounds.
    xs = samples(1, range(k))
    viols = _sandwich([v.witnesses["lambda_min"] if v.kind == FRAME else None
                       for v in plain], [v.witnesses["lambda_max"] for v in plain],
                      _gram(xs), _energies(stacks, xs, xs))
    for o, viol in zip(out, viols):
        o["plain_frame_sandwich"] = _Outcome(viol <= tol, viol,
                                             "plain sandwich violated")

    # controlled_frame_sandwich: Hermitian-ness of both operators plus the
    # controlled energy against the classifier bounds.  Each operator gives
    # its asymmetry's norm and its own, all from one stacked SVD.
    tops = _top_singular(np.stack([m for plain_op, ctrl_op, _, _ in ops
                                   for x in (plain_op.action, ctrl_op.action)
                                   for m in (x - x.conj().T, x)]))
    herm = [max(asym / _scale(nrm), asym_c / _scale(nrm_c))
            for asym, nrm, asym_c, nrm_c in zip(*[iter(tops)] * 4)]
    xs = samples(2, range(k))
    viols = _sandwich([lo if v.kind == FRAME else None for v, lo in zip(ctrl, lo_c)],
                      hi_c, _gram(xs), _energies(stacks, xs @ ca, xs @ cpa))
    for o, h, viol in zip(out, herm, viols):
        viol = max(h, viol)
        o["controlled_frame_sandwich"] = _Outcome(
            viol <= tol, viol, "frame operator not Hermitian" if h > tol
            else "controlled sandwich violated")

    # norm_characterization: scalar-norm version on controlled frames.
    if frames:
        xs = samples(3, frames)
        # top singular values of every sample's gram and controlled energy,
        # from one stacked SVD
        gram_norms, val_norms = _top_singular(np.stack((
            _gram(xs), _energies(stacks if len(frames) == k else
                                 _point_stacks([families[i].points for i in frames]),
                                 xs @ ca[frames], xs @ cpa[frames]))))
        for i, gns, nvs in zip(frames, gram_norms, val_norms):
            viol = 0.0
            for gn, nv in zip(gns, nvs):
                # vec_norm(x) ** 2, through the square root as vec_norm takes it
                nx2 = float(np.sqrt(gn)) ** 2
                scale = _scale(hi_c[i] * nx2)
                viol = max(viol, (lo_c[i] * nx2 - nv) / scale,
                           (nv - hi_c[i] * nx2) / scale)
            viol = max(viol, 0.0)
            out[i]["norm_characterization"] = _Outcome(
                viol <= tol, viol, "norm characterization violated")

    # cc_equivalence_bounds: same-control pair against the plain family.
    # The transferred bounds of every frame are checked in one stack.
    checked, lows, mats, highs, tight = [], [], [], [], [0.0] * k
    for i, (pv, sv) in enumerate(zip(plain, same)):
        if pv.kind == sv.kind == FRAME:
            a_cc, b_cc = sv.bounds.lower, sv.bounds.upper
            a_pl, b_pl = pv.bounds.lower, pv.bounds.upper
            pb = bounds_plain_from_cc(a_cc, b_cc, pairs[i].c)
            cb = bounds_cc_from_plain(a_pl, b_pl, pairs[i].c)
            checked.append(i)
            lows.append((pb.lower, cb.lower))
            highs.append((pb.upper, cb.upper))
            mats.append((ops[i][0].action, ops[i][2].action))
            if (n, d) == (1, 1):
                tight[i] = max(abs(pb.lower - a_pl) / _scale(a_pl),
                               abs(pb.upper - b_pl) / _scale(b_pl),
                               abs(cb.lower - a_cc) / _scale(a_cc),
                               abs(cb.upper - b_cc) / _scale(b_cc))
    # lower bounds <= (S, S_cc) <= upper bounds, one bound pair a slice
    viols = dict(zip(checked, _sandwich(lows, highs, np.eye(n * d),
                                        np.array(mats)) if checked else ()))
    for i, (pv, sv) in enumerate(zip(plain, same)):
        agree = (sv.kind == FRAME) == (pv.kind == FRAME)
        viol = viols.get(i, 0.0) if agree else 1.0
        # a scalar transfer is held to its own gate, whatever tol is
        loose = tight[i] > SCALAR_TIGHT_TOL
        out[i]["cc_equivalence_bounds"] = _Outcome(
            agree and viol <= tol and not loose,
            max(viol, tight[i]) if loose else viol,
            "verdicts disagree" if not agree else "scalar transfer not tight"
            if loose else "transferred bounds invalid")

    for o, sg, hi in zip(out, sigma, hi_c):
        o["synthesis_norm_bound"] = _Outcome(*_norm_bound(sg, hi),
                                             "synthesis norm above bound")

    # Two-family checks against the twin, all on one cross operator each;
    # an operator and its adjoint have the same norm.
    diags = _adjoint_diagnostics([
        (op_adjoint(cross_operator(f, tw, p)), f, tw, p)
        for f, (_, tw, _), p in zip(families, cases, pairs)])
    for o, diag, hi, tv in zip(out, diags, hi_c, twin_v):
        o["cross_operator_norm_bound"] = _Outcome(
            *_norm_bound(diag.adjoint_norm, hi * tv.witnesses["lambda_max"]),
            "cross norm above bound")
        amax = max(diag.statement_residual, diag.proof_residual)
        aok = diag.matches_proof and diag.matches_statement
        o["cross_adjoint_identity"] = _Outcome(aok, amax,
                                               "adjoint closed form mismatch")

    # surjectivity_transfer: first family must be a controlled frame.
    lo_twin = [v.witnesses["lambda_min"] for v in twin_v]
    transfers = _transfer([(diags[i], scen_twins[i], lo_twin[i])
                           for i in frames], SURJECTIVITY_TOL)
    for i, (res, at_floor) in zip(frames, transfers):
        if not res.surjective:
            out[i]["surjectivity_transfer"] = _Outcome(
                False, 1.0, "mixed operator not surjective")
        else:
            out[i]["surjectivity_transfer"] = _Outcome(
                at_floor and twin_v[i].kind == FRAME,
                abs(res.gamma_lower_bound - lo_twin[i]),
                "derived bound does not certify the twin")

    # bound_product_probe (empirical): claimed bounds scaled by control norms.
    for o, pv, pair, lo, hi in zip(out, plain, pairs, lo_c, hi_c):
        if pv.kind != FRAME:
            continue
        nc = pair.c.norm
        ncp = pair.cp.norm
        lo_gap = pv.bounds.lower * nc * ncp - lo
        hi_gap = hi - pv.bounds.upper * nc * ncp
        scale = _scale(hi)
        sides = []
        if lo_gap > tol * scale:
            sides.append("claimed lower bound exceeds the spectrum")
        if hi_gap > tol * scale:
            sides.append("claimed upper bound below the spectrum")
        o["bound_product_probe"] = _Outcome(not sides,
                                            max(lo_gap, hi_gap, 0.0) / scale,
                                            "; ".join(sides))
    return out


def default_batch() -> list:
    """Deterministic 200-scenario desk-scale batch cycling all flavors."""
    combos = [(1, 1, 1), (1, 2, 3), (2, 1, 2), (2, 2, 4), (2, 3, 5),
              (3, 2, 3), (3, 4, 6), (2, 6, 8), (3, 3, 4), (1, 4, 6)]
    flavors = ("generic", "commuting", "parseval", "bessel_only")
    batch = []
    for i in range(200):
        n, d, m = combos[i % len(combos)]
        batch.append(GeneratorSpec(seed=20_000 + i, n=n, d=d, m=m,
                                   dw_range=(1, 3), spectrum_range=(0.5, 2.0),
                                   flavor=flavors[i % 4]))
    return batch


def run_suite(batch, tol: float = DEFAULT_TOL) -> list:
    """Evaluate every check over a batch of generator specs.

    Parameters
    ----------
    batch : sequence of GeneratorSpec
        Scenarios to generate and test; must be nonempty.
    tol : float
        Working tolerance for semidefinite-order margins.

    Scenarios are generated one by one and certified as they come; the
    checks then run per (n, d) group, up to ``_GROUP_BYTES`` a group, and
    each scenario's outcomes are folded in batch order.  The report is the
    one a scenario-by-scenario run gives.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("batch must contain at least one spec")
    results = {cid: CheckResult(cid) for cid in CHECKS}
    cases = ((scenario, twin, spec.seed) for spec, (scenario, twin)
             in zip(batch, _generate_batch(batch, twins=True)))
    # folded in batch order, so failures of equal (seed, detail) keep it
    for spec, out in zip(batch, _evaluate(cases, tol)):
        for cid, o in out.items():
            r = results[cid]
            r.scenarios_run += 1
            if o.ok:
                r.passes += 1
            else:
                r.failures.append(CheckFailure(spec.seed, o.residual, o.detail))
    final = []
    for cid in sorted(CHECKS):
        r = results[cid]
        r.failures.sort(key=lambda f: (f.seed, f.detail))
        if cid in EMPIRICAL_CHECKS:
            r.status = "empirical"
        else:
            r.status = "pass" if not r.failures else "fail"
        final.append(r)
    return final


def suite_passed(results) -> bool:
    """True when every normative check passed; empirical entries never veto."""
    return all(r.status != "fail" for r in results)
