"""JSON codecs: canonical emitter, matrix packing, schema diagnostics."""

import copy
import json
import math
from itertools import chain

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes import (ControlledScenario, ControlPair, GeneratorSpec,
                     GFrameError, GFrameFamily, MeasurePoint, ModuleOperator,
                     ModuleVector, SchemaError, controlled_frame_operator,
                     frame_operator, generate, identity_control,
                     make_positive_invertible)
from gframes import serialization as ser
from gframes.rng import complex_normal, stream
from conftest import file_form, pair_list


def test_dumps_17_digit_floats():
    # 0.1 is not representable; 17 significant digits pin the stored double
    assert ser.dumps(0.1) == "0.10000000000000001\n"
    assert ser.dumps(1.0) == "1\n"
    assert ser.dumps(1e-9) == "1.0000000000000001e-09\n"


def test_dumps_round_trips_doubles():
    rng = stream(1, 0)
    for _ in range(200):
        x = float(rng.normal()) * 10.0 ** int(rng.integers(-12, 12))
        assert json.loads(ser.dumps(x)) == x


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        ser.dumps(float("nan"))
    with pytest.raises(ValueError):
        ser.dumps([float("inf")])


def test_dumps_layout():
    obj = {"a": 1, "b": [1.5, 2.5], "c": {"d": [{"e": 1}]}}
    text = ser.dumps(obj)
    # numeric lists inline, structural nesting indented
    assert '"b": [1.5, 2.5]' in text
    assert json.loads(text) == obj


def test_dumps_preserves_insertion_order():
    text = ser.dumps({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


def test_dumps_escapes_strings():
    assert json.loads(ser.dumps({"k": 'a"b\\c\n'})) == {"k": 'a"b\\c\n'}
    # every control character, the two JSON metacharacters, DEL and a
    # non-ASCII letter, as a value and as a key
    text = "".join(map(chr, range(0x20))) + '"\\\x7f\u00e9'
    out = ser.dumps({text: text})
    assert json.loads(out) == {text: text}
    # non-ASCII text is written as itself, not as an escape
    assert out.count("\u00e9") == 2


def test_matrix_codec_round_trip():
    m = complex_normal(stream(2, 0), (3, 4))
    obj = file_form(m)
    assert len(obj) == 12
    back = ser.matrix_from_obj(obj, 3, 4, "m")
    np.testing.assert_array_equal(back, m)


def test_matrix_codec_row_major():
    m = np.array([[1 + 2j, 3 + 4j]], dtype=np.complex128)
    assert file_form(m) == [[1.0, 2.0], [3.0, 4.0]]


def test_matrix_wrong_length():
    with pytest.raises(SchemaError) as err:
        ser.matrix_from_obj([[1.0, 0.0]], 2, 2, "lam")
    assert "lam" in str(err.value)
    assert "4" in str(err.value)


def test_matrix_bad_pair():
    with pytest.raises(SchemaError) as err:
        ser.matrix_from_obj([[1.0, 0.0], [1.0]], 1, 2, "m")
    assert "m[1]" in str(err.value)


def test_matrix_non_finite_entry():
    with pytest.raises(SchemaError):
        ser.matrix_from_obj([[math.inf, 0.0]], 1, 1, "m")


def reference_matrix_from_obj(obj, rows, cols, path):
    """The per-entry parser the vectorized one replaced, kept as its oracle."""
    ser._want(isinstance(obj, list), path, "expected a list of [re, im] pairs")
    ser._want(len(obj) == rows * cols, path,
              f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(obj)}")
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(obj):
        ser._want(isinstance(pair, list) and len(pair) == 2, f"{path}[{i}]",
                  "expected an [re, im] pair")
        re = ser._as_real(pair[0], f"{path}[{i}]")
        im = ser._as_real(pair[1], f"{path}[{i}]")
        out[i] = complex(re, im)
    return out.reshape(rows, cols)


EDGE_NUMBERS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 0, -3, 2**53 + 1, 2**63 + 5, 10**30]


def test_matrix_from_obj_bit_for_bit():
    rng = stream(12, 0)
    cases = [pair_list(complex_normal(rng, (r, c)))
             for r, c in ((1, 1), (3, 4), (16, 8), (32, 32))]
    edge = [[a, b] for a in EDGE_NUMBERS for b in EDGE_NUMBERS]
    cases += [edge, edge[::-1], [[v, -v] for v in EDGE_NUMBERS]]
    for obj in cases:
        got = ser.matrix_from_obj(obj, 1, len(obj), "m")
        want = reference_matrix_from_obj(obj, 1, len(obj), "m")
        assert got.dtype == np.complex128 and got.shape == (1, len(obj))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_matrix_from_obj_of_orjson_numbers_matches_the_reference():
    # orjson's numbers through the flat pass, json's through the oracle
    x = stream(14, 0).integers(0, 2**64, 4096, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)][:4000].reshape(-1, 2).tolist()
    text = "[" + ", ".join("[%.17g, %r]" % (a, b) for a, b in x) + "]"
    got = ser.matrix_from_obj(orjson.loads(text), 1, len(x), "m")
    want = reference_matrix_from_obj(json.loads(text), 1, len(x), "m")
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_matrix_from_obj_takes_one_pass_on_valid_input(monkeypatch):
    # the per-entry loop only names bad entries; valid JSON never reaches it
    def no_loop(v, path):
        raise AssertionError(f"per-entry loop reached at {path}")
    monkeypatch.setattr(ser, "_as_real", no_loop)
    obj = [[1.5, -0.0], [2, 10**30], [5e-324, -3]]
    assert ser.matrix_from_obj(obj, 3, 1, "m").shape == (3, 1)
    assert ser.matrix_from_obj([], 0, 3, "m").shape == (0, 3)


class Count(int):
    pass


@pytest.mark.parametrize("entry", [np.float64(0.5), np.int64(2), Count(2)],
                         ids=["float64", "int64", "int_subclass"])
def test_matrix_from_obj_takes_json_numbers_only(entry):
    with pytest.raises(SchemaError) as err:
        ser.matrix_from_obj([[1.0, 0.0], [0.0, entry]], 2, 1, "m")
    assert str(err.value) == "m[1]: expected a real number"


def test_dumps_of_an_array_keeps_bits():
    m = complex_normal(stream(13, 0), (4, 6))
    m[0, 0] = complex(-0.0, -0.0)
    m[1, 2] = complex(5e-324, -1.7976931348623157e308)
    for mat in (m, m.T, m[::2, 1::3]):
        # every entry, -0 included, read as the float its text names
        obj = json.loads(ser.dumps(mat), parse_int=float)
        want = pair_list(mat)
        assert [type(v) for pair in obj for v in pair] == [float] * (2 * mat.size)
        assert np.array_equal(np.array(obj).view(np.uint64),
                              np.array(want).view(np.uint64))


# matrix, then the exact message: the first bad entry is the one reported
MALFORMED = [
    ([[1.0, 0.0], [True, 0.0]], "m[1]: expected a real number"),
    ([[1.0, 0.0], [0.5, "1.5"]], "m[1]: expected a real number"),
    ([[None, 0.0], [0.5, 0.0]], "m[0]: expected a real number"),
    ([[1.0, 0.0], [0.5, math.nan]], "m[1]: must be finite"),
    ([[1.0, -math.inf], [0.5, 0.0]], "m[0]: must be finite"),
    ([[1.0, 0.0], {"re": 0.5, "im": 0.0}], "m[1]: expected an [re, im] pair"),
    ([[1.0, 0.0], (0.5, 0.0)], "m[1]: expected an [re, im] pair"),
    ([[1.0, 0.0], [0.5]], "m[1]: expected an [re, im] pair"),
    ([[1.0, 0.0], [0.5, 0.0, 0.0]], "m[1]: expected an [re, im] pair"),
    ([[], [0.5, 0.0]], "m[0]: expected an [re, im] pair"),
    ([[], []], "m[0]: expected an [re, im] pair"),
    ([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]], "m[0]: expected an [re, im] pair"),
    ([[1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]], "m[0]: expected an [re, im] pair"),
    ([[1.0, 0.0], [[0.5], 0.0]], "m[1]: expected a real number"),
    ([[1.0, 0.0], [0.5, 10**400]], "m[1]: must be finite"),
    ([[1.0, "x"], [True, 0.0]], "m[0]: expected a real number"),
    ([[1.0, 0.0], [0.5], [math.nan, 0.0]], "m[1]: expected an [re, im] pair"),
]


@pytest.mark.parametrize("obj,message", MALFORMED)
def test_matrix_schema_messages(obj, message):
    with pytest.raises(SchemaError) as err:
        ser.matrix_from_obj(obj, len(obj), 1, "m")
    assert str(err.value) == message


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(finite, min_size=2, max_size=2), min_size=1, max_size=40))
def test_dumps_float_pairs_match_recursive_emitter(obj):
    assert ser.dumps(obj) == ser._inline(obj) + "\n"
    assert ser.dumps({"m": obj}) == '{\n  "m": ' + ser._inline(obj) + "\n}\n"


def test_dumps_float_pairs_edge_values():
    obj = [[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308],
           [0.1, -1e-9]]
    assert ser.dumps(obj) == (
        "[[-0, 4.9406564584124654e-324], "
        "[1.7976931348623157e+308, -2.2250738585072014e-308], "
        "[0.10000000000000001, -1.0000000000000001e-09]]\n")


@pytest.mark.parametrize("obj,text", [
    ([(1.5, 2.5)], "[[1.5, 2.5]]"),
    ([[np.float64(0.1), 0.5]], "[[0.10000000000000001, 0.5]]"),
    ([[1, 2], [3, 4]], "[[1, 2], [3, 4]]"),
    ([[10**20, 0.5]], "[[100000000000000000000, 0.5]]"),
    ([[True, 0.5]], "[\n  [\n    true,\n    0.5\n  ]\n]"),
    ([[1.5], [2.5, 3.5]], "[[1.5], [2.5, 3.5]]"),
    ([[1.5, 2.5, 3.5]], "[[1.5, 2.5, 3.5]]"),
])
def test_dumps_other_numeric_lists_keep_the_recursive_path(obj, text):
    assert ser.dumps(obj) == text + "\n"


@pytest.mark.parametrize("obj", [[[math.inf, 0.0]], [[0.0, math.nan]],
                                 [[1.0, 0.0], [-math.inf, 1.0]]])
def test_dumps_float_pairs_reject_non_finite(obj):
    with pytest.raises(ValueError):
        ser.dumps(obj)


def reference_dumps(obj) -> str:
    """The emitter as it stood before one recursion both decided and
    rendered inline numeric lists: a whole-list numeric test, then a
    second walk to render."""

    def number(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, int):
            return str(x)
        v = float(x)
        if not math.isfinite(v):
            raise ValueError("non-finite number in JSON output")
        return format(v, ".17g")

    def is_number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def float_pairs(x):
        if set(map(type, x)) != {list} or set(map(len, x)) != {2}:
            return None
        flat = tuple(chain.from_iterable(x))
        if set(map(type, flat)) != {float}:
            return None
        if not all(map(math.isfinite, flat)):
            raise ValueError("non-finite number in JSON output")
        return ("[" + ", ".join(["[%.17g, %.17g]"] * len(x)) + "]") % flat

    def all_numeric(x):
        if is_number(x):
            return True
        return isinstance(x, (list, tuple)) and all(all_numeric(v) for v in x)

    def inline(x):
        return number(x) if is_number(x) else "[" + ", ".join(map(inline, x)) + "]"

    def emit(x, out, level):
        pad = "  " * level
        if x is None:
            out.append("null")
        elif isinstance(x, bool):
            out.append("true" if x else "false")
        elif is_number(x):
            out.append(number(x))
        elif isinstance(x, str):
            out.append(json.dumps(x, ensure_ascii=False))
        elif isinstance(x, (list, tuple)):
            if len(x) == 0:
                out.append("[]")
            elif (pairs := float_pairs(x)) is not None:
                out.append(pairs)
            elif all_numeric(x):
                out.append("[" + ", ".join(inline(v) for v in x) + "]")
            else:
                out.append("[\n")
                for i, v in enumerate(x):
                    out.append(pad + "  ")
                    emit(v, out, level + 1)
                    out.append(",\n" if i + 1 < len(x) else "\n")
                out.append(pad + "]")
        elif isinstance(x, dict):
            if not x:
                out.append("{}")
            else:
                out.append("{\n")
                items = list(x.items())
                for i, (k, v) in enumerate(items):
                    if not isinstance(k, str):
                        raise TypeError(f"JSON keys must be strings, got {k!r}")
                    out.append(pad + "  " + json.dumps(k, ensure_ascii=False) + ": ")
                    emit(v, out, level + 1)
                    out.append(",\n" if i + 1 < len(items) else "\n")
                out.append(pad + "}")
        else:
            raise TypeError(f"cannot serialize {type(x).__name__}")

    out = []
    emit(obj, out, 0)
    return "".join(out) + "\n"


def emitted(dumps, obj):
    """The text ``dumps`` gives for ``obj``, or the type and message of
    what it raises."""
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


json_floats = st.floats() | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
json_leaves = (st.none() | st.booleans() | st.integers()
               | st.integers(2**63, 2**70) | st.integers(-2**70, -2**63)
               | json_floats | st.text(max_size=5)
               | st.builds(np.float64, json_floats)
               | st.builds(np.int64, st.integers(-2**63, 2**63 - 1))
               | st.builds(object)
               | st.lists(st.lists(json_floats, min_size=2, max_size=2), max_size=3))
json_trees = st.recursive(
    json_leaves,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=3) | st.integers(0, 3), kids,
                                    max_size=3)),
    max_leaves=20)


@settings(max_examples=500, deadline=None)
@given(json_trees)
def test_dumps_matches_the_two_walk_emitter(obj):
    assert emitted(ser.dumps, obj) == emitted(reference_dumps, obj)


@pytest.mark.parametrize("obj,error", [([object(), math.nan], TypeError),
                                       ([math.nan, object()], ValueError)])
def test_dumps_raises_at_the_first_bad_entry(obj, error):
    with pytest.raises(error):
        ser.dumps(obj)


# ------------------------------------------------------ arrays as pair lists

# finite floats, the edges of the doubles, far exponents and integral floats
array_entries = (finite | st.integers(-2**60, 2**60).map(float)
                 | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308,
                                    -1.7976931348623157e308, 1e150, 1e-150]))


@st.composite
def arrays(draw):
    """A complex 1x1 to 8x8 array, a transposed, strided or real (float64)
    view of one, or an empty 0x3 array."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    parts = draw(st.lists(array_entries, min_size=2 * rows * cols,
                          max_size=2 * rows * cols))
    a = np.array(parts).view(np.complex128).reshape(rows, cols)
    return draw(st.sampled_from(
        [a, a.T, a[::2, ::-1], a.T[1::2], a.real, np.empty((0, 3))]))


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_dumps_writes_an_array_as_its_pair_list(a):
    text = ser._inline(pair_list(a))
    assert ser.dumps(a) == text + "\n"
    assert ser.dumps({"m": a}) == '{\n  "m": ' + text + "\n}\n"
    # a list of matrices, as a vector's blocks, stays on one line
    assert ser.dumps([a, pair_list(a)]) == "[" + text + ", " + text + "]\n"


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dumps_refuses_a_non_finite_array_as_its_pair_list(bad, part):
    a = complex_normal(stream(15, 0), (2, 3))
    a[1, 2] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    want = emitted(ser.dumps, pair_list(a))
    assert want == (ValueError, "non-finite number in JSON output")
    assert emitted(ser.dumps, a) == want
    assert emitted(ser.dumps, {"m": a}) == want


def list_document(sc) -> dict:
    """The document of ``sc`` with each matrix as its pair list, the form
    ``scenario_to_obj`` built before documents held arrays."""
    f = sc.family
    obj = {"version": ser.SCENARIO_VERSION, "n": f.algebra_dim, "d": f.module_rank,
           "points": [{"weight": p.weight, "dw": p.codomain_rank,
                       "lambda": pair_list(p.lam.action)} for p in f.points]}
    for key, ctrl in (("C", sc.pair.c), ("Cprime", sc.pair.cp)):
        obj[key] = "identity" if ctrl.is_identity else pair_list(ctrl.base.action)
    return obj


@pytest.mark.parametrize("spectrum", [(0.5, 2.0), (1e-150, 1e150), (1e150, 1e150)],
                         ids=["0.5-2", "1e-150-1e150", "1e150-1e150"])
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 3), (8, 4, 16)],
                         ids=["1x1x1", "3x2x3", "8x4x16"])
@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval", "bessel_only"])
def test_scenario_document_writes_the_bytes_of_its_pair_lists(flavor, shape, spectrum):
    n, d, m = shape
    sc = generate(GeneratorSpec(seed=44, n=n, d=d, m=m, spectrum_range=spectrum,
                                flavor=flavor))
    obj = ser.scenario_to_obj(sc)
    # the document holds the scenario's own arrays, and no list built of them
    assert all(q["lambda"] is p.lam.action
               for p, q in zip(sc.family.points, obj["points"]))
    for key, ctrl in (("C", sc.pair.c), ("Cprime", sc.pair.cp)):
        assert (obj[key] == "identity") if ctrl.is_identity else (
            obj[key] is ctrl.base.action)
    assert ser.dumps(obj) == reference_dumps(list_document(sc))


def test_vector_round_trip():
    x = ModuleVector(2, 3, complex_normal(stream(3, 0), (2, 6)))
    back = ser.vector_from_obj(file_form(ser.vector_to_obj(x)))
    np.testing.assert_array_equal(back.flat, x.flat)


def test_scenario_weight_path_in_error():
    obj = file_form(ser.scenario_to_obj(generate(GeneratorSpec(
        seed=6, n=1, d=1, m=2, flavor="generic"))))
    obj["points"][1]["weight"] = -3.0
    with pytest.raises(SchemaError) as err:
        ser.scenario_from_obj(obj)
    assert "points[1].weight" in str(err.value)


def test_scenario_round_trip_bytes():
    sc = generate(GeneratorSpec(seed=7, n=2, d=2, m=3, flavor="commuting"))
    text1 = ser.dumps(ser.scenario_to_obj(sc))
    rebuilt = ser.scenario_from_obj(json.loads(text1))
    text2 = ser.dumps(ser.scenario_to_obj(rebuilt))
    assert text1 == text2


def test_scenario_identity_shorthand():
    sc = generate(GeneratorSpec(seed=8, n=2, d=2, m=3, flavor="generic"))
    obj = file_form(ser.scenario_to_obj(sc))
    assert obj["C"] == "identity"
    assert obj["Cprime"] == "identity"
    back = ser.scenario_from_obj(obj)
    np.testing.assert_array_equal(back.pair.c.base.action, np.eye(4))


def test_scenario_explicit_controls_survive():
    sc = generate(GeneratorSpec(seed=9, n=2, d=2, m=3, flavor="commuting"))
    obj = file_form(ser.scenario_to_obj(sc))
    assert obj["C"] != "identity"
    back = ser.scenario_from_obj(obj)
    np.testing.assert_allclose(back.pair.c.base.action, sc.pair.c.base.action,
                               atol=1e-15)


@pytest.mark.parametrize("shape,dw_range", [((1, 1, 1), (1, 3)), ((3, 2, 3), (1, 3)),
                                            ((8, 4, 16), (2, 2))])
@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval", "bessel_only"])
def test_scenario_read_back_is_the_generated_one_bit_for_bit(flavor, shape, dw_range):
    # what lets the CLI hand the scenario generate wrote to the next read
    n, d, m = shape
    sc = generate(GeneratorSpec(seed=43, n=n, d=d, m=m, dw_range=dw_range,
                                flavor=flavor))
    back = ser.scenario_from_obj(file_form(ser.scenario_to_obj(sc)))

    def bits(a):
        return np.ascontiguousarray(a).tobytes()

    assert len(back.family.points) == len(sc.family.points)
    for p, q in zip(sc.family.points, back.family.points):
        assert p.weight.hex() == q.weight.hex()
        assert bits(p.lam.action) == bits(q.lam.action)
    for k, kb in ((sc.pair.c, back.pair.c), (sc.pair.cp, back.pair.cp)):
        assert bits(k.base.action) == bits(kb.base.action)
        assert bits(k.inverse.action) == bits(kb.inverse.action)
        assert [k.norm.hex(), k.inverse_norm.hex(), k.condition_number.hex()] == \
            [kb.norm.hex(), kb.inverse_norm.hex(), kb.condition_number.hex()]
    # two identity controls are one object either way
    assert (back.pair.cp is back.pair.c) == (sc.pair.cp is sc.pair.c)
    assert bits(back.pair.product_sqrt.action) == bits(sc.pair.product_sqrt.action)
    assert bits(frame_operator(back.family).action) == bits(frame_operator(sc.family).action)
    assert bits(controlled_frame_operator(back).action) == \
        bits(controlled_frame_operator(sc).action)
    # repr keeps the sign of a zero, which == does not
    assert repr(back.pair.report_on(back.family)) == repr(sc.pair.report_on(sc.family))


def test_scenario_schema_paths():
    sc = generate(GeneratorSpec(seed=10, n=1, d=1, m=1, flavor="generic"))
    base = file_form(ser.scenario_to_obj(sc))

    missing = dict(base)
    del missing["points"]
    with pytest.raises(SchemaError) as err:
        ser.scenario_from_obj(missing)
    assert "points" in str(err.value)

    bad_version = dict(base)
    bad_version["version"] = 99
    with pytest.raises(SchemaError) as err:
        ser.scenario_from_obj(bad_version)
    assert "version" in str(err.value)

    bad_weight = json.loads(json.dumps(base))
    bad_weight["points"][0]["weight"] = -1
    with pytest.raises(SchemaError) as err:
        ser.scenario_from_obj(bad_weight)
    assert "points[0].weight" in str(err.value)

    bad_lam = json.loads(json.dumps(base))
    bad_lam["points"][0]["dw"] = 2
    bad_lam["points"][0]["lambda"] = [[1.0, 0.0]]
    with pytest.raises(SchemaError) as err:
        ser.scenario_from_obj(bad_lam)
    assert "points[0].lambda" in str(err.value)


def test_spec_round_trip():
    spec = GeneratorSpec(seed=11, n=2, d=3, m=5, dw_range=(2, 4),
                         spectrum_range=(0.25, 2.0), flavor="commuting")
    back = ser.spec_from_obj(ser.spec_to_obj(spec))
    assert back == spec


def test_spec_defaults_apply():
    back = ser.spec_from_obj({"seed": 1, "n": 1, "d": 1, "m": 1})
    assert back.dw_range == (1, 3)
    assert back.flavor == "generic"


def test_spec_error_paths():
    with pytest.raises(SchemaError) as err:
        ser.spec_from_obj({"seed": 1, "n": 1, "d": 1})
    assert "'m'" in str(err.value)
    with pytest.raises(SchemaError) as err:
        ser.batch_from_obj([{"seed": 1, "n": 1, "d": 1, "m": 1},
                            {"seed": 2, "n": 1, "d": 1}])
    assert "[1]" in str(err.value) and "'m'" in str(err.value)
    with pytest.raises(SchemaError):
        ser.batch_from_obj({"not": "a list"})


def test_check_result_serialization():
    from gframes import run_suite
    results = run_suite([GeneratorSpec(seed=100, n=1, d=1, m=2)])
    obj = ser.check_result_to_obj(results[0])
    assert set(obj) == {"check_id", "scenarios_run", "passes", "failures",
                        "status"}
    text = ser.dumps(obj)
    assert json.loads(text)["check_id"] == results[0].check_id


# ------------------------------------------- one sweep per scenario document


def reference_scenario_from_obj(obj, tol=ser.DEFAULT_TOL):
    """``scenario_from_obj`` as a sequential validator: every matrix parsed
    alone, in document order, by ``reference_matrix_from_obj``."""
    ser._want(isinstance(obj, dict), "", "expected a scenario object")
    version = ser._as_int(ser._get(obj, "version", ""), "version")
    ser._want(version == ser.SCENARIO_VERSION, "version",
              f"unsupported version {version}, expected {ser.SCENARIO_VERSION}")
    n = ser._as_int(ser._get(obj, "n", ""), "n", 1)
    d = ser._as_int(ser._get(obj, "d", ""), "d", 1)
    pts_obj = ser._get(obj, "points", "")
    ser._want(isinstance(pts_obj, list) and len(pts_obj) >= 1, "points",
              "expected a nonempty list")
    points = []
    for i, po in enumerate(pts_obj):
        pp = f"points[{i}]"
        ser._want(isinstance(po, dict), pp, "expected an object")
        weight = ser._as_real(ser._get(po, "weight", pp), f"{pp}.weight")
        ser._want(weight > 0, f"{pp}.weight", "must be positive")
        dw = ser._as_int(ser._get(po, "dw", pp), f"{pp}.dw", 1)
        mat = reference_matrix_from_obj(ser._get(po, "lambda", pp), d * n, dw * n,
                                        f"{pp}.lambda")
        points.append(MeasurePoint(weight, ModuleOperator(n, d, dw, mat)))
    family = GFrameFamily(n, d, tuple(points))
    controls = []
    for key in ("C", "Cprime"):
        v = ser._get(obj, key, "")
        if v == "identity":
            controls.append(identity_control(n, d))
        else:
            mat = reference_matrix_from_obj(v, d * n, d * n, key)
            controls.append(make_positive_invertible(ModuleOperator(n, d, d, mat)))
    return ControlledScenario(family, ControlPair(controls[0], controls[1], tol))


def outcome(read, obj):
    """The error ``read(obj)`` raises, by type and message, or the bits of
    every weight, point action and control action it reads."""
    try:
        sc = read(obj)
    except (GFrameError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return ([p.weight for p in sc.family.points],
            [p.lam.action.tobytes() for p in sc.family.points],
            [k.base.action.tobytes() for k in (sc.pair.c, sc.pair.cp)])


# (1, 1, 2) generic carries identity controls, (2, 2, 3) commuting explicit ones
SWEEP_BASES = [file_form(ser.scenario_to_obj(generate(GeneratorSpec(
    seed=23, n=n, d=d, m=m, dw_range=(1, 2), flavor=flavor))))
    for n, d, m, flavor in ((1, 1, 2, "generic"), (2, 2, 3, "commuting"))]

# entries that are no JSON real number, or no finite double; json reads
# NaN and Infinity tokens as floats
BAD_ENTRIES = [True, False, "1.5", None, 10**400, math.nan, -math.inf]
# entries that keep the document valid and must keep their bits
GOOD_ENTRIES = [0, -0.0, 3, 2**53 + 1, 2**64, 5e-324, -1.7976931348623157e308]
CORRUPTIONS = ("entry", "pair_length", "scalar", "missing_key", "weight", "dw",
               "lambda_not_list", "control")


def corrupt(obj, kind, draw) -> None:
    """Apply one corruption of ``kind`` at a drawn path of ``obj``, where
    earlier corruptions left one to apply it at."""
    def pick(seq):
        return seq[draw(st.integers(0, len(seq) - 1))]
    points = [p for p in obj.get("points", ()) if isinstance(p, dict)]
    mats = ([p["lambda"] for p in points if isinstance(p.get("lambda"), list)]
            + [obj[k] for k in ("C", "Cprime") if isinstance(obj.get(k), list)])
    mats = [m for m in mats if m]
    if kind in ("entry", "pair_length", "good_entry") and mats:
        mat = pick(mats)
        i = draw(st.integers(0, len(mat) - 1))
        if kind == "pair_length":
            mat[i] = pick([[], [1.0], [1.0, 2.0, 3.0], 1.0])
        elif isinstance(mat[i], list) and len(mat[i]) == 2:
            mat[i] = list(mat[i])
            mat[i][draw(st.integers(0, 1))] = pick(
                BAD_ENTRIES if kind == "entry" else GOOD_ENTRIES)
    elif kind == "scalar":
        target = pick([obj] + points)
        keys = [k for k in ("version", "n", "d", "weight", "dw") if k in target]
        if keys:
            target[pick(keys)] = pick(BAD_ENTRIES + [1.5, -1])
    elif kind == "missing_key":
        target = pick([obj] + points)
        if target:
            del target[pick(sorted(target))]
    elif kind in ("weight", "dw", "lambda_not_list") and points:
        point = pick(points)
        if kind == "weight":
            point["weight"] = pick([0, 0.0, -0.0, -1, -1e-300, -2.5])
        elif kind == "dw":
            point["dw"] = 0
        else:
            point["lambda"] = pick([{}, "lambda", 1.5, None])
    elif kind == "control":
        # the control's size follows n and d only where earlier corruptions
        # left them small integers; a "scalar" corruption may have made them
        # a string, None, a float or 10**400
        n, d = obj.get("n", 1), obj.get("d", 1)
        k = n * d if all(isinstance(v, int) and abs(v) <= 4 for v in (n, d)) else 1
        obj[pick(["C", "Cprime"])] = pick(
            ["Identity", [[1.0, 0.0]] * (k * k - 1), [[1.0, 0.0]] * (k * k + 1)])


# a control entry near -1.8e308 overflows the control's Hermitian part,
# in both readers alike
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scenario_sweep_keeps_the_sequential_outcome(data):
    obj = copy.deepcopy(data.draw(st.sampled_from(SWEEP_BASES)))
    for _ in range(data.draw(st.integers(0, 3))):
        corrupt(obj, "good_entry", data.draw)
    for _ in range(data.draw(st.integers(0, 2))):
        corrupt(obj, data.draw(st.sampled_from(CORRUPTIONS)), data.draw)
    assert outcome(ser.scenario_from_obj, obj) == outcome(
        reference_scenario_from_obj, obj)


@pytest.mark.parametrize("base", SWEEP_BASES, ids=["identity", "explicit"])
def test_scenario_takes_one_sweep(base, monkeypatch):
    sweeps = []
    real = ser._sweep
    monkeypatch.setattr(ser, "_sweep", lambda mats: sweeps.append(mats) or real(mats))
    assert outcome(ser.scenario_from_obj, base) == outcome(
        reference_scenario_from_obj, base)
    # every lambda and every explicit control, in one sweep
    assert len(sweeps) == 1
    assert sweeps[0] == [p["lambda"] for p in base["points"]] + [
        base[k] for k in ("C", "Cprime") if base[k] != "identity"]
