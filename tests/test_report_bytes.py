"""Byte guard: sha256 digests of CLI reports, pinned.

Refactors and optimizations must leave every report byte unchanged.  The
digests below cover ``verify --batch`` on a mixed batch (all four flavors,
scalar (1, 1, 1) shapes and one (8, 4, 16) scenario) at the default
tolerance and at ``--tol 1e-18``, where failure residuals are reported,
the same two runs on every flavor at shapes (3, 2, 3) and (8, 4, 16),
plus ``generate``, ``analyze`` and ``reconstruct --random`` for one
scenario per flavor and for one commuting (8, 4, 16) scenario, and
``analyze`` and ``reconstruct`` of a hand-written scenario file whose
matrices hold -0.0 and integer entries, and of a commuting scenario file
whose ``C`` is written out as an identity matrix.  ``verify --batch`` on
eight specs of the shapes the verify-ladder benchmark runs, and
``generate`` and ``analyze`` of one commuting (8, 8, 32) scenario, pin the
commutation certificates at the largest sizes.  ``analyze --tol 1e-18`` of
the commuting (2, 3, 5) and (8, 8, 32) files pins failing certificates,
which print every exact commutator.  Float results may differ in the
last bits under another numpy build, so the test only runs on the numpy
version the digests were recorded with.
"""

import hashlib
import json

import numpy as np
import pytest

from gframes.cli import main

NUMPY_VERSION = "2.4.6"

FLAVORS = ("generic", "commuting", "parseval", "bessel_only")

BATCH = ([{"seed": 800 + i, "n": 1, "d": 1, "m": 1, "flavor": fl}
          for i, fl in enumerate(FLAVORS)]
         + [{"seed": 810 + i, "n": 2, "d": 2, "m": 4, "flavor": fl}
            for i, fl in enumerate(FLAVORS)]
         + [{"seed": 820, "n": 8, "d": 4, "m": 16, "flavor": "commuting"}])

# every flavor at two larger shapes, so the cross-norm, adjoint and transfer
# residuals of multi-block scenarios are pinned too
WIDE_BATCH = [{"seed": 880 + 4 * j + i, "n": n, "d": d, "m": m, "flavor": fl}
              for j, (n, d, m) in enumerate(((3, 2, 3), (8, 4, 16)))
              for i, fl in enumerate(FLAVORS)]

# every flavor at n = 8, (d, m) in {(4, 16), (8, 32)}, with dw fixed at 2
LADDER_BATCH = [{"seed": 900 + 4 * j + i, "n": 8, "d": d, "m": m,
                 "dw_range": [2, 2], "flavor": fl}
                for j, (d, m) in enumerate(((4, 16), (8, 32)))
                for i, fl in enumerate(FLAVORS)]

# integer weights and entries, and -0.0 in both parts, as a person writes them
HANDWRITTEN = {
    "version": 1, "n": 2, "d": 1,
    "points": [
        {"weight": 1, "dw": 1,
         "lambda": [[1, 0], [-0.0, 0], [0, -0.0], [2, 0]]},
        {"weight": 0.5, "dw": 2,
         "lambda": [[-0.0, -0.0], [0, 1], [0.0, 0], [-0.0, 0],
                    [0, 0], [-0.0, 0], [3, -0.0], [0, 0]]},
    ],
    "C": "identity",
    "Cprime": [[2, 0], [0, -0.0], [-0.0, 0], [3, 0]],
}

# a commuting scenario whose C is written out as the identity matrix, with
# its generated dense Cprime
EXPLICIT_IDENTITY_SPEC = {"seed": 890, "n": 2, "d": 2, "m": 4, "flavor": "commuting"}

# name -> (exit code, sha256 of the report bytes, None when none is written)
DIGESTS = {
    "verify": (0, "3889c4c1f324b2bafc130c408d2a978c0b95201783ae2491e2fa5c042e56a474"),
    "verify_1e-18": (3, "8b45890f13f58acfcfdf9388ec06cb4329cda39396b0ad41e3a1e2658b6fad46"),
    "verify_wide": (0, "30378dbe8b68b9fca8bb2d6bf8ebbd23d8437d4fb1a317d72cb6b71a65c2a745"),
    "verify_wide_1e-18": (3, "18e700255f1c3c648f4d4a31ae2acd883f5742378a7cdc18dc251384a829e07e"),
    "generate_generic": (0, "87022ca4fc0bddc0b954d21ea4fa68086e9ef2c5691cf6ece841930c0254e2d0"),
    "analyze_generic": (0, "96ee8e7b6702aad012a3a860f1310923e2c510ebd7c60986322a560c1f029cd6"),
    "reconstruct_generic": (0, "5ba5056d0624bdc8cae037fe8abb1c67889f26db99f54339b2e50adc15df0bf5"),
    "generate_commuting": (0, "07fcc05628e96815b56c99f154f9eb1ca40c3bceed185a09c6d8d9fdfc34e560"),
    "analyze_commuting": (0, "584e3365c4edd2c07a6342fba052f3e1c86c30866195e15c65ee7a46406d4daf"),
    "reconstruct_commuting": (0, "84e3e5c410cdc78c610d99c68d8388daac20968cacc18b5de002802db8e5f54a"),
    "generate_parseval": (0, "5bf5393673d8e4eb33e08a92d121de50ed0f93ce86c1ecdf7c5502c01bc04234"),
    "analyze_parseval": (0, "1141c537158e8753f2b7e64083fec868d8ae2c6f5177b5d55dbc2e5a63fc84a7"),
    "reconstruct_parseval": (0, "28082afabf36123a42ee3a7d12098a9ef9e45d6e142a92ef83449a034f2e0174"),
    "generate_bessel_only": (0, "b1672b696f3a8618585a47f375dfe80e1dc495d2d7fc78e5a9fda5407e691701"),
    "analyze_bessel_only": (2, "4d2e3b1219704c29e77bd8437ff8b89a63f403db881cecbaa7ac729b326f94a9"),
    "reconstruct_bessel_only": (2, None),
    "generate_large": (0, "8c85a9e3499c5a603f116299d88e430e1957874aa29edd35752a8bf9d2d5ec73"),
    "analyze_large": (0, "7689ab0a9a6c2ca0a522b7b59914a2b9db3af2e0374d12bf77172f5ddea7e810"),
    "reconstruct_large": (0, "4ec41bd709494dab19a22a078693e69034922e6527adf7ff322ef820277c4980"),
    "analyze_handwritten": (0, "fc67e8cc3f9833a774398b554a51f9e40e01328aea1c8c59fd56cc767d45c176"),
    "reconstruct_handwritten": (0, "7d0c0173235828f8ecc68383f6e460c35c2c0685f1f123181042811eb747cae7"),
    "generate_explicit_identity": (0, "945b0e7d6c080616f7dc1bbb37b958489ae90df5f9f779c8928146d4804852cc"),
    "analyze_explicit_identity": (0, "05849cde20928e61642ec67a562f070ef74eb861da4dddb4479a243745f9933e"),
    "reconstruct_explicit_identity": (0, "f5c98766fd0a9ba76d8040611d7c357fd626ff6bd57cd393f959bd24b8fffb60"),
    "verify_ladder": (0, "bc18f373e9b0dd051f4eb7053ebe6334e60f1c0fa0b24348abae02c4e4cbfebb"),
    "generate_ladder_top": (0, "5315d6662c39ad883efedefa474e86811d500efb38a74ad46bd8662428082bca"),
    "analyze_ladder_top": (0, "f836edc170d826a1c7d60e94fb0aaf71994ab1a52ad68ff023b17a349d6200cb"),
    "analyze_commuting_1e-18": (0, "a86eb8ad94d30eb9d11fac04729dbda50440bb8aac604df1aa4c4e916586fad5"),
    "analyze_ladder_top_1e-18": (0, "eb629ec63f6e864380dda210c6105bf2bc7606588c16436845b221bc498332bb"),
}


def outputs(tmp_path) -> dict:
    """Exit code and report digest of every pinned command."""
    def run(name, args):
        out = tmp_path / f"{name}.json"
        code = main(args + ["--out", str(out)])
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        result[name] = (code, digest)

    result = {}
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(BATCH))
    run("verify", ["verify", "--batch", str(batch)])
    run("verify_1e-18", ["verify", "--batch", str(batch), "--tol", "1e-18"])
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(WIDE_BATCH))
    run("verify_wide", ["verify", "--batch", str(wide)])
    run("verify_wide_1e-18", ["verify", "--batch", str(wide), "--tol", "1e-18"])
    for i, fl in enumerate(FLAVORS):
        spec = json.dumps({"seed": 830 + i, "n": 2, "d": 3, "m": 5, "flavor": fl})
        run(f"generate_{fl}", ["generate", "--spec", spec])
        scen = str(tmp_path / f"generate_{fl}.json")
        run(f"analyze_{fl}", ["analyze", scen])
        run(f"reconstruct_{fl}", ["reconstruct", scen, "--random", str(840 + i)])
    spec = json.dumps({"seed": 850, "n": 8, "d": 4, "m": 16, "flavor": "commuting"})
    run("generate_large", ["generate", "--spec", spec])
    scen = str(tmp_path / "generate_large.json")
    run("analyze_large", ["analyze", scen])
    run("reconstruct_large", ["reconstruct", scen, "--random", "860"])
    hand = tmp_path / "handwritten.json"
    hand.write_text(json.dumps(HANDWRITTEN))
    run("analyze_handwritten", ["analyze", str(hand)])
    run("reconstruct_handwritten", ["reconstruct", str(hand), "--random", "870"])
    run("generate_explicit_identity",
        ["generate", "--spec", json.dumps(EXPLICIT_IDENTITY_SPEC)])
    scen = tmp_path / "generate_explicit_identity.json"
    obj = json.loads(scen.read_text())
    obj["C"] = np.eye(4).astype(np.complex128).view(np.float64).reshape(-1, 2).tolist()
    scen.write_text(json.dumps(obj))
    run("analyze_explicit_identity", ["analyze", str(scen)])
    run("reconstruct_explicit_identity", ["reconstruct", str(scen), "--random", "891"])
    ladder = tmp_path / "ladder.json"
    ladder.write_text(json.dumps(LADDER_BATCH))
    run("verify_ladder", ["verify", "--batch", str(ladder)])
    spec = json.dumps({"seed": 910, "n": 8, "d": 8, "m": 32, "flavor": "commuting"})
    run("generate_ladder_top", ["generate", "--spec", spec])
    run("analyze_ladder_top", ["analyze", str(tmp_path / "generate_ladder_top.json")])
    for name in ("commuting", "ladder_top"):
        run(f"analyze_{name}_1e-18", ["analyze", str(tmp_path / f"generate_{name}.json"),
                                     "--tol", "1e-18"])
    return result


def test_report_bytes_unchanged(tmp_path):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, "
                    f"running numpy {np.__version__}")
    assert outputs(tmp_path) == DIGESTS
