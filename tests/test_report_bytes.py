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
    "verify": (0, "b08eb9b9a2db2e47504b7231bd68a32cdde05380e425aeda96dd9a1c4df6ceeb"),
    "verify_1e-18": (3, "89847d56887c77886ac28422dc0c7478bbf8ce08381134b3f61ece975813b073"),
    "verify_wide": (0, "3b81fea5f769326d4111c38b2e1bf954b1ef06fe6aa8352a6a5b1a688a6bc0ea"),
    "verify_wide_1e-18": (3, "dc6d5196447721dccbd4bd408510eb06e04a11e35238998556daa0e80929cc0a"),
    "generate_generic": (0, "87022ca4fc0bddc0b954d21ea4fa68086e9ef2c5691cf6ece841930c0254e2d0"),
    "analyze_generic": (0, "a544f7d667d753417e67c52e470ba9fd2693ab0b686ee408ea4e116e8a5210bc"),
    "reconstruct_generic": (0, "446619a61147af99e6c0032d1cee26eb27089084717cc06769df56eaf4eea683"),
    "generate_commuting": (0, "07fcc05628e96815b56c99f154f9eb1ca40c3bceed185a09c6d8d9fdfc34e560"),
    "analyze_commuting": (0, "4275076d867f968cf19509a87b48e6c352104801bf04ded5767c08e8e0c42e52"),
    "reconstruct_commuting": (0, "b38ce5db92025c63a2432f0c41c24618de5ce7902cb18fc032c3eaa30dcadd3d"),
    "generate_parseval": (0, "d0ee176685dcce7f0b8c863644c20040d3070500ee801504cc4b65dbbd4f2d23"),
    "analyze_parseval": (0, "f8b033c2868ecc002abe06019d6529891190be8bb1048fde38d66b1918e6df1f"),
    "reconstruct_parseval": (0, "bd42a129d76b5392a6641f4b1917579dcad82ffd2028dc98cd725b9b8ffab4c2"),
    "generate_bessel_only": (0, "b1672b696f3a8618585a47f375dfe80e1dc495d2d7fc78e5a9fda5407e691701"),
    "analyze_bessel_only": (2, "b7e1dc263f242f0afcf7609afd6ed65abbc4bc168613e043f71922d58c6a7002"),
    "reconstruct_bessel_only": (2, None),
    "generate_large": (0, "8c85a9e3499c5a603f116299d88e430e1957874aa29edd35752a8bf9d2d5ec73"),
    "analyze_large": (0, "ce829cfcec33b72ed7c40e72f1294dd41962fca60aa2f65905e68a6ce5402ec5"),
    "reconstruct_large": (0, "614a6a8fd00224fe98f7f5df645c1099f9582db943a634c5384b2a0cd82b6d1a"),
    "analyze_handwritten": (0, "02df1fb4d7bc1d8e404e0067d62402a6dcee419e99180e91b9546b349797e6e3"),
    "reconstruct_handwritten": (0, "70121ecf59afa69ef4b67c1a3a49bc0bbb31ec42995bd7b9513a5da3317ad368"),
    "generate_explicit_identity": (0, "945b0e7d6c080616f7dc1bbb37b958489ae90df5f9f779c8928146d4804852cc"),
    "analyze_explicit_identity": (0, "4087b6de8ab5c2270e03e108cbdb8bbfea75be6edc8fa494431aa85027cead4d"),
    "reconstruct_explicit_identity": (0, "c96de952bb7b4fd3a8532c909c67673e209545a77fc063d2582aad178575bffc"),
    "verify_ladder": (0, "5d643cc00c4f9bc54958e82321d06e503f39ffd9a267fc387891650a4f19379c"),
    "generate_ladder_top": (0, "5315d6662c39ad883efedefa474e86811d500efb38a74ad46bd8662428082bca"),
    "analyze_ladder_top": (0, "73a7c161b7f79d85afe1df2639693a80abb24f051da98f001dc565d6b8d67659"),
    "analyze_commuting_1e-18": (0, "7b06e8980296eaa51eb34e542b8af78d05f72262b7b5811b0a0bf604fc76d8bf"),
    "analyze_ladder_top_1e-18": (0, "9c2b99c30fec7a613b7484fb8bb1005a36d99b5b4afed5d9eb8156a7d3053267"),
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
