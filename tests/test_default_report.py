"""Byte guard for the headline report: sha256 of ``verify --default``.

The default batch runs 200 scenarios, and at ``--tol 1e-18`` its report
lists every failing residual, so this pins the folded residual of each
sampled order check on the whole batch.  Float results may differ in the
last bits under another numpy build, so the test only runs on the numpy
version the digests were recorded with.
"""

import hashlib

import numpy as np
import pytest

from gframes.cli import main

NUMPY_VERSION = "2.4.6"

# extra arguments -> (exit code, sha256 of the report bytes)
DIGESTS = {
    (): (0, "581e2dfb5a13534959b608eea60801a6936049d3330672fc57726279767161ff"),
    ("--tol", "1e-18"): (3, "00a6232146241d02d4f4713a5788fde5eed82cf12ce43b925183f621d73bb083"),
}


@pytest.mark.parametrize("extra", sorted(DIGESTS), ids=lambda e: " ".join(e) or "default_tol")
def test_default_report_bytes_unchanged(tmp_path, extra):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, "
                    f"running numpy {np.__version__}")
    out = tmp_path / "report.json"
    code = main(["verify", "--default", *extra, "--out", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == DIGESTS[extra]
