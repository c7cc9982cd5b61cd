"""Byte guard for the headline report: sha256 of ``verify --default``.

The default batch runs 200 scenarios, and at ``--tol 1e-18`` its report
lists every failing residual, so this pins the folded residual of each
sampled order check on the whole batch.  Float results may differ in the
last bits under another numpy build, so the test only runs on the numpy
version the digests were recorded with.  The report must also come out the
same at one and at two BLAS threads, on any numpy build.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gframes
from gframes.cli import main

NUMPY_VERSION = "2.4.6"

# extra arguments -> (exit code, sha256 of the report bytes)
DIGESTS = {
    (): (0, "e40f5cb85a30fb45197d6f045e3d684c33ef74215afaa33f4633445d0bf79a8d"),
    ("--tol", "1e-18"): (3, "2d9afa73219d34c6b3d48ae391b143eb70e61419f346cf2963a44e00179112ad"),
}


@pytest.mark.parametrize("extra", sorted(DIGESTS), ids=lambda e: " ".join(e) or "default_tol")
def test_default_report_bytes_unchanged(tmp_path, extra):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, "
                    f"running numpy {np.__version__}")
    out = tmp_path / "report.json"
    code = main(["verify", "--default", *extra, "--out", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == DIGESTS[extra]


def test_default_report_is_the_same_at_any_blas_thread_count(tmp_path):
    # a threaded LAPACK SVD may move the last bit of a spectral norm; the
    # report must not show it
    src = str(Path(gframes.__file__).resolve().parents[1])
    reports = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop("GFRAME_TOL", None)
        out = tmp_path / f"threads-{threads}.json"
        subprocess.run([sys.executable, "-m", "gframes.cli", "verify", "--default",
                        "--out", str(out)], env=env, check=True,
                       stderr=subprocess.DEVNULL)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
