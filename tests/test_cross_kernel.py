"""A modulated report is the same bytes under every BLAS kernel and numpy
CPU dispatch this host can run.

Each setting runs mobius_exponential at 0.251 turns, N = 1e5, in a fresh
process, since OpenBLAS picks its kernel when it loads (OPENBLAS_CORETYPE
forces one) and numpy its dispatch targets when it imports
(NPY_DISABLE_CPU_FEATURES removes some).  The report bytes, apart from the
"runtime_ms" line, must equal those of the host's default.  Controls show
that the settings change what they claim to: a plain float matmul differs
across the OpenBLAS kernels, and a complex multiply under the disabled
numpy features.  A setting the host cannot start or ignores is skipped
with a reason that names it.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import mflab

NUMPY_FEATURES = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
CORETYPES = ["Prescott", "Haswell"]
if "avx512f" in (Path("/proc/cpuinfo").read_text().split()
                 if Path("/proc/cpuinfo").exists() else []):
    CORETYPES.append("SkylakeX")  # its kernel would fault on a CPU without AVX-512
SETTINGS = {f"OPENBLAS_CORETYPE={core}": {"OPENBLAS_CORETYPE": core} for core in CORETYPES}
SETTINGS[f"NPY_DISABLE_CPU_FEATURES={NUMPY_FEATURES}"] = {"NPY_DISABLE_CPU_FEATURES":
                                                          NUMPY_FEATURES}

PROBE = """
import hashlib, json, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from mflab.experiments import run_experiment

run_experiment("mobius_exponential", {"theta_over_2pi": 0.251}, [10**5]).write(sys.argv[1])
rng = np.random.default_rng(0)
a, b = rng.standard_normal((64, 1024)), rng.standard_normal((1024, 2))
z, w = a[:, :512] + 1j * a[:, 512:], b[:512, 0] + 1j * b[512:, 0]
digest = lambda x: hashlib.sha256(x.tobytes()).hexdigest()
print(json.dumps({"matmul": digest(a @ b), "complex": digest(z * w),
                  "features": {f: __cpu_features__.get(f) for f in sys.argv[2].split()}}))
"""

pytestmark = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                                reason=f"the settings name x86 kernels; this host is "
                                       f"{platform.machine()}")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """setting -> (report text without its runtime_ms line, probe output),
    or the error text of a setting that did not start; the host's default
    under the key "default"."""
    tmp = tmp_path_factory.mktemp("kernels")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join([str(Path(mflab.__file__).resolve().parent.parent),
                                          base.get("PYTHONPATH", "")])
    procs = {}
    for i, (name, env) in enumerate({"default": {}, **SETTINGS}.items()):
        path = tmp / f"{i}.json"
        procs[name] = path, subprocess.Popen(
            [sys.executable, "-c", PROBE, str(path), NUMPY_FEATURES], env={**base, **env},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out = {}
    for name, (path, proc) in procs.items():
        stdout, stderr = proc.communicate()
        if proc.returncode:
            out[name] = f"exit {proc.returncode}: {stderr.strip()[-300:]}"
            continue
        kept = [line for line in path.read_text().splitlines(True) if '"runtime_ms"' not in line]
        out[name] = "".join(kept), json.loads(stdout)
    if isinstance(out["default"], str):
        pytest.fail(f"the default setting did not run: {out['default']}")
    return out


def _started(runs, name):
    if isinstance(runs[name], str):
        pytest.skip(f"{name} did not start on this host: {runs[name]}")
    return runs[name]


def _openblas_kernels_differ(runs):
    """Skip unless the OpenBLAS settings that started gave more than one
    float matmul."""
    digests = {runs[name][1]["matmul"] for name in SETTINGS
               if name.startswith("OPENBLAS_CORETYPE") and not isinstance(runs[name], str)}
    if len(digests) < 2:
        pytest.skip(f"OPENBLAS_CORETYPE={'/'.join(CORETYPES)} gave {len(digests)} distinct "
                    f"float matmuls: this host's OpenBLAS ignores it or cannot start")


def _numpy_features_disabled(runs, name):
    """Skip unless every named numpy feature was known and turned off."""
    features = _started(runs, name)[1]["features"]
    kept = [f for f, on in features.items() if on is not False]
    if kept:
        pytest.skip(f"NPY_DISABLE_CPU_FEATURES did not turn off {' '.join(kept)} on this host")


@pytest.mark.parametrize("name", SETTINGS)
def test_modulated_report_bytes_agree_across_kernels(runs, name):
    report, _ = _started(runs, name)
    if name.startswith("OPENBLAS_CORETYPE"):
        _openblas_kernels_differ(runs)
    else:
        _numpy_features_disabled(runs, name)
    assert report == runs["default"][0]


def test_control_float_matmul_differs_across_openblas_kernels(runs):
    _openblas_kernels_differ(runs)


def test_control_complex_multiply_differs_without_the_numpy_features(runs):
    name = f"NPY_DISABLE_CPU_FEATURES={NUMPY_FEATURES}"
    _numpy_features_disabled(runs, name)
    assert runs[name][1]["complex"] != runs["default"][1]["complex"]
