"""The package's lazy public names, and the modules each command loads."""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import ratdiff

_MODULES = ("core", "stability", "invariants", "analysis", "lanes", "scan", "serialize")

# ratdiff.__all__ as the eager package built it, module by module
PUBLIC = [
    "__version__",
    # core
    "GuardTripped", "Parameters", "OrbitSeed", "IterationSettings", "Orbit",
    "STATUS_COMPLETED", "STATUS_ESCAPED", "STATUS_SINGULAR", "step", "iterate", "tangent",
    # stability
    "BRANCH_MINUS", "BRANCH_PLUS", "BRANCH_ZERO", "BRANCH_SUM_MINUS_ONE", "SPECTRAL_STABLE",
    "SPECTRAL_UNSTABLE", "SPECTRAL_MARGINAL", "Equilibrium", "CharCoeffs", "StabilityVerdict",
    "equilibria", "equilibrium_residual", "linearization", "clark_margin_at",
    "characteristic_roots", "classify",
    # invariants
    "VERDICT_FINITE_LIMIT", "VERDICT_PERIOD_TWO", "VERDICT_UNBOUNDED", "HypothesisError",
    "TrichotomyClass", "IdentityReport", "PeriodTwoPair", "PeriodTwoFamily", "BallCertificate",
    "EpsilonInterval", "trichotomy", "j_invariant", "check_identities", "period_two_pairs",
    "ball_certificate", "admissible_epsilon",
    # analysis (its VERDICT_UNBOUNDED is the one above)
    "VERDICT_CONVERGES", "VERDICT_PERIODIC", "VERDICT_CHAOTIC", "VERDICT_SINGULAR",
    "VERDICT_UNDETERMINED", "AnalysisSettings", "CycleReport", "LyapunovEstimate",
    "OrbitClassification", "detect_convergence", "detect_cycle", "lyapunov_max",
    "lyapunov_divergence_oracle", "classify_orbit",
    # lanes
    "classify_lanes",
    # scan
    "ComplexRect", "ExtremaReport", "GridSpec", "ClassificationGrid", "scan_margin",
    "classification_grid",
    # serialize
    "FormatError", "parse_complex", "format_complex", "RunSpec", "ResultEnvelope", "emit",
]


def _defining_module(name):
    """The last module in _MODULES whose __all__ holds name, as the star imports bound it."""
    return [m for m in _MODULES if name in import_module(f"ratdiff.{m}").__all__][-1]


def test_all_keeps_its_names_and_their_order():
    assert len(PUBLIC) == 71
    assert ratdiff.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC[1:])
def test_each_public_name_is_its_modules_object(name):
    module = import_module(f"ratdiff.{_defining_module(name)}")
    assert getattr(ratdiff, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ratdiff import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(PUBLIC)
    assert all(namespace[name] is getattr(ratdiff, name) for name in PUBLIC)


def test_the_shared_verdict_is_one_object():
    from ratdiff import analysis, invariants
    assert analysis.VERDICT_UNBOUNDED is invariants.VERDICT_UNBOUNDED is ratdiff.VERDICT_UNBOUNDED


def test_dir_lists_every_name_and_module():
    assert set(PUBLIC) | set(_MODULES) <= set(dir(ratdiff))


def test_scan_re_exports_the_core_rectangle():
    import ratdiff.core
    import ratdiff.scan
    assert ratdiff.scan.ComplexRect is ratdiff.core.ComplexRect


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ratdiff.no_such_name  # noqa: B018
    assert not hasattr(ratdiff, "no_such_name")


# --- start-up: which modules each command loads ----------------------------------

_BASE = {"cli", "core", "serialize"}
_PAIR = ["--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i"]
_SEED = ["--seed", "0.1+0.1i,0.2-0.1i"]
_RECT = ["--alpha-rect=-1,1,-1,1", "--beta-rect=-1,1,-1,1"]
# argv (None: a bare `import ratdiff`) and the ratdiff modules loaded after it
STARTS = {
    "import ratdiff": (None, set()),
    "--version": (["--version"], _BASE),
    "orbit": (["orbit", *_PAIR, *_SEED, "--steps", "5"], _BASE),
    "equilibria": (["equilibria", *_PAIR], _BASE | {"stability"}),
    "stability": (["stability", *_PAIR], _BASE | {"stability"}),
    "trichotomy": (["trichotomy", *_PAIR], _BASE | {"invariants"}),
    "identities": (["identities", "--alpha", "1", *_SEED, "--steps", "5"],
                   _BASE | {"invariants"}),
    "period": (["period", *_PAIR, *_SEED, "--steps", "50"], _BASE | {"analysis"}),
    "lyapunov": (["lyapunov", *_PAIR, *_SEED, "--transient", "5", "--sample", "20"],
                 _BASE | {"analysis"}),
    "scan": (["scan", "--branch", "plus", *_RECT, "--budget", "8"],
             _BASE | {"analysis", "lanes", "scan", "stability"}),
    "grid": (["grid", *_PAIR, "--vary", "seed", "--rect=-1,1,-1,1", "--resolution", "2x2",
              "--steps", "50"], _BASE | {"analysis", "lanes", "scan", "stability"}),
}

_CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import ratdiff
else:
    import ratdiff.cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = ratdiff.cli.main(argv)
        except SystemExit as exc:  # --version
            code = exc.code
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("ratdiff."))))
"""


@pytest.mark.parametrize("start", STARTS)
def test_each_start_loads_only_the_modules_it_runs(start):
    argv, expected = STARTS[start]
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert set(json.loads(child.stdout)) == {f"ratdiff.{m}" for m in expected}


_NUMPY_FREE = """
import contextlib
import io
import sys
import ratdiff.core as core
import ratdiff.invariants as invariants
import ratdiff.serialize as serialize
import ratdiff.stability as stability
params = core.Parameters(0.2278 + 0.3210j, 1.2278 + 0.3210j)  # beta = alpha + 1
orbit = core.iterate(params, core.OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j), core.IterationSettings(5))
stability.classify(params, stability.equilibria(params)[0])
invariants.check_identities(params, orbit)
payload = {"kind": "orbit", "orbits": [{"seed": (orbit.seed.z_minus1, orbit.seed.z_0),
           "status": orbit.status, "stop_step": orbit.stop_step, "points": orbit.points}]}
envelope = serialize.ResultEnvelope(serialize.RunSpec("orbit"), "0", 0.0, payload)
for fmt in ("json", "csv"):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        serialize.emit(envelope, fmt)
    assert text.getvalue()
print("numpy" in sys.modules)
"""


def test_the_scalar_modules_and_json_and_csv_need_no_numpy():
    child = subprocess.run([sys.executable, "-c", _NUMPY_FREE],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
