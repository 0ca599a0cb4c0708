"""Start-up: each README command imports only the modules it runs, and the
package's public names resolve lazily to their defining modules' objects."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symcert

SRC = Path(__file__).resolve().parents[1] / "src"

# every name `from symcert import X` served while the package imported
# all its modules eagerly
PUBLIC_NAMES = """
__version__ NAIVE_LIMIT SymProfile as_point as_rational as_triple binomial e_all
garding_membership parse_point sigma_all sigma_naive to_json ChainResult EndpointWitness
EqualityCase GapReport PreconditionError Relation gen_maclaurin_chain gen_nm_gap
linear_combo_gap liu_ren_gap maclaurin_chain_check newton_gap quantitative_gap
remark_violation BinomQuad CertConstants FScanRow Lemma31Report Lemma32Report
WindowCheck binom_quad cert_constants decomposition_coefficient_match
decomposition_residual f_scan is_special_window l_value lemma31_check lemma32_check
theta_for v_value w_value window_check Branch CascadeResult Cubic RootTriple
associated_cubic cubic_discriminant degenerate_direct_gap derivative_cascade
gap_from_moments lemma21_identity_residual real_cubic_roots reduce_to_three
AllSamplesDegenerate CertificateViolation ScanGrid ScanReport ThetaSummary Witness
empirical_theta find_counterexample_15 structured_scan report_bundle
""".split()

# README command name (as in the cli-readme golden manifest, which holds
# the argv) -> the symcert modules it may load besides symcert, .cli, .core;
# None puts no bound on them
ALLOWED_MODULES = {
    "startup": set(),
    "sigma": set(),
    "verify.gen-nm": None,
    "verify.combo": None,
    "verify.quantitative": None,
    "chain": None,
    "certificate": {"certificate", "polys"},
    "lemmas": {"certificate", "polys"},
    "reduce": None,
    "theta": {"certificate", "polys"},
    "search.conjecture15": None,
    "search.theta": None,
    "search.scan": None,
    "report": None,
}
MANIFEST = SRC.parent / "perfbench" / "goldens" / "cli-readme" / "manifest.json"
README_COMMANDS = json.loads(MANIFEST.read_text())["commands"]


def _loaded_modules(argv, cwd):
    """The modules `python -S -X importtime -m symcert <argv>` imports."""
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "symcert", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode in (0, 1), done.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "entry", README_COMMANDS, ids=[" ".join(entry["argv"][:2]) for entry in README_COMMANDS]
)
def test_readme_command_imports(tmp_path, entry):
    assert entry["name"] in ALLOWED_MODULES, "a README command without allowed modules"
    allowed = ALLOWED_MODULES[entry["name"]]
    modules = _loaded_modules(entry["argv"], tmp_path)
    assert "typing" not in modules
    assert {"symcert", "symcert.cli", "symcert.core"} <= modules
    ours = {name.split(".", 1)[1] for name in modules if name.startswith("symcert.")}
    if allowed is not None:
        assert ours <= {"cli", "core", *allowed}


def test_import_loads_no_submodule():
    done = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, symcert; print(sorted(m for m in sys.modules if 'symcert' in m))",
        ],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['symcert']\n"


@pytest.mark.parametrize("name", symcert.__all__)
def test_public_name_is_the_defining_modules_object(name):
    value = getattr(symcert, name)
    assert name in dir(symcert)
    assert name in vars(symcert)  # cached: the next read skips __getattr__
    if name == "__version__":
        return
    module = importlib.import_module(f"symcert.{symcert._MODULE_OF[name]}")
    assert value is getattr(module, name)
    if isinstance(value, type) or callable(value):
        assert value.__module__ == module.__name__


def test_public_surface_is_unchanged():
    assert sorted(symcert.__all__) == sorted(PUBLIC_NAMES)


def test_star_import():
    namespace = {}
    exec("from symcert import *", namespace)
    assert set(symcert.__all__) <= set(namespace)
    assert namespace["f_scan"] is symcert.f_scan


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        symcert.no_such_name


def test_moved_exceptions_are_reexported_from_search():
    import symcert.core
    import symcert.search

    assert symcert.search.CertificateViolation is symcert.core.CertificateViolation
    assert symcert.search.AllSamplesDegenerate is symcert.core.AllSamplesDegenerate
