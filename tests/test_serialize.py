"""Pins on serialized output: the exact JSON text (key order included) of
every result type, the `--format text` layout, and the exit path of
results too large to print."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import symcert
from symcert.certificate import (
    binom_quad,
    cert_constants,
    f_scan,
    lemma31_check,
    lemma32_check,
    window_check,
)
from symcert.cli import run
from symcert.core import JsonResult, sigma_all, to_json
from symcert.gaps import (
    ChainResult,
    EndpointWitness,
    GapReport,
    Relation,
    gen_maclaurin_chain,
    linear_combo_gap,
    remark_violation,
)
from symcert.reduction import RootTriple, associated_cubic, derivative_cascade, reduce_to_three
from symcert.search import (
    ScanGrid,
    ScanReport,
    Witness,
    empirical_theta,
    find_counterexample_15,
    structured_scan,
)

SRC = Path(__file__).resolve().parents[1] / "src"

_WITNESS = (
    '"coeffs": ["{c}", "0", "{c}"], "alpha": null, "k": null, "gap": "-825/1024", '
    '"context": "Conjecture15", "seed": 0, "iteration": {i}}}'
)

JSON_PINS = [
    (
        "GapReport",
        lambda: linear_combo_gap(("4", "4", "1/4", "1/4"), (1, 0, 1)),
        '{"lhs": "289/16", "rhs": "19321/1024", "gap": "-825/1024", "relation": "Negative", '
        '"equality_case": "NotApplicable"}',
    ),
    (
        "ChainResult",
        lambda: gen_maclaurin_chain(("1", "2", "3", "4"), 1),
        '{"holds": true, "chain_top": 3, "precondition_failed_at": null, "first_failure": null}',
    ),
    (
        "EndpointWitness",
        lambda: remark_violation(4, 3),
        '{"x": ["1/2", "1/2", "1/2", "1/2"], "alpha": "-1", "k": 3, "report": {"lhs": "1/256", '
        '"rhs": "1/128", "gap": "-1/256", "relation": "Negative", "equality_case": "NotApplicable"}}',
    ),
    (
        "RootTriple",
        lambda: reduce_to_three(("1", "2", "3", "4"), 1),
        '{"branch": "CaseA", "vieta_moments": ["5/2", "35/6", "25/2"], "roots": '
        '["1.381966011250105151795413165634259410397", "2.500000000000000000000000000000000000000", '
        '"3.618033988749894848204586834365642076617"], "precision": 40, "degenerate_means": null}',
    ),
    (
        "RootTriple-degenerate",
        lambda: reduce_to_three(("1", "-1", "0", "0", "0"), 2),
        '{"branch": "Degenerate", "vieta_moments": null, "roots": null, "precision": 40, '
        '"degenerate_means": ["-1/10", "0"]}',
    ),
    (
        "Witness",
        lambda: find_counterexample_15(3, 4, 0, 2000),
        '{"x": ["4", "4", "1/4", "1/4"], ' + _WITNESS.format(c="1", i=0),
    ),
    (
        "ScanReport",
        lambda: structured_scan("alternating-signs", 3, ScanGrid.of(["4", "1/4"])),
        '{"family": "alternating-signs", "n": 3, "evaluated": 48, "positive": 20, "zero": 24, '
        '"negative": 4, "witnesses": ['
        + ", ".join(
            '{"x": ' + x + ", " + _WITNESS.format(c=c, i=i)
            for x, c, i in (
                ('["4", "4", "1/4", "1/4"]', "1", 4),
                ('["1/4", "1/4", "4", "4"]', "1", 7),
                ('["4", "4", "1/4", "1/4"]', "-1", 40),
                ('["1/4", "1/4", "4", "4"]', "-1", 43),
            )
        )
        + "]}",
    ),
    (
        "FScanRow",
        lambda: f_scan(6)[1],
        '{"k": 2, "f1": 11, "f2": 21, "f3": 23, "f4": 31, "pass": true}',
    ),
    (
        "Lemma31Report",
        lambda: lemma31_check(6, 2),
        '{"n": 6, "k": 2, "3bd-c2": 275, "3ac-b2": 135, "2ac3+2b3d-b2c2-3abcd": 26250, "pass": true}',
    ),
    (
        "Lemma32Report",
        lambda: lemma32_check(6, 2),
        '{"n": 6, "k": 2, "A1": "8820/103", "A2": "12075/103", "A1A2-A3^2/36": "1025325/103", '
        '"pass": true}',
    ),
    (
        "CertConstants",
        lambda: cert_constants(6, 2),
        '{"n": 6, "k": 2, "binomials": {"a": 6, "b": 15, "c": 20, "d": 15}, "theta1": "35/103", '
        '"theta2": "3240/103", "t": "55/36", "A1": "8820/103", "A2": "12075/103", "A3": "5670/103"}',
    ),
    (
        "ThetaSummary",
        lambda: empirical_theta(4, 1, 8, 0),
        '{"n": 4, "k": 1, "samples": 8, "skipped": 0, "certified_theta": "5/11", "min_ratio": '
        '"71717740438242227998729389915102350753636330657500754695756/'
        '116511239560165833149943961597239594960134191117180576644841", "argmin": {"x": '
        '["1817489/309219", "682278/161749", "-16029/270526", "1654613/115721"], "coeffs": null, '
        '"alpha": "2085031/997377", "k": 1, "gap": '
        '"71717740438242227998729389915102350753636330657500754695756/'
        '116511239560165833149943961597239594960134191117180576644841", "context": "ThetaRatio", '
        '"seed": 0, "iteration": 5}}',
    ),
    (
        "Cubic",
        lambda: associated_cubic(("1", "2", "3", "4"), 1),
        '{"coefficients": ["1", "-15/2", "35/2", "-25/2"]}',
    ),
]


@pytest.mark.parametrize(
    "build, expected", [pin[1:] for pin in JSON_PINS], ids=[pin[0] for pin in JSON_PINS]
)
def test_json_text_pinned(build, expected):
    result = build()
    assert json.dumps(result.to_json_dict()) == expected
    assert json.dumps(to_json(result)) == expected


@pytest.mark.parametrize(
    "cls", [GapReport, ChainResult, EndpointWitness, RootTriple, Witness, ScanReport]
)
def test_plain_results_use_the_shared_serializer(cls):
    # field names are the JSON keys, so the class keeps no body of its own
    assert "to_json_dict" not in vars(cls)


# every result record: its class, a builder, its fields in declaration
# order and the keys of its to_json_dict (None for a record with no JSON form)
_GAP_FIELDS = "lhs rhs gap relation equality_case"
_CHAIN_FIELDS = "holds chain_top precondition_failed_at first_failure"
_ROOT_FIELDS = "branch vieta_moments roots precision degenerate_means"
_WITNESS_FIELDS = "x coeffs alpha k gap context seed iteration"
_SCAN_FIELDS = "family n evaluated positive zero negative witnesses"
RECORDS = [
    ("SymProfile", lambda: sigma_all((1, 2, 3)), "n sigma", None),
    ("GapReport", JSON_PINS[0][1], _GAP_FIELDS, _GAP_FIELDS),
    ("ChainResult", JSON_PINS[1][1], _CHAIN_FIELDS, _CHAIN_FIELDS),
    ("EndpointWitness", JSON_PINS[2][1], "x alpha k report", "x alpha k report"),
    ("BinomQuad", lambda: binom_quad(6, 2), "n k a b c d", None),
    (
        "CertConstants",
        lambda: cert_constants(6, 2),
        "n k quad theta1 theta2 t A1 A2 A3",
        "n k binomials theta1 theta2 t A1 A2 A3",
    ),
    (
        "Lemma31Report",
        lambda: lemma31_check(6, 2),
        "n k bd_term ac_term mixed_term",
        "n k 3bd-c2 3ac-b2 2ac3+2b3d-b2c2-3abcd pass",
    ),
    (
        "Lemma32Report",
        lambda: lemma32_check(6, 2),
        "n k A1 A2 discriminant_combo",
        "n k A1 A2 A1A2-A3^2/36 pass",
    ),
    (
        "WindowCheck",
        lambda: window_check(6, 2),
        "n k lemma31 lemma32 theta1 f_scan",
        "n k lemma31 lemma32 theta1 f_scan pass",
    ),
    ("FScanRow", lambda: f_scan(6)[1], "k f1 f2 f3 f4", "k f1 f2 f3 f4 pass"),
    ("Cubic", lambda: associated_cubic((1, 2, 3, 4), 1), "c0 c1 c2 c3", "coefficients"),
    ("CascadeResult", lambda: derivative_cascade((1, 2, 3, 4)), "n levels", None),
    ("RootTriple", JSON_PINS[3][1], _ROOT_FIELDS, _ROOT_FIELDS),
    ("Witness", JSON_PINS[5][1], _WITNESS_FIELDS, _WITNESS_FIELDS),
    (
        "ThetaSummary",
        lambda: empirical_theta(4, 1, 8, 0),
        "n k samples skipped certified min_ratio argmin",
        "n k samples skipped certified_theta min_ratio argmin",
    ),
    ("ScanGrid", ScanGrid, "values", None),
    ("ScanReport", JSON_PINS[6][1], _SCAN_FIELDS, _SCAN_FIELDS),
]


@pytest.mark.parametrize(
    "name, build, fields, keys", RECORDS, ids=[record[0] for record in RECORDS]
)
def test_record_is_an_immutable_slot_named_tuple(name, build, fields, keys):
    record = build()
    assert type(record).__name__ == name
    assert record._fields == tuple(fields.split())
    assert not hasattr(record, "__dict__")
    for attribute in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    # a record is its tuple of values: equal to it, ordered and iterable
    assert record == tuple(record) and record <= tuple(record)
    assert record._replace() == record
    if keys is None:
        assert not isinstance(record, JsonResult)
    else:
        assert tuple(record.to_json_dict()) == tuple(keys.split())


def test_to_json_value_forms():
    value = {"z": Fraction(-3, 4), "a": (Fraction(2), None, True, 7), "r": Relation.ZERO}
    assert to_json(value) == {"z": "-3/4", "a": ["2", None, True, 7], "r": "Zero"}
    assert list(to_json(value)) == ["z", "a", "r"]
    assert to_json([GapReport.over(1, 1, 1)]) == [
        {"lhs": "1", "rhs": "1", "gap": "0", "relation": "Zero", "equality_case": "NotApplicable"}
    ]


def test_to_json_refuses_an_unprintable_rational():
    with pytest.raises(ValueError):
        to_json(Fraction(10**4300))


def _text(capsys, *argv):
    code = run(list(argv) + ["--format", "text"])
    return code, capsys.readouterr().out


def _lines(*items: str) -> str:
    return "\n".join(items) + "\n"


def test_text_reduce(capsys):
    code, out = _text(capsys, "reduce", "--x", '["1","2","3","4"]', "--k", "1")
    assert code == 0
    assert out == _lines(
        "x:", "  - 1", "  - 2", "  - 3", "  - 4",
        "k: 1",
        "cubic:", "  coefficients:", "    - 1", "    - -15/2", "    - 35/2", "    - -25/2",
        "discriminant: 125/16",
        "branch: CaseA",
        "vieta_moments:", "  - 5/2", "  - 35/6", "  - 25/2",
        "roots:",
        "  - 1.381966011250105151795413165634259410397",
        "  - 2.500000000000000000000000000000000000000",
        "  - 3.618033988749894848204586834365642076617",
        "precision: 40",
        "degenerate_means: None",
    )


def test_text_search_scan(capsys):
    code, out = _text(
        capsys, "search", "scan", "--family", "alternating-signs", "--n", "3", "--grid", '["4","1/4"]'
    )
    assert code == 1
    witnesses = []
    for x, c, i in (
        ("4 4 1/4 1/4", "1", 4),
        ("1/4 1/4 4 4", "1", 7),
        ("4 4 1/4 1/4", "-1", 40),
        ("1/4 1/4 4 4", "-1", 43),
    ):
        witnesses += ["  x:", *(f"    - {v}" for v in x.split())]
        witnesses += ["  coeffs:", f"    - {c}", "    - 0", f"    - {c}"]
        witnesses += ["  alpha: None", "  k: None", "  gap: -825/1024", "  context: Conjecture15"]
        witnesses += ["  seed: 0", f"  iteration: {i}", ""]
    assert out == _lines(
        "family: alternating-signs",
        "n: 3",
        "evaluated: 48",
        "positive: 20",
        "zero: 24",
        "negative: 4",
        "witnesses:",
        *witnesses,
    )


def test_text_verify_remark(capsys):
    code, out = _text(capsys, "verify", "--ineq", "remark", "--n", "4", "--k", "0")
    assert code == 1
    assert out == _lines(
        "ineq: remark",
        "witness:",
        "  x:", "    - 2", "    - 2", "    - 2", "    - 2",
        "  alpha: -1",
        "  k: 0",
        "  report:",
        "    lhs: 1",
        "    rhs: 2",
        "    gap: -1",
        "    relation: Negative",
        "    equality_case: NotApplicable",
    )


def _cli(*argv: str, timeout: float = 2) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "symcert", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("sigma", "--x", '["1e4300"]'),
        # binomials of 6,019 digits and constants longer still
        ("certificate", "--n", "20000", "--k", "10000"),
    ],
    ids=["sigma-1e4300", "certificate-20000"],
)
def test_unprintable_result_exits_2(argv):
    start = time.perf_counter()
    done = _cli(*argv)
    assert time.perf_counter() - start < 2
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")


def test_import_does_not_load_argparse():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, symcert; print('argparse' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_report_bundle_names():
    import symcert.report

    assert symcert.report_bundle is symcert.report.report_bundle
    assert not hasattr(symcert, "run")
