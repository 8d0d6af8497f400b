"""The benchmark's output gates fire on wrong outputs and pass on right ones.

    PYTHONPATH=src python -m pytest tdbench/test_gate.py
"""

import csv

from torusdirac import cli

import workloads


def _run(workload, tmp_path, extra=()):
    inputs = workloads.make_inputs(workload, 0, tmp_path / "inputs")
    out = tmp_path / "op"
    problems = workloads.run_operation(
        cli.main, workloads.invocations(workload, inputs, out, extra))
    return inputs, out, problems


def _gate(workload, out, inputs):
    return workloads.GATES[workload](out, inputs, {})


def test_negative_control_fails_certify(tmp_path):
    inputs, out, problems = _run("certify", tmp_path, extra=["--negative-control"])
    assert any("exit code 1" in p for p in problems)
    # the report it wrote fails the gate on its own, too
    assert any("ok is not true" in p for p in _gate("certify", out, inputs))


def test_perturbed_eigenvalue_fails_spectra_tables(tmp_path):
    inputs, out, problems = _run("spectra_tables", tmp_path)
    assert problems == []
    assert _gate("spectra_tables", out, inputs) == []

    path = out / "spectrum_constant_vf.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][1] = repr(float(rows[3][1]) * (1 + 1e-7))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert any("eigenvalue rel drift" in p for p in _gate("spectra_tables", out, inputs))


def test_sweep_gate_checks_every_cell_against_the_closed_form(tmp_path):
    inputs, out, problems = _run("spectra_tables", tmp_path)
    assert problems == []

    path = out / "sweep_alpha.csv"
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    col = header.index("eps1")
    rows[5][col] = repr(float(rows[5][col]) + 1e-9)
    unbound = [r for r in rows if workloads.sweep_closed_form(0, float(r[0]), 0.0) < 0]
    assert unbound, "seed 0 should sweep past alpha = sqrt(2), where level 0 is unbound"
    unbound[0][header.index("eps0")] = "0.5"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    found = _gate("spectra_tables", out, inputs)
    assert any("eps1^2 off the closed form" in p for p in found)
    assert any("expected NaN" in p for p in found)
