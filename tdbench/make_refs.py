#!/usr/bin/env python3
"""Regenerate the reference outputs in tdbench/ref from the current sources.

    python3 tdbench/make_refs.py

Run from the root of a checkout.  The committed references were taken at the
seed commit; regenerate them only when a change to the certified values is
intended and stated.
"""

import shutil
import sys

import run
import workloads

# reference files each workload's operation writes
FILES = {
    "certify": ["verify_report.json"],
    "spectra_tables": ["spectrum_constant_vf.csv", "spectrum_pdfv.csv", "geometry.csv",
                       "case2_spectrum.csv", "case2_wavefunctions.csv", "case1_spectrum.csv"],
}


def main() -> int:
    cli = run.import_program()
    workloads.REF.mkdir(exist_ok=True)
    for workload, names in FILES.items():
        work = run.OUT / "refs" / workload
        inputs = workloads.make_inputs(workload, 0, work / "inputs")
        problems = workloads.run_operation(
            cli.main, workloads.invocations(workload, inputs, work / "op"))
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        for name in names:
            shutil.copyfile(work / "op" / name, workloads.REF / name)
    print(f"references written to {workloads.REF}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
