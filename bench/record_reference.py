"""Write reference.json: the fixed results the benchmark checks against.

Run from the repository root, at the commit whose results are the
reference:

    python3 bench/record_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    klein = {}
    for label, curve, kwargs in workloads.reference_probe_calls():
        rep = workloads.kernels.finiteness_probe(curve, **kwargs)
        klein[label] = workloads.probe_summary(rep)
    data = {
        "klein_probe": klein,
        "jet_opers": {"build_oper": workloads.serialize_jet(
            workloads.reference_oper())},
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
