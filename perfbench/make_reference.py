#!/usr/bin/env python3
"""Write reference/survey.json: the survey figure data and crossover
locations that the ``survey`` workload's outputs are compared with.

    python3 perfbench/make_reference.py

Run it from the root of a source checkout whose outputs are trusted; the
committed file was made from the commit that introduced the benchmark.
NaN is stored as null.
"""

import json
import math
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from udwharvest import cli  # noqa: E402

import workloads  # noqa: E402


def main():
    figures, crossovers = {}, {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        survey = workloads.Survey(0, SimpleNamespace(cli=cli), tmp)
        for op in survey.ops:
            rc, payload = op.call()
            if rc != 0:
                raise SystemExit(f"{op.label} exited with {rc}")
            if op.kind == "figure":
                _, columns, data = cli.read_data_file(payload)
                rows = [[None if math.isnan(v) else v for v in row] for row in data.tolist()]
                figures[op.label] = {"columns": columns, "data": rows}
            else:
                crossovers[op.label] = json.loads(payload)["result"]["location"]
    out = Path(__file__).parent / "reference" / "survey.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"figure_points": workloads.FIGURE_POINTS, "figures": figures,
                               "crossovers": crossovers}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
