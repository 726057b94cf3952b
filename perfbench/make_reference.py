"""Regenerate ``reference.json`` from the epigame sources of this checkout.

The reference pins the ``presets`` trajectories (every REF_EVERY-th day and
the last, all columns) and metrics, and every ``fig3_sweep`` point, at full
precision. The benchmark compares against it within the tolerance stated in
``workloads.py``. Regenerate only from a commit whose outputs are trusted::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads

REF_EVERY = 50
ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from epigame import cli

    doc = {"presets": {}, "fig3_sweep": []}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp-") as tmp:
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            for name in workloads.PRESETS:
                if cli.main(["simulate", "--preset", name, "--out", str(out / name)]) != 0:
                    raise SystemExit(f"simulate --preset {name} failed")
            if cli.main(["sweep", "--preset", "fig3_sweep", "--jobs", "1",
                         "--out", str(out / "sweep")]) != 0:
                raise SystemExit("sweep --preset fig3_sweep failed")
        for name in workloads.PRESETS:
            _, rows = workloads.read_timeseries(out / name / "timeseries.csv")
            metrics = json.loads((out / name / "summary.json").read_text())["metrics"]
            days = sorted({*range(0, len(rows), REF_EVERY), len(rows) - 1})
            doc["presets"][name] = {
                "rows": {str(day): rows[day] for day in days},
                "metrics": {key: metrics[key] for key in
                            ("total_infections", "peak_infections", "peak_day",
                             "average_welfare")},
            }
        header, *lines = (out / "sweep" / "sweep.csv").read_text().splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            doc["fig3_sweep"].append({
                "name": row["name"],
                "days": int(row["days"]),
                **{key: float(row[key]) for key in
                   ("total_infections", "peak_infections", "average_welfare")},
            })
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
