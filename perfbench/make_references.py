"""Regenerate the committed output references the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_references.py table3|tgff|service

Each family is written to ``perfbench/references/<family>.json``.  The
references come from the library (``api``): Table III and tgff on the
serial default plan, which the DAG plan must reproduce byte for byte, and
service runs on the plan the service applies by default.  Regenerate
only when a change is meant to alter results.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table3() -> dict:
    from repro import api

    references = {}
    for seed in range(len(specs.TABLE3_SEEDS) + 1):  # workload seed 0 plus one cycle
        profile = specs.table3_profile(seed)
        report = api.execute_run("table3", profile).report
        references[str(profile.seed)] = digest(report)
    return references


def tgff() -> dict:
    references = {}
    for v in range(specs.VARIANTS):
        optimizer, scalings = specs.tgff_optimizer(v)
        references[str(v)] = specs.tgff_summary(optimizer.optimize(scalings))
    return references


def service() -> dict:
    """Report digests under ``serve``'s default plan (``dag``).

    Experiment reports are the same on every plan.  Optimize reports end
    with the evaluation count, and a DAG sweep also counts the scalings it
    assessed past the serial stop point, so those differ from a serial run.
    """
    from repro import api

    references = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as store:
        for payload in specs.all_service_specs():
            spec = api.RunSpec.from_payload(payload)
            submission = api.submit_run(spec, store, wait=True, exec_plan="dag")
            references[spec.run_id()] = digest(submission.report)
    return references


def main(argv) -> int:
    families = {"table3": table3, "tgff": tgff, "service": service}
    if len(argv) != 1 or argv[0] not in families:
        print(__doc__, file=sys.stderr)
        return 2
    out = HERE / "references" / f"{argv[0]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(families[argv[0]](), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
