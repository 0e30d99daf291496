"""Rewrite tests/golden/<command>.json from the current code.

Each file holds the `report` payload of one CLI_CASES entry, run exactly as
test_criterion_9_cli_determinism runs it.  The test only reads these files;
rerun this script only for a deliberate change of report bytes:

    PYTHONPATH=src python -m tests.make_golden
"""

import contextlib
import io
import json
from pathlib import Path

from gradus.cli import main as cli_main

from .test_acceptance import CLI_CASES, criterion_9_argv

GOLDEN = Path(__file__).with_name("golden")


def main():
    GOLDEN.mkdir(exist_ok=True)
    for case in CLI_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(criterion_9_argv(case))
        if code != 0:
            raise SystemExit(f"{case[0]} exited {code}")
        report = json.loads(out.getvalue())["report"]
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        (GOLDEN / f"{case[0]}.json").write_text(text, encoding="utf-8")
        print(f"wrote {case[0]}.json")


if __name__ == "__main__":
    main()
