"""Record the reference data that quick-cli outputs are checked against.

    python3 perfbench/record_reference.py

Runs every anchor of the quick-cli bands (workloads.quick_anchor_argvs)
and the full angular table through the CLI in this process and writes
their JSON `data` blocks to perfbench/reference.json. Run it only on the
commit whose outputs are the reference; the file then holds the numbers
later commits must reproduce.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from rydtrap import cli  # noqa: E402


def cli_data(argv):
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = cli.main(argv + ["--format", "json"])
    if code != 0:
        raise SystemExit("%s exited with %d" % (" ".join(argv), code))
    return json.loads(stream.getvalue())["data"]


def main():
    table = cli_data(["angular-table"])["rows"]
    reference = {
        "angular_table": {row.pop("term"): row for row in table},
        "anchors": {workloads.reference_key(argv): cli_data(argv)
                    for argv in workloads.quick_anchor_argvs()},
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d anchors to %s" % (len(reference["anchors"]),
                                      workloads.REFERENCE_PATH))


if __name__ == "__main__":
    main()
