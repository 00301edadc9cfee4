"""Run every stored expectation table and example through the CLI.

Usage: python scripts/reproduce_all.py [--format text|json]

Exit status is nonzero when any fixture deviates from its recorded
behaviour. Table 1 is expected to deviate: three of its printed cells
disagree with the closed form they claim to tabulate, and the fixture
records them as plain match cells so the disagreement stays visible.
"""

import argparse
import sys

from fracpast.cli import _EXAMPLES, _TABLES
from fracpast.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args()

    failures = []
    for table in _TABLES:
        print(f"--- table {table} ---")
        code = cli_main(["reproduce", "--table", table, "--format", args.format])
        if code != 0:
            failures.append(f"table {table}")
    for example in _EXAMPLES:
        print(f"--- example {example} ---")
        code = cli_main(["reproduce", "--example", example, "--format", args.format])
        if code != 0:
            failures.append(f"example {example}")

    if failures:
        print(f"deviating fixtures: {', '.join(failures)}")
        return 1
    print("all fixtures reproduced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
