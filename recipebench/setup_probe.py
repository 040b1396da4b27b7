"""Child process for the set-up time: import floqbog and resolve the configs.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON

ARGV_JSON is a JSON list of CLI argument lists.  The parent times this
process from spawn to exit, which is what a CLI user pays before the first
compute of every invocation: interpreter start, importing floqbog, numpy
and scipy, and resolving recipe plus overrides into a config.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from floqbog import cli  # noqa: E402

parser = cli.build_parser()
for argv in json.loads(sys.argv[2]):
    args = parser.parse_args(argv)
    cli.resolve_config(args, args.command)
