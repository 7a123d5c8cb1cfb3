"""Command-line entry point: ``python -m bhdimer`` runs ``bhdimer.cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
