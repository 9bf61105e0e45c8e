"""`python -m qsticker ...` runs the command-line interface, as the
installed `qsticker` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
