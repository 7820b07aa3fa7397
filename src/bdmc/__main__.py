"""``python -m bdmc``: the command-line front end, runnable from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
