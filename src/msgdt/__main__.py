"""``python -m msgdt``: the same command line as the ``msgdt`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
