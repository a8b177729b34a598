"""``python -m shiftkrylov``: run the command-line interface of :mod:`shiftkrylov.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
