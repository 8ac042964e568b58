"""``python3 -m infconv``: the ``infconv`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
