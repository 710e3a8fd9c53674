"""``python -m biasrank``: the command line, as the ``biasrank`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
