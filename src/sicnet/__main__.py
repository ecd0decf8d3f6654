"""``python -m sicnet``: the same command line as the ``sicnet`` script."""

import sys

from .cli import main

sys.exit(main())
