"""``python -m levyot``: the ``levyot`` command line."""

import sys

from .cli import main

sys.exit(main())
