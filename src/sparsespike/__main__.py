"""``python -m sparsespike config.json [...]``: the ``sparsespike`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
