"""``python -m witnesslab``: the command-line interface of :mod:`witnesslab.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
