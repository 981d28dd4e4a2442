"""``python -m etfkit``: the same command line as the ``etfkit`` script."""

from .cli import main

if __name__ == "__main__":
    main()
