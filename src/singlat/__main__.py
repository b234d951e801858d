"""``python -m singlat``: the same command line as the ``singlat`` script."""

from .cli import main

if __name__ == "__main__":
    main()
