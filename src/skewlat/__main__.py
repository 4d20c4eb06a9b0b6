"""``python -m skewlat``: the same command line as the ``skewlat`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
