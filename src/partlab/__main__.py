"""`python -m partlab ...` runs the plab command line."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
