"""Difficulty scoring and label-reliability simulation for hierarchically
labeled tweets.

The command line (python -m annodiff.cli) is the interface; the package
re-exports nothing, so each caller imports the submodule it uses.
"""

__version__ = "0.1.0"
