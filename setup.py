"""Build script; all metadata lives in setup.cfg."""

from setuptools import setup

setup()
