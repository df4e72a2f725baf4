"""Unpaired volumetric MR-to-CT translation with super-resolution and skull masking."""

__version__ = "0.1.0"

FORMAT_VERSION = 3
