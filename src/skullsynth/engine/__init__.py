"""Reverse-mode autodiff engine over numpy arrays."""
