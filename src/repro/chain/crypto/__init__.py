"""Cryptographic primitives (pure-Python Keccak-256)."""

from .keccak import keccak_256

__all__ = ["keccak_256"]
