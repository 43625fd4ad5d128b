"""ENS name normalization and validation (ENSIP-15 subset).

Implements the security core of ENSIP-15:

* NFC normalization and case folding,
* an ASCII fast path (letters, digits, hyphen, underscore; the
  ``xn--`` hyphen rule),
* non-ASCII labels restricted to a **single script** — the rule that
  blocks the classic confusable attack (``gоld`` with a Cyrillic о
  impersonating ``gold``).

Deliberately out of scope (DESIGN.md §6): emoji/ZWJ sequences and the
full confusable tables — the paper's dataset is overwhelmingly ASCII.
"""

from __future__ import annotations

import unicodedata
from functools import lru_cache

from .. import chain  # noqa: F401  (re-exported error types live there)
from ..chain.errors import InvalidName

__all__ = [
    "MIN_REGISTRABLE_LABEL_LENGTH",
    "normalize_name",
    "registrable_label",
]

ETH_TLD = "eth"

# The .eth registrar only sells labels of three or more characters;
# shorter ones are reserved (the paper's "3 Letters Club" are 3-char).
MIN_REGISTRABLE_LABEL_LENGTH = 3

_ALLOWED_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")

# Unicode scripts accepted for non-ASCII labels (one per label).
_KNOWN_SCRIPTS = (
    "LATIN", "GREEK", "CYRILLIC", "ARABIC", "HEBREW", "DEVANAGARI",
    "CJK", "HANGUL", "HIRAGANA", "KATAKANA", "THAI",
)


def _script_of(char: str) -> str | None:
    """Coarse script bucket for a letter, None for unknown characters."""
    try:
        name = unicodedata.name(char)
    except ValueError:
        return None
    for script in _KNOWN_SCRIPTS:
        if name.startswith(script):
            # CJK/kana/hangul interleave freely in real names
            if script in ("CJK", "HIRAGANA", "KATAKANA"):
                return "CJK"
            return script
    return None


def _normalize_unicode_label(label: str, original: str) -> str:
    """Validate a non-ASCII label: letters of exactly one known script
    (ASCII digits, hyphen, underscore ride along)."""
    scripts: set[str] = set()
    for char in label:
        if char in _ALLOWED_CHARS:
            continue
        if not char.isalpha():
            raise InvalidName(
                f"label {original!r} contains non-letter character {char!r}"
            )
        script = _script_of(char)
        if script is None:
            raise InvalidName(
                f"label {original!r} contains unsupported character {char!r}"
            )
        scripts.add(script)
    if len(scripts) > 1:
        raise InvalidName(
            f"label {original!r} mixes scripts {sorted(scripts)!r}"
            " (confusable risk)"
        )
    # non-ASCII labels containing ASCII letters mix scripts implicitly
    if scripts and scripts != {"LATIN"} and any(
        char.isascii() and char.isalpha() for char in label
    ):
        raise InvalidName(
            f"label {original!r} mixes ASCII letters with {scripts.pop()}"
        )
    return label


def normalize_label(label: str) -> str:
    """Normalize and validate a single ENS label.

    NFC-normalizes and case-folds, then enforces: non-empty; ASCII
    labels use ``a-z 0-9 - _`` with no hyphens in positions 3-4 (the
    punycode ``xn--`` trap); non-ASCII labels must be single-script.
    """
    folded = unicodedata.normalize("NFC", label.casefold())
    if not folded:
        raise InvalidName("empty label")
    if folded.isascii():
        bad = set(folded) - _ALLOWED_CHARS
        if bad:
            raise InvalidName(
                f"label {label!r} contains disallowed characters {sorted(bad)!r}"
            )
        if len(folded) >= 4 and folded[2:4] == "--":
            raise InvalidName(f"label {label!r} has hyphens in positions 3-4")
        return folded
    return _normalize_unicode_label(folded, label)


def normalize_name(name: str) -> str:
    """Normalize a full dotted ENS name (e.g. ``GOLD.eth`` → ``gold.eth``)."""
    labels = name.split(".")
    if any(not label for label in labels):
        raise InvalidName(f"name {name!r} has an empty label")
    return ".".join(normalize_label(label) for label in labels)


@lru_cache(maxsize=1_000_000)
def registrable_label(name_or_label: str) -> str:
    """The second-level label a registrar registration refers to.

    Accepts either a bare label (``gold``) or a 2LD name (``gold.eth``)
    and returns the normalized label, enforcing the registrar's minimum
    length. Rejects subdomains — those are created via the registry, not
    the registrar. Memoized (successes only: a rejected name raises
    :class:`InvalidName` on every call); only the ENS contracts and
    wallets call it, never the serve layer.
    """
    normalized = normalize_name(name_or_label)
    labels = normalized.split(".")
    if len(labels) == 2 and labels[1] == ETH_TLD:
        label = labels[0]
    elif len(labels) == 1:
        label = labels[0]
    else:
        raise InvalidName(
            f"{name_or_label!r} is not a registrable .eth second-level name"
        )
    if len(label) < MIN_REGISTRABLE_LABEL_LENGTH:
        raise InvalidName(
            f"label {label!r} is shorter than {MIN_REGISTRABLE_LABEL_LENGTH} characters"
        )
    return label
