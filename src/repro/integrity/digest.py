"""Content digests for artifacts: the integrity layer's currency.

Every shard the checkpoint layer writes is fingerprinted with a SHA-256
content digest recorded in the sweep manifest; resume and ``repro
verify`` recompute digests and compare. The rendered form is
``"sha256:<hex>"`` so the algorithm travels with the value — a future
algorithm change can coexist with archived manifests.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

__all__ = ["DIGEST_ALGORITHM", "digest_bytes", "digest_file"]

#: Algorithm prefix carried inside every rendered digest.
DIGEST_ALGORITHM = "sha256"

#: Read size for streaming file digests (shards are small; this keeps
#: memory flat even if someone points ``repro verify`` at huge archives).
_CHUNK = 1 << 20


def digest_bytes(data: bytes) -> str:
    """``"sha256:<hex>"`` digest of an in-memory payload."""
    return f"{DIGEST_ALGORITHM}:{hashlib.sha256(data).hexdigest()}"


def digest_file(path: str | Path) -> str:
    """Streaming digest of a file on disk (raises ``OSError`` if unreadable)."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_CHUNK):
            hasher.update(chunk)
    return f"{DIGEST_ALGORITHM}:{hasher.hexdigest()}"

