"""Content digest behind every serving cache key.

Cache keys combine a content digest of the image with the raw query
string, so two requests for the same pixels and words share one entry
no matter which array object carries them.  The caches themselves are
:class:`repro.utils.cache.VersionedLRU` instances.
"""

from __future__ import annotations

import hashlib

import numpy as np


def image_digest(image: np.ndarray) -> str:
    """Content hash of an image array (dtype- and shape-sensitive)."""
    array = np.ascontiguousarray(image)
    digest = hashlib.sha1()
    digest.update(str(array.dtype).encode("ascii"))
    digest.update(str(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()
