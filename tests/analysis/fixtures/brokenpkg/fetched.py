"""A008 corpus: a fetch boundary that defers validation to one batch pass.

The consume path decodes a response's frames structurally and then
validates them all at once with the lane engine. The deferred check is
only sound if it actually runs before the records are read: the broken
shape decodes and delivers, the sanctioned one batch-validates between.

The module is analyzed, never imported: ``crc32c_lanes16`` resolves only
by shape.
"""


class FetchedView:
    __slots__ = ("raw",)

    def __init__(self, raw):
        self.raw = raw  # borrows: raw

    def records(self):
        return []


class FetchRing:
    def __init__(self, buf):
        self.buf = buf

    def try_read(self):
        return None

    def consume(self):
        pass


def batch_validate(fetched):
    """Sanitizer: one lane-engine pass over everything fetched."""
    return crc32c_lanes16(fetched.raw)  # noqa: F821


def fetch_without_batch_validation(buf):
    ring = FetchRing(buf)
    payload = ring.try_read()
    if payload is None:
        return None
    try:
        fetched = FetchedView(payload)  # structural decode only: verify deferred
        found = fetched.records()  # TAINT: the deferred batch validation never ran
    finally:
        ring.consume()
    return found


def fetch_with_batch_validation(buf):
    ring = FetchRing(buf)
    payload = ring.try_read()
    if payload is None:
        return None
    try:
        fetched = FetchedView(payload)
        batch_validate(fetched)
        found = fetched.records()  # ok: the whole response was validated in one pass
    finally:
        ring.consume()
    return found
