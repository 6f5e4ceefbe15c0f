"""RPR007 bad (serving segment): pass-only handlers swallow failures —
a removal and an already-unlinked cleanup that ignore their error."""


def reap(ranges, record):
    try:
        ranges.remove(record)
    except ValueError:  # finding: swallowed in a serving path
        pass


def unlink(segment):
    try:
        segment.unlink()
    except FileNotFoundError:  # finding: docstring body is still a no-op
        """already unlinked"""
