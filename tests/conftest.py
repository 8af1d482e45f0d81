"""Every test run draws the same Hypothesis examples: one derandomized
profile, with no example database, is registered and loaded here.  The
strategies more than one test file draws from live here too."""

from hypothesis import settings, strategies as st

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@st.composite
def partitions_of(draw, boxes):
    """A partition of ``boxes``, as a tuple of weakly decreasing positive parts."""
    parts = []
    while boxes:
        part = draw(st.integers(1, min(boxes, parts[-1] if parts else boxes)))
        parts.append(part)
        boxes -= part
    return tuple(parts)
