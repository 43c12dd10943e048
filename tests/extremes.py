"""Float extremes the property tests draw from: signed zeros, subnormals, the
smallest normals, ordinary values, the largest floats, NaN and +-inf; and
BINADES, positive floats spread evenly over the binary exponents."""

import math

from hypothesis import strategies as st

FLOAT_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-308, -1e-308, 0.5, 1.0, -1.0, 57.1, 1e308, -1e308,
                  1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf]

BINADES = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1024))
