"""Exception types shared across the package.

Every error raised on a documented contract violation subclasses ValueError
(or OverflowError for index-width issues) so that callers can catch broadly,
while the CLI maps the cache and config families onto distinct exit codes.
"""


class InvalidRangeError(ValueError):
    """Empty or backwards index range, or an index below 1."""


class RangeOverflowError(OverflowError):
    """Index exceeds the 64-bit width this package commits to."""


class LagTooLargeError(ValueError):
    """Correlation lag is too large for the window it is measured on."""


class GridTooCoarseError(ValueError):
    """Bin grid cannot resolve the requested frequency content."""


class ZeroMassError(ValueError):
    """Measure with zero total mass where a probability measure is needed."""


class GridMismatchError(ValueError):
    """Two measures with incompatible bin grids."""


class NotDisjointError(ValueError):
    """Shift sets that must be disjoint overlap."""


class ZeroSetTooLargeError(ValueError):
    """Inclusion-exclusion over the zero set is capped at 20 shifts."""


class WindowTooLongError(ValueError):
    """Block window runs past the end of the available data."""


class BlockExhaustedError(ValueError):
    """Shift would step past the end of a finite block."""


class SignWordTooShortError(ValueError):
    """Sign word has fewer entries than the support needs."""


class AllSquaredError(ValueError):
    """Correlation pattern with every exponent equal to 2 has no sign content."""


class CacheFormatError(ValueError):
    """Sieve cache file with a malformed header or payload, or a cache
    directory that does not exist."""


class CacheChecksumError(ValueError):
    """Sieve cache file whose checksum does not match its content."""


class ConfigError(ValueError):
    """Batch run configuration that fails validation."""


class WindowLimitError(ValueError):
    """Sign window that would grow past the window store's length limit."""
