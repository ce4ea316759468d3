"""Exception hierarchy and the process exit code attached to each family."""

EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_DATA = 4
EXIT_TOO_SMALL = 5
EXIT_OUTPUT_EXISTS = 6


class AuditError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = EXIT_INTERNAL


class ConfigError(AuditError):
    """Invalid configuration, spec, or argument."""

    exit_code = EXIT_CONFIG


class InvalidSpecError(ConfigError):
    pass


class TopologyMismatchError(ConfigError):
    pass


class MismatchedColumnsError(ConfigError):
    pass


class LengthMismatchError(ConfigError):
    pass


class MissingFileError(AuditError):
    exit_code = EXIT_MISSING_FILE


class DataFormatError(AuditError):
    """Input files present but not parseable as specified."""

    exit_code = EXIT_BAD_DATA


class MalformedRowError(DataFormatError):
    pass


class InconsistentChannelCountError(DataFormatError):
    pass


class UnknownClassLabelError(DataFormatError):
    pass


class UnbinnableWindowError(DataFormatError, ValueError):
    """A window's value range is not finite, or too narrow to split into
    the configured number of histogram bins."""


class InsufficientDataError(AuditError):
    """Data parsed fine but is too small for the requested computation."""

    exit_code = EXIT_TOO_SMALL


class TrimExceedsLengthError(InsufficientDataError):
    pass


class WindowTooShortError(InsufficientDataError):
    pass


class TooFewRowsError(InsufficientDataError):
    pass


class TooFewClassesError(InsufficientDataError):
    pass


class EmptyTrainingSetError(InsufficientDataError):
    pass


class SingleClassTrainingError(InsufficientDataError):
    pass


class OutputExistsError(AuditError):
    """Refusal to overwrite existing artifacts without --overwrite."""

    exit_code = EXIT_OUTPUT_EXISTS
