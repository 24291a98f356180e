"""Exception types shared across the package.

Every exception carries a stable ``code`` string so CLI reports and traces
can name failures without string-matching Python messages.
"""


class CorkCalcError(Exception):
    code = "ERROR"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class DatumFormatError(CorkCalcError):
    code = "DATUM_FORMAT"

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnknownGeneratorError(CorkCalcError):
    code = "UNKNOWN_GENERATOR"


class NotSquareError(CorkCalcError):
    code = "NOT_SQUARE"


class UnsupportedThreeHandlesError(CorkCalcError):
    code = "UNSUPPORTED_THREE_HANDLES"


class HandleNotFoundError(CorkCalcError):
    code = "HANDLE_NOT_FOUND"


class IllegalMoveError(CorkCalcError):
    code = "ILLEGAL_MOVE"


class DuplicateIdError(CorkCalcError):
    code = "DUPLICATE_ID"


class NotCancellableError(CorkCalcError):
    code = "NOT_CANCELLABLE"


class NotSplitError(CorkCalcError):
    code = "NOT_SPLIT"


class BadLinkingError(CorkCalcError):
    code = "BAD_LINKING_LENGTH"


class NotBlowdownableError(CorkCalcError):
    code = "NOT_BLOWDOWNABLE"


class NotSeparatedError(CorkCalcError):
    code = "NOT_SEPARATED"


class NotWheelFamilyError(CorkCalcError):
    code = "NOT_WHEEL_FAMILY"


class HashMismatchError(CorkCalcError):
    code = "HASH_MISMATCH"

    def __init__(self, message, step_index):
        super().__init__(message)
        self.step_index = step_index


class BadIndexError(CorkCalcError):
    code = "BAD_INDEX"


class LengthMismatchError(BadIndexError):
    code = "LENGTH_MISMATCH"


class CorrespondenceIncompleteError(CorkCalcError):
    code = "CORRESPONDENCE_INCOMPLETE"


class SearchBudgetExceededError(CorkCalcError):
    code = "SEARCH_BUDGET_EXCEEDED"


class PresentationFormatError(CorkCalcError):
    code = "PRESENTATION_FORMAT"


class FrontFormatError(CorkCalcError):
    code = "FRONT_FORMAT"

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
