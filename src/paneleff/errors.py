"""Exception types shared across the package."""

from __future__ import annotations


class PanelEffError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PanelEffError):
    """An operation was called outside its contract (bad arguments, bad state)."""


class CsvParseError(PanelEffError):
    """A CSV row could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateKeyError(CsvParseError):
    """The same (dmu, period, variable) key appeared twice in an input file."""


class SchemaError(PanelEffError):
    """A variable name or role does not match the declared schema."""


class PeriodLookupError(PanelEffError):
    """A requested period label does not exist in the dataset."""


class DomainError(PanelEffError):
    """A value is outside the mathematical domain of the requested transform."""


class DegenerateColumnError(PanelEffError):
    """A column has zero variance and cannot be standardized."""

    def __init__(self, message: str, column: object = None):
        super().__init__(message)
        self.column = column


class CollinearityError(PanelEffError):
    """A design matrix is rank deficient. Carries the dependent columns."""

    def __init__(self, message: str, columns: tuple = ()):
        super().__init__(message)
        self.columns = tuple(columns)


class LpSolverError(PanelEffError):
    """The simplex solver broke down. Carries iteration diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class DeaConsistencyError(PanelEffError):
    """A DEA solve produced an internally inconsistent result on valid data."""


class ValidationFailedError(PanelEffError):
    """A dataset failed pre-analysis validation. Carries the report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(PanelEffError):
    """A pipeline configuration document is invalid."""


class StageError(PanelEffError):
    """A pipeline stage failed. Carries the stage name, apart from the
    message, and, from run_pipeline, the partial report: the report dict
    with the stages that completed and an incomplete section naming the
    failed stage."""

    def __init__(self, stage: str, message: str, partial_report=None):
        super().__init__(message)
        self.stage = stage
        self.partial_report = partial_report
