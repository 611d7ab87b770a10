"""Exception types shared across the pipeline stages."""

from __future__ import annotations


class Vuln2RuleError(Exception):
    """Base class for all errors raised by this package."""


# --- ingestion / corpus ---------------------------------------------------

class UnreadableFile(Vuln2RuleError):
    pass


class UnwritableFile(Vuln2RuleError):
    pass


class MalformedRecord(Vuln2RuleError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptyCorpus(Vuln2RuleError):
    pass


class MalformedLine(Vuln2RuleError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownTag(Vuln2RuleError):
    def __init__(self, tag: str, line: int):
        super().__init__(f"line {line}: unknown tag {tag!r}")
        self.tag = tag
        self.line = line


# --- embedding ------------------------------------------------------------

class DegenerateCorpus(Vuln2RuleError):
    pass


class FormatVersionMismatch(Vuln2RuleError):
    pass


# --- tagger ---------------------------------------------------------------

class EmptyDataset(Vuln2RuleError):
    pass


class DimensionMismatch(Vuln2RuleError):
    pass


class EmptySentence(Vuln2RuleError):
    pass


class LengthMismatch(Vuln2RuleError):
    pass


# --- completer ------------------------------------------------------------

class TooFewPoints(Vuln2RuleError):
    pass


class EmptyValue(Vuln2RuleError):
    pass


class SingleClass(Vuln2RuleError):
    pass


class EmptyTrainingSet(Vuln2RuleError):
    pass


class InvalidLabel(Vuln2RuleError):
    pass


# --- rule parsing / synthesis ----------------------------------------------

class RuleSyntaxError(Vuln2RuleError):
    def __init__(self, message: str, line: int, column: int, expected: str | None = None):
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


class UnbalancedParens(RuleSyntaxError):
    pass


class RangeRestrictionViolation(Vuln2RuleError):
    pass


class MissingCoreEntity(Vuln2RuleError):
    def __init__(self, which: str):
        super().__init__(f"missing core entity: {which}")
        self.which = which


class EmptyMatrix(Vuln2RuleError):
    pass


# --- pipeline / cli ---------------------------------------------------------

class MissingArtifact(Vuln2RuleError):
    def __init__(self, stage: str, detail: str = ""):
        super().__init__(f"missing artifact for stage {stage!r}" + (f": {detail}" if detail else ""))
        self.stage = stage


class MismatchedArtifacts(Vuln2RuleError):
    pass


class ConfigError(Vuln2RuleError):
    pass


class TooFewRules(Vuln2RuleError):
    pass
